"""Span tracing of surgflow's public functions, installed from outside the
library by replacing module and class attributes while a traced pass runs.

Every wrapped call records a span (name, start, end, parent) in memory; the
spans are written out when the pass ends and the per-layer metrics are
derived from them.  A layer's self time is the time its spans cover minus
the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from surgflow import autodiff, lora, metrics, models, nn, objectives, optim
from surgflow import pipeline, serialization, synthetic, temporal
from surgflow.autodiff import Tensor

# Public autodiff ops the workloads reach.  Composite ops build their result
# from other ops, so their time includes those ops' time, which is also
# counted under the inner ops' own names.
OPS = ("add", "mul", "power", "exp", "relu", "gelu", "matmul", "reshape",
       "transpose", "concat", "stack", "pad", "getitem", "embedding",
       "reduce_sum", "reduce_mean", "reduce_max", "softmax", "log_softmax",
       "layer_norm", "cross_entropy", "conv1d")
COMPOSITE_OPS = frozenset({"embedding", "layer_norm", "cross_entropy", "conv1d"})

NN_MODULES = ("Linear", "LayerNorm", "MultiHeadAttention", "FeedForward",
              "TransformerBlock")

# Layers whose self time is reported; the others call no other layer, so
# their self time equals the time already reported for them.
SELF_TIME_LAYERS = ("autodiff", "nn", "models", "objectives", "lora",
                    "temporal", "pipeline")

# End-to-end timings whose tracing overhead is reported.
OVERHEAD_OF = ("setup_s", "video_s_per_s", "step_ms_p50", "step_ms_tail",
               "aux_ms_p50")


def _count_tape(root: Tensor) -> int:
    """Interior nodes reachable from `root` along the recorded tape."""
    seen = set()
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            count += 1
            stack.extend(node._parents)
    return count


class Tracer:
    """Collects spans and counters while installed; see `install`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self.counters = defaultdict(float)
        self._composites: list[str] = []
        self._caption_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> int:
        end = perf_counter_ns()
        self.span_end[idx] = end
        self._stack.pop()
        return end - self.span_start[idx]

    def _wrap(self, fn, name: str, after=None):
        """Span around `fn`; `after(args, result)` updates counters."""
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _wrap_op(self, fn, op: str):
        name_id = self._intern(f"autodiff.{op}")
        composite = op in COMPOSITE_OPS
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = op
            if op == "conv1d":  # split by kernel length for the baseline table
                label = f"conv1d.k{args[1].shape[0]}"
                self._composites.append(label)
            if composite:
                self._composites.append(op)
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._close(idx)
                if composite:
                    self._composites.pop()
                if label != op:
                    self._composites.pop()
                    counters[f"calls.{label}"] += 1
                    counters[f"fwd_ns.{label}"] += dt
            if isinstance(out, Tensor):
                bwd = out._backward
                if bwd is not None and not getattr(bwd, "traced", False):
                    out._backward = self._wrap_backward(
                        bwd, op, tuple(self._composites))
                if not composite and out.requires_grad:
                    counters["nodes_created"] += 1
            return out
        return traced

    def _wrap_backward(self, bwd, op: str, composites: tuple):
        """Time a node's backward closure under its op and enclosing composites."""
        name_id = self._intern(f"autodiff.{op}.bwd")
        counters = self.counters

        def traced_bwd(g):
            idx = self._open(name_id)
            try:
                bwd(g)
            finally:
                dt = self._close(idx)
            counters[f"bwd_ns.{op}"] += dt
            for c in composites:
                counters[f"bwd_ns.{c}"] += dt
        traced_bwd.traced = True
        return traced_bwd

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr: str, wrapper_of) -> None:
        """Replace a function in its module and wherever it was imported by name."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for name, mod in list(sys.modules.items()):
            if name == "surgflow" or name.startswith("surgflow."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def install(self) -> "Tracer":
        c = self.counters

        for op in OPS:
            self._patch_function(autodiff, op, lambda f, op=op: self._wrap_op(f, op))

        backward = self._wrap(Tensor.backward, "autodiff.backward")

        def traced_backward(tensor):
            c["tape_nodes"] += _count_tape(tensor)
            c["backward_calls"] += 1
            return backward(tensor)
        self._patch(Tensor, "backward", traced_backward)

        for mod in NN_MODULES:
            cls = getattr(nn, mod)
            self._patch(cls, "__call__", self._wrap(cls.__call__, f"nn.{mod}"))
        self._patch(lora.LoraLinear, "__call__",
                    self._wrap(lora.LoraLinear.__call__, "lora.adapter"))

        step = self._wrap(optim.AdamW.step, "optim.adamw_step")

        def adamw_step(opt):
            c["adamw_steps"] += 1
            c["tensors_updated"] += sum(p.grad is not None
                                        for p in opt.params.values())
            return step(opt)
        self._patch(optim.AdamW, "step", adamw_step)
        self._patch(optim.AdamW, "zero_grad",
                    self._wrap(optim.AdamW.zero_grad, "optim.zero_grad"))
        self._patch_function(optim, "clip_global_norm",
                             lambda f: self._wrap(f, "optim.clip_global_norm"))

        s1 = models.Stage1Model

        def clips(args, _result):
            c["clips_encoded"] += len(args[1])

        def decoded(args, _result):
            c["decode_calls"] += 1
            if self._caption_depth:
                ids = args[1]
                c["decoded_positions"] += ids.shape[0] * ids.shape[1]
                c["caption_tokens"] += ids.shape[0]
        self._patch(s1, "encode_video_batch",
                    self._wrap(s1.encode_video_batch, "models.encode_video", clips))
        self._patch(s1, "encode_text_batch",
                    self._wrap(s1.encode_text_batch, "models.encode_text"))
        self._patch(s1, "decode_multimodal",
                    self._wrap(s1.decode_multimodal, "models.decode", decoded))
        generate = self._wrap(s1.generate_caption, "models.generate_caption")

        def generate_caption(*args, **kwargs):
            self._caption_depth += 1
            try:
                return generate(*args, **kwargs)
            finally:
                self._caption_depth -= 1
        self._patch(s1, "generate_caption", generate_caption)

        for attr, name in (("valor_loss", "valor_loss"), ("mga_loss", "mga"),
                           ("mgc_loss", "mgc"), ("mlm_loss", "mlm"),
                           ("similarity_matrix", "similarity")):
            self._patch_function(objectives, attr,
                                 lambda f, n=name: self._wrap(f, f"objectives.{n}"))

        self._patch(temporal.MSTCN, "forward",
                    self._wrap(temporal.MSTCN.forward, "temporal.tcn_forward"))
        self._patch(temporal.ASFormer, "forward",
                    self._wrap(temporal.ASFormer.forward, "temporal.asformer_forward"))
        self._patch_function(temporal, "stage2_loss",
                             lambda f: self._wrap(f, "temporal.stage2_loss"))

        def chunks(_args, result):
            c["caption_chunks"] += len(result)
        for attr in ("extract_features", "zero_shot", "segment"):
            self._patch_function(pipeline, attr,
                                 lambda f, a=attr: self._wrap(f, f"pipeline.{a}"))
        self._patch_function(pipeline, "dense_caption",
                             lambda f: self._wrap(f, "pipeline.dense_caption", chunks))

        self._patch_function(metrics, "evaluate_timelines",
                             lambda f: self._wrap(f, "metrics.evaluate"))

        def bytes_read(args, _result):
            c["bytes_read"] += Path(args[0]).stat().st_size
        for attr in ("read_frame_grid", "read_checkpoint", "read_features"):
            self._patch_function(
                serialization, attr,
                lambda f, a=attr: self._wrap(f, f"serialization.{a}", bytes_read))
        self._patch_function(serialization, "write_checkpoint",
                             lambda f: self._wrap(f, "serialization.write_checkpoint"))
        self._patch_function(synthetic, "generate_corpus",
                             lambda f: self._wrap(f, "synthetic.generate_corpus"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per span name: (calls, inclusive ns); per layer: self ns."""
        calls = defaultdict(int)
        inclusive = defaultdict(int)
        child_ns = [0] * len(self.span_name)
        for idx, parent in enumerate(self.span_parent):
            dt = self.span_end[idx] - self.span_start[idx]
            name = self.span_name[idx]
            calls[name] += 1
            inclusive[name] += dt
            if parent >= 0:
                child_ns[parent] += dt
        self_ns = defaultdict(int)
        for idx, name in enumerate(self.span_name):
            dt = self.span_end[idx] - self.span_start[idx]
            layer = self.names[name].split(".", 1)[0]
            self_ns[layer] += dt - child_ns[idx]
        by_name_calls = {self.names[k]: v for k, v in calls.items()}
        by_name_ns = {self.names[k]: v for k, v in inclusive.items()}
        return {"calls": by_name_calls, "ns": by_name_ns}, dict(self_ns)

    def metrics(self, units: dict) -> dict:
        """Per-layer metrics.  `units` gives the workload's denominators:
        videos analysed, distinct one-second clips in them, and the adapter
        trainable fraction (0 where they do not apply)."""
        spans, self_ns = self.totals()
        calls, ns = spans["calls"], spans["ns"]
        c = self.counters

        def ms(name):
            return ns.get(name, 0) / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for op in OPS:
            out[f"autodiff.{op}.calls"] = calls.get(f"autodiff.{op}", 0)
            out[f"autodiff.{op}.fwd_ms"] = ms(f"autodiff.{op}")
            out[f"autodiff.{op}.bwd_ms"] = c[f"bwd_ns.{op}"] / 1e6
        out["autodiff.backward_ms"] = ms("autodiff.backward")
        out["autodiff.nodes_per_step"] = ratio(c["tape_nodes"], c["backward_calls"])
        out["autodiff.nodes_per_video"] = ratio(c["nodes_created"], units["videos"])
        for mod in NN_MODULES:
            out[f"nn.{mod}.calls"] = calls.get(f"nn.{mod}", 0)
            out[f"nn.{mod}.ms"] = ms(f"nn.{mod}")
        out["optim.adamw_step_ms"] = ms("optim.adamw_step")
        out["optim.clip_global_norm_ms"] = ms("optim.clip_global_norm")
        out["optim.zero_grad_ms"] = ms("optim.zero_grad")
        out["optim.tensors_updated"] = ratio(c["tensors_updated"], c["adamw_steps"])
        out["models.encode_video_ms"] = ms("models.encode_video")
        out["models.clips_encoded"] = c["clips_encoded"]
        out["models.encode_text_ms"] = ms("models.encode_text")
        out["models.decode_ms"] = ms("models.decode")
        out["models.decode_calls"] = c["decode_calls"]
        out["models.generate_caption_ms"] = ms("models.generate_caption")
        out["models.decoded_positions"] = c["decoded_positions"]
        out["models.caption_tokens"] = c["caption_tokens"]
        out["models.clip_encodes_per_clip"] = ratio(c["clips_encoded"],
                                                    units["distinct_clips"])
        out["models.decoded_per_token"] = ratio(c["decoded_positions"],
                                                c["caption_tokens"])
        for name in ("valor_loss", "mga", "mgc", "mlm", "similarity"):
            out[f"objectives.{name}_ms"] = ms(f"objectives.{name}")
        out["lora.adapter_calls"] = calls.get("lora.adapter", 0)
        out["lora.adapter_ms"] = ms("lora.adapter")
        out["lora.trainable_fraction"] = units["trainable_fraction"]
        for name in ("tcn_forward", "asformer_forward", "stage2_loss"):
            out[f"temporal.{name}_ms"] = ms(f"temporal.{name}")
        for name in ("extract_features", "zero_shot", "segment", "dense_caption"):
            out[f"pipeline.{name}_ms"] = ms(f"pipeline.{name}")
        out["pipeline.caption_chunks"] = c["caption_chunks"]
        out["metrics.evaluate_ms"] = ms("metrics.evaluate")
        out["serialization.read_frame_grid_ms"] = ms("serialization.read_frame_grid")
        out["serialization.bytes_read"] = c["bytes_read"]
        out["serialization.read_checkpoint_ms"] = ms("serialization.read_checkpoint")
        out["serialization.write_checkpoint_ms"] = ms("serialization.write_checkpoint")
        out["synthetic.generate_corpus_ms"] = ms("synthetic.generate_corpus")
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6
        return out

    def conv1d_us(self, k: int) -> float:
        """Mean forward plus backward microseconds of a conv1d with kernel k."""
        c = self.counters
        calls = c[f"calls.conv1d.k{k}"]
        if not calls:
            return 0.0
        return (c[f"fwd_ns.conv1d.k{k}"] + c[f"bwd_ns.conv1d.k{k}"]) / calls / 1e3

    def write_spans(self, path: Path) -> None:
        """All spans as gzipped TSV: name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{names[self.span_name[i]]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\t{self.span_parent[i]}\n")
