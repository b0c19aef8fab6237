"""surgflow benchmark: four seeded workloads, end-to-end metrics, and an
optional traced pass that breaks the time down by library layer.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 10 --trace 0

`--workload all` (the default) runs the four workloads in one process.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.  The exit
code is 0 only when every correctness check passed.  Run it from the root
of a source checkout: it imports surgflow from ./src and nothing else.
"""

import os

# One BLAS/OpenMP thread, set before NumPy loads its thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pretrain", "temporal", "analyze", "adapt")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload; returns (metrics, ledger)."""
    from harness import STATE_DIR, Ledger, code_hash, compare_record, environment
    from tracing import OVERHEAD_OF, Tracer
    from workloads import WORKLOADS

    ledger = Ledger()
    work = STATE_DIR / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](seed, work)
        t0 = perf_counter()
        wl.prepare(ledger)
        prep_s = perf_counter() - t0
        result = wl.measure(seconds, False, ledger)
        if trace:
            tracer = Tracer()
            with tracer:
                traced = wl.measure(seconds, True, ledger)
            with ledger.operation("traced pass repeats the untraced pass"):
                ledger.check(traced.inputs == result.inputs, "inputs digest differs")
                ledger.check(traced.quality == result.quality,
                             f"quality {traced.quality} != {result.quality}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"code": code_hash(), "inputs": result.inputs,
              "quality": result.quality, "metrics": result.metrics}
    with ledger.operation("determinism against the stored run of this code and seed"):
        for diff in compare_record(name, seed, record):
            ledger.check(False, diff)

    env = environment()
    print(f"== {name} · seed {seed} · {seconds:g} s · trace {int(trace)}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"prepare: {prep_s:.3f} s (once, untimed)")
    print("end-to-end (untraced):")
    for metric, unit in spec["end_to_end"].items():
        print(f"  {metric:<14} {fmt(result.metrics[metric]):>12} {unit:<5} "
              f"{result.notes.get(metric, '')}")
    for what, value in result.extra.items():
        print(f"  ({what}: {value})")
    print("seeded quality (fixed pass; repeats exactly per seed, not bounded):")
    for key, value in result.quality.items():
        print(f"  {key:<22} {fmt(value)}")
    print(f"inputs digest: {result.inputs[:16]}")

    metrics = result.metrics
    if trace:
        metrics = tracer.metrics(traced.units)
        for m in OVERHEAD_OF:
            before, after = result.metrics[m], traced.metrics[m]
            ratio = before / after if m.endswith("_per_s") else after / before
            metrics[f"trace.overhead.{m}"] = 100.0 * (ratio - 1.0)
        spans_path = STATE_DIR / "spans" / f"{name}-seed{seed}.tsv.gz"
        tracer.write_spans(spans_path)
        print(f"per-layer (traced fixed pass; {len(tracer.span_name)} spans in "
              f"{spans_path.relative_to(ROOT)}):")
        for metric, unit in spec["per_layer"].items():
            if metrics.get(metric):
                print(f"  {metric:<36} {fmt(metrics[metric]):>12} {unit}")
        print_baseline(name, result, wl, tracer)

    print(f"checks: {ledger.attempted} attempted, {ledger.succeeded} succeeded, "
          f"{ledger.failed} failed")
    for message in ledger.messages:
        print(f"  FAILED {message}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(metrics) != set(wanted):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(wanted))} "
                         "do not match BENCHMARK.json")
    return {m: metrics[m] for m in wanted}, ledger


def print_baseline(name, result, wl, tracer) -> None:
    """This workload's rows of the baseline table."""
    rows = []
    if name == "pretrain":
        rows.append(("stage-1 valor_loss + backward + AdamW, batch 8, ms/step",
                     result.metrics["step_ms_p50"]))
    if name == "temporal":
        rows.append(("stage-2 TCN step, ms", result.metrics["step_ms_p50"]))
        rows.append(("stage-2 ASFormer step, ms", result.metrics["aux_ms_p50"]))
        rows.append(("ad.conv1d fwd+bwd, k=3, us (traced, unscaled)",
                     tracer.conv1d_us(3)))
    if name == "analyze":
        spans, _ = tracer.totals()
        calls = spans["calls"].get("models.generate_caption", 0)
        rows.append(("extract_features, ms/clip", wl.extract_ms_per_clip))
        rows.append(("caption chunk (encode + generate_caption), ms",
                     result.metrics["step_ms_p50"]))
        rows.append(("generate_caption, ms/call (traced, unscaled)",
                     spans["ns"].get("models.generate_caption", 0) / 1e6 / max(calls, 1)))
    for label, value in rows:
        print(f"  baseline: {label:<56} {value:.4g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "surgflow" / "__init__.py").is_file():
        print(f"error: no surgflow sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import surgflow
    if Path(surgflow.__file__).resolve().parent != SRC / "surgflow":
        print(f"error: surgflow imported from {surgflow.__file__}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        wl_metrics, ledger = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), spec)
        attempted += ledger.attempted
        failed += ledger.failed
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in wl_metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
