"""Shared brute-force reference implementations used by multiple test modules."""

import math

import numpy as np

from surgflow.autodiff import (GELU_F32_POLY, Tensor, concat, getitem,
                               linear, matmul, pad, power, reduce_mean,
                               reshape, softmax, transpose)
from surgflow.corpus import detect_static, median_filter_validity
from surgflow.errors import ConfigError, DimensionError, NumericError
from surgflow.models import DecodeCache
from surgflow.nn import Module, causal_mask
from surgflow.objectives import load_manifest, valor_loss
from surgflow.optim import (CLIP_NORM, AdamW, CosineWarmupSchedule,
                            clip_global_norm)
from surgflow.rng import SessionRng
from surgflow.temporal import stage2_loss


def max_empty_rect_area(width, height, boxes):
    """Exhaustive maximal empty rectangle via coordinate compression.

    A maximal empty rectangle can always grow until each side touches a box
    edge or the frame border, so only compressed coordinates need checking.
    """
    xs = sorted({0, width} | {b.x0 for b in boxes} | {b.x1 for b in boxes})
    ys = sorted({0, height} | {b.y0 for b in boxes} | {b.y1 for b in boxes})
    best = 0
    for i, x0 in enumerate(xs):
        for x1 in xs[i + 1:]:
            for j, y0 in enumerate(ys):
                for y1 in ys[j + 1:]:
                    if any(b.intersects(x0, y0, x1, y1) for b in boxes):
                        continue
                    best = max(best, (x1 - x0) * (y1 - y0))
    return best


def brute_similarity(e_t, w_t, e_v, w_v):
    """Nested-loop fine-grained similarity for one text/video pair.

    For each token on one side, find its best-matching token on the other
    side; weight those maxima and average the two directions.
    """
    e_t, w_t = np.asarray(e_t, np.float64), np.asarray(w_t, np.float64)
    e_v, w_v = np.asarray(e_v, np.float64), np.asarray(w_v, np.float64)
    t2v = 0.0
    for i in range(e_t.shape[0]):
        best = -np.inf
        for j in range(e_v.shape[0]):
            best = max(best, float(e_t[i] @ e_v[j]))
        t2v += w_t[i] * best
    v2t = 0.0
    for j in range(e_v.shape[0]):
        best = -np.inf
        for i in range(e_t.shape[0]):
            best = max(best, float(e_v[j] @ e_t[i]))
        v2t += w_v[j] * best
    return 0.5 * (t2v + v2t)


def product_sum_last(a):
    """`a` summed along its last axis, which is kept, as the product
    a @ ones[n, 1]: the sum rule of the autodiff kernels, in NumPy."""
    return np.matmul(a, np.ones((a.shape[-1], 1), a.dtype))


def product_sum_rows(a):
    """The rows of 2-D `a` summed as the product ones[M] @ a: the sum rule's
    row sum, in NumPy."""
    return np.matmul(np.ones(a.shape[0], a.dtype), a)


def pairwise_sum_last(a):
    """a.sum(axis=-1, keepdims=True), NumPy's pairwise sum: the autodiff
    kernels' last-axis sum before the sum rule."""
    return a.sum(axis=-1, keepdims=True)


def pairwise_sum_rows(a):
    """a.sum(axis=0) of 2-D `a`, NumPy's pairwise sum: the kernels' row sum
    before the sum rule."""
    return a.sum(axis=0)


def unfused_conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
                   dilation: int = 1) -> Tensor:
    """Same-padded dilated 1-D convolution composed from tape ops (pad, one
    getitem per tap, concat, reshape, matmul, bias add): the multi-node
    formulation that autodiff.conv1d computes as a single node."""
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError("conv1d kernel length must be odd")
    if x.ndim != 2 or kernel.ndim != 3 or x.shape[1] != kernel.shape[1]:
        raise DimensionError(f"conv1d shape mismatch: {x.shape} vs {kernel.shape}")
    half = (k // 2) * dilation
    xp = pad(x, ((half, half), (0, 0)))
    t = x.shape[0]
    taps = [getitem(xp, slice(i * dilation, i * dilation + t)) for i in range(k)]
    stacked = concat(taps, axis=1)  # [T, k*C_in]
    w = reshape(kernel, (k * kernel.shape[1], kernel.shape[2]))
    out = matmul(stacked, w)
    if bias is not None:
        out = out + bias
    return out


def unfused_linear(x: Tensor, weight: Tensor,
                   bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias as a matmul node and a bias-add node: the
    formulation that autodiff.linear computes as a single node."""
    out = matmul(x, weight)
    if bias is not None:
        out = out + bias
    return out


def unfused_lora_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                        a: Tensor, b: Tensor, scaling: float) -> Tensor:
    """x @ weight + bias + scaling * (x @ a.T) @ b.T as seven nodes (linear,
    two transposes, two matmuls, mul and add): the formulation that
    autodiff.linear with `low_rank=(a, b, scaling)` computes as one node."""
    out = linear(x, weight, bias)
    low = matmul(x, transpose(a))
    return out + scaling * matmul(low, transpose(b))


def unfused_layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
                       eps: float = 1e-5) -> Tensor:
    """Layer normalization composed from mean, subtract, square, power and
    affine tape ops: the formulation autodiff.layer_norm computes as a
    single node."""
    mu = reduce_mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = reduce_mean(centered * centered, axis=-1, keepdims=True)
    inv = power(var + eps, -0.5)
    return centered * inv * gain + bias


def unfused_attention(q: Tensor, k: Tensor, v: Tensor,
                      bias: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v composed from transpose, matmul,
    scale, bias-add and softmax tape ops: the formulation autodiff.attention
    computes as a single node."""
    axes = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scores = matmul(q, transpose(k, axes)) * (1.0 / np.sqrt(q.shape[-1]))
    if bias is not None:
        scores = scores + Tensor(bias)
    return matmul(softmax(scores, axis=-1), v)


def reference_linear(x, weight, bias, g):
    """x @ weight + bias and the gradients of x, weight and bias (None
    without a bias) for upstream gradient `g`, in the out-of-place
    arithmetic autodiff.linear computes partly in place, under the sum
    rule."""
    val = np.matmul(x, weight)
    if bias is not None:
        val = val + bias
    d_in, d_out = weight.shape
    grads = [np.matmul(g, weight.T),
             x.reshape(-1, d_in).T @ g.reshape(-1, d_out),
             None if bias is None else product_sum_rows(g.reshape(-1, d_out))]
    return val, grads


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """Layer normalization over the last axis and the gradients of x, gain
    and bias for upstream gradient `g`, in the out-of-place arithmetic
    autodiff.layer_norm computes in place, under the sum rule."""
    dim = x.shape[-1]
    mu = product_sum_last(x) / dim
    centered = x - mu
    var = product_sum_last(centered * centered) / dim
    inv = (var + np.asarray(eps, var.dtype)) ** -0.5
    x_hat = centered * inv
    val = x_hat * gain + bias
    d = g * gain
    dx = inv * (d - product_sum_last(d) / dim - x_hat *
                (product_sum_last(d * x_hat) / dim))
    return val, [dx, product_sum_rows((g * x_hat).reshape(-1, dim)),
                 product_sum_rows(g.reshape(-1, dim))]


def math_erf_cdf(x):
    """0.5 * (1 + math.erf(x * (1 / sqrt(2)))) of each element of float64
    `x`, in Python floats, as an array of x's shape."""
    return np.array([0.5 * (1.0 + math.erf(v * (1.0 / math.sqrt(2.0))))
                     for v in np.ravel(x).tolist()],
                    np.float64).reshape(np.shape(x))


def reference_gelu(x, g):
    """GELU and its input gradient for upstream gradient `g`, in the
    out-of-place arithmetic autodiff.gelu computes in place: the normal cdf
    from the standard library's math.erf for float64, and for float32 as
    0.5 * (1 + tanh(x * P(x * x))) with P = autodiff.GELU_F32_POLY by
    Horner's rule."""
    if x.dtype == np.float64:
        cdf = math_erf_cdf(x)
    else:
        u = x * x
        p = GELU_F32_POLY[-1]
        for c in GELU_F32_POLY[-2::-1]:
            p = p * u + c
        cdf = 0.5 * (1.0 + np.tanh(x * p))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, [g * (cdf + x * pdf)]


def reference_attention(q, k, v, g, bias=None):
    """softmax(q k^T / sqrt(d) + bias) v and the gradients of q, k and v for
    upstream gradient `g`, in the out-of-place arithmetic
    autodiff.attention computes in place, under the sum rule."""
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), q.dtype)
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / product_sum_last(e)
    dp = np.matmul(g, np.swapaxes(v, -1, -2))
    ds = p * (dp - product_sum_last(dp * p)) * scale
    return np.matmul(p, v), [np.matmul(ds, k),
                             np.matmul(np.swapaxes(ds, -1, -2), q),
                             np.matmul(np.swapaxes(p, -1, -2), g)]


def reference_multihead_attention(q, k, v, g, bias=None, heads=1):
    """Multi-head attention on q, k, v [..., T, heads * d] and the gradients
    of q, k and v for upstream gradient `g` [..., Tq, heads * dv]: each
    operand split into heads by a reshape to [..., T, heads, d] and a
    transpose to [..., heads, T, d], `reference_attention` per head, and the
    value and gradients merged back by the inverse transpose and a reshape;
    the layout autodiff.attention takes with `heads`."""
    def split(x):
        x = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
        axes = list(range(x.ndim))
        axes[-3], axes[-2] = axes[-2], axes[-3]
        return np.transpose(x, axes)

    def merge(x):
        axes = list(range(x.ndim))
        axes[-3], axes[-2] = axes[-2], axes[-3]
        x = np.transpose(x, axes)
        return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))

    val, grads = reference_attention(split(q), split(k), split(v), split(g),
                                     bias)
    return merge(val), [merge(grad) for grad in grads]


def reference_clip_global_norm(params, max_norm):
    """Gradient clipping one tensor at a time, out of place: the pre-clip
    norm is the square root of each grad's float64 sum of squares, summed
    in parameter order, as optim.clip_global_norm computes it over groups
    of tensors.  Rebinds each grad to its scaled copy when the norm exceeds
    `max_norm`, and returns the norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * np.asarray(scale, dtype=p.grad.dtype)
    return norm


def reference_adamw_step(params, m, v, step, lr, betas=(0.9, 0.999),
                         eps=1e-8, weight_decay=0.01):
    """AdamW step number `step` (from 1) in its out-of-place arithmetic, one
    tensor at a time: the update optim.AdamW.step computes in place over
    groups of tensors.  Updates the moment arrays of `m` and `v` in place
    and rebinds the `data` of each tensor in `params` that has a gradient;
    a tensor whose grad is None is left untouched."""
    b1, b2 = betas
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad.astype(p.dtype)
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        p.data = p.data - np.asarray(lr, p.dtype) * (
            update + weight_decay * p.data)


def uncached_generate(model, video, prompt_ids, max_len=16):
    """Greedy captioning that decodes prompt + committed tokens + MASK from
    scratch at every step: the loop Stage1Model.generate_caption computes
    with a K/V cache.  Returns (token ids, last-position logits per step)."""
    generated, rows = [], []
    budget = model.cfg.max_text_len - len(prompt_ids) - 1
    for _ in range(min(max_len, budget)):
        ids = np.asarray([list(prompt_ids) + generated + [model.vocab.mask_id]],
                         np.int64)
        _, logits = model.decode_multimodal(ids, np.zeros_like(ids, bool),
                                            video, causal=True)
        rows.append(logits.data[0, -1])
        nxt = int(np.argmax(rows[-1]))
        if nxt == model.vocab.eos_id:
            break
        generated.append(nxt)
    return generated, rows


class ConcatDecodeCache(DecodeCache):
    """The K/V cache before its preallocated buffers: a continuation
    concatenates the cached keys and values with the new ones (a getitem
    and a concat per layer for each) and keeps the result.  The reference
    whose bits models.DecodeCache's in-place buffers keep."""

    def extend(self, layer, k, v, capacity=None):
        if self.length:
            past_k, past_v = self.text[layer]
            k = concat([past_k[:, :self.length], k], axis=1)
            v = concat([past_v[:, :self.length], v], axis=1)
        self.text[layer] = (k, v)
        return k, v


def reference_decode(model, ids, pad_mask, video, causal):
    """The multimodal decoder over whole padded `ids`, one layer at a time:
    self-attention over the ids under the causal mask and key padding,
    cross-attention from the same `video.flat` node into every layer, and
    the feed-forward.  The computation Stage1Model.decode_multimodal does
    without a cache.  Returns (hidden, logits)."""
    decoder, text = model.decoder, model.text_encoder
    vid = video.flat
    x = text.embed(ids)
    mask = causal_mask(ids.shape[1]) if causal else None
    for block, c_ln, c_attn in zip(text.blocks, decoder.cross_ln,
                                   decoder.cross_attn):
        normed = block.ln1(x)
        x = x + block.attn(normed, normed, attn_mask=mask, key_pad=pad_mask)
        x = x + c_attn(c_ln(x), vid)
        x = x + block.ff(block.ln2(x))
    hidden = decoder.ln_out(x)
    return hidden, decoder.to_logits(hidden)


def reference_expand(x0, y0, x1, y1, width, height, boxes, order):
    """Greedily expand each side (in `order`) as far as feasible, one
    branch per side: the rule corpus._expand keeps once per axis."""
    for side in order:
        if side == 0:     # left
            limit = 0
            for b in boxes:
                if b.x1 <= x0 and b.intersects(b.x0, y0, b.x1, y1):
                    limit = max(limit, b.x1)
            x0 = limit
        elif side == 1:   # right
            limit = width
            for b in boxes:
                if b.x0 >= x1 and b.intersects(b.x0, y0, b.x1, y1):
                    limit = min(limit, b.x0)
            x1 = limit
        elif side == 2:   # top
            limit = 0
            for b in boxes:
                if b.y1 <= y0 and b.intersects(x0, b.y0, x1, b.y1):
                    limit = max(limit, b.y1)
            y0 = limit
        else:             # bottom
            limit = height
            for b in boxes:
                if b.y0 >= y1 and b.intersects(x0, b.y0, x1, b.y1):
                    limit = min(limit, b.y0)
            y1 = limit
    return x0, y0, x1, y1


def reference_frame_validity(frames, fps):
    """The validity loop as `surgflow filter` ran it inline: each frame
    against its predecessor, frame 0 copying frame 1, then the median."""
    valid = np.ones(len(frames), bool)
    for i in range(1, len(frames)):
        valid[i] = detect_static(frames[i], frames[i - 1])
    if len(frames) > 1:
        valid[0] = valid[1]
    return median_filter_validity(valid, fps)


def reference_parameters(module, prefix=""):
    """Module.parameters as it walked the attributes before the walk was
    shared with modules(): `_` names skipped, a Tensor is a parameter, a
    Module (alone or in a list or tuple) a child."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        key = f"{prefix}{name}"
        if isinstance(value, Tensor):
            out[key] = value
        elif isinstance(value, Module):
            out.update(reference_parameters(value, f"{key}."))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, Module):
                    out.update(reference_parameters(item, f"{key}.{i}."))
    return out


def reference_modules(module):
    """Module.modules by the same walk, before it was shared."""
    yield module
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if isinstance(value, Module):
            yield from reference_modules(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Module):
                    yield from reference_modules(item)


def left_edge_rasterize(timeline, fps=1.0):
    """Left-edge rasterisation: frame i takes the label at i / fps."""
    labels = []
    duration = timeline.duration
    n = int(round(duration * fps))
    for i in range(n):
        t = i / fps
        labels.append(timeline.label_at(t))
    return labels


def _check_finite_step(step, loss, grad_norm):
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise NumericError(f"step {step}: non-finite loss ({loss}) or "
                           f"gradient norm ({grad_norm})")


def reference_pretrain(model, manifest_path, clip_store, cfg):
    """Stage-1 training written out as its own loop, with its own schedule,
    optimizer and step counter: the loop objectives.pretrain runs through
    optim.train.  Returns the curve rows; writes no file."""
    records = load_manifest(manifest_path)
    rng = SessionRng(cfg.seed)
    caption_ids = [model.vocab.encode(r["text"]) for r in records]

    steps_per_epoch = math.ceil(len(records) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)
    if total_steps > 1:
        schedule = CosineWarmupSchedule(
            cfg.lr_max, cfg.lr_min,
            warmup_steps=min(steps_per_epoch, total_steps - 1),
            total_steps=total_steps)
    else:
        schedule = None  # single-step run: constant peak rate
    params = model.parameters()
    opt = AdamW(params, lr=cfg.lr_max)

    rows = []
    step = 0
    done = False
    for _ in range(cfg.epochs):
        if done:
            break
        order = rng.permutation(len(records))
        for start in range(0, len(records), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            clips = [clip_store.clip(records[i]) for i in batch_idx]
            ids = [caption_ids[i] for i in batch_idx]
            opt.zero_grad()
            report = valor_loss(model, clips, ids, rng)
            report.total.backward()
            norm = clip_global_norm(params, CLIP_NORM)
            _check_finite_step(step, float(report.total.data), norm)
            opt.lr = schedule.lr(step) if schedule else cfg.lr_max
            opt.step()
            rows.append({
                "step": step,
                "lr": opt.lr,
                "L_MGA": float(report.mga.data),
                "L_MGC": float(report.mgc.data),
                "L_MLM": float(report.mlm.data),
                "L_total": float(report.total.data),
                "grad_norm": norm,
                "clipped": norm > CLIP_NORM and norm > 0,
            })
            step += 1
            if step >= total_steps:
                done = True
                break
    return rows


def reference_train_temporal(model, dataset, cfg):
    """Stage-2 training written out as its own loop, one video per step:
    the loop temporal.train_temporal runs through optim.train.  Returns the
    per-epoch mean loss curve."""
    rng = SessionRng(cfg.seed)
    n = len(dataset)
    total_steps = cfg.epochs * n
    if total_steps > 1:
        schedule = CosineWarmupSchedule(cfg.lr_max, cfg.lr_min,
                                        warmup_steps=min(n, total_steps - 1),
                                        total_steps=total_steps)
    else:
        schedule = None  # single-step run: constant peak rate
    params = model.parameters()
    opt = AdamW(params, lr=cfg.lr_max)
    curve = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for idx in order:
            seq, labels = dataset[idx]
            opt.zero_grad()
            outputs = model.forward(seq.features)
            loss = stage2_loss(outputs, labels, model.variant, model.cfg)
            loss.backward()
            _check_finite_step(step, float(loss.data),
                               clip_global_norm(params, CLIP_NORM))
            opt.lr = schedule.lr(step) if schedule else cfg.lr_max
            opt.step()
            epoch_losses.append(float(loss.data))
            step += 1
        curve.append(float(np.mean(epoch_losses)))
    return curve
