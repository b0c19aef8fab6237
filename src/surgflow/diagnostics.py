"""Finite-difference verification of every training loss at toy scale."""

from __future__ import annotations

import copy
from typing import Dict, List

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .models import ModelConfig, Stage1Model, stage1_vocabulary
from .objectives import (mga_loss, mgc_loss, mlm_loss, stage1_batch,
                         valor_loss)
from .rng import SessionRng
from .temporal import (TemporalConfig, build_temporal_model, soft_dice,
                       stage2_loss)

# each gradcheck mode's dtype and the largest relative error it passes
TOLERANCES = {"f32": (np.float32, 1e-3), "f64": (np.float64, 1e-5)}

TOY_TEXTS = [
    "a small red square moves",
    "a blue probe crosses the frame",
    "nothing is happening here",
]


def _cast(module, dtype):
    """Cast every parameter to float64 when `dtype` asks for it."""
    if dtype == np.float64:
        for p in module.parameters().values():
            p.data = p.data.astype(np.float64)
    return module


def _toy_model(dtype, seed: int = 0) -> Stage1Model:
    cfg = ModelConfig(dim=8, n_layers=1, n_heads=2, ff_mult=2, n_frames=1,
                      frame_size=8, patch_size=4, max_text_len=16,
                      contrast_dim=4)
    model = Stage1Model(cfg, stage1_vocabulary(TOY_TEXTS), SessionRng(seed))
    # Jitter away from the near-symmetric init so best-match token pairs in
    # the similarity have margins well above the finite-difference step;
    # otherwise the max over matches flips inside the central difference.
    jitter = SessionRng(seed + 1000)
    for p in model.parameters().values():
        p.data = p.data + jitter.normal(0.4, p.data.shape).astype(p.dtype)
    return _cast(model, dtype)


def _pick(model, names: List[str]) -> List[Tensor]:
    params = model.parameters()
    return [params[n] for n in names]


def gradient_suite(dtype=np.float32, seed: int = 95) -> Dict[str, float]:
    """Max relative finite-difference error per loss at toy dimensions.

    The default seed is chosen so the similarity's best-match margins are
    wide; see _toy_model.  float32 uses a 1e-3 central-difference step,
    float64 the library default.
    """
    eps = 1e-3 if dtype == np.float32 else None
    results: Dict[str, float] = {}
    rng = SessionRng(seed + 1)
    model = _toy_model(dtype, seed)
    clips = [rng.uniform(0.0, 1.0, (3, 8, 8, 3), np.float32) for _ in range(2)]
    caption_ids = [model.vocab.encode(t) for t in TOY_TEXTS[:2]]
    params = _pick(model, [
        "head.log_tau",
        "head.text_proj.weight",
        "head.video_score.bias",
        "video_encoder.patch_embed.bias",
        "video_encoder.blocks.0.ln1.shift",
        "video_encoder.blocks.0.attn.w_q.weight",
        "text_encoder.blocks.0.attn.w_k.weight",
        "text_encoder.token_embed",
        "text_encoder.ln_out.gain",
        "decoder.cross_attn.0.w_v.weight",
        "decoder.to_logits.bias",
    ])

    plan_state = copy.deepcopy(rng)
    batch = stage1_batch(model, caption_ids, rng)

    def f_mga():
        video = model.encode_video_batch(clips)
        return mga_loss(model, model.encode_text_batch(batch.mga_ids), video)

    def f_mgc():
        video = model.encode_video_batch(clips)
        return mgc_loss(model, batch.mgc, batch.pad, video)

    def f_mlm():
        video = model.encode_video_batch(clips)
        return mlm_loss(model, batch.mlm, batch.pad, video)

    def f_valor():
        # every call draws `batch`'s plans again, from the same state
        return valor_loss(model, clips, caption_ids,
                          copy.deepcopy(plan_state)).total

    results["mga_loss"] = grad_check(f_mga, params, eps)
    results["mgc_loss"] = grad_check(f_mgc, params, eps)
    results["mlm_loss"] = grad_check(f_mlm, params, eps)
    results["valor_loss"] = grad_check(f_valor, params, eps)

    tcfg = TemporalConfig(num_classes=3, feature_dim=4, hidden=4,
                          tcn_layers=2, tcn_refinements=1,
                          asf_encoder_layers=2, asf_decoder_layers=1)
    features = rng.uniform(-1.0, 1.0, (6, 4), np.float32).astype(dtype)
    labels = np.array([0, 0, 1, 1, 2, 2])

    tcn = _cast(build_temporal_model("tcn", tcfg, SessionRng(seed + 2)), dtype)
    tcn_params = _pick(tcn, [
        "prediction.conv_in.kernel",
        "prediction.up.0.kernel",
        "prediction.fuse.1.kernel",
        "prediction.conv_out.bias",
        "refinements.0.layers.0.conv.kernel",
        "refinements.0.conv_out.kernel",
    ])
    # The smoothing term stops gradients through the previous frame, so the
    # finite-difference surface must hold that frame fixed too: freeze the
    # centre-point log-probabilities and difference against them.
    center_prev = [ad.log_softmax(t, axis=1).data[:-1].copy()
                   for t in tcn.forward(features)]

    def f_tcn():
        return stage2_loss(tcn.forward(features), labels, "tcn", tcfg,
                           prev=center_prev)

    results["tcn_loss"] = grad_check(f_tcn, tcn_params, eps)

    asf = _cast(build_temporal_model("asformer", tcfg, SessionRng(seed + 3)),
                dtype)
    asf_params = _pick(asf, [
        "embed.kernel",
        "encoder.0.conv.kernel",
        "encoder.1.attn.attn.w_q.weight",
        "enc_out.kernel",
        "decoders.0.attn.w_v.weight",
        "dec_out.0.bias",
    ])

    def f_asf():
        return stage2_loss(asf.forward(features), labels, "asformer", tcfg)

    results["ce_dice_loss"] = grad_check(f_asf, asf_params, eps)

    logits = Tensor(rng.uniform(-1.0, 1.0, (6, 3), np.float32).astype(dtype),
                    requires_grad=True)

    def f_dice():
        return soft_dice(logits, labels)

    results["soft_dice"] = grad_check(f_dice, [logits], eps)
    return results
