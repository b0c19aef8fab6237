"""Finite-difference verification of every training loss at toy scale."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .models import ModelConfig, Stage1Model
from .objectives import (make_masking_plan, mga_loss, mgc_loss, mlm_loss,
                         valor_loss)
from .rng import SessionRng
from .temporal import (TemporalConfig, build_temporal_model, soft_dice,
                       stage2_loss)
from .vocab import Vocabulary

TOY_TEXTS = [
    "a small red square moves",
    "a blue probe crosses the frame",
    "nothing is happening here",
]
TOY_PROMPTS = ["Project the inputs into common space",
               "Describe the video with natural language"]


def _toy_model(dtype, seed: int = 0) -> Stage1Model:
    cfg = ModelConfig(dim=8, n_layers=1, n_heads=2, ff_mult=2, n_frames=1,
                      frame_size=8, patch_size=4, max_text_len=16,
                      contrast_dim=4)
    vocab = Vocabulary.build(TOY_TEXTS + TOY_PROMPTS)
    model = Stage1Model(cfg, vocab, SessionRng(seed), feature_dim=4)
    # Jitter away from the near-symmetric init so best-match token pairs in
    # the similarity have margins well above the finite-difference step;
    # otherwise the max over matches flips inside the central difference.
    jitter = SessionRng(seed + 1000)
    for p in model.parameters().values():
        p.data = p.data + jitter.normal(0.4, p.data.shape).astype(p.dtype)
    if dtype == np.float64:
        for p in model.parameters().values():
            p.data = p.data.astype(np.float64)
    return model

def _pick(model, names: List[str]) -> List[Tensor]:
    params = model.parameters()
    return [params[n] for n in names]


def _stage1_params(model: Stage1Model) -> List[Tensor]:
    return _pick(model, [
        "head.log_tau",
        "head.text_proj.weight",
        "head.video_score.bias",
        "video_encoder.patch_embed.bias",
        "video_encoder.blocks.0.attn.w_q.weight",
        "text_encoder.token_embed",
        "text_encoder.ln_out.gain",
        "decoder.cross_attn.0.w_v.weight",
        "decoder.to_logits.bias",
    ])


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
    vocab = model.vocab
    clips = [rng.uniform(0.0, 1.0, (3, 8, 8, 3), np.float32) for _ in range(2)]
    caption_ids = [vocab.encode(t) for t in TOY_TEXTS[:2]]
    params = _stage1_params(model)

    mga_prompt = model.prompt_ids(TOY_PROMPTS[0])
    cap_prompt = model.prompt_ids(TOY_PROMPTS[1])

    def f_mga():
        video = model.encode_video_batch(clips)
        text = model.encode_text_batch(
            [mga_prompt + ids for ids in caption_ids], len(mga_prompt))
        return mga_loss(model, text, video)

    results["mga_loss"] = grad_check(f_mga, params, eps)

    seqs = [cap_prompt + ids + [vocab.eos_id] for ids in caption_ids]
    ids, pad = model.pad_batch(seqs)
    maskable = model.maskable(ids, pad, len(cap_prompt))
    plan_mgc = make_masking_plan(ids, maskable, vocab.mask_id, 0.6, rng)
    plan_mlm = make_masking_plan(ids, maskable, vocab.mask_id, 0.1, rng)

    def f_mgc():
        video = model.encode_video_batch(clips)
        return mgc_loss(model, plan_mgc, pad, video)

    def f_mlm():
        video = model.encode_video_batch(clips)
        return mlm_loss(model, plan_mlm, pad, video)

    def f_valor():
        return valor_loss(model, clips, caption_ids, rng,
                          plans=(plan_mgc, plan_mlm)).total

    results["mgc_loss"] = grad_check(f_mgc, params, eps)
    results["mlm_loss"] = grad_check(f_mlm, params, eps)
    results["valor_loss"] = grad_check(f_valor, params, eps)

    tcfg = TemporalConfig(num_classes=3, feature_dim=4, hidden=4,
                          tcn_layers=2, tcn_refinements=1,
                          asf_encoder_layers=2, asf_decoder_layers=1)
    features = rng.uniform(-1.0, 1.0, (6, 4), np.float32).astype(dtype)
    labels = np.array([0, 0, 1, 1, 2, 2])

    tcn = build_temporal_model("tcn", tcfg, SessionRng(seed + 2))
    if dtype == np.float64:
        for p in tcn.parameters().values():
            p.data = p.data.astype(np.float64)
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

    asf = build_temporal_model("asformer", tcfg, SessionRng(seed + 3))
    if dtype == np.float64:
        for p in asf.parameters().values():
            p.data = p.data.astype(np.float64)
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
