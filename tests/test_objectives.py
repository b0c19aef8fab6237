"""Stage-1 objectives: contrastive closed forms, the fine-grained similarity
against a nested-loop oracle, masking-plan properties, and the combined loss."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_TEXTS, make_tiny_model, tiny_clips
from oracles import brute_similarity, reference_pretrain
from surgflow import lora, objectives
from surgflow.autodiff import Tensor
from surgflow.errors import ConfigError, InputError, NumericError
from surgflow.models import CAPTION_PROMPT, MGA_PROMPT
from surgflow.objectives import (ClipStore, MaskingPlan, PretrainConfig,
                                 load_manifest, make_masking_plan, mga_loss,
                                 mga_loss_from_scores, mgc_loss, mlm_loss,
                                 pretrain, similarity_matrix, stage1_batch,
                                 valor_loss)
from surgflow.rng import SessionRng

ONE = Tensor(np.array(1.0, np.float64))


def scores(matrix):
    return Tensor(np.asarray(matrix, np.float64))


class TestContrastiveClosedForms:
    def test_single_pair_is_zero(self):
        loss = mga_loss_from_scores(scores([[2.7]]), ONE)
        assert abs(loss.item()) < 1e-9

    def test_identity_two_pairs(self):
        loss = mga_loss_from_scores(scores(np.eye(2)), ONE)
        # both directions: 2 * 2 * 0.5 * log(1 + e^-1)
        assert loss.item() == pytest.approx(0.62652, abs=1e-5)
        expected = 2.0 * math.log(1.0 + math.exp(-1.0))
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("b", [2, 4])
    def test_identity_beats_uniform(self, b):
        ident = mga_loss_from_scores(scores(np.eye(b)), ONE)
        unif = mga_loss_from_scores(scores(np.ones((b, b))), ONE)
        assert ident.item() < unif.item()

    def test_uniform_scores_give_log_b(self):
        b = 3
        loss = mga_loss_from_scores(scores(np.zeros((b, b))), ONE,
                                    normalize_by_batch=True)
        assert loss.item() == pytest.approx(math.log(b), abs=1e-9)

    def test_normalize_by_batch_divides(self):
        s = scores(SessionRng(0).normal(1.0, (3, 3), np.float64))
        raw = mga_loss_from_scores(s, ONE)
        norm = mga_loss_from_scores(s, ONE, normalize_by_batch=True)
        assert norm.item() == pytest.approx(raw.item() / 3.0)

    def test_temperature_sharpens(self):
        s = scores(np.eye(2))
        hot = mga_loss_from_scores(s, Tensor(np.array(0.5, np.float64)))
        cold = mga_loss_from_scores(s, ONE)
        assert hot.item() < cold.item()

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            mga_loss_from_scores(scores(np.zeros((0, 0))), ONE)


class TestSimilarity:
    def test_hand_example(self):
        # one text token matching two video tokens with dots 0.2 and 0.8 and
        # uniform weights: 0.5 * max(0.2, 0.8) + 0.5 * (0.5*0.2 + 0.5*0.8)
        e_t = Tensor(np.array([[[1.0]]], np.float64))
        w_t = Tensor(np.array([[1.0]], np.float64))
        e_v = Tensor(np.array([[[0.2], [0.8]]], np.float64))
        w_v = Tensor(np.array([[0.5, 0.5]], np.float64))
        s = similarity_matrix(e_t, w_t, None, e_v, w_v)
        assert s.data[0, 0] == pytest.approx(0.65, abs=1e-12)

    def test_against_nested_loop_oracle(self):
        rng = SessionRng(1)
        for _ in range(100):
            b, b2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n_t = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            e_t = rng.normal(1.0, (b, n_t, d), np.float64)
            e_t /= np.linalg.norm(e_t, axis=-1, keepdims=True)
            e_v = rng.normal(1.0, (b2, m, d), np.float64)
            e_v /= np.linalg.norm(e_v, axis=-1, keepdims=True)
            w_t = rng.uniform(0, 1, (b, n_t), np.float64) + 0.1
            w_t /= w_t.sum(axis=1, keepdims=True)
            w_v = rng.uniform(0, 1, (b2, m), np.float64) + 0.1
            w_v /= w_v.sum(axis=1, keepdims=True)
            s = similarity_matrix(Tensor(e_t), Tensor(w_t), None,
                                  Tensor(e_v), Tensor(w_v))
            for i in range(b):
                for j in range(b2):
                    want = brute_similarity(e_t[i], w_t[i], e_v[j], w_v[j])
                    assert s.data[i, j] == pytest.approx(want, abs=1e-12)

    def test_padded_tokens_are_inert(self):
        rng = SessionRng(2)
        e_t = rng.normal(1.0, (1, 3, 4), np.float64)
        e_v = rng.normal(1.0, (1, 5, 4), np.float64)
        w_t = np.array([[0.3, 0.7, 0.0]])
        w_v = np.full((1, 5), 0.2)
        pad = np.array([[False, False, True]])
        with_pad = similarity_matrix(Tensor(e_t), Tensor(w_t), pad,
                                     Tensor(e_v), Tensor(w_v))
        trimmed = similarity_matrix(Tensor(e_t[:, :2]), Tensor(w_t[:, :2]),
                                    None, Tensor(e_v), Tensor(w_v))
        assert with_pad.data[0, 0] == pytest.approx(trimmed.data[0, 0], abs=1e-5)

    def test_empty_tokens_rejected(self):
        e = Tensor(np.zeros((1, 0, 4)))
        w = Tensor(np.zeros((1, 0)))
        with pytest.raises(InputError):
            similarity_matrix(e, w, None, e, w)


class TestMaskingPlan:
    def make_inputs(self, rng, batch=4, length=12, vocab=30):
        ids = rng.integers(5, vocab, size=(batch, length)).astype(np.int64)
        flags = rng.uniform(0, 1, (batch, length)) < 0.6
        flags[:, :3] = False  # protected prompt region
        return ids, np.asarray(flags, bool)

    def test_count_positions_and_substitution_1000_plans(self):
        rng = SessionRng(3)
        for trial in range(1000):
            ids, flags = self.make_inputs(rng)
            ratio = float(rng.uniform(0.05, 1.0))
            plan = make_masking_plan(ids, flags, mask_id=1, ratio=ratio, rng=rng)
            for i in range(ids.shape[0]):
                cand = np.flatnonzero(flags[i])
                pos = plan.positions[i]
                if len(cand) == 0:
                    assert len(pos) == 0
                    continue
                assert len(pos) == math.ceil(ratio * len(cand))
                assert set(pos.tolist()) <= set(cand.tolist())
                assert np.all(plan.masked_ids[i, pos] == 1)
                untouched = np.setdiff1d(np.arange(ids.shape[1]), pos)
                np.testing.assert_array_equal(plan.masked_ids[i, untouched],
                                              ids[i, untouched])
            np.testing.assert_array_equal(plan.original_ids, ids)
            assert np.all(~flags[:, :3])
            for pos in plan.positions:
                assert np.all(pos >= 3)

    def test_full_ratio_masks_everything_maskable(self):
        rng = SessionRng(4)
        ids, flags = self.make_inputs(rng)
        plan = make_masking_plan(ids, flags, mask_id=1, ratio=1.0, rng=rng)
        for i in range(ids.shape[0]):
            np.testing.assert_array_equal(plan.positions[i], np.flatnonzero(flags[i]))

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_invalid_ratio(self, ratio):
        rng = SessionRng(5)
        ids, flags = self.make_inputs(rng)
        with pytest.raises(ConfigError):
            make_masking_plan(ids, flags, 1, ratio, rng)

    def test_empty_plan_rejected_by_losses(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(6), 1))
        ids = np.array([[7, 8, 9]], np.int64)
        pad = np.zeros_like(ids, bool)
        plan = MaskingPlan([np.empty(0, np.int64)], ids.copy(), ids.copy())
        with pytest.raises(InputError):
            mgc_loss(tiny_model, plan, pad, video)


class TestValorLoss:
    def test_total_is_mean_and_components_match(self, tiny_model):
        model = tiny_model
        vocab = model.vocab
        rng = SessionRng(7)
        clips = tiny_clips(rng, 2)
        caption_ids = [vocab.encode(t) for t in TINY_TEXTS[:2]]

        cap_prompt = model.prompt_ids(CAPTION_PROMPT)
        seqs = [cap_prompt + ids + [vocab.eos_id] for ids in caption_ids]
        ids, pad = model.pad_batch(seqs)
        maskable = ~pad & ~np.isin(ids, sorted(vocab.reserved_ids))
        maskable[:, :len(cap_prompt)] = False
        plan_rng = SessionRng(8)
        plans = (make_masking_plan(ids, maskable, vocab.mask_id, 0.6, plan_rng),
                 make_masking_plan(ids, maskable, vocab.mask_id, 0.1, plan_rng))
        batch = stage1_batch(model, caption_ids, SessionRng(8))
        np.testing.assert_array_equal(batch.pad, pad)
        for want, got in zip(plans, (batch.mgc, batch.mlm)):
            np.testing.assert_array_equal(got.masked_ids, want.masked_ids)
            np.testing.assert_array_equal(got.original_ids, want.original_ids)

        report = valor_loss(model, clips, caption_ids, SessionRng(8))
        total = report.total.item()
        assert total == pytest.approx(
            (report.mga.item() + report.mgc.item() + report.mlm.item()) / 3.0,
            abs=1e-6)

        # recompute each component independently from the same inputs
        video = model.encode_video_batch(clips)
        mga_prompt = model.prompt_ids(MGA_PROMPT)
        assert batch.mga_ids == [mga_prompt + list(c) for c in caption_ids]
        text = model.encode_text_batch(batch.mga_ids)
        assert mga_loss(model, text, video).item() == pytest.approx(
            report.mga.item(), abs=1e-6)
        assert mgc_loss(model, plans[0], pad, video).item() == pytest.approx(
            report.mgc.item(), abs=1e-6)
        assert mlm_loss(model, plans[1], pad, video).item() == pytest.approx(
            report.mlm.item(), abs=1e-6)

    def test_mismatched_batch_rejected(self, tiny_model):
        with pytest.raises(InputError):
            valor_loss(tiny_model, tiny_clips(SessionRng(10), 2), [[7]],
                       SessionRng(11))


class TestPretrainLoop:
    def build_corpus(self, tmp_path, model, n_videos=2):
        from surgflow.serialization import write_frame_grid
        import json
        rng = SessionRng(12)
        videos = tmp_path / "videos"
        videos.mkdir(parents=True)
        records = []
        for i, text in enumerate(TINY_TEXTS[:n_videos]):
            vid = f"v{i}"
            write_frame_grid(videos / f"{vid}.wlfg",
                             rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8),
                             4.0)
            records.append({"video": vid, "start_s": 0.0, "end_s": 1.0,
                            "text": text})
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return manifest, ClipStore(videos, fps=4.0)

    def test_smoke_returns_rows_and_writes_nothing(self, tmp_path,
                                                   tiny_model):
        manifest, store = self.build_corpus(tmp_path, tiny_model)
        before = sorted(tmp_path.rglob("*"))
        cfg = PretrainConfig(epochs=2, batch_size=2, seed=0)
        rows = pretrain(tiny_model, manifest, store, cfg)
        assert len(rows) == 2
        assert [list(r) for r in rows] == [["step", "lr", "L_MGA", "L_MGC",
                                            "L_MLM", "L_total", "grad_norm",
                                            "clipped"]] * 2
        assert all(np.isfinite(r["L_total"]) for r in rows)
        assert sorted(tmp_path.rglob("*")) == before

    def test_deterministic_under_seed(self, tmp_path):
        results = []
        for run in range(2):
            model = make_tiny_model(seed=3)
            manifest, store = self.build_corpus(tmp_path / f"r{run}", model)
            cfg = PretrainConfig(epochs=1, batch_size=2, seed=5)
            rows = pretrain(model, manifest, store, cfg)
            results.append((rows, model.state_dict()))
        assert results[0][0] == results[1][0]
        assert list(results[0][1]) == list(results[1][1])
        for name, value in results[0][1].items():
            assert value.tobytes() == results[1][1][name].tobytes(), name

    def test_nan_weight_stops_at_step_zero(self, tmp_path, tiny_model):
        manifest, store = self.build_corpus(tmp_path, tiny_model)
        next(iter(tiny_model.parameters().values())).data[...] = np.nan
        with pytest.raises(NumericError, match="step 0"):
            pretrain(tiny_model, manifest, store,
                     PretrainConfig(epochs=1, batch_size=2, seed=0))

    @pytest.mark.parametrize("adapters", [False, True])
    def test_matches_reference_loop(self, tmp_path, adapters):
        # 3 clips in batches of 2: max_steps=3 ends partway through epoch 2
        cfg = PretrainConfig(epochs=3, batch_size=2, lr_max=1e-2, lr_min=1e-4,
                             seed=7, max_steps=3)
        models = [make_tiny_model(seed=4) for _ in range(2)]
        if adapters:
            for model in models:
                lora.attach(model, r=2, seed=6)
                lora.freeze_base(model)
        manifest, store = self.build_corpus(tmp_path, models[0], n_videos=3)
        expected = reference_pretrain(models[0], manifest, store, cfg)
        rows = pretrain(models[1], manifest, store, cfg)
        assert [list(r.items()) for r in rows] == \
            [list(r.items()) for r in expected]
        assert len(rows) == 3
        want = models[0].state_dict()
        got = models[1].state_dict()
        assert list(got) == list(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_empty_manifest_rejected(self, tmp_path, tiny_model):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        with pytest.raises(ConfigError):
            pretrain(tiny_model, manifest, ClipStore(tmp_path, 1.0),
                     PretrainConfig())

    def test_load_manifest_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert load_manifest(path) == [{"a": 1}, {"a": 2}]

    def test_load_manifest_names_a_malformed_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"a": 1}\n\n{"a": \n')
        with pytest.raises(InputError, match=re.escape(f"{path}:3: ")):
            load_manifest(path)


BATCH_RULE_NAMES = ("MGC_RATIO", "MLM_RATIO")


def _batch_rule_uses(tree):
    """Line numbers in `tree` of each call of make_masking_plan or of a
    `.maskable(` method, and of each name, attribute or import of
    MGC_RATIO or MLM_RATIO."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id == "make_masking_plan"
                    or isinstance(fn, ast.Attribute)
                    and fn.attr in ("make_masking_plan", "maskable")):
                yield node.lineno
        elif (isinstance(node, ast.Name) and node.id in BATCH_RULE_NAMES
              or isinstance(node, ast.Attribute)
              and node.attr in BATCH_RULE_NAMES):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if any(a.name in BATCH_RULE_NAMES for a in node.names):
                yield node.lineno


class TestOneBatchRule:
    """Only `objectives` builds a stage-1 batch's masking plans; the
    gradient audit and training both take them from `stage1_batch`."""

    SRC = Path(objectives.__file__).parent

    def test_no_module_but_objectives_restates_the_batch_rule(self):
        found = [f"{path.name}:{line}"
                 for path in sorted(self.SRC.glob("*.py"))
                 if path.name != "objectives.py"
                 for line in _batch_rule_uses(ast.parse(path.read_text()))]
        assert found == []

    def test_checker_sees_each_use(self):
        source = """
make_masking_plan(i, f, m, r, g); obj.make_masking_plan(i, f, m, r, g)
model.maskable(ids, pad, 3); x = MGC_RATIO; y = objectives.MLM_RATIO
from .objectives import MLM_RATIO
def maskable(self, ids, pad, n): pass
make_masking_plan; model.maskable; stage1_batch(m, c, r)
"""
        assert sorted(_batch_rule_uses(ast.parse(source))) == \
            [2] * 2 + [3] * 3 + [4]
