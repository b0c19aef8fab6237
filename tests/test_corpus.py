"""Corpus tooling: validity filters, crop search vs an exhaustive oracle,
clip splitting, and label-to-language templates."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import max_empty_rect_area, reference_expand
from surgflow.corpus import (ClipSpan, TEMPLATES, TextBox, TranscriptWord,
                             _expand, crop_search, detect_static,
                             median_filter_validity, project_labels,
                             split_clips)
from surgflow.errors import InputError
from surgflow.rng import SessionRng


class TestDetectStatic:
    def test_identical_frames_non_valid(self):
        frame = SessionRng(0).uniform(0, 1, (16, 16, 3))
        assert detect_static(frame, frame.copy()) is False

    def test_majority_motion_valid(self):
        prev = np.full((10, 10, 3), 0.5, np.float32)
        frame = prev.copy()
        frame[:6] += 0.2  # 60% of pixels move well past the noise floor
        assert detect_static(frame, prev) is True

    def test_subthreshold_motion_non_valid(self):
        prev = np.full((10, 10, 3), 0.5, np.float32)
        frame = prev + (10.0 / 255.0) / 2.0  # everything moves, but below delta
        assert detect_static(frame, prev) is False

    def test_exactly_half_is_valid(self):
        prev = np.zeros((2, 2), np.float32)
        frame = prev.copy()
        frame[0] = 1.0
        assert detect_static(frame, prev) is True

    def test_channel_max_counts(self):
        # motion in a single channel must count for the whole pixel
        prev = np.zeros((4, 4, 3), np.float32)
        frame = prev.copy()
        frame[..., 2] = 0.3
        assert detect_static(frame, prev) is True

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            detect_static(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("step,moves", [(5, False), (20, True)])
    def test_levels_compare_as_intensities(self, step, moves):
        """8-bit levels are read as k / 255, so a 5-level change stays
        below NOISE_DELTA (10/255) and a 20-level change exceeds it."""
        prev = np.full((4, 4, 3), 128, np.uint8)
        frame = prev + np.uint8(step)
        assert detect_static(frame, prev) is moves
        assert detect_static(frame / np.float32(255),
                             prev / np.float32(255)) is moves


@st.composite
def frames_with_boxes(draw):
    """A frame size, text boxes inside it and a seed pixel."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))

    def span(size):
        lo = draw(st.integers(0, size - 1))
        return lo, draw(st.integers(lo + 1, size))

    boxes = []
    for _ in range(draw(st.integers(0, 8))):
        (x0, x1), (y0, y1) = span(width), span(height)
        boxes.append(TextBox(x0, y0, x1, y1))
    x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    return width, height, boxes, x, y


class TestCropSearch:
    @given(frame=frames_with_boxes(),
           order=st.lists(st.integers(0, 3), max_size=8))
    def test_expand_equals_reference(self, frame, order):
        width, height, boxes, x, y = frame
        args = (x, y, x + 1, y + 1, width, height, boxes, order)
        assert _expand(*args) == reference_expand(*args)

    def test_no_boxes_returns_full_frame(self):
        crop = crop_search(640, 480, [], min_size=224)
        assert (crop.x0, crop.y0, crop.x1, crop.y1) == (0, 0, 640, 480)

    def test_single_center_box(self):
        crop = crop_search(100, 100, [TextBox(40, 40, 60, 60)], min_size=20)
        assert crop is not None
        area = (crop.x1 - crop.x0) * (crop.y1 - crop.y0)
        assert area == 4000
        assert not TextBox(40, 40, 60, 60).intersects(crop.x0, crop.y0,
                                                      crop.x1, crop.y1)

    def test_too_small_returns_none(self):
        # everything covered except a 200x200 corner; 224 minimum fails
        boxes = [TextBox(200, 0, 300, 300), TextBox(0, 200, 200, 300)]
        assert crop_search(300, 300, boxes, min_size=224) is None

    def test_min_size_applies_to_both_dimensions(self):
        # free area is a 300x100 band: wide enough, not tall enough
        assert crop_search(300, 300, [TextBox(0, 100, 300, 300)],
                           min_size=224) is None

    def test_box_outside_frame_rejected(self):
        with pytest.raises(InputError):
            crop_search(100, 100, [TextBox(50, 50, 150, 60)])

    def test_deterministic_under_seed(self):
        boxes = [TextBox(5, 5, 30, 30), TextBox(40, 10, 60, 50)]
        a = crop_search(64, 64, boxes, min_size=8, seed=3)
        b = crop_search(64, 64, boxes, min_size=8, seed=3)
        assert a == b

    def test_crop_never_overlaps_boxes(self):
        rng = SessionRng(21)
        for _ in range(30):
            boxes = []
            for _ in range(int(rng.integers(1, 8))):
                x0 = int(rng.integers(0, 60))
                y0 = int(rng.integers(0, 60))
                boxes.append(TextBox(x0, y0, x0 + int(rng.integers(1, 64 - x0 + 1)),
                                     y0 + int(rng.integers(1, 64 - y0 + 1))))
            crop = crop_search(64, 64, boxes, min_size=1)
            if crop is None:
                continue
            for b in boxes:
                assert not b.intersects(crop.x0, crop.y0, crop.x1, crop.y1)

    def test_within_5_percent_of_exhaustive_oracle(self):
        rng = SessionRng(22)
        for trial in range(100):
            n = int(rng.integers(0, 11))
            boxes = []
            for _ in range(n):
                x0 = int(rng.integers(0, 63))
                y0 = int(rng.integers(0, 63))
                w = int(rng.integers(1, 64 - x0 + 1))
                h = int(rng.integers(1, 64 - y0 + 1))
                boxes.append(TextBox(x0, y0, x0 + w, y0 + h))
            oracle = max_empty_rect_area(64, 64, boxes)
            crop = crop_search(64, 64, boxes, min_size=1, seed=trial)
            found = 0 if crop is None else (crop.x1 - crop.x0) * (crop.y1 - crop.y0)
            assert found >= 0.95 * oracle, f"trial {trial}: {found} < {oracle}"


class TestMedianFilter:
    def test_short_gap_filled(self):
        out = median_filter_validity(np.array([1, 1, 0, 1, 1], bool), fps=1.0)
        assert out.tolist() == [True] * 5

    def test_isolated_valid_removed(self):
        out = median_filter_validity(np.array([0, 0, 1, 0, 0], bool), fps=1.0)
        assert out.tolist() == [False] * 5

    def test_run_length_2_signals_are_fixed_points(self):
        # with a window of 3, every sample in a run of length >= 2 shares its
        # value with a neighbour, so such signals pass through unchanged
        rng = SessionRng(23)
        for _ in range(20):
            bits = rng.uniform(0, 1, (15,)) < 0.5
            sig = np.repeat(bits, 2)
            out = median_filter_validity(sig, fps=1.0)
            np.testing.assert_array_equal(out, sig)

    def test_repeated_application_converges(self):
        rng = SessionRng(24)
        for _ in range(20):
            sig = rng.uniform(0, 1, (40,)) < 0.5
            prev = sig
            for _ in range(len(sig)):
                cur = median_filter_validity(prev, fps=1.0)
                if np.array_equal(cur, prev):
                    break
                prev = cur
            else:
                pytest.fail("median filter did not reach a fixed point")

    def test_window_forced_odd(self):
        # fps=2/3 gives round(2.0)=2, forced to 3: [1,1,0,1] -> all valid
        out = median_filter_validity(np.array([1, 1, 0, 1], bool), fps=2 / 3)
        assert out.tolist() == [True] * 4

    def test_bad_fps(self):
        with pytest.raises(InputError):
            median_filter_validity(np.ones(3, bool), fps=0)


def words(spans):
    return [TranscriptWord(t, s, e) for t, s, e in spans]


class TestSplitClips:
    def test_sentence_boundaries(self):
        clips = split_clips(words([("the", 0.0, 0.5), ("incision.", 0.5, 2.5),
                                   ("next", 3.0, 4.0), ("step.", 4.0, 6.0)]))
        assert [c.text for c in clips] == ["the incision.", "next step."]
        assert clips[0].start_s == 0.0 and clips[0].end_s == 2.5

    def test_short_sentence_dropped(self):
        clips = split_clips(words([("quick.", 0.0, 1.5), ("a", 2.0, 3.0),
                                   ("longer", 3.0, 4.0), ("one.", 4.0, 5.0)]))
        assert [c.text for c in clips] == ["a longer one."]

    def test_trailing_fragment_kept_if_long_enough(self):
        clips = split_clips(words([("no", 0.0, 1.0), ("punctuation", 1.0, 3.0)]))
        assert [c.text for c in clips] == ["no punctuation"]

    def test_unordered_words_rejected(self):
        with pytest.raises(InputError):
            split_clips(words([("b.", 5.0, 6.0), ("a.", 0.0, 1.0)]))


class TestProjectLabels:
    def test_cataract_template_verbatim(self):
        out = project_labels({"tools": ["keratome"], "phase": "incision"},
                             "cataract_tool_phase")
        assert out == ("The surgeon is using a keratome during the incision "
                       "phase of cataract surgery.")

    def test_triplet_template_verbatim(self):
        out = project_labels({"tools": ["grasper"], "verb": "retract",
                              "target": "gallbladder"}, "triplet")
        assert out == "The surgeon is using a grasper to retract the gallbladder."

    def test_multi_tool_join(self):
        out = project_labels({"tools": ["forceps", "cannula"],
                              "phase": "rhexis"}, "cataract_tool_phase")
        assert "forceps and cannula" in out

    def test_missing_slot(self):
        with pytest.raises(InputError):
            project_labels({"tools": ["keratome"]}, "cataract_tool_phase")
        with pytest.raises(InputError):
            project_labels({"tools": [], "phase": "incision"},
                           "cataract_tool_phase")

    def test_unknown_template(self):
        with pytest.raises(InputError):
            project_labels({"phase": "incision"}, "nope")

    def test_template_registry(self):
        assert set(TEMPLATES) == {"cataract_tool_phase", "triplet", "phase_only"}

