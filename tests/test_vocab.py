"""Word-level vocabulary: reserved layout, tokenization, round-trips."""

import pytest

from surgflow.errors import VocabError
from surgflow.vocab import BOS, RESERVED, Vocabulary, tokenize


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("The Surgeon, is ready.") == ["the", "surgeon", "is", "ready"]

    def test_empty(self):
        assert tokenize("  .  ") == []


class TestVocabulary:
    def test_reserved_occupy_first_ids(self):
        v = Vocabulary.build(["alpha beta"])
        assert v.id_to_token[:5] == RESERVED
        assert v.pad_id == 0 and v.mask_id == 1 and v.token_to_id[BOS] == 2
        assert v.eos_id == 3 and v.unk_id == 4
        assert v.reserved_ids == {0, 1, 2, 3, 4}

    def test_build_is_sorted_and_deduplicated(self):
        v = Vocabulary.build(["beta alpha", "alpha gamma"])
        assert v.id_to_token[5:] == ["alpha", "beta", "gamma"]

    def test_encode_decode_round_trip(self):
        v = Vocabulary.build(["the incision begins now"])
        ids = v.encode("The incision begins now.")
        assert v.decode(ids) == "the incision begins now"

    def test_unknown_maps_to_unk(self):
        v = Vocabulary.build(["known"])
        assert v.encode("unknown") == [v.unk_id]

    def test_strict_encode_raises(self):
        v = Vocabulary.build(["known"])
        with pytest.raises(VocabError):
            v.encode("unknown", strict=True)

    def test_decode_skips_reserved(self):
        v = Vocabulary.build(["word"])
        assert v.decode([v.token_to_id[BOS], v.encode("word")[0],
                         v.eos_id]) == "word"

    def test_decode_bad_id(self):
        v = Vocabulary.build(["word"])
        with pytest.raises(VocabError):
            v.decode([len(v)])

    def test_file_round_trip(self, tmp_path):
        v = Vocabulary.build(["alpha beta gamma"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == v.id_to_token
        assert loaded.encode("beta") == v.encode("beta")

    def test_load_rejects_missing_reserved(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("alpha\nbeta\n", encoding="utf-8")
        with pytest.raises(VocabError):
            Vocabulary.load(path)

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(RESERVED + ["dup", "dup"]) + "\n",
                        encoding="utf-8")
        with pytest.raises(VocabError):
            Vocabulary.load(path)
