"""Word-level vocabulary with reserved tokens and file round-trip."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List

from .errors import VocabError
from .serialization import write_text

PAD, MASK, BOS, EOS, UNK = "<pad>", "<mask>", "<bos>", "<eos>", "<unk>"
# No code emits BOS, but it keeps id 2: dropping it would renumber every
# vocabulary and so change every checkpoint.
RESERVED = [PAD, MASK, BOS, EOS, UNK]


def tokenize(text: str) -> List[str]:
    """Lowercased whitespace tokenization; punctuation is stripped per word."""
    words = (word.strip(".,!?;:\"'()") for word in text.lower().split())
    return [word for word in words if word]


class Vocabulary:
    """Bijective token <-> id map; reserved ids occupy 0..4."""

    def __init__(self, tokens: Iterable[str]):
        self.id_to_token: List[str] = list(RESERVED)
        seen = set(self.id_to_token)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self.id_to_token.append(tok)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[MASK]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def reserved_ids(self) -> set:
        return {self.token_to_id[t] for t in RESERVED}

    def encode(self, text: str, strict: bool = False) -> List[int]:
        ids = []
        for tok in tokenize(text):
            if strict and tok not in self.token_to_id:
                raise VocabError(f"unknown token: {tok!r}")
            ids.append(self.token_to_id.get(tok, self.unk_id))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        words = []
        for i in ids:
            if i < 0 or i >= len(self.id_to_token):
                raise VocabError(f"unknown token id: {i}")
            tok = self.id_to_token[i]
            if tok not in RESERVED:
                words.append(tok)
        return " ".join(words)

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        return cls(sorted({tok for text in texts for tok in tokenize(text)}))

    def save(self, path) -> None:
        write_text(path, "\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if lines[:len(RESERVED)] != RESERVED:
            raise VocabError(f"{path}: reserved tokens missing or reordered")
        vocab = cls.__new__(cls)
        vocab.id_to_token = lines
        vocab.token_to_id = {t: i for i, t in enumerate(lines)}
        if len(vocab.token_to_id) != len(lines):
            raise VocabError(f"{path}: duplicate tokens")
        return vocab
