"""Word-level vocabulary and tokenizer.

Reserved tokens come first so their ids are stable across builds:
[CLS], <sep>, <pad>, <bos>, <eos>, <unk>, then one name token per
aspect.  The file format is one token per line, line index = id.
"""

import re
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import ContractViolation, DataError, EmptyTextError
from .jsonl import atomic_write, read_text

CLS = "[CLS]"
SEP = "<sep>"
PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
UNK = "<unk>"

_WORD_RE = re.compile(r"\w+(?:'\w+)?|[^\w\s]")


def words(text: str) -> list[str]:
    """Lowercase and split into words and single punctuation marks."""
    return _WORD_RE.findall(text.lower())


def aspect_token(k: int) -> str:
    return f"<aspect_{k}>"


class Vocabulary:
    """Bijection between token strings and dense integer ids."""

    cls_id, sep_id, pad_id, bos_id, eos_id, unk_id = range(6)    # the reserved tokens' ids

    def __init__(self, tokens: list[str], n_aspects: int):
        reserved = [CLS, SEP, PAD, BOS, EOS, UNK] + [aspect_token(k) for k in range(n_aspects)]
        if tokens[: len(reserved)] != reserved:
            raise ContractViolation("reserved tokens missing or out of order")
        if len(set(tokens)) != len(tokens):
            raise ContractViolation("duplicate token in vocabulary")
        self.tokens = list(tokens)
        self.n_aspects = n_aspects
        self._ids = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def aspect_id(self, k: int) -> int:
        if not 0 <= k < self.n_aspects:
            raise ContractViolation(f"aspect id {k} outside [0, {self.n_aspects})")
        return 6 + k

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self.unk_id)

    def comment_ids(self, text: str, max_words: int | None = None) -> np.ndarray:
        """<bos>, the ids of the first ``max_words`` tokens ``words`` splits
        ``text`` into (all of them by default), <eos>."""
        body = [self.id_of(w) for w in words(text)[:max_words]]
        return np.asarray([self.bos_id] + body + [self.eos_id], dtype=np.int64)

    def decode(self, ids) -> str:
        """Ids back to a space-joined string, dropping control tokens."""
        skip = {self.cls_id, self.sep_id, self.pad_id, self.bos_id, self.eos_id}
        return " ".join(self.tokens[i] for i in ids if i not in skip)

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """A saved vocabulary; its aspect count is its number of <aspect_k> tokens."""
        lines = read_text(path).splitlines()
        if not lines:
            raise DataError(f"empty vocabulary file: {path}")
        n_aspects = 0
        while aspect_token(n_aspects) in lines[6:]:
            n_aspects += 1
        try:
            return cls(lines, n_aspects)
        except ContractViolation as exc:
            raise DataError(f"{path}: {exc}") from None


def build_vocab(texts, size: int, n_aspects: int = 10) -> Vocabulary:
    """Most frequent words across ``texts``, capped at ``size`` total ids.

    Frequency ties break lexicographically so builds are reproducible.
    """
    reserved = [CLS, SEP, PAD, BOS, EOS, UNK] + [aspect_token(k) for k in range(n_aspects)]
    if size <= len(reserved):
        raise ContractViolation(f"vocab size {size} leaves no room for words")
    counts = Counter()
    for text in texts:
        counts.update(words(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [w for w, _ in ranked[: size - len(reserved)] if w not in reserved]
    return Vocabulary(reserved + keep, n_aspects)


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """[CLS]-prefixed id sequence, truncated to ``max_len``."""
    toks = words(text)
    if not toks:
        raise EmptyTextError("text is empty after normalization")
    ids = [vocab.cls_id] + [vocab.id_of(t) for t in toks]
    return np.asarray(ids[:max_len], dtype=np.int64)


def pad_batch(seqs: list[np.ndarray], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id sequences into (batch, maxlen) plus lengths."""
    if not seqs:
        raise ContractViolation("empty batch")
    lengths = np.asarray([len(s) for s in seqs], dtype=np.int64)
    out = np.full((len(seqs), int(lengths.max())), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out, lengths
