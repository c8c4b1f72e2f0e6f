"""Frozen word embeddings: word2vec-format readers and a random fallback.

Embeddings are lookup-only during training (no gradient flows into them), so
the table stores a plain numpy matrix.  Unknown tokens share one reserved
vector.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

UNK = "<unk>"


class EmbeddingTable:
    """Token -> d-vector lookup with a shared unknown row."""

    def __init__(self, vocab: list[str], matrix: np.ndarray):
        if len(vocab) != matrix.shape[0]:
            raise ValueError(f"{len(vocab)} tokens vs {matrix.shape[0]} rows")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("embedding matrix contains non-finite values")
        self.vocab = list(vocab)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.index = {w: i for i, w in enumerate(self.vocab)}
        if UNK not in self.index:
            self.vocab.append(UNK)
            self.index[UNK] = len(self.vocab) - 1
            rng = np.random.default_rng(0)
            self.matrix = np.vstack([self.matrix, rng.uniform(-0.05, 0.05, self.dim)])

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, tokens: list[str]) -> np.ndarray:
        """(len(tokens), dim) matrix; unknown tokens share the UNK row."""
        idx = [self.index.get(t, self.index[UNK]) for t in tokens]
        return self.matrix[idx]

    @classmethod
    def random(cls, vocab: list[str], dim: int, seed: int) -> "EmbeddingTable":
        rng = np.random.default_rng(seed)
        words = sorted(set(vocab))
        return cls(words, rng.uniform(-0.05, 0.05, size=(len(words), dim)))


def load_word2vec_text(path: str | Path) -> EmbeddingTable:
    """Read 'token v1 ... vd' lines; an optional 'count dim' header is skipped.
    Raises ``ValueError`` naming the path for a file without vectors, and
    also the line for a line that is not UTF-8, a value that is not a finite
    number, and a vector whose width differs from the first one's."""
    words: list[str] = []
    rows: list[list[float]] = []
    # Lines are decoded one by one, so that a byte that is not UTF-8 names its line.
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                parts = [part for part in line.decode("utf-8").rstrip("\r\n").split(" ") if part]
                if not parts or lineno == 1 and len(parts) == 2 and "".join(parts).isdigit():
                    continue
                words.append(parts[0])
                rows.append([float(v) for v in parts[1:]])
                if not np.isfinite(rows[-1]).all():
                    raise ValueError("a value is not finite")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}: line {lineno} holds {len(rows[-1])} values, "
                                 f"but the first vector {len(rows[0])}")
    if not rows:
        raise ValueError(f"{path}: no vectors")
    return EmbeddingTable(words, np.asarray(rows, dtype=np.float64))


def load_word2vec_binary(path: str | Path) -> EmbeddingTable:
    """Read the word2vec .bin layout: text header, then word + float32 block.
    Raises ``ValueError`` naming the path for a first line that is not a
    'count dim' header, for a word that is not UTF-8, for a file that ends
    inside a vector (a header that claims more vectors than the file holds
    included) and for a vector that is not finite."""
    words: list[str] = []
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not (header[0].isdigit() and header[1].isdigit()):
            raise ValueError(f"{path}: the first line is not a 'count dim' header")
        count, dim = int(header[0]), int(header[1])
        # A vector takes at least 4 * dim + 1 bytes, so no more than ``fit`` of them
        # follow the header: only those are allocated, and vector fit + 1 is cut short.
        fit = (Path(path).stat().st_size - fh.tell()) // (4 * dim + 1)
        matrix = np.empty((min(count, fit), dim), dtype=np.float64)
        for r in range(count):
            chars = []
            while True:
                ch = fh.read(1)
                if ch in (b" ", b""):
                    break
                if ch != b"\n":
                    chars.append(ch)
            try:
                words.append(b"".join(chars).decode("utf-8"))
            except UnicodeDecodeError:
                raise ValueError(f"{path}: vector {r + 1} of {count} has a non-UTF-8 word") from None
            if r == fit or len(block := fh.read(4 * dim)) != 4 * dim:
                raise ValueError(f"{path}: vector {r + 1} of {count} is cut short")
            matrix[r] = np.asarray(struct.unpack(f"{dim}f", block), dtype=np.float64)
            if not np.isfinite(matrix[r]).all():
                raise ValueError(f"{path}: vector {r + 1} of {count} is not finite")
    return EmbeddingTable(words, matrix)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    path = Path(path)
    if path.suffix == ".bin":
        return load_word2vec_binary(path)
    return load_word2vec_text(path)
