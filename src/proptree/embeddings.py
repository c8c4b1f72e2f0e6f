"""Frozen word embeddings: word2vec-format readers and a random fallback.

Embeddings are lookup-only during training (no gradient flows into them), so
the table stores a plain numpy matrix.  Unknown tokens share one reserved
vector.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

UNK = "<unk>"


class EmbeddingTable:
    """Token -> d-vector lookup with a shared unknown row."""

    def __init__(self, vocab: list[str], matrix: np.ndarray):
        """``matrix`` holds a row for each word of ``vocab`` and may hold one
        spare row after them.  A ``vocab`` without ``<unk>`` needs exactly
        ``len(vocab) + 1`` rows: ``<unk>`` takes the last one, which is
        overwritten in place when ``matrix`` is float64, so that the matrix is
        not copied to add a row.  A ``vocab`` that names ``<unk>`` may bring a
        spare row, which is left out.  Any other row count raises
        ``ValueError``."""
        self.vocab = list(vocab)
        self.index = {w: i for i, w in enumerate(self.vocab)}
        if UNK not in self.index:
            self.index[UNK] = len(self.vocab)
            self.vocab.append(UNK)
        if not len(self.vocab) <= matrix.shape[0] <= len(vocab) + 1:
            raise ValueError(f"{len(vocab)} tokens need {len(self.vocab)} rows, not {matrix.shape[0]}")
        self.matrix = np.asarray(matrix[:len(self.vocab)], dtype=np.float64)
        if not np.all(np.isfinite(self.matrix[:len(vocab)])):
            raise ValueError("embedding matrix contains non-finite values")
        if len(vocab) < len(self.vocab):
            self.matrix[-1] = np.random.default_rng(0).uniform(-0.05, 0.05, self.dim)

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
        # One spare row for <unk>: the words' rows are the first draws, which do not depend on it.
        return cls(words, rng.uniform(-0.05, 0.05, size=(len(words) + 1, dim)))


def read_lines(path: str | Path, parse: Callable[[bytes, int], Any]) -> Iterator[tuple[int, Any]]:
    """``(lineno, parse(line, lineno))`` for each line of ``path`` whose parse
    is not None.  It owns the ``path:line: problem`` contract of the corpus
    and word2vec text formats: a ``KeyError``, ``TypeError`` or
    ``ValueError`` from ``parse`` becomes a ``ValueError`` that names the
    path and line.  It sits beside the word2vec readers, which need nothing
    else, so that loading vectors does not import the corpus module."""
    # Lines are decoded by ``parse`` one by one, so that a byte that is not UTF-8
    # names its line; each format decodes its own span of the line.
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                item = parse(line, lineno)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if item is not None:
                yield lineno, item


def _parse_vector(line: bytes, lineno: int) -> tuple[str, np.ndarray] | None:
    parts = [part for part in line.decode("utf-8").rstrip("\r\n").split(" ") if part]
    if not parts or lineno == 1 and len(parts) == 2 and "".join(parts).isdigit():
        return None
    row = np.array(parts[1:], dtype=np.float64)
    if not np.isfinite(row).all():
        raise ValueError("a value is not finite")
    return parts[0], row


def load_word2vec_text(path: str | Path) -> EmbeddingTable:
    """Read 'token v1 ... vd' lines; an optional 'count dim' header is skipped.
    Raises ``ValueError`` naming the path for a file without vectors, and
    also the line for a line that is not UTF-8, a value that is not a finite
    number, and a vector whose width differs from the first one's."""
    words, rows = [], []
    for lineno, (word, row) in read_lines(path, _parse_vector):
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}: line {lineno} holds {len(row)} values, "
                             f"but the first vector {len(rows[0])}")
        words.append(word)
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no vectors")
    matrix = np.empty((len(rows) + 1, len(rows[0])))  # and a spare row for <unk>
    np.concatenate(rows, out=matrix[:-1].reshape(-1))
    del rows  # the per-line arrays are not alive while the table is built
    return EmbeddingTable(words, matrix)


def load_word2vec_binary(path: str | Path) -> EmbeddingTable:
    """Read the word2vec .bin layout: text header, then word + float32 block.
    Raises ``ValueError`` naming the path for a first line that is not a
    'count dim' header, for a count of 0 (no vectors), for a word that is
    not UTF-8, for a file that ends inside a vector (a header that claims
    more vectors than the file holds included) and for a vector that is not
    finite."""
    buf = Path(path).read_bytes()
    pos = buf.find(b"\n") + 1 or len(buf)
    header = buf[:pos].split()
    if len(header) != 2 or not (header[0].isdigit() and header[1].isdigit()):
        raise ValueError(f"{path}: the first line is not a 'count dim' header")
    count, dim = int(header[0]), int(header[1])
    # Nothing is allocated from the width of a file that holds no vector.
    if count == 0:
        raise ValueError(f"{path}: no vectors")
    # A vector takes at least 4 * dim + 1 bytes, so no more than ``fit`` of them
    # follow the header: only those are allocated, and vector fit + 1 is cut
    # short.  When all ``count`` fit, a spare row for <unk> follows them.
    fit = (len(buf) - pos) // (4 * dim + 1)
    matrix = np.empty((count + 1 if count <= fit else fit, dim), dtype=np.float64)
    words: list[str] = []
    for r in range(count):
        # A word runs to the next space or the end of the file; newlines in it are dropped.
        end = buf.find(b" ", pos)
        word, pos = (buf[pos:end], end + 1) if end >= 0 else (buf[pos:], len(buf))
        try:
            words.append(word.replace(b"\n", b"").decode("utf-8"))
        except UnicodeDecodeError:
            raise ValueError(f"{path}: vector {r + 1} of {count} has a non-UTF-8 word") from None
        if r == fit or pos + 4 * dim > len(buf):
            raise ValueError(f"{path}: vector {r + 1} of {count} is cut short")
        # Checked before it is widened, so that a signalling NaN is not cast.
        row = np.frombuffer(buf, np.float32, dim, pos)
        pos += 4 * dim
        if not np.isfinite(row).all():
            raise ValueError(f"{path}: vector {r + 1} of {count} is not finite")
        matrix[r] = row
    # The file's bytes (``row`` is a view of them) are not alive while the table is built.
    buf = row = None
    return EmbeddingTable(words, matrix)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    path = Path(path)
    if path.suffix == ".bin":
        return load_word2vec_binary(path)
    return load_word2vec_text(path)
