"""Linear-chain CRF sequence labeler over BIO tags.

Scores decompose into per-position emission features times a feature-by-tag
weight matrix, plus a tag-transition matrix.  The partition function uses
the log-space forward algorithm; training follows the exact gradient
(forward-backward expectations minus empirical counts) of the L2-regularized
conditional log-likelihood.  BIO validity is learned, never hard-constrained.
Feature ids sit in a ``FeatureTable``, one slot grid with -1 for an unknown
feature: sums add each row left to right, and gradients scatter row-major.
The edge models share it, and the ``Recorder`` that numbers a training
index from the template that builds the tables.  All three pipeline stages
train through ``nn.optim.fit``, the joint parser's loop too.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..data import Document, bio_encode, encode_tree_to_heads
from ..nn import Adam, Module, Tensor
from ..nn.optim import fit


def token_features(w: str) -> list[str]:
    """Feature strings of the token ``w`` itself."""
    return ["bias", f"w={w}", f"lc={w.lower()}", f"p2={w[:2]}", f"p3={w[:3]}",
            f"s2={w[-2:]}", f"s3={w[-3:]}", f"dig={int(w.isdigit())}"]


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    return float(np.log(np.exp(a - m).sum()) + m)


class FeatureTable(NamedTuple):
    """The known feature ids of ``n`` rows as one slot-major (width, n) grid:
    ``slots[s, r]`` is row r's feature in template slot s, -1 for an unknown one."""

    slots: np.ndarray

    def sums(self, w: np.ndarray) -> np.ndarray:
        """Each row's sum of ``w[id]`` over its ids, left to right; 0 for a row without ids.
        The gather reads -1 as a zero row appended to ``w``."""
        x = np.concatenate([w, np.zeros((1, *w.shape[1:]))])[np.ascontiguousarray(self.slots)]
        # numpy adds pairwise along its inner loop, so the slots must not form it:
        # they would in a gather through a Fortran-ordered grid, or for one row of scalars.
        return x.sum(axis=0) if x[0].size > 1 else x.cumsum(axis=0)[-1]

    def scatter(self, width: int) -> Callable[[np.ndarray, np.ndarray], None]:
        """The function that adds ``coeff[r]`` to ``grad[id]`` for every id of every
        row r, row by row and each row left to right, into a C-contiguous ``grad``
        with rows of ``width`` values: one 1-D ``np.add.at`` over its flat view.
        Training makes it once per case."""
        ids = self.slots.T
        known = ids >= 0
        # Training keeps one flat index per case, so it takes the smallest type that holds them all.
        kind = np.min_scalar_type((ids.max(initial=0) + 1) * width)
        flat = (ids[known].astype(kind)[:, None] * width + np.arange(width, dtype=kind)).ravel()
        counts = known.sum(axis=1)
        return lambda grad, coeff: np.add.at(grad.reshape(-1), flat, coeff.repeat(counts, axis=0).ravel())


class Recorder(dict):
    """A feature index that knows every name: ``get`` gives a new one the next id.
    Both pipeline stages build their training tables over one, so that the
    template that builds a table is the one that names its features."""

    def get(self, name: str, default=None) -> int:
        return self.setdefault(name, len(self))

    def renumber(self, tables: list[FeatureTable]) -> tuple[dict[str, int], list[FeatureTable]]:
        """The index of the features that some row of ``tables`` has, numbered in
        name order, and the tables in its ids.  A table keeps only the slots where
        some row has a feature: a recorded name that no row has is not in the index."""
        used = set().union(*(table.slots.ravel().tolist() for table in tables))
        index = {f: i for i, f in enumerate(sorted(name for name, old in self.items() if old in used))}
        # Old id i becomes ids[i]; the slot -1 reads the last entry.
        ids = np.array([*(index.get(f, -1) for f in self), -1], dtype=np.int64)
        slots = (ids[table.slots] for table in tables)
        return index, [FeatureTable(s[(s >= 0).any(axis=1)]) for s in slots]


class CrfModel(Module):
    trainable = ("w_emit", "w_trans")

    def __init__(self, tags: list[str], feature_index: dict[str, int]):
        # Kept, not copied: a ``Recorder`` records the names that ``features`` reads.
        self.tags = list(tags)
        self.tag_index = {t: i for i, t in enumerate(self.tags)}
        self.feature_index = feature_index
        k, f = len(self.tags), len(self.feature_index)
        self.w_emit = Tensor(np.zeros((f, k)), requires_grad=True)
        self.w_trans = Tensor(np.zeros((k, k)), requires_grad=True)
        # The ids of every token the index names, worked out once: the table is
        # bounded by the model, not by the documents it predicts.
        self.token_ids = {f[2:]: self._ids_of(f[2:]) for f in self.feature_index
                          if f.startswith("w=")}

    def _ids_of(self, w: str) -> list[int]:
        """The ids of ``token_features(w)``, then of ``prev=w`` and ``next=w``."""
        get = self.feature_index.get
        return [get(f, -1) for f in [*token_features(w), f"prev={w}", f"next={w}"]]

    def features(self, tokens: list[str]) -> FeatureTable:
        """The document's table, the emission template: position i's slots hold
        the ids of ``token_features`` of its token, then of ``prev=`` the token
        before it (``<s>`` at the start) and ``next=`` the token after it
        (``</s>`` at the end), -1 for a feature the index does not know.  A
        token the index does not name is looked up once per call."""
        if not tokens:
            raise ValueError("cannot score an empty sequence")
        known, get = self.token_ids, self.feature_index.get
        fresh = {w: self._ids_of(w) for w in set(tokens) if w not in known}
        ids = np.array([known[w] if w in known else fresh[w] for w in tokens])
        slots = ids.T.copy()
        # Position i's prev= id is token i-1's own, and its next= id token i+1's.
        slots[8, 0], slots[8, 1:] = get("prev=<s>", -1), ids[:-1, 8]
        slots[9, -1], slots[9, :-1] = get("next=</s>", -1), ids[1:, 9]
        return FeatureTable(slots)

    def emissions(self, table: FeatureTable) -> np.ndarray:
        """(N, K) emission score matrix."""
        return table.sums(self.w_emit.data)

    def _forward_backward(self, emit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, K) log-space scores of the paths up to i ending in tag k (alpha) and
        after i following tag k (beta).  Step i advances alpha[i] and beta[n-1-i]
        together on one (K, 2K) array indexed [previous tag j, direction x tag]:
        ``w_trans`` beside its transpose, plus the carry of each direction.  The
        max and the sum over j reduce the outer axis, which numpy adds row by
        row in the order j = 0, 1, ...; each step writes into buffers."""
        n, k = emit.shape
        w = self.w_trans.data
        pair = np.concatenate([w, w.T], axis=1).reshape(k, 2, k)
        # Row i of ``carry`` ends as alpha[i] beside emit + beta at n-1-i, and
        # row i of ``out`` holds beta[n-1-i] in its second half.
        carry, out = np.concatenate([emit, emit[::-1]], axis=1), np.zeros((n, 2 * k))
        prev = carry.reshape(n, 2, k).transpose(0, 2, 1)[..., None]  # [i, j, direction, 1]
        a, m = np.empty((k, 2 * k)), np.empty(2 * k)
        a3 = a.reshape(k, 2, k)
        for p, o, c in zip(prev, out[1:], carry[1:]):
            np.add(pair, p, out=a3)
            np.maximum.reduce(a, axis=0, out=m)
            a -= m
            np.exp(a, out=a)
            np.add.reduce(a, axis=0, out=o)
            np.log(o, out=o)
            o += m
            c += o
        return carry[:, :k], out[::-1, k:]

    def tag_ids(self, tags: list[str]) -> np.ndarray:
        """The ids of ``tags``; raises ``ValueError`` naming the first tag that
        the model does not know and its 1-based position."""
        for i, tag in enumerate(tags, start=1):
            if tag not in self.tag_index:
                raise ValueError(f"unknown tag {tag!r} at position {i}")
        return np.array([self.tag_index[t] for t in tags])

    def training_case(self, doc: Document, table: FeatureTable) -> tuple[FeatureTable, np.ndarray, Callable]:
        """``nll_and_grad``'s arguments for ``doc`` and its ``table``, fixed across
        epochs: the table, the gold tag ids and the table's scatter.  It
        raises ``encode_tree_to_heads``'s ``ValueError`` for a gold forest that
        breaks the rule, and one naming the document for a tag that the model
        does not know."""
        encode_tree_to_heads(doc)
        tags = bio_encode(doc)
        try:
            y = self.tag_ids(tags)
        except ValueError as exc:
            raise ValueError(f"document {doc.id!r}: {exc}") from exc
        return table, y, table.scatter(len(self.tags))

    def viterbi(self, tokens: list[str]) -> list[str]:
        emit = self.emissions(self.features(tokens))
        n, k = emit.shape
        delta = emit[0]
        back = np.zeros((n, k), dtype=int)
        # cand[j, i] = delta[i] + w[i, j]; the max is read at its argmax, the
        # first one, so the smaller previous tag wins a tie.
        w_in, rows = np.ascontiguousarray(self.w_trans.data.T), np.arange(k)
        for i in range(1, n):
            cand = w_in + delta
            b = back[i] = cand.argmax(axis=1)
            delta = cand[rows, b] + emit[i]
        path = [int(delta.argmax())]
        for i in range(n - 1, 0, -1):
            path.append(int(back[i, path[-1]]))
        return [self.tags[j] for j in path[::-1]]

    def nll_and_grad(self, table: FeatureTable, y: np.ndarray,
                     scatter: Callable) -> tuple[float, np.ndarray, np.ndarray]:
        """Negative log-likelihood of one sequence and its exact gradient:
        expected feature and transition counts minus the gold ones.  ``y`` are
        the gold ``tag_ids`` and ``scatter`` is the table's, as
        ``training_case`` makes them once per case."""
        emit = self.emissions(table)
        if len(y) != len(emit):
            raise ValueError(f"{len(y)} tags for {len(emit)} tokens")
        score = sum(emit[np.arange(len(y)), y].tolist())
        score += sum(self.w_trans.data[y[:-1], y[1:]].tolist())
        alpha, beta = self._forward_backward(emit)
        log_z = _logsumexp(alpha[-1])
        delta = np.exp(alpha + beta - log_z)
        delta[np.arange(len(y)), y] -= 1.0
        g_emit = np.zeros_like(self.w_emit.data)
        scatter(g_emit, delta)
        # One (N-1, K, K) array of pair marginals, summed over positions.
        pair = alpha[:-1, :, None] + self.w_trans.data + (emit[1:] + beta[1:])[:, None, :]
        g_trans = np.exp(pair - log_z).sum(axis=0)
        np.subtract.at(g_trans, (y[:-1], y[1:]), 1.0)
        return log_z - score, g_emit, g_trans


def tagset_from_corpus(docs: list[Document]) -> list[str]:
    # By text, so that a type that is not a string sorts too, and
    # ``training_case`` refuses its document with the corpus reader's message.
    types = sorted({e.type for doc in docs for e in doc.entities if e.type}, key=str)
    return ["O"] + [f"{bi}-{t}" for t in types for bi in ("B", "I")]


def crf_objective(model: CrfModel, docs: list[Document], lam: float
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Corpus NLL + (lam/2)||w||^2 with its full analytic gradient."""
    g_emit = lam * model.w_emit.data.copy()
    g_trans = lam * model.w_trans.data.copy()
    total = 0.5 * lam * (np.sum(model.w_emit.data ** 2) + np.sum(model.w_trans.data ** 2))
    for doc in docs:
        nll, ge, gt = model.nll_and_grad(*model.training_case(doc, model.features(doc.tokens)))
        total += nll
        g_emit += ge
        g_trans += gt
    return total, g_emit, g_trans


def train_crf(docs: list[Document], lam: float, epochs: int, lr: float, seed: int) -> CrfModel:
    """Per-document Adam steps on the regularized NLL, shuffled each epoch.
    The index holds the features of the training positions, in name order,
    as ``CrfModel.features`` records them while it builds their tables."""
    if not docs:
        raise ValueError("empty training corpus")
    # The recording model, and its recorder, are dropped before training.
    model = CrfModel(tagset_from_corpus(docs), Recorder())
    index, tables = model.feature_index.renumber([model.features(doc.tokens) for doc in docs])
    model = CrfModel(model.tags, index)

    def step(table: FeatureTable, y: np.ndarray, scatter: Callable) -> float:
        nll, g_emit, g_trans = model.nll_and_grad(table, y, scatter)
        model.w_emit.grad += g_emit
        model.w_trans.grad += g_trans
        return nll

    cases = [model.training_case(doc, table) for doc, table in zip(docs, tables)]
    fit(Adam(model.params_named().values(), lr=lr), cases, step, epochs, seed,
        "CrfModel", lam, None)
    return model
