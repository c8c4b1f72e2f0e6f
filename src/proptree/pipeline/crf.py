"""Linear-chain CRF sequence labeler over BIO tags.

Scores decompose into per-position emission features times a feature-by-tag
weight matrix, plus a tag-transition matrix.  The partition function uses
the log-space forward algorithm; training follows the exact gradient
(forward-backward expectations minus empirical counts) of the L2-regularized
conditional log-likelihood.  BIO validity is learned, never hard-constrained.
The edge models share the sparse ``FeatureTable`` and the Adam loop ``fit``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..data import Document, bio_encode
from ..nn import Adam, Module, Tensor


def emission_features(tokens: list[str], i: int) -> list[str]:
    """Feature strings for position i (0-based within tokens)."""
    w = tokens[i]
    return [
        "bias",
        f"w={w}",
        f"lc={w.lower()}",
        f"p2={w[:2]}",
        f"p3={w[:3]}",
        f"s2={w[-2:]}",
        f"s3={w[-3:]}",
        f"dig={int(w.isdigit())}",
        f"prev={tokens[i - 1] if i > 0 else '<s>'}",
        f"next={tokens[i + 1] if i + 1 < len(tokens) else '</s>'}",
    ]


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return out.squeeze(axis) if axis is not None else out.item()


class FeatureTable(NamedTuple):
    """The known feature ids of ``n`` rows, in template order: ``ids[j]``
    belongs to row ``rows[j]``.  Sums and gradients visit them in that order."""

    ids: np.ndarray
    rows: np.ndarray
    n: int

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "FeatureTable":
        """The table of an (n, width) id grid in which -1 marks an unknown feature."""
        rows, cols = np.nonzero(grid >= 0)
        return cls(grid[rows, cols], rows, len(grid))

    def sums(self, w: np.ndarray) -> np.ndarray:
        """Each row's sum of ``w[id]`` over its ids, left to right; 0 for a row without ids."""
        out = np.zeros((self.n, *w.shape[1:]))
        np.add.at(out, self.rows, w[self.ids])
        return out

    def scatter(self, grad: np.ndarray, coeff: np.ndarray) -> None:
        """Add ``coeff[r]`` to ``grad[id]`` for every id of every row r."""
        np.add.at(grad, self.ids, coeff[self.rows])


def fit(model: Module, cases: list, add_grad, lam: float, epochs: int,
        lr: float, seed: int) -> Module:
    """Adam on the L2-regularized loss, one case at a time in a fresh random
    order each epoch.  A step's gradient is ``lam / len(cases)`` times every
    parameter, plus what ``add_grad(*case)`` adds for the case's loss."""
    opt = Adam(model.params_named().values(), lr=lr)
    reg = lam / len(cases)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in rng.permutation(len(cases)):
            opt.zero_grad()
            for p in opt.params:
                p.grad += reg * p.data
            add_grad(*cases[idx])
            opt.step()
    return model


class CrfModel(Module):
    trainable = ("w_emit", "w_trans")

    def __init__(self, tags: list[str], feature_index: dict[str, int]):
        self.tags = list(tags)
        self.tag_index = {t: i for i, t in enumerate(self.tags)}
        self.feature_index = dict(feature_index)
        k, f = len(self.tags), len(self.feature_index)
        self.w_emit = Tensor(np.zeros((f, k)), requires_grad=True)
        self.w_trans = Tensor(np.zeros((k, k)), requires_grad=True)

    def features(self, tokens: list[str]) -> FeatureTable:
        """The document's table: one row of known feature ids per position."""
        if not tokens:
            raise ValueError("cannot score an empty sequence")
        grid = [[self.feature_index.get(f, -1) for f in emission_features(tokens, i)]
                for i in range(len(tokens))]
        return FeatureTable.from_grid(np.array(grid))

    def emissions(self, table: FeatureTable) -> np.ndarray:
        """(N, K) emission score matrix."""
        return table.sums(self.w_emit.data)

    def _forward(self, emit: np.ndarray) -> np.ndarray:
        """(N, K) log-space forward scores: alpha[i, k] sums the paths ending in tag k at i."""
        alpha = np.zeros_like(emit)
        alpha[0] = emit[0]
        for i in range(1, len(emit)):
            alpha[i] = _logsumexp(alpha[i - 1][:, None] + self.w_trans.data, axis=0) + emit[i]
        return alpha

    def _path_score(self, emit: np.ndarray, y: list[int]) -> float:
        score = sum(emit[i, y[i]] for i in range(len(y)))
        score += sum(self.w_trans.data[y[i - 1], y[i]] for i in range(1, len(y)))
        return score

    def log_partition(self, tokens: list[str]) -> float:
        return float(_logsumexp(self._forward(self.emissions(self.features(tokens)))[-1]))

    def sequence_score(self, tokens: list[str], tags: list[str]) -> float:
        emit = self.emissions(self.features(tokens))
        return float(self._path_score(emit, [self.tag_index[t] for t in tags]))

    def viterbi(self, tokens: list[str]) -> list[str]:
        emit = self.emissions(self.features(tokens))
        n, k = emit.shape
        delta = emit[0]
        back = np.zeros((n, k), dtype=int)
        for i in range(1, n):
            cand = delta[:, None] + self.w_trans.data
            back[i] = cand.argmax(axis=0)
            delta = cand.max(axis=0) + emit[i]
        path = [int(delta.argmax())]
        for i in range(n - 1, 0, -1):
            path.append(int(back[i, path[-1]]))
        return [self.tags[j] for j in path[::-1]]

    def nll_and_grad(self, table: FeatureTable, tags: list[str]
                     ) -> tuple[float, np.ndarray, np.ndarray]:
        """Negative log-likelihood of one sequence and its exact gradient."""
        emit = self.emissions(table)
        n, k = emit.shape
        y = [self.tag_index[t] for t in tags]

        alpha = self._forward(emit)
        beta = np.zeros((n, k))
        for i in range(n - 2, -1, -1):
            beta[i] = _logsumexp(self.w_trans.data + (emit[i + 1] + beta[i + 1])[None, :], axis=1)
        log_z = float(_logsumexp(alpha[-1]))

        delta = np.exp(alpha + beta - log_z)  # node marginals minus the gold tags
        delta[np.arange(n), y] -= 1.0
        g_emit = np.zeros_like(self.w_emit.data)
        table.scatter(g_emit, delta)

        g_trans = np.zeros_like(self.w_trans.data)
        for i in range(1, n):
            pair = (alpha[i - 1][:, None] + self.w_trans.data
                    + (emit[i] + beta[i])[None, :]) - log_z
            g_trans += np.exp(pair)
            g_trans[y[i - 1], y[i]] -= 1.0

        return float(log_z - self._path_score(emit, y)), g_emit, g_trans


def tagset_from_corpus(docs: list[Document]) -> list[str]:
    types = sorted({e.type for doc in docs for e in doc.entities if e.type})
    return ["O"] + [f"{bi}-{t}" for t in types for bi in ("B", "I")]


def feature_index_from_corpus(docs: list[Document]) -> dict[str, int]:
    feats = {f for doc in docs for i in range(len(doc.tokens))
             for f in emission_features(doc.tokens, i)}
    return {f: i for i, f in enumerate(sorted(feats))}


def crf_objective(model: CrfModel, docs: list[Document], lam: float
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Corpus NLL + (lam/2)||w||^2 with its full analytic gradient."""
    g_emit = lam * model.w_emit.data.copy()
    g_trans = lam * model.w_trans.data.copy()
    total = 0.5 * lam * (np.sum(model.w_emit.data ** 2) + np.sum(model.w_trans.data ** 2))
    for doc in docs:
        nll, ge, gt = model.nll_and_grad(model.features(doc.tokens), bio_encode(doc))
        total += nll
        g_emit += ge
        g_trans += gt
    return total, g_emit, g_trans


def train_crf(docs: list[Document], lam: float = 10.0, epochs: int = 50,
              lr: float = 1e-3, seed: int = 0) -> CrfModel:
    """Per-document Adam steps on the regularized NLL, shuffled each epoch."""
    if not docs:
        raise ValueError("empty training corpus")
    model = CrfModel(tagset_from_corpus(docs), feature_index_from_corpus(docs))

    def add_grad(table: FeatureTable, tags: list[str]) -> None:
        _, g_emit, g_trans = model.nll_and_grad(table, tags)
        model.w_emit.grad += g_emit
        model.w_trans.grad += g_trans

    cases = [(model.features(doc.tokens), bio_encode(doc)) for doc in docs]
    return fit(model, cases, add_grad, lam, epochs, lr, seed)
