"""Linear-chain CRF sequence labeler over BIO tags.

Scores decompose into per-position emission features times a feature-by-tag
weight matrix, plus a tag-transition matrix.  The partition function uses
the log-space forward algorithm; training follows the exact gradient
(forward-backward expectations minus empirical counts) of the L2-regularized
conditional log-likelihood.  BIO validity is learned, never hard-constrained.
Feature ids sit in a ``FeatureTable``, one slot grid with -1 for an unknown
feature: sums add each row left to right, and gradients scatter row-major.
The edge models share it and the Adam loop ``fit``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..data import Document, bio_encode
from ..nn import Adam, Module, Tensor


def token_features(w: str) -> list[str]:
    """Feature strings of the token ``w`` itself."""
    return ["bias", f"w={w}", f"lc={w.lower()}", f"p2={w[:2]}", f"p3={w[:3]}",
            f"s2={w[-2:]}", f"s3={w[-3:]}", f"dig={int(w.isdigit())}"]


def emission_features(tokens: list[str], i: int) -> list[str]:
    """Feature strings for position i (0-based within tokens)."""
    return token_features(tokens[i]) + [
        f"prev={tokens[i - 1] if i > 0 else '<s>'}",
        f"next={tokens[i + 1] if i + 1 < len(tokens) else '</s>'}",
    ]


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

    def scatter(self, grad: np.ndarray, coeff: np.ndarray) -> None:
        """Add ``coeff[r]`` to ``grad[id]`` for every id of every row r, row by row
        and each row left to right, into the C-contiguous ``grad``.  One 1-D
        ``np.add.at`` over ``grad``'s flat view adds them all, in that order."""
        ids = self.slots.T
        known = ids >= 0
        k = math.prod(grad.shape[1:])
        flat = (ids[known][:, None] * k + np.arange(k)).ravel()
        np.add.at(grad.reshape(-1), flat, coeff.repeat(known.sum(axis=1), axis=0).ravel())


def fit(model: Module, cases: list, add_grad, lam: float, epochs: int,
        lr: float, seed: int) -> Module:
    """Adam on the L2-regularized loss, one case at a time in a fresh random
    order each epoch.  A step's gradient is ``lam / len(cases)`` times every
    parameter, plus what ``add_grad(*case)`` adds for the case's loss.
    Raises ``FloatingPointError`` after an epoch that leaves a parameter non-finite."""
    opt = Adam(model.params_named().values(), lr=lr)
    reg = lam / len(cases)
    rng = np.random.default_rng(seed)
    # numpy's overflow warnings stay quiet: the finite check below is the one report.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, epochs + 1):
            for idx in rng.permutation(len(cases)):
                opt.zero_grad()
                for p in opt.params:
                    p.grad += reg * p.data
                add_grad(*cases[idx])
                opt.step()
            # Once per epoch: a per-step gradient check costs about 2% of pipeline training.
            if not all(np.isfinite(p.data).all() for p in opt.params):
                raise FloatingPointError(
                    f"{type(model).__name__}: non-finite parameters after epoch {epoch}")
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
        """The document's table: one row of known feature ids per position,
        the ids of ``emission_features``, each looked up once per distinct token."""
        if not tokens:
            raise ValueError("cannot score an empty sequence")
        get = self.feature_index.get
        own = {w: [get(f, -1) for f in token_features(w)] for w in set(tokens)}
        prev = {w: get(f"prev={w}", -1) for w in {"<s>", *tokens[:-1]}}
        after = {w: get(f"next={w}", -1) for w in {*tokens[1:], "</s>"}}
        grid = [own[w] + [prev[a], after[b]]
                for a, w, b in zip(["<s>", *tokens], tokens, [*tokens[1:], "</s>"])]
        return FeatureTable(np.array(grid).T.copy())

    def emissions(self, table: FeatureTable) -> np.ndarray:
        """(N, K) emission score matrix."""
        return table.sums(self.w_emit.data)

    def _forward_backward(self, emit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, K) log-space scores of the paths up to i ending in tag k (alpha) and
        after i following tag k (beta).  Step i advances alpha[i] and beta[n-1-i]
        on one (2, K, K) stack of ``w_trans`` and its transpose, summing in order."""
        n, k = emit.shape
        w = self.w_trans.data
        pair, ends = np.stack([w, w.T]), np.stack([emit, emit[::-1]])
        alpha, beta = np.empty((n, k)), np.zeros((n, k))
        alpha[0], carry = emit[0], ends[:, 0]
        for i in range(1, n):
            a = pair + carry[:, :, None]
            m = a.max(axis=1)
            out = np.log(np.exp(a - m[:, None]).sum(axis=1)) + m
            carry = out + ends[:, i]  # alpha[i], and emit + beta at n-1-i
            alpha[i], beta[n - 1 - i] = carry[0], out[1]
        return alpha, beta

    def _gold(self, emit: np.ndarray, tags: list[str]) -> tuple[np.ndarray, float]:
        """The tag ids of ``tags`` and their path score."""
        if len(tags) != len(emit):
            raise ValueError(f"{len(tags)} tags for {len(emit)} tokens")
        y = np.array([self.tag_index[t] for t in tags])
        score = sum(emit[np.arange(len(y)), y].tolist())
        return y, score + sum(self.w_trans.data[y[:-1], y[1:]].tolist())

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

    def nll_and_grad(self, table: FeatureTable, tags: list[str]
                     ) -> tuple[float, np.ndarray, np.ndarray]:
        """Negative log-likelihood of one sequence and its exact gradient:
        expected feature and transition counts minus the gold ones."""
        emit = self.emissions(table)
        y, score = self._gold(emit, tags)
        alpha, beta = self._forward_backward(emit)
        log_z = _logsumexp(alpha[-1])
        delta = np.exp(alpha + beta - log_z)
        delta[np.arange(len(y)), y] -= 1.0
        g_emit = np.zeros_like(self.w_emit.data)
        table.scatter(g_emit, delta)
        # One (N-1, K, K) array of pair marginals, summed over positions.
        pair = alpha[:-1, :, None] + self.w_trans.data + (emit[1:] + beta[1:])[:, None, :]
        g_trans = np.exp(pair - log_z).sum(axis=0)
        np.subtract.at(g_trans, (y[:-1], y[1:]), 1.0)
        return log_z - score, g_emit, g_trans


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
