"""Joint (head, label) selection: scoring, normalization, loss, greedy decode.

For every dependent token x_i (i = 1..N) the model scores every candidate
head x_j (j = 0..N, position 0 is the dummy root) under each of the four
relation labels, then softmax-normalizes jointly over all (j, k) pairs:

    score(h_j, h_i, c_k) = V_k . tanh(U_k h_j + W_k h_i + b_k)
    P(head=x_j, label=c_k | x_i) = exp(score) / sum over all (j~, k~)

Training minimizes the summed negative log-probability of the gold pairs.
Greedy inference takes the per-dependent argmax; ties resolve to the
smallest head index, then the smallest label index.  The root is never a
dependent.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .attention import READERS, augment, make_attention, scorer_input_width
from .data import TokenHeadAssignment
from .embeddings import EmbeddingTable
from .encoder import Encoder
from .nn.autodiff import softmax_in_place

N_LABELS = 4


class LabelScorer:
    """One scoring head per relation label over width-m pair inputs."""

    def __init__(self, m: int, l: int, rng: np.random.Generator):
        if not l < m:
            raise ValueError(f"scoring width l={l} must be smaller than input width m={m}")
        self.u = [nn.uniform_param((l, m), rng) for _ in range(N_LABELS)]
        self.w = [nn.uniform_param((l, m), rng) for _ in range(N_LABELS)]
        self.v = [nn.uniform_param((l,), rng) for _ in range(N_LABELS)]
        self.b = [nn.zeros_param((l,)) for _ in range(N_LABELS)]

    def params_named(self, prefix: str = "") -> dict[str, nn.Tensor]:
        return {f"{prefix}{base}{k}": getattr(self, base)[k]
                for k in range(N_LABELS) for base in ("u", "w", "v", "b")}


class JointDistribution:
    """P[i][j][k] per dependent i >= 1; row 0 (the root) is all zeros."""

    def __init__(self, p: np.ndarray):
        self.p = p

    @property
    def n(self) -> int:
        return self.p.shape[0] - 1

    def greedy(self) -> TokenHeadAssignment:
        flat = self.p[1:].reshape(self.n, self.p[0].size).argmax(axis=1)
        return TokenHeadAssignment((flat // N_LABELS).tolist(), (flat % N_LABELS).tolist())


def distribution_rows(scorer: LabelScorer, states: nn.Tensor,
                      out: np.ndarray | None = None) -> nn.Tensor:
    """(N, (N+1)*4) per-dependent joint score rows, over [head j, label k].

    Only the dependents states[1:] are scored; the root is never one.  A
    row's softmax is that dependent's joint distribution.  One ``nn.pair_mlp``
    op scores all four labels, with the dependents as rows and every
    position as a head, into ``out``: an (N, N+1, 4) array, a fresh one when
    None, which the rows view.
    """
    m_pos = states.shape[0]
    out = np.empty((m_pos - 1, m_pos, N_LABELS)) if out is None else out
    return nn.pair_mlp(nn.narrow(states, 0, 1, m_pos), states,
                       list(zip(scorer.w, scorer.u, scorer.b, scorer.v)), out)


def loss_from_rows(rows: nn.Tensor, gold: TokenHeadAssignment) -> nn.Tensor:
    """Summed negative log-likelihood of the gold (head, label) pairs."""
    n = rows.shape[0]
    if gold.n != n:
        raise ValueError(f"gold covers {gold.n} tokens, distribution covers {n}")
    for t, (head, label) in enumerate(zip(gold.heads, gold.labels), start=1):
        if not (0 <= head <= n and 0 <= label < N_LABELS):
            raise ValueError(f"token {t}: gold head {head} and label {label} out of range")
    idx = np.array([head * N_LABELS + label for head, label in zip(gold.heads, gold.labels)])
    return nn.log_softmax_nll(rows, idx)


class JointParser:
    """Encoder + optional attention + joint scorer, trained end to end.

    ``config`` is a joint ``proptree.train.TrainConfig``, which has checked
    every option.  It is not annotated, because ``train`` imports this module."""

    def __init__(self, table: EmbeddingTable, config):
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.encoder = Encoder(table, config.d, config.layers, config.resolved_dropout, rng)
        options = {key: getattr(config, key) for key, reader in READERS.items()
                   if reader == config.attention}
        self.attention = make_attention(config.attention, config.d, config.l, rng,
                                        **options) if config.attention else None
        self.scorer = LabelScorer(scorer_input_width(config.d, config.attention), config.l, rng)

    def params_named(self) -> dict[str, nn.Tensor]:
        named = self.encoder.params_named("enc.")
        if self.attention:
            named |= self.attention.params_named("att.")
        return named | self.scorer.params_named("scorer.")

    def forward_rows(self, tokens: list[str], rng: np.random.Generator | None = None) -> nn.Tensor:
        """Score rows for ``tokens``; the encoder applies dropout exactly when
        ``rng`` is given."""
        states = self.encoder.encode(tokens, rng=rng)
        return distribution_rows(self.scorer, augment(states, self.attention))

    def distribution(self, tokens: list[str]) -> JointDistribution:
        """The rows' softmax, written in place into one (N+1, N+1, 4) array
        whose row 0 is zeroed, so that no other array of its size is made:
        the values and operations, in the same order, of ``nn.softmax``."""
        states = augment(self.encoder.encode(tokens), self.attention)
        p = np.empty((states.shape[0], states.shape[0], N_LABELS))
        p[0] = 0.0
        softmax_in_place(distribution_rows(self.scorer, states, p[1:]).data, 1)
        return JointDistribution(p)

    def loss(self, tokens: list[str], gold: TokenHeadAssignment,
             rng: np.random.Generator | None = None) -> nn.Tensor:
        return loss_from_rows(self.forward_rows(tokens, rng), gold)
