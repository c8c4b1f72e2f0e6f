"""Embedding lookup plus a (optionally stacked) bidirectional LSTM.

The encoder maps a token sequence to one width-2d vector per position,
position 0 being the dummy root.  The root is represented by a zero vector
that never passes through the LSTM and never receives dropout.  Embeddings
are frozen; only LSTM weights train.  When ``encode`` is given a random
generator, as in training, ``nn.dropout`` is applied to the input of every
LSTM layer, the embeddings included; without one, as in prediction, none is.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .embeddings import EmbeddingTable


class LstmDirection(nn.Module):
    """One direction of one LSTM layer.

    Gate layout in the stacked weight matrices is [input, forget, candidate,
    output].  The forget-gate bias starts at +1 to keep early memory open.
    """

    trainable = ("wx", "wh", "b")

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.wx = nn.uniform_param((4 * hidden_dim, input_dim), rng)
        self.wh = nn.uniform_param((4 * hidden_dim, hidden_dim), rng)
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.b = nn.Tensor(bias, requires_grad=True)


class Encoder:
    """tokens -> (N+1, 2d) tensor with a zero root row."""

    def __init__(self, table: EmbeddingTable, hidden_dim: int, layers: int,
                 dropout: float, rng: np.random.Generator):
        if layers not in (1, 2):
            raise ValueError(f"layers must be 1 or 2, got {layers}")
        if table.dim != hidden_dim:
            raise ValueError(f"embedding width {table.dim} != hidden width {hidden_dim}")
        self.table = table
        self.out_dim = 2 * hidden_dim
        self.dropout = dropout
        # (forward, backward) directions per layer; the second layer reads both.
        self.layers = [(LstmDirection(width, hidden_dim, rng), LstmDirection(width, hidden_dim, rng))
                       for width in (hidden_dim, 2 * hidden_dim)[:layers]]

    def params_named(self, prefix: str = "") -> dict[str, nn.Tensor]:
        named = {}
        for i, (fwd, bwd) in enumerate(self.layers):
            named |= fwd.params_named(f"{prefix}l{i}.fwd.")
            named |= bwd.params_named(f"{prefix}l{i}.bwd.")
        return named

    def encode(self, tokens: list[str], rng: np.random.Generator | None = None) -> nn.Tensor:
        """Dropout, drawn from ``rng``, is applied exactly when ``rng`` is given."""
        if not tokens:
            raise ValueError("cannot encode an empty token sequence")
        states = nn.Tensor(self.table.lookup(tokens))
        for fwd, bwd in self.layers:
            if rng is not None:
                states = nn.dropout(states, self.dropout, rng)
            states = nn.concat([nn.lstm_sequence(states, fwd.wx, fwd.wh, fwd.b),
                                nn.lstm_sequence(states, bwd.wx, bwd.wh, bwd.b, reverse=True)],
                               axis=1)
        root = nn.Tensor(np.zeros((1, self.out_dim)))
        return nn.concat([root, states], axis=0)
