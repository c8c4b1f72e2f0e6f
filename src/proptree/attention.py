"""Attention layers between the encoder and the head scorer.

Five variants (additive, bilinear, multiplicative, biaffine, tensor) produce
a pairwise score matrix att[j][i].  Scores are softmax-normalized over i for
each j and turned into context vectors h*_j; the scorer then consumes the
concatenation [h_j ; h*_j] (width 4d).  The sixth variant, edge, is not a
scalar score but a message-passing node update: it replaces the encoded
vectors with new width-2d vectors and can be stacked T times with shared
weights.
"""

from __future__ import annotations

import numpy as np

from . import nn

SCORE_VARIANTS = ("additive", "bilinear", "multiplicative", "biaffine", "tensor")
VARIANTS = SCORE_VARIANTS + ("edge",)


class AdditiveAttention(nn.Module):
    trainable = ("u", "w", "v", "b")

    def __init__(self, d: int, l: int, rng: np.random.Generator):
        self.u = nn.uniform_param((l, 2 * d), rng)
        self.w = nn.uniform_param((l, 2 * d), rng)
        self.v = nn.uniform_param((l,), rng)
        self.b = nn.zeros_param((l,))

    def scores(self, encoded: nn.Tensor) -> nn.Tensor:
        """One ``nn.pair_mlp`` head: u projects the rows j, w the columns i."""
        m = encoded.shape[0]
        return nn.pair_mlp(encoded, encoded, [(self.u, self.w, self.b, self.v)],
                           np.empty((m, m, 1)))


class BilinearAttention(nn.Module):
    trainable = ("w_bil",)

    def __init__(self, d: int, l: int, rng: np.random.Generator):
        self.w_bil = nn.uniform_param((2 * d, 2 * d), rng)

    def scores(self, encoded: nn.Tensor) -> nn.Tensor:
        return nn.matmul(nn.matmul(encoded, self.w_bil), nn.transpose(encoded))


class MultiplicativeAttention(nn.Module):
    def __init__(self, d: int, l: int, rng: np.random.Generator):
        pass

    def scores(self, encoded: nn.Tensor) -> nn.Tensor:
        return nn.matmul(encoded, nn.transpose(encoded))


class BiaffineAttention(nn.Module):
    """Reduce each state with a dense+tanh bottleneck, then score biaffinely."""

    trainable = ("u_dep", "u_head", "v_dep", "v_head", "w_bil", "b_lin", "b_dep", "b_head")

    def __init__(self, d: int, l: int, rng: np.random.Generator, p: int):
        self.u_dep = nn.uniform_param((l, 2 * d), rng)
        self.u_head = nn.uniform_param((l, 2 * d), rng)
        self.v_dep = nn.uniform_param((p, l), rng)
        self.v_head = nn.uniform_param((p, l), rng)
        self.w_bil = nn.uniform_param((p, p), rng)
        self.b_lin = nn.uniform_param((p,), rng)
        self.b_dep = nn.zeros_param((l,))
        self.b_head = nn.zeros_param((l,))

    def scores(self, encoded: nn.Tensor) -> nn.Tensor:
        m = encoded.shape[0]
        dep = nn.matmul(nn.tanh(nn.matmul(encoded, nn.transpose(self.u_dep)) + self.b_dep),
                        nn.transpose(self.v_dep))
        head = nn.matmul(nn.tanh(nn.matmul(encoded, nn.transpose(self.u_head)) + self.b_head),
                         nn.transpose(self.v_head))
        pairwise = nn.matmul(nn.matmul(head, self.w_bil), nn.transpose(dep))
        head_only = nn.reshape(nn.matmul(head, self.b_lin), (m, 1))
        return pairwise + head_only


class TensorAttention(nn.Module):
    """Bilinear slice per hidden unit plus a linear term, squashed and mixed."""

    trainable = ("w_t", "v_t", "u_t", "b_t")

    def __init__(self, d: int, l: int, rng: np.random.Generator):
        self.w_t = nn.uniform_param((2 * d, l, 2 * d), rng)
        self.v_t = nn.uniform_param((l, 2 * d), rng)
        self.u_t = nn.uniform_param((l,), rng)
        self.b_t = nn.zeros_param((l,))

    def scores(self, encoded: nn.Tensor) -> nn.Tensor:
        m = encoded.shape[0]
        two_d, l = self.w_t.shape[0], self.w_t.shape[1]
        # q[j,i,s] = h_j^T W[:,s,:] h_i, built from two flat matmuls
        left = nn.matmul(encoded, nn.reshape(self.w_t, (two_d, l * two_d)))
        q = nn.matmul(nn.reshape(left, (m * l, two_d)), nn.transpose(encoded))
        q = nn.transpose(nn.reshape(q, (m, l, m)), (0, 2, 1))
        lin = nn.matmul(encoded, nn.transpose(self.v_t))
        pair = nn.tanh(q + nn.reshape(lin, (m, 1, l)) + nn.reshape(lin, (1, m, l)) + self.b_t)
        return nn.reshape(nn.matmul(nn.reshape(pair, (m * m, l)), self.u_t), (m, m))


class EdgeAttention(nn.Module):
    """Message passing: aggregate edge vectors into new node states, T rounds."""

    trainable = ("u_e", "w_e", "b_e", "a_src", "a_dst")

    def __init__(self, d: int, l: int, rng: np.random.Generator, steps: int):
        if steps < 1:
            raise ValueError(f"edge attention needs steps >= 1, got {steps}")
        self.steps = steps
        self.u_e = nn.uniform_param((l, 2 * d), rng)
        self.w_e = nn.uniform_param((l, 2 * d), rng)
        self.b_e = nn.zeros_param((l,))
        self.a_src = nn.uniform_param((2 * d, l), rng)
        self.a_dst = nn.uniform_param((2 * d, l), rng)

    def step(self, encoded: nn.Tensor) -> nn.Tensor:
        m, l = encoded.shape[0], self.b_e.shape[0]
        n = m - 1
        src = nn.matmul(encoded, nn.transpose(self.u_e))
        dst = nn.matmul(encoded, nn.transpose(self.w_e))
        pair = nn.tanh(nn.reshape(src, (m, 1, l)) + nn.reshape(dst, (1, m, l)) + self.b_e)
        as_source = nn.reduce_sum(pair, axis=1)
        as_target = nn.reduce_sum(pair, axis=0)
        mixed = nn.matmul(as_source, nn.transpose(self.a_src)) + nn.matmul(
            as_target, nn.transpose(self.a_dst))
        return nn.scale(mixed, 1.0 / n)

    def update(self, encoded: nn.Tensor) -> nn.Tensor:
        for _ in range(self.steps):
            encoded = self.step(encoded)
        return encoded


_CLASSES = {
    "additive": AdditiveAttention,
    "bilinear": BilinearAttention,
    "multiplicative": MultiplicativeAttention,
    "biaffine": BiaffineAttention,
    "tensor": TensorAttention,
    "edge": EdgeAttention,
}


# Each option beyond d and l, and the one variant whose class takes it.
# ``TrainConfig`` owns the options' defaults.
READERS = {"p": "biaffine", "steps": "edge"}


def make_attention(variant: str, d: int, l: int, rng: np.random.Generator, **options: int):
    """A ``variant`` layer.  ``options`` are its class's own keywords: biaffine
    takes ``p`` and edge takes ``steps`` (see ``READERS``), and no class takes
    any other.  Raises ValueError for an unknown variant and TypeError for an
    option that the class does not take, or lacks."""
    if variant not in _CLASSES:
        raise ValueError(f"unknown attention variant {variant!r}; choose from {VARIANTS}")
    return _CLASSES[variant](d, l, rng, **options)


def attention_weights(scores: nn.Tensor) -> nn.Tensor:
    """Normalize att[j][i] over i; each row is a distribution over positions."""
    return nn.softmax(scores, axis=1)


def context_vectors(scores: nn.Tensor, encoded: nn.Tensor) -> nn.Tensor:
    """h*_j = sum_i a(h_j, h_i) h_i for every position j."""
    return nn.matmul(attention_weights(scores), encoded)


def augment(encoded: nn.Tensor, layer) -> nn.Tensor:
    """Apply an attention layer; returns the scorer input sequence.

    Score-producing variants concatenate each state with its context vector
    (width 4d); the edge variant swaps in its message-passed states (2d).
    ``layer=None`` is the attention-free passthrough.
    """
    if layer is None:
        return encoded
    if isinstance(layer, EdgeAttention):
        return layer.update(encoded)
    return nn.concat([encoded, context_vectors(layer.scores(encoded), encoded)], axis=1)


def scorer_input_width(d: int, variant: str | None) -> int:
    if variant is None or variant == "edge":
        return 2 * d
    return 4 * d
