"""Attention variants vs direct per-pair numpy computations."""

import numpy as np
import pytest

from proptree import nn
from proptree.attention import (
    READERS,
    SCORE_VARIANTS,
    VARIANTS,
    EdgeAttention,
    attention_weights,
    augment,
    context_vectors,
    make_attention,
    scorer_input_width,
)
from proptree.train import TrainConfig

from helpers import finite_difference, max_rel_err

D, L, M = 3, 4, 5  # hidden size, layer size, positions incl. root


def states(seed=0):
    return np.random.default_rng(seed).normal(size=(M, 2 * D))


def layer_for(variant, seed=1, **kw):
    """A ``variant`` layer; biaffine and edge get ``TrainConfig``'s ``p`` and
    ``steps`` unless ``kw`` gives them."""
    read = {key: getattr(TrainConfig, key) for key, reader in READERS.items() if reader == variant}
    return make_attention(variant, D, L, np.random.default_rng(seed), **read | kw)


def test_factory_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown attention variant 'fancy'"):
        layer_for("fancy")
    with pytest.raises(ValueError):
        layer_for("edge", steps=0)


def test_factory_passes_each_option_only_to_its_reader():
    assert READERS == {"p": "biaffine", "steps": "edge"}
    assert layer_for("biaffine", p=2).w_bil.shape == (2, 2)
    assert layer_for("edge", steps=3).steps == 3
    # The classes hold no defaults: biaffine needs p and edge needs steps.
    for variant in ("biaffine", "edge"):
        with pytest.raises(TypeError):
            make_attention(variant, D, L, np.random.default_rng(1))
    # An option that a class does not take is Python's own TypeError.
    for variant in VARIANTS:
        for key in ("p", "steps", "heads"):
            if READERS.get(key) != variant:
                with pytest.raises(TypeError, match=key):
                    layer_for(variant, **{key: 2})


@pytest.mark.parametrize("variant", SCORE_VARIANTS)
def test_score_shapes_and_normalization(variant):
    layer = layer_for(variant)
    att = layer.scores(nn.Tensor(states()))
    assert att.shape == (M, M)
    weights = attention_weights(att)
    assert np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(weights.data >= 0.0)


def test_additive_matches_loop():
    layer = layer_for("additive")
    h = states()
    att = layer.scores(nn.Tensor(h)).data
    u, w, v, b = (t.data for t in layer.params_named().values())
    for j in range(M):
        for i in range(M):
            expect = v @ np.tanh(u @ h[j] + w @ h[i] + b)
            assert att[j, i] == pytest.approx(expect)


def test_bilinear_matches_loop_and_identity_reduces_to_multiplicative():
    layer = layer_for("bilinear")
    h = states()
    att = layer.scores(nn.Tensor(h)).data
    wb = layer.w_bil.data
    for j in range(M):
        for i in range(M):
            assert att[j, i] == pytest.approx(h[j] @ wb @ h[i])

    layer.w_bil.data[:] = np.eye(2 * D)
    plain = layer_for("multiplicative").scores(nn.Tensor(h)).data
    assert np.allclose(layer.scores(nn.Tensor(h)).data, plain)
    assert np.allclose(plain, h @ h.T)


def test_biaffine_matches_loop():
    layer = layer_for("biaffine", p=6)
    h = states()
    att = layer.scores(nn.Tensor(h)).data
    for j in range(M):
        hd = layer.v_head.data @ np.tanh(layer.u_head.data @ h[j] + layer.b_head.data)
        for i in range(M):
            dp = layer.v_dep.data @ np.tanh(layer.u_dep.data @ h[i] + layer.b_dep.data)
            expect = hd @ layer.w_bil.data @ dp + layer.b_lin.data @ hd
            assert att[j, i] == pytest.approx(expect)


def test_tensor_matches_loop():
    layer = layer_for("tensor")
    h = states()
    att = layer.scores(nn.Tensor(h)).data
    w_t, v_t, u_t, b_t = (t.data for t in layer.params_named().values())
    for j in range(M):
        for i in range(M):
            q = np.array([h[j] @ w_t[:, s, :] @ h[i] for s in range(L)])
            expect = u_t @ np.tanh(q + v_t @ h[j] + v_t @ h[i] + b_t)
            assert att[j, i] == pytest.approx(expect)


def test_edge_step_matches_loop():
    layer = layer_for("edge")
    h = states()
    out = layer.step(nn.Tensor(h)).data
    u_e, w_e, b_e = layer.u_e.data, layer.w_e.data, layer.b_e.data
    a_src, a_dst = layer.a_src.data, layer.a_dst.data
    n = M - 1  # token count excludes the root position

    def edge(j, i):
        return np.tanh(u_e @ h[j] + w_e @ h[i] + b_e)

    for j in range(M):
        outgoing = sum(edge(j, i) for i in range(M))
        incoming = sum(edge(i, j) for i in range(M))
        expect = (a_src @ outgoing + a_dst @ incoming) / n
        assert np.allclose(out[j], expect)


def test_edge_steps_compose():
    one = layer_for("edge", steps=1)
    two = layer_for("edge", steps=2)
    for src, dst in zip(one.params_named().values(), two.params_named().values()):
        dst.data[:] = src.data
    h = nn.Tensor(states())
    twice = one.step(one.step(h)).data
    assert np.allclose(two.update(h).data, twice)
    assert two.update(h).shape == (M, 2 * D)


def test_scores_are_permutation_equivariant():
    perm = np.array([3, 0, 4, 2, 1])
    h = states()
    for variant in SCORE_VARIANTS:
        layer = layer_for(variant)
        att = layer.scores(nn.Tensor(h)).data
        att_p = layer.scores(nn.Tensor(h[perm])).data
        assert np.allclose(att_p, att[np.ix_(perm, perm)]), variant


def test_constant_scores_average_context():
    layer = layer_for("additive")
    layer.v.data[:] = 0.0  # all scores zero -> uniform weights
    h = states()
    ctx = context_vectors(layer.scores(nn.Tensor(h)), nn.Tensor(h)).data
    assert np.allclose(ctx, np.tile(h.mean(axis=0), (M, 1)))


def test_augment_widths():
    h = nn.Tensor(states())
    assert augment(h, None) is h
    assert scorer_input_width(D, None) == 2 * D
    for variant in SCORE_VARIANTS:
        out = augment(h, layer_for(variant))
        assert out.shape == (M, 4 * D)
        assert np.allclose(out.data[:, :2 * D], h.data)  # original states kept
        assert scorer_input_width(D, variant) == 4 * D
    out = augment(h, layer_for("edge", steps=2))
    assert out.shape == (M, 2 * D)
    assert scorer_input_width(D, "edge") == 2 * D


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradients_match_finite_differences(variant):
    layer = layer_for(variant, seed=9)
    h = states(seed=10)
    params = layer.params_named().values()
    for p in params:  # widen from init scale so gradients are not vanishing
        p.data *= 10.0
    if not params:  # multiplicative has none; perturb the states instead
        params = [nn.Tensor(h, requires_grad=True)]
        arrays = [params[0].data]

        def build():
            return nn.reduce_sum(nn.tanh(augment(params[0], layer)))
    else:
        arrays = [p.data for p in params]

        def build():
            return nn.reduce_sum(nn.tanh(augment(nn.Tensor(h), layer)))

    with nn.Tape() as tape:
        loss = build()
    tape.backward(loss)
    fd = finite_difference(lambda: build().item(), arrays)
    assert max_rel_err([p.grad for p in params], fd) < 1e-4
