"""Recurrent encoder: shapes, direction handling, gradients."""

import numpy as np
import pytest

from proptree import nn
from proptree.embeddings import EmbeddingTable
from proptree.encoder import BiLstmLayer, Encoder, LstmDirection

from helpers import finite_difference, lstm_sequence_reference, max_rel_err

VOCAB = ["roof", "villa", "garden", "pool", "attic"]


def make_encoder(d=3, layers=1, dropout=0.0, seed=0):
    table = EmbeddingTable.random(VOCAB, d, seed=seed)
    return Encoder(table, hidden_dim=d, layers=layers, dropout=dropout,
                   rng=np.random.default_rng(seed))


def test_output_shape_and_zero_root():
    enc = make_encoder(d=3)
    out = enc.encode(["villa", "garden"])
    assert out.shape == (3, 6)
    assert np.all(out.data[0] == 0.0)


def test_two_layer_shapes():
    enc = make_encoder(d=3, layers=2)
    out = enc.encode(["villa", "garden", "pool"])
    assert out.shape == (4, 6)
    assert len(enc.params_named().values()) == 12  # 2 layers x 2 directions x (wx, wh, b)
    with pytest.raises(ValueError):
        make_encoder(layers=3)


def test_embedding_width_must_match_hidden():
    table = EmbeddingTable.random(VOCAB, 4, seed=0)
    with pytest.raises(ValueError):
        Encoder(table, hidden_dim=3, layers=1, dropout=0.0,
                rng=np.random.default_rng(0))


def test_forget_gate_bias_starts_open():
    d = 4
    direction = LstmDirection(d, d, np.random.default_rng(0))
    b = direction.b.data
    assert np.all(b[d:2 * d] == 1.0)
    assert np.all(b[:d] == 0.0) and np.all(b[2 * d:] == 0.0)
    assert np.all(np.abs(direction.wx.data) <= 0.05)


def test_initial_state_is_zero():
    # first output depends only on the first input when h0 = c0 = 0:
    # feeding the same first token after different-length zero histories
    # is irrelevant; instead check one-step output matches the closed form
    d = 2
    direction = LstmDirection(d, d, np.random.default_rng(1))
    x = np.array([0.3, -0.7])
    out = direction.run(nn.stack([nn.Tensor(x)])).data[0]
    z = direction.wx.data @ x + direction.b.data
    i = 1 / (1 + np.exp(-z[:d]))
    g = np.tanh(z[2 * d:3 * d])
    o = 1 / (1 + np.exp(-z[3 * d:]))
    expected = o * np.tanh(i * g)  # f * c0 vanishes
    assert np.allclose(out, expected)


def test_backward_direction_mirrors_forward_on_reversed_input():
    # tie both directions to the same weights: encoding a reversed sequence
    # must equal the original encoding reversed with its halves swapped
    d = 3
    layer = BiLstmLayer(d, d, np.random.default_rng(2))
    layer.bwd = layer.fwd
    rng = np.random.default_rng(3)
    xs = [nn.Tensor(rng.normal(size=d)) for _ in range(5)]
    fwd_run, rev_run = layer.run(nn.stack(xs)), layer.run(nn.stack(xs[::-1]))
    fwd_out = np.stack([fwd_run.data[t] for t in range(5)])
    rev_out = np.stack([rev_run.data[t] for t in range(5)])
    swapped = np.concatenate([rev_out[:, d:], rev_out[:, :d]], axis=1)
    assert np.allclose(fwd_out, swapped[::-1])


def reference_lstm(direction, xs, reverse=False):
    """The per-step LSTM recurrence from the closed form, one position at a time."""
    d = direction.wh.shape[1]
    wx, wh, b = direction.wx.data, direction.wh.data, direction.b.data
    h, c = np.zeros(d), np.zeros(d)
    out = np.zeros((len(xs), d))
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for t in order:
        z = wx @ xs[t] + wh @ h + b
        i = 1 / (1 + np.exp(-z[:d]))
        f = 1 / (1 + np.exp(-z[d:2 * d]))
        g = np.tanh(z[2 * d:3 * d])
        o = 1 / (1 + np.exp(-z[3 * d:]))
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_matches_per_step_recurrence(reverse):
    d = 3
    direction = LstmDirection(2, d, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    for p in direction.params_named().values():  # weights large enough to use the gates' range
        p.data[:] = rng.normal(size=p.data.shape)
    xs = np.random.default_rng(6).normal(size=(7, 2))
    out = nn.lstm_sequence(nn.Tensor(xs), direction.wx, direction.wh, direction.b,
                           reverse=reverse)
    assert out.shape == (7, d)
    assert np.abs(out.data - reference_lstm(direction, xs, reverse)).max() < 1e-12


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_lstm_sequence_is_byte_equal_to_frozen_reference(n, d, reverse):
    """The in-place steps do the reference's operations in its order: the
    hidden states and all four gradients are equal bit for bit."""
    rng = np.random.default_rng(n * 100 + d)
    width = d + 2
    x, wx, wh, b = (rng.normal(size=shape) for shape in
                    [(n, width), (4 * d, width), (4 * d, d), (4 * d,)])
    g = rng.normal(size=(n, d))
    with nn.Tape() as tape:
        out = nn.lstm_sequence(nn.Tensor(x), nn.Tensor(wx), nn.Tensor(wh), nn.Tensor(b),
                               reverse=reverse)
    [(_, _, bwd)] = tape._records
    ref_out, ref_grads = lstm_sequence_reference(x, wx, wh, b, g, reverse)
    assert out.data.tobytes() == ref_out.tobytes()
    for got, ref in zip(bwd(g), ref_grads, strict=True):
        assert got.tobytes() == ref.tobytes()


def test_encode_matches_per_step_recurrence():
    enc = make_encoder(d=3, layers=2, seed=7)
    tokens = ["villa", "garden", "pool", "roof", "attic"]
    states = enc.table.lookup(tokens)
    for layer in enc.layers:
        states = np.concatenate([reference_lstm(layer.fwd, states),
                                 reference_lstm(layer.bwd, states, reverse=True)], axis=1)
    expected = np.vstack([np.zeros(6), states])
    assert np.abs(enc.encode(tokens).data - expected).max() < 1e-12


def test_lstm_input_must_be_2d_of_input_width():
    direction = LstmDirection(3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        direction.run(nn.Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError):
        direction.run(nn.Tensor(np.zeros(3)))


def test_encoding_is_bidirectional():
    # perturbing a later token must change earlier positions (backward pass)
    enc = make_encoder(d=3)
    a = enc.encode(["villa", "garden", "pool"]).data
    b = enc.encode(["villa", "garden", "roof"]).data
    assert not np.allclose(a[1], b[1])
    assert np.allclose(a[0], b[0])  # root is insensitive to content


def test_unknown_tokens_fall_back_to_unk_row():
    enc = make_encoder(d=3)
    a = enc.encode(["zzz-unseen"]).data
    b = enc.encode(["qqq-unseen"]).data
    assert np.allclose(a, b)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        make_encoder().encode([])


def test_dropout_only_in_training():
    enc = make_encoder(d=3, dropout=0.5)
    base = enc.encode(["villa", "garden"]).data
    again = enc.encode(["villa", "garden"]).data
    assert np.allclose(base, again)  # eval mode is deterministic
    dropped = enc.encode(["villa", "garden"], train=True,
                         rng=np.random.default_rng(0)).data
    assert not np.allclose(base, dropped)
    assert np.all(dropped[0] == 0.0)  # root row untouched by dropout


def test_dropout_masks_each_layer_input_in_order():
    # The reference draws the embeddings' mask first and layer 2's input mask
    # second from one generator, and scales the kept entries by hand.
    rate, tokens = 0.3, ["villa", "garden", "pool", "roof"]
    enc = make_encoder(d=3, layers=2, dropout=rate)
    got = enc.encode(tokens, train=True, rng=np.random.default_rng(5)).data

    rng = np.random.default_rng(5)
    states = enc.table.lookup(tokens)
    for layer in enc.layers:
        mask = (rng.random(states.shape) >= rate) / (1.0 - rate)
        states = layer.run(nn.Tensor(states * mask)).data
    assert np.array_equal(got[1:], states)
    assert np.all(got[0] == 0.0)

    # At rate 0 training draws nothing and changes nothing.
    enc = make_encoder(d=3, layers=2, dropout=0.0)
    rng = np.random.default_rng(5)
    assert np.array_equal(enc.encode(tokens, train=True, rng=rng).data, enc.encode(tokens).data)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_encoder_gradients_match_finite_differences():
    # layer 2 also checks the gradient with respect to the LSTM's input,
    # which layer 1 cannot: its inputs are frozen embeddings
    for layers in (1, 2):
        enc = make_encoder(d=2, layers=layers)
        tokens = ["villa", "garden", "pool"]
        params = enc.params_named().values()
        arrays = [p.data for p in params]

        def forward():
            out = enc.encode(tokens)
            return float(np.tanh(out.data).sum())

        with nn.Tape() as tape:
            out = enc.encode(tokens)
            loss = nn.reduce_sum(nn.tanh(out))
        tape.backward(loss)
        fd = finite_difference(forward, arrays)
        assert max_rel_err([p.grad for p in params], fd) < 1e-4
