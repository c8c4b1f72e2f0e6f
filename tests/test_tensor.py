"""Gradient and contract tests for the tensor engine."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from proptree import nn
from proptree.nn import Tape, Tensor

from helpers import adam_step_reference, finite_difference, max_rel_err, sigmoid

TOL = 1e-4


def analytic_and_fd(build, arrays):
    """Gradients of build() via the tape vs central finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
    tape.backward(loss)
    fd = finite_difference(lambda: build(*tensors).item(), arrays)
    return [t.grad for t in tensors], fd


def assert_grads_match(build, *arrays):
    analytic, fd = analytic_and_fd(build, list(arrays))
    assert max_rel_err(analytic, fd) < TOL


def test_add_broadcast_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 1))

    def build(ta, tb):
        return nn.reduce_sum(nn.tanh(nn.add(ta, tb)))

    assert_grads_match(build, a, b)


@pytest.mark.parametrize(
    "sa,sb",
    [((2, 3), (3, 4)), ((2, 3), (3,))],
)
def test_matmul_grads_all_rank_cases(sa, sb):
    rng = np.random.default_rng(2)
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)

    def build(ta, tb):
        return nn.reduce_sum(nn.tanh(nn.matmul(ta, tb)))

    assert_grads_match(build, a, b)


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        nn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError):
        nn.matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2))))
    for right in ((3, 4), (3,)):
        with pytest.raises(ValueError, match="2-D left"):
            nn.matmul(Tensor(np.zeros(3)), Tensor(np.zeros(right)))
    with pytest.raises(ValueError):
        nn.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_activation_grads():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) * 3.0

    def build(ta):
        return nn.reduce_sum(nn.matmul(nn.tanh(ta), sigmoid(ta)))

    assert_grads_match(build, a)


def test_sigmoid_extreme_inputs_stable():
    y = sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
    assert np.all(np.isfinite(y.data))
    assert y.data[0] == pytest.approx(0.0, abs=1e-12)
    assert y.data[2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_reduce_sum_grads(axis):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4))

    def build(ta):
        s = nn.reduce_sum(ta, axis=axis)
        if axis is None:
            return s
        return nn.reduce_sum(nn.tanh(s))

    assert_grads_match(build, a)


def test_softmax_rows_normalize_and_grads():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 6)) * 5.0
    y = nn.softmax(Tensor(a), axis=1)
    assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(y.data >= 0)

    # gradient through a non-linear readout so dL/dy is not constant
    def build(ta):
        return nn.reduce_sum(nn.tanh(nn.scale(nn.softmax(ta, axis=1), 3.0)))

    assert_grads_match(build, a)


def test_softmax_max_shift_handles_large_scores():
    y = nn.softmax(Tensor(np.array([[1e4, 1e4 + 1.0]])), axis=1)
    assert np.all(np.isfinite(y.data))
    assert y.data.sum() == pytest.approx(1.0)


def test_shape_op_grads():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(3, 4))

    def build(ta, tb):
        p = nn.permute(ta, (1, 0, 2))  # (3, 2, 4)
        flat = nn.reshape(p, (3, 8))
        t = nn.transpose(tb)  # (4, 3)
        piece = nn.narrow(flat, 1, 2, 6)  # (3, 4)
        joined = nn.concat([piece, nn.transpose(t)], axis=1)  # (3, 8)
        stacked = nn.stack([joined, joined], axis=0)
        return nn.reduce_sum(nn.tanh(stacked))

    assert_grads_match(build, a, b)


def test_dropout_contract():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(200,)) + 5.0, requires_grad=True)

    assert nn.dropout(x, 0.0, rng) is x

    with Tape() as tape:
        y = nn.dropout(x, 0.5, rng)
        loss = nn.reduce_sum(y)
    kept = y.data != 0.0
    # inverted scaling: survivors are x / (1 - rate)
    assert np.allclose(y.data[kept], x.data[kept] * 2.0)
    assert 0.3 < kept.mean() < 0.7
    tape.backward(loss)
    assert np.allclose(x.grad[kept], 2.0)
    assert np.allclose(x.grad[~kept], 0.0)

    with pytest.raises(ValueError):
        nn.dropout(x, 1.0, rng)
    with pytest.raises(ValueError):
        nn.dropout(x, -0.1, rng)


def square(x):
    """x * x of a scalar tensor, as a (1, 1) @ (1,) matrix product."""
    return nn.reshape(nn.matmul(nn.reshape(x, (1, 1)), nn.reshape(x, (1,))), ())


def test_tape_is_single_use():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        loss = square(x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = nn.tanh(x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_grads_accumulate_across_tapes():
    x = Tensor(np.array(3.0), requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            loss = square(x)
        tape.backward(loss)
    assert x.grad == pytest.approx(12.0)  # 2 * (2x)
    x.zero_grad()
    assert x.grad == pytest.approx(0.0)


# Exported names that are not recorded operations.
NOT_PRIMITIVES = {"Adam", "FORMAT_VERSION", "Module", "Tape", "Tensor", "load_checkpoint",
                  "save_checkpoint", "uniform_param", "zeros_param"}


def test_every_primitive_returns_one_gradient_per_input():
    """Each exported primitive records one op whose backward pass gives every
    input an array of that input's shape; ``Tape.backward`` relies on it."""
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(size=shape))

    calls = {
        "add": lambda: nn.add(t(3, 4), t(3, 1)),
        "concat": lambda: nn.concat([t(2, 3), t(4, 3)], axis=0),
        "dropout": lambda: nn.dropout(t(3, 4), 0.5, rng),
        "log_softmax_nll": lambda: nn.log_softmax_nll(t(3, 4), np.array([0, 3, 1])),
        "lstm_sequence": lambda: nn.lstm_sequence(t(5, 3), t(8, 3), t(8, 2), t(8), reverse=True),
        "matmul": lambda: nn.matmul(t(2, 3), t(3)),
        "narrow": lambda: nn.narrow(t(3, 5), 1, 1, 4),
        "pair_mlp": lambda: nn.pair_mlp(t(3, 4), t(2, 4), t(4), t(4)),
        "permute": lambda: nn.permute(t(2, 3, 4), (2, 0, 1)),
        "reduce_sum": lambda: nn.reduce_sum(t(3, 4), axis=1),
        "reshape": lambda: nn.reshape(t(3, 4), (2, 6)),
        "scale": lambda: nn.scale(t(3, 4), 0.5),
        "softmax": lambda: nn.softmax(t(3, 4)),
        "stack": lambda: nn.stack([t(3), t(3)], axis=1),
        "tanh": lambda: nn.tanh(t(3, 4)),
        "transpose": lambda: nn.transpose(t(3, 4)),
    }
    assert set(calls) == set(nn.__all__) - NOT_PRIMITIVES
    for name, call in calls.items():
        with Tape() as tape:
            out = call()
        [(recorded, inputs, bwd)] = tape._records
        assert recorded is out, name
        grads = bwd(np.asarray(rng.normal(size=out.shape)))
        assert len(grads) == len(inputs), name
        for x, g in zip(inputs, grads):
            assert isinstance(g, np.ndarray) and g.shape == x.shape, name


def test_ops_outside_tape_record_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    nn.tanh(x)  # no active tape
    with Tape() as tape:
        pass
    assert len(tape) == 0
    y = nn.tanh(x)
    assert y.requires_grad is False and y.grad is None


def test_param_constructors():
    rng = np.random.default_rng(9)
    u = nn.uniform_param((50, 3), rng)
    assert u.requires_grad and u.shape == (50, 3)
    assert np.all(np.abs(u.data) <= 0.05)
    z = nn.zeros_param((4,))
    assert z.requires_grad and np.all(z.data == 0.0)


def test_adam_step_size_and_convergence():
    # with constant gradient the first bias-corrected step has magnitude ~lr
    p = Tensor(np.array([10.0, -10.0]), requires_grad=True)
    opt = nn.Adam([p], lr=0.1)
    p.grad[:] = [4.0, -7.0]
    before = p.data.copy()
    opt.step()
    assert np.allclose(np.abs(p.data - before), 0.1, atol=1e-6)

    # minimize (p - 3)^2
    p = Tensor(np.array(0.0), requires_grad=True)
    opt = nn.Adam([p], lr=0.05)
    for _ in range(2000):
        p.zero_grad()
        with Tape() as tape:
            diff = nn.add(p, -3.0)
            loss = square(diff)
        tape.backward(loss)
        opt.step()
    assert p.item() == pytest.approx(3.0, abs=1e-3)

    with pytest.raises(ValueError):
        nn.Adam([Tensor(np.zeros(2))], lr=0.1)


# With blocks of 7: sizes below, at, just above and several times a block.
BLOCK_SHAPES = [(), (6,), (7,), (8,), (7, 1), (2, 4), (3, 5), (2, 2, 5), (3, 3, 3), (4, 7, 2)]


@settings(max_examples=60)
@given(shapes=st.lists(st.sampled_from(BLOCK_SHAPES) | array_shapes(min_dims=0, max_dims=3),
                       min_size=1, max_size=4),
       lrs=st.lists(st.floats(1e-6, 1e3), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_adam_step_is_the_whole_array_step(shapes, lrs, seed):
    """Adam in blocks of 7 scalars leaves data, m and v byte-equal to the
    frozen whole-array step, over gradients that include +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    starts = [rng.normal(size=shape) for shape in shapes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn.optim, "ADAM_BLOCK", 7)
        blocked = nn.Adam([Tensor(x.copy(), requires_grad=True) for x in starts])
    whole = nn.Adam([Tensor(x.copy(), requires_grad=True) for x in starts])
    for lr in lrs:
        for shape, p, q in zip(shapes, blocked.params, whole.params):
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            g = np.where(rng.random(size=shape) < 0.2, rng.choice([0.0, -0.0], size=shape), g)
            p.grad[...] = q.grad[...] = g
        blocked.lr = whole.lr = lr
        blocked.step()
        adam_step_reference(whole)
    for p, q in zip(blocked.params, whole.params):
        assert p.data.tobytes() == q.data.tobytes()
    for ours, ref in zip(blocked._m + blocked._v, whole._m + whole._v):
        assert ours.tobytes() == ref.tobytes()


def test_adam_memory_is_m_v_and_two_blocks():
    """Adam allocates m and v plus two scratch blocks that every parameter
    shares, and its step allocates nothing."""
    p = Tensor(np.zeros(1_000_000), requires_grad=True)
    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    tracemalloc.start()
    try:
        opt = nn.Adam([p], lr=0.1)
        arrays = tracemalloc.take_snapshot().filter_traces([domain])
        assert sum(t.size for t in arrays.traces) <= (2 * p.data.size
                                                      + 2 * nn.optim.ADAM_BLOCK) * 8
        p.grad[...] = 1.0
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        opt.step()
        assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
    finally:
        tracemalloc.stop()
    assert np.all(p.data < 0.0)


def test_adam_rejects_non_contiguous_parameters():
    """A flat view of a non-contiguous array is a copy, so its updates would be lost."""
    with pytest.raises(ValueError, match="C-contiguous"):
        nn.Adam([Tensor(np.zeros((3, 4)).T, requires_grad=True)])
    p = Tensor(np.zeros((3, 4)), requires_grad=True)
    p.grad = np.zeros((4, 3)).T
    with pytest.raises(ValueError, match="C-contiguous"):
        nn.Adam([p])


def composed_pair_mlp(rows, cols, b, v):
    """v . tanh((rows[r] + cols[c]) + b) from elementary tape ops."""
    (r, l), c = rows.shape, cols.shape[0]
    pair = nn.tanh(nn.reshape(rows, (r, 1, l)) + nn.reshape(cols, (1, c, l)) + b)
    return nn.reshape(nn.matmul(nn.reshape(pair, (r * c, l)), v), (r, c))


def pair_mlp_inputs(n_rows, n_cols, l=5, seed=10):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n_rows, l)), rng.normal(size=(n_cols, l)),
            rng.normal(size=l), rng.normal(size=l)]


def pair_mlp_value_and_grads(op, arrays, weights):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*tensors)
        loss = nn.reduce_sum(nn.matmul(nn.reshape(out, (1, -1)), Tensor(weights.ravel())))
    tape.backward(loss)
    return out.data, [t.grad for t in tensors]


BLOCK = nn.autodiff.PAIR_BLOCK
SIZES = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 40)


@pytest.mark.parametrize("n_rows", SIZES)
@pytest.mark.parametrize("n_cols", SIZES)
def test_pair_mlp_matches_composed_ops(n_rows, n_cols):
    arrays = pair_mlp_inputs(n_rows, n_cols)
    weights = np.random.default_rng(11).normal(size=(n_rows, n_cols))
    out, grads = pair_mlp_value_and_grads(nn.pair_mlp, arrays, weights)
    ref_out, ref_grads = pair_mlp_value_and_grads(composed_pair_mlp, arrays, weights)
    assert out.shape == (n_rows, n_cols)
    assert np.max(np.abs(out - ref_out)) <= 1e-12
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert np.max(np.abs(g - ref)) <= 1e-12


def test_pair_mlp_forward_is_the_same_with_and_without_tape():
    tensors = [Tensor(a) for a in pair_mlp_inputs(2 * BLOCK + 3, 29, l=8)]
    untaped = nn.pair_mlp(*tensors).data
    with Tape() as tape:
        taped = nn.pair_mlp(*tensors).data
    assert len(tape) == 1
    assert np.array_equal(untaped, taped)


def test_pair_mlp_grads():
    def build(rows, cols, b, v):
        return nn.reduce_sum(nn.tanh(nn.pair_mlp(rows, cols, b, v)))

    assert_grads_match(build, *pair_mlp_inputs(BLOCK + 2, 3, l=3))


def test_pair_mlp_shape_errors():
    rows, cols, b, v = (Tensor(a) for a in pair_mlp_inputs(3, 4, l=5))
    with pytest.raises(ValueError):
        nn.pair_mlp(rows, Tensor(np.zeros((4, 6))), b, v)
    with pytest.raises(ValueError):
        nn.pair_mlp(rows, cols, Tensor(np.zeros(4)), v)


def test_log_softmax_nll_value_and_grads():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 6)) * 5.0
    idx = np.array([5, 0, 2, 2])
    p = nn.softmax(Tensor(a), axis=1).data
    want = -np.log(p[np.arange(4), idx]).sum()
    assert nn.log_softmax_nll(Tensor(a), idx).item() == pytest.approx(want, rel=1e-12)

    assert_grads_match(lambda t: nn.log_softmax_nll(t, idx), a)

    with pytest.raises(ValueError):
        nn.log_softmax_nll(Tensor(a), np.array([0, 1]))


def test_log_softmax_nll_is_finite_where_softmax_underflows():
    scores = Tensor(np.array([[1e4, -1e4, 0.0]]), requires_grad=True)
    assert nn.softmax(scores, axis=1).data[0, 1] == 0.0  # log of it would be -inf
    with Tape() as tape:
        loss = nn.log_softmax_nll(scores, np.array([1]))
    tape.backward(loss)
    assert loss.item() == pytest.approx(2e4)
    assert np.array_equal(scores.grad, [[1.0, -1.0, 0.0]])
