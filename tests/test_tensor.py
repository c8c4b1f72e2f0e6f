"""Gradient and contract tests for the tensor engine."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from proptree import nn
from proptree.nn import Tape, Tensor

from helpers import (adam_step_reference, finite_difference, max_rel_err, pair_mlp_reference,
                     sigmoid, tape_backward_reference)

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
        p = nn.transpose(ta, (1, 0, 2))  # (3, 2, 4)
        flat = nn.reshape(p, (3, 8))
        t = nn.transpose(tb)  # (4, 3)
        piece = nn.narrow(flat, 1, 2, 6)  # (3, 4)
        joined = nn.concat([piece, nn.transpose(t)], axis=1)  # (3, 8)
        return nn.reduce_sum(nn.tanh(joined))

    assert_grads_match(build, a, b)


def test_transpose_backward_is_the_inverse_permutation():
    """Output axis i is input axis axes[i], so the gradient of input entry
    [i, j, k] is the output gradient at [k, i, j] for axes (2, 0, 1)."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    with Tape() as tape:
        out = nn.transpose(x, (2, 0, 1))
    assert out.shape == (4, 2, 3)
    [(_, _, bwd)] = tape._records
    g = rng.normal(size=out.shape)
    (gx,) = bwd(g)
    assert gx.shape == (2, 3, 4)
    for i, j, k in np.ndindex(*gx.shape):
        assert gx[i, j, k] == g[k, i, j]

    # The same against finite differences, through a loss that weights every output entry.
    weights = rng.normal(size=(4, 2, 3))

    def build(ta):
        return nn.reduce_sum(nn.tanh(nn.add(nn.transpose(ta, (2, 0, 1)), weights)))

    assert_grads_match(build, x.data)


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
    x.grad.fill(0.0)
    assert x.grad == pytest.approx(0.0)


GRAPH_OPS = ("matmul", "add", "tanh", "concat", "transpose")


def random_graph(leaf_arrays, plan, shared):
    """Leaves over ``leaf_arrays`` and a taped scalar loss over a graph that
    ``plan`` builds: each (op, i, j) applies ``op`` to value i and to the
    first value from j on whose shape fits, or ``tanh`` where none fits.
    The first ``shared`` ops all read leaf 0.  The loss sums every value
    that an op made, so each op's gradient reaches the leaves."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in leaf_arrays]
    values = list(leaves)
    fits = {"matmul": lambda a, b: a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0],
            "add": lambda a, b: a.shape == b.shape,
            "concat": lambda a, b: a.ndim == b.ndim and a.shape[1:] == b.shape[1:]}
    with Tape() as tape:
        for step, (op, i, j) in enumerate(plan):
            a = values[0] if step < shared else values[i % len(values)]
            others = [values[(j + k) % len(values)] for k in range(len(values))]
            b = next((v for v in others if op in fits and fits[op](a.data, v.data)), None)
            if op == "transpose":
                values.append(nn.transpose(a))
            elif b is None:
                values.append(nn.tanh(a))
            elif op == "concat":
                values.append(nn.concat([a, b], axis=0))
            else:
                values.append(getattr(nn, op)(a, b))
        loss = nn.reduce_sum(nn.tanh(values[len(leaves)]))
        for v in values[len(leaves) + 1:]:
            loss = nn.add(loss, nn.reduce_sum(nn.tanh(v)))
    return leaves, loss, tape


@settings(max_examples=80)
@given(shapes=st.lists(st.sampled_from([(2, 2), (2, 3), (3, 2), (3,)]), min_size=1, max_size=3),
       plan=st.lists(st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 99),
                               st.integers(0, 99)), min_size=3, max_size=8),
       shared=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_tape_backward_matches_the_frozen_loop(shapes, plan, shared, seed):
    """Leaf gradients added as they arrive equal the frozen loop's, which
    adds each leaf's summed gradient once at the end: byte for byte from
    zero ``grad`` buffers, and within 1e-12 from non-zero ones, where the
    sum is only reassociated."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    starts = [rng.normal(size=shape) for shape in shapes]
    for nonzero in (False, True):
        ours, loss, tape = random_graph(arrays, plan, shared)
        ref, ref_loss, ref_tape = random_graph(arrays, plan, shared)
        if nonzero:
            for t, r, g in zip(ours, ref, starts):
                t.grad[...] = r.grad[...] = g
        tape.backward(loss)
        tape_backward_reference(ref_tape, ref_loss)
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        for t, r in zip(ours, ref):
            if nonzero:
                assert np.abs(t.grad - r.grad).max() <= 1e-12
            else:
                assert t.grad.tobytes() == r.grad.tobytes()


def test_backward_of_a_leaf_loss_adds_one_to_its_grad():
    # A recorded op reads the leaf, but the loss is the leaf itself.
    for start in (0.0, 0.25):
        x, ref = (Tensor(np.array(2.0), requires_grad=True) for _ in range(2))
        for leaf in (x, ref):
            leaf.grad[...] = start
        with Tape() as tape:
            square(x)
        with Tape() as ref_tape:
            square(ref)
        tape.backward(x)
        tape_backward_reference(ref_tape, ref)
        assert x.grad.tobytes() == ref.grad.tobytes() == np.float64(start + 1.0).tobytes()


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
        "pair_mlp": lambda: nn.pair_mlp(t(3, 4), t(2, 5), [(t(6, 4), t(6, 5), t(6), t(6)),
                                                         (t(2, 4), t(2, 5), t(2), t(2))],
                                        np.empty((3, 2, 2))),
        "reduce_sum": lambda: nn.reduce_sum(t(3, 4), axis=1),
        "reshape": lambda: nn.reshape(t(3, 4), (2, 6)),
        "scale": lambda: nn.scale(t(3, 4), 0.5),
        "softmax": lambda: nn.softmax(t(3, 4)),
        "tanh": lambda: nn.tanh(t(3, 4)),
        "transpose": lambda: nn.transpose(t(3, 4)),
        "transpose axes=(2, 0, 1)": lambda: nn.transpose(t(2, 3, 4), (2, 0, 1)),
    }
    assert {name.split()[0] for name in calls} == set(nn.__all__) - NOT_PRIMITIVES
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
        p.grad.fill(0.0)
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
        blocked = nn.Adam([Tensor(x.copy(), requires_grad=True) for x in starts], lr=1e-3)
    whole = nn.Adam([Tensor(x.copy(), requires_grad=True) for x in starts], lr=1e-3)
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


def test_adam_moves_parameters_into_one_flat_store():
    """After ``nn.Adam(params, lr)`` each tensor's data and grad are views into
    ``opt.data`` and ``opt.grad`` at consecutive offsets, in order, and hold
    their earlier values; writes through either side reach the other."""
    rng = np.random.default_rng(3)
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in [(3, 4), (), (5,), (2, 1, 3)]]
    for p in params:
        p.grad[...] = rng.normal(size=p.shape)
    before = [(p.data.copy(), p.grad.copy()) for p in params]
    opt = nn.Adam(params, lr=1e-3)
    n = sum(p.data.size for p in params)
    assert opt.data.shape == opt.grad.shape == (n,)
    for p, (data, grad) in zip(params, before):
        assert p.data.tobytes() == data.tobytes() and p.grad.tobytes() == grad.tobytes()
    opt.data[...] = np.arange(n)
    opt.grad[...] = -np.arange(n)
    start = 0
    for p in params:
        stop = start + p.data.size
        assert p.data.ravel().tolist() == list(range(start, stop))
        assert p.grad.ravel().tolist() == [-i for i in range(start, stop)]
        p.data[...] = 0.5
        assert np.all(opt.data[start:stop] == 0.5)
        start = stop
    opt.zero_grad()
    assert all(np.all(p.grad == 0.0) for p in params)


def test_adam_keeps_arrays_that_already_lie_end_to_end():
    """A lone contiguous tensor keeps its own arrays, and so do tensors that an
    earlier optimizer already moved into one store: nothing is copied."""
    p = Tensor(np.ones((3, 4)), requires_grad=True)
    data, grad = p.data, p.grad
    opt = nn.Adam([p], lr=1e-3)
    assert np.shares_memory(opt.data, data) and np.shares_memory(opt.grad, grad)
    assert np.shares_memory(p.data, data) and np.shares_memory(p.grad, grad)
    params = [Tensor(np.full(s, 2.0), requires_grad=True) for s in [(2, 3), (4,), ()]]
    first = nn.Adam(params, lr=1e-3)
    views = [(p.data, p.grad) for p in params]
    second = nn.Adam(params, lr=1e-3)
    assert second.data is first.data and second.grad is first.grad
    assert all(p.data is d and p.grad is g for p, (d, g) in zip(params, views))


def test_adam_rejects_non_contiguous_parameters():
    """A flat view of a non-contiguous array is a copy, so its updates would be lost."""
    with pytest.raises(ValueError, match="C-contiguous"):
        nn.Adam([Tensor(np.zeros((3, 4)).T, requires_grad=True)], lr=1e-3)
    p = Tensor(np.zeros((3, 4)), requires_grad=True)
    p.grad = np.zeros((4, 3)).T
    with pytest.raises(ValueError, match="C-contiguous"):
        nn.Adam([p], lr=1e-3)


def composed_pair_mlp(rows, cols, *params):
    """v . tanh((rows[r] @ w.T + cols[c] @ u.T) + b) per head (w, u, b, v),
    from elementary tape ops, as (R, C*K) rows."""
    r, c = rows.shape[0], cols.shape[0]
    scores = []
    for w, u, b, v in zip(*[iter(params)] * 4):
        l = v.shape[0]
        pair = nn.tanh(nn.reshape(nn.matmul(rows, nn.transpose(w)), (r, 1, l))
                       + nn.reshape(nn.matmul(cols, nn.transpose(u)), (1, c, l)) + b)
        scores.append(nn.reshape(nn.matmul(nn.reshape(pair, (r * c, l)), v), (r, c, 1)))
    return nn.reshape(nn.concat(scores, axis=2), (r, -1))


def pair_mlp_op(rows, cols, *params):
    """``nn.pair_mlp`` over heads given flat as w0, u0, b0, v0, w1, ..."""
    heads = list(zip(*[iter(params)] * 4))
    return nn.pair_mlp(rows, cols, heads, np.empty((rows.shape[0], cols.shape[0], len(heads))))


def pair_mlp_inputs(n_rows, n_cols, l=5, n_heads=2, m=4, n=3, seed=10):
    """rows (R, m), cols (C, n), then per head w (l, m), u (l, n), b and v (l,)."""
    rng = np.random.default_rng(seed)
    head = [(l, m), (l, n), (l,), (l,)]
    return [rng.normal(size=shape) for shape in [(n_rows, m), (n_cols, n)] + head * n_heads]


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
    weights = np.random.default_rng(11).normal(size=(n_rows, 2 * n_cols))
    out, grads = pair_mlp_value_and_grads(pair_mlp_op, arrays, weights)
    ref_out, ref_grads = pair_mlp_value_and_grads(composed_pair_mlp, arrays, weights)
    assert out.shape == (n_rows, 2 * n_cols)
    assert np.max(np.abs(out - ref_out)) <= 1e-12
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert np.max(np.abs(g - ref)) <= 1e-12


def test_pair_mlp_forward_is_the_same_with_and_without_tape():
    tensors = [Tensor(a) for a in pair_mlp_inputs(2 * BLOCK + 3, 29, l=8, n_heads=4)]
    untaped = pair_mlp_op(*tensors).data
    with Tape() as tape:
        taped = pair_mlp_op(*tensors).data
    assert len(tape) == 1
    assert np.array_equal(untaped, taped)


def test_pair_mlp_grads():
    def build(*tensors):
        return nn.reduce_sum(nn.tanh(pair_mlp_op(*tensors)))

    assert_grads_match(build, *pair_mlp_inputs(BLOCK + 2, 3, l=3))


def test_pair_mlp_shape_errors():
    rows, cols, w, u, b, v = (Tensor(a) for a in pair_mlp_inputs(3, 4, l=5, n_heads=1))
    out = np.empty((3, 4, 1))
    nn.pair_mlp(rows, cols, [(w, u, b, v)], out)
    with pytest.raises(ValueError):
        nn.pair_mlp(rows, Tensor(np.zeros((4, 6))), [(w, u, b, v)], out)
    with pytest.raises(ValueError):
        nn.pair_mlp(rows, cols, [(w, u, Tensor(np.zeros(4)), v)], out)
    with pytest.raises(ValueError):
        nn.pair_mlp(rows, cols, [(u, w, b, v)], out)
    with pytest.raises(ValueError):
        nn.pair_mlp(rows, cols, [(w, u, b, v)] * 2, out)
    with pytest.raises(ValueError):
        nn.pair_mlp(Tensor(np.zeros(4)), cols, [(w, u, b, v)], out)


def model_rows(states, n_heads):
    """The rows as the model passes them with ``states`` as cols: additive
    attention's (one head) are the states, the joint scorer's (four) are
    states[1:]."""
    return nn.narrow(states, 0, 1, len(states.data)) if n_heads > 1 else states


def frozen_pair_inputs(n, n_heads):
    """States (n x m for one head, (n + 1) x m for four), heads, an upstream
    gradient G of the n x len(states) x K scores, and the frozen per-head
    route's scores and gradients for them."""
    rng = np.random.default_rng(1000 * n + n_heads)
    m, l = 6, 5
    states = Tensor(rng.normal(size=(n + (n_heads > 1), m)), requires_grad=True)
    heads = [tuple(Tensor(rng.normal(size=shape), requires_grad=True)
                   for shape in [(l, m), (l, m), (l,), (l,)]) for _ in range(n_heads)]
    g = rng.normal(size=(n, len(states.data), n_heads))
    ref = pair_mlp_reference(model_rows(states, n_heads).data, states.data,
                             [tuple(t.data for t in head) for head in heads], g)
    return states, heads, g, ref


PAIR_CASES = [(n, n_heads) for n in (1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3) for n_heads in (1, 4)]


@pytest.mark.parametrize("n, n_heads", PAIR_CASES)
def test_pair_mlp_taped_is_the_frozen_per_head_route_byte_for_byte(n, n_heads):
    """The scores, the states' gradient and every head's leaf gradients.

    The loss is sum(scores * G) + sum(states * P).  P is taped after the
    scores, so it is the states' first gradient, and the order in which the
    op's cols and rows gradients then join it shows in the bytes."""
    states, heads, g, (ref, d_cols, d_rows, leaf_grads) = frozen_pair_inputs(n, n_heads)
    prior = np.random.default_rng(n).normal(size=states.shape)
    with Tape() as tape:
        scores = nn.pair_mlp(model_rows(states, n_heads), states, heads, np.empty(g.shape))
        loss = nn.reduce_sum(nn.matmul(nn.reshape(scores, (1, -1)), Tensor(g.ravel())))
        loss = loss + nn.reduce_sum(nn.matmul(nn.reshape(states, (1, -1)), Tensor(prior.ravel())))
    assert len(tape) == 8 + (n_heads > 1)
    tape.backward(loss)
    assert scores.data.tobytes() == ref.reshape(scores.shape).tobytes()
    padded = d_rows
    if n_heads > 1:  # ``narrow``'s backward pass pads the rows' gradient with zeros
        padded = np.zeros_like(states.data)
        padded[1:] = d_rows
    assert states.grad.tobytes() == ((prior + d_cols) + padded).tobytes()
    for leaf, grad in zip([t for head in heads for t in head], leaf_grads, strict=True):
        assert leaf.grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("n, n_heads", PAIR_CASES)
def test_pair_mlp_untaped_fills_a_strided_view_with_the_frozen_bytes(n, n_heads):
    """Untaped, the scores go into a view of an (n+1, n+1, 4) array: p[1:]
    for the scorer, and a one-label slice of it for one head."""
    states, heads, _, (ref, *_) = frozen_pair_inputs(n, n_heads)
    p = np.full((n + 1, n + 1, 4), np.nan)
    out = p[1:] if n_heads > 1 else p[1:, 1:, 2:3]
    scores = nn.pair_mlp(model_rows(states, n_heads), states, heads, out)
    assert out.tobytes() == ref.tobytes()
    assert scores.data.tobytes() == ref.reshape(scores.shape).tobytes()
    assert np.isnan(p).sum() == p.size - out.size
    if n_heads > 1:  # the returned rows are p[1:] itself
        assert np.shares_memory(scores.data, p)


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
