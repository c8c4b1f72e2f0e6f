"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything is CPU numpy under the hood.  A ``Tensor`` is either a trainable
leaf (``requires_grad=True``, owns a ``grad`` buffer) or a value produced by
one of the primitive operations below.  Primitives compute eagerly; when a
``Tape`` is active they also record a backward closure.  Calling
``Tape.backward(loss)`` replays the recording in reverse and accumulates
gradients into the leaves' ``grad`` buffers.

A tape is single-use: one forward build, one backward pass.  Gradients are
accumulated (not overwritten), so several tapes can contribute to the same
leaves before an optimizer step.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Mapping, Sequence

import numpy as np


class Tensor:
    """A dense float64 array, optionally a trainable leaf."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Operator sugar; all graph recording happens in the named functions.
    def __add__(self, other):
        return add(self, other)


# Stack of active tapes; ops record onto the innermost one.
_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive ops for one backward pass.

    Records are appended in execution order, which is a topological order of
    the computation graph by construction.  The backward pass adds each
    gradient that reaches a trainable leaf to the leaf's ``grad`` as soon as
    the op's backward closure returns it; only the gradients of intermediate
    values wait, until their own record is replayed.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPES.pop()

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` for every trainable leaf reachable from ``loss``."""
        if self._spent:
            raise RuntimeError("tape already consumed by a backward pass; rebuild the forward graph")
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self._spent = True

        if loss.requires_grad:
            loss.grad += 1.0
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        for out, inputs, bwd in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, gt in zip(inputs, bwd(g)):
                key = id(t)
                if t.requires_grad:
                    t.grad += gt
                elif key in grads:
                    grads[key] = grads[key] + gt
                else:
                    grads[key] = gt


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    if _ACTIVE_TAPES:
        _ACTIVE_TAPES[-1]._records.append((out, inputs, bwd))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ValueError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def bwd(g):
        return (g * c,)

    return _record(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D ``a`` and a 1-D or 2-D ``b``."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2):
        raise ValueError(f"matmul: needs a 2-D left and a 1-D or 2-D right operand, "
                         f"got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: inner dimensions of {ad.shape} and {bd.shape} do not match")
    out = Tensor(ad @ bd)

    def bwd(g):
        if bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        return np.outer(g, bd), ad.T @ g

    return _record(out, (a, b), bwd)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _record(out, (a,), bwd)


def lstm_sequence(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
                  reverse: bool = False) -> Tensor:
    """One LSTM direction over a whole sequence, recorded as a single op.

    ``x`` is (n, input_dim), ``wx`` (4d, input_dim), ``wh`` (4d, d) and ``b``
    (4d,), with gates stacked as [input, forget, candidate, output].  Returns
    the hidden states H, shape (n, d); the initial hidden and cell states are
    zero.  With ``reverse`` the sequence is consumed from its last row to its
    first, and H[t] is still the state at position t.

    The input product ``x @ wx.T + b`` is computed once for all steps.  Each
    step applies one tanh over all 4d gates: sigmoid(z) = 0.5 * (1 + tanh(z/2)),
    with the 1/2 folded into the sigmoid rows of the weights, which is exact.
    """
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    if xd.ndim != 2 or xd.shape[1] != wxd.shape[1]:
        raise ValueError(f"lstm_sequence: input shape {xd.shape} is not (n, {wxd.shape[1]})")
    n, d = xd.shape[0], whd.shape[1]
    xs = xd[::-1] if reverse else xd
    # Gate scale s: 1/2 on sigmoid rows, 1 on the candidate rows, so that
    # every gate is y = s * tanh(s * z) + (1 - s).
    s = np.full(4 * d, 0.5)
    s[2 * d:3 * d] = 1.0
    shift = 1.0 - s
    zs = (xs @ wxd.T + bd) * s
    whs = whd * s[:, None]

    # Row t + 1 of H and C holds step t's state; row 0 is the zero initial state.
    gates = np.empty((n, 4 * d))
    H = np.zeros((n + 1, d))
    C = np.zeros((n + 1, d))
    TC = np.empty((n, d))
    i, f, cand, o = (gates[:, k * d:(k + 1) * d] for k in range(4))
    # In place, but the same operations in the same order as allocating steps: same bytes.
    for y, z, h, h1, c, c1, tc, yi, yf, yc, yo in zip(gates, zs, H, H[1:], C, C[1:], TC,
                                                      i, f, cand, o):
        np.dot(whs, h, y)
        y += z
        np.tanh(y, y)
        y *= s
        y += shift
        np.multiply(yf, c, c1)
        c1 += yi * yc
        np.tanh(c1, tc)
        np.multiply(yo, tc, h1)
    out = Tensor(H[:0:-1] if reverse else H[1:])

    def bwd(g):
        gs = g[::-1] if reverse else g
        # dy/dz = (1 - y) * (y + 2s - 1): y(1 - y) on sigmoid rows, 1 - y^2 on tanh rows.
        dgate = (1.0 - gates) * (gates + (2.0 * s - 1.0))
        # dZ[t] = mult[t] * [dc, dc, dc, dh] for the step's cell and hidden gradients.
        mult = dgate * np.concatenate([cand, C[:-1], i, TC], axis=1)
        dh_from_c = o * (1.0 - TC * TC)
        dZ = np.empty((n, 4 * d))
        dh_next = np.zeros(d)
        dc_next = np.zeros(d)
        for t in range(n - 1, -1, -1):
            dh = gs[t] + dh_next
            dc = dh * dh_from_c[t] + dc_next
            dz = dZ[t] = mult[t] * np.concatenate((dc, dc, dc, dh))
            dc_next = dc * f[t]
            dh_next = dz @ whd
        dx = dZ @ wxd
        return (dx[::-1] if reverse else dx, dZ.T @ xs, dZ.T @ H[:-1], dZ.sum(axis=0))

    return _record(out, (x, wx, wh, b), bwd)


# Rows per block in ``pair_scores``: one (block, C, l) buffer is added to,
# squashed and reduced while it is still in cache.
PAIR_BLOCK = 16


def pair_scores(rows: np.ndarray, cols: np.ndarray, b: np.ndarray, v: np.ndarray,
                out: np.ndarray, keep: bool) -> np.ndarray | None:
    """Writes out[r, c] = v . tanh((rows[r] + cols[c]) + b) on plain arrays.

    ``out`` is any (R, C) array, a strided view too.  The rows are added and
    squashed PAIR_BLOCK at a time in place in one (block, C, l) buffer.  With
    ``keep`` the buffer is one (R, C, l) array that keeps every tanh value,
    and it is returned; otherwise None is.
    """
    l = v.shape[0]
    n_rows, n_cols = rows.shape[0], cols.shape[0]
    y = np.empty((n_rows if keep else min(PAIR_BLOCK, n_rows), n_cols, l))
    # cols[c] + rows[r] equals rows[r] + cols[c] exactly.  Copying cols and
    # adding b as whole (C, l) slabs is faster than broadcasting along l.
    b_cols = np.empty((n_cols, l))
    b_cols[...] = b
    for r0 in range(0, n_rows, PAIR_BLOCK):
        r1 = min(r0 + PAIR_BLOCK, n_rows)
        blk = y[r0:r1] if keep else y[:r1 - r0]
        blk[...] = cols
        blk += rows[r0:r1, None, :]
        blk += b_cols
        np.tanh(blk, out=blk)
        out[r0:r1] = (blk.reshape(-1, l) @ v).reshape(r1 - r0, n_cols)
    return y if keep else None


def second_core_allowed(cpus: int, environ: Mapping[str, str]) -> bool:
    """Whether proptree may put work on a second core: untaped ``pair_mlp``
    scores half of its heads on a second thread, and training runs the
    pipeline's edge stage and joint validations in a forked child
    (``train.in_child``).  The process may use at least two CPUs and BLAS runs
    one thread.

    OpenBLAS takes its thread count, when it loads, from the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that holds a
    positive number, and uses every core when none does.  A threaded BLAS
    serves both threads' products from its own threads, and the split then
    loses time.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return cpus >= 2 and int(value) == 1
    return False


# Read once, as OpenBLAS reads its variables once.
SECOND_CORE = second_core_allowed(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, os.environ)
# Untaped ``pair_mlp`` splits its heads from this many rows on: the crossover
# of the sweep in README "Joint scorer".  Below it, starting the thread and the
# two threads' turns at the interpreter lock cost more than the second core saves.
SPLIT_ROWS = 56


def _beside(fn: Callable, there, here) -> None:
    """Runs fn(there) on a new thread while fn(here) runs on this one.

    The thread is joined before this returns, also when fn(here) raises, and
    an exception of fn(there) is raised here.  The thread runs under this
    thread's numpy error state, which ``np.errstate`` does not pass to a new
    thread.  A thread per call leaves nothing behind that a forked child
    could inherit half-held.
    """
    raised = []
    errors = np.geterr()

    def work():
        try:
            with np.errstate(**errors):
                fn(there)
        except BaseException as exc:
            raised.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        fn(here)
    finally:
        worker.join()
    if raised:
        raise raised[0]


def pair_mlp(rows: Tensor, cols: Tensor, heads: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
             out: np.ndarray) -> Tensor:
    """Pairwise one-layer MLP scores under K heads, recorded as a single op.

    ``rows`` is (R, m) and ``cols`` (C, n); head k is ``(w, u, b, v)`` with w
    (l, m), u (l, n), b and v (l,).  Writes
    out[r, c, k] = v . tanh((rows[r] @ w.T + cols[c] @ u.T) + b) into the
    (R, C, K) array ``out``, a strided view too, and returns it as (R, C*K)
    rows.  Each head's inputs are projected once and ``pair_scores`` pairs
    them: with no tape active nothing but ``out`` is kept.  With a tape each
    head keeps its tanh values y, one (R, C, l) array, and the backward pass
    reads 1 - y^2 from them instead of recomputing tanh.

    With no tape, at least SPLIT_ROWS rows, two heads or more and SECOND_CORE
    set, the later half of the heads is scored on a second thread.  Each head
    makes the same calls either way, so ``out`` holds the same bytes.

    The inputs are recorded as (cols, rows, w0, u0, b0, v0, ...): when rows
    is cols, its cols gradient is added first.  The backward pass walks the
    heads from K-1 down to 0 and sums the input gradients in that order.
    Both orders fix the bytes of training (``tests/helpers.pair_mlp_reference``).
    """
    rd, cd = rows.data, cols.data
    if not (rd.ndim == cd.ndim == 2 and out.shape == (len(rd), len(cd), len(heads)) and all(
            w.shape == v.shape + rd.shape[1:] and u.shape == v.shape + cd.shape[1:]
            and b.shape == v.shape == v.shape[:1] for w, u, b, v in heads)):
        raise ValueError(f"pair_mlp: rows {rd.shape} and cols {cd.shape} do not fit the heads "
                         f"{[tuple(t.shape for t in head) for head in heads]} and out {out.shape}")
    n_rows, n_cols = out.shape[:2]
    taped = bool(_ACTIVE_TAPES)

    def score(numbered):
        return [pair_scores(rd @ w.data.T, cd @ u.data.T, b.data, v.data, out[:, :, k], taped)
                for k, (w, u, b, v) in numbered]

    numbered, half = list(enumerate(heads)), len(heads) // 2
    scores = Tensor(out.reshape(n_rows, n_cols * len(heads)))
    if not taped and half and n_rows >= SPLIT_ROWS and SECOND_CORE:
        _beside(score, numbered[half:], numbered[:half])
        return scores
    ys = score(numbered)
    if not taped:
        return scores

    def bwd(g):
        g = g.reshape(out.shape)
        leaf_grads = []
        for k in range(len(heads) - 1, -1, -1):
            (w, u, b, v), y = heads[k], ys[k]
            # A contiguous copy of head k's g: BLAS rounds a strided gemv differently.
            gk, l = np.ascontiguousarray(g[:, :, k]), v.shape[0]
            # dz = (g v) * (1 - y^2), one block of rows at a time.
            dz = np.empty((min(PAIR_BLOCK, n_rows), n_cols, l))
            slope = np.empty_like(dz)
            drows = np.empty((n_rows, l))
            dcols = np.zeros((n_cols, l))
            dv = np.zeros(l)
            for r0 in range(0, n_rows, PAIR_BLOCK):
                r1 = min(r0 + PAIR_BLOCK, n_rows)
                yb, gb = y[r0:r1], gk[r0:r1]
                d, s = dz[:r1 - r0], slope[:r1 - r0]
                np.multiply(gb[:, :, None], v.data, out=d)
                np.multiply(yb, yb, out=s)
                np.subtract(1.0, s, out=s)
                d *= s
                drows[r0:r1] = d.sum(axis=1)
                dcols += d.sum(axis=0)
                dv += gb.reshape(-1) @ yb.reshape(-1, l)
            dc_u, dr_w = dcols @ u.data, drows @ w.data
            d_cols, d_rows = (dc_u, dr_w) if k == len(heads) - 1 else (d_cols + dc_u, d_rows + dr_w)
            leaf_grads[:0] = ((rd.T @ drows).T, (cd.T @ dcols).T, dcols.sum(axis=0), dv)
        return d_cols, d_rows, *leaf_grads

    return _record(scores, (cols, rows, *(t for head in heads for t in head)), bwd)


def log_softmax_nll(scores: Tensor, idx: np.ndarray) -> Tensor:
    """Summed negative log-softmax of one entry per row of a 2-D tensor:
    -sum_i log softmax(scores[i])[idx[i]].

    Uses a max-shifted log-sum-exp, so a confidently wrong row gives a large
    finite loss rather than -log(0); the gradient is softmax - onehot.
    """
    idx = np.asarray(idx, dtype=np.intp)
    s = scores.data
    if s.ndim != 2 or idx.shape != (s.shape[0],):
        raise ValueError(f"log_softmax_nll: got scores shape {s.shape} and index shape {idx.shape}")
    rows = np.arange(s.shape[0])
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    out = Tensor(np.sum(np.log(total[:, 0]) - shifted[rows, idx]))

    def bwd(g):
        grad = e / total
        grad[rows, idx] -= 1.0
        return (grad * g,)

    return _record(out, (scores,), bwd)


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gx = np.expand_dims(g, axis)
        return (np.broadcast_to(gx, a.data.shape).copy(),)

    return _record(out, (a,), bwd)


def softmax_in_place(y: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax of ``y`` along ``axis``, written over ``y``."""
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to 1."""
    y = softmax_in_place(a.data.copy(order="K"), axis)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _record(out, (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    datas = [p.data for p in parts]
    out = Tensor(np.concatenate(datas, axis=axis))
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis) for i in range(len(parts))
        )

    return _record(out, tuple(parts), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _record(out, (a,), bwd)


def transpose(a: Tensor, axes: tuple | None = None) -> Tensor:
    """A view with the axes permuted: reversed by default, else
    ``out.shape[i] == a.shape[axes[i]]``."""
    out = Tensor(a.data.transpose(axes))
    inverse = None if axes is None else np.argsort(axes)

    def bwd(g):
        return (g.transpose(inverse),)

    return _record(out, (a,), bwd)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along ``axis``."""
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = Tensor(a.data[index])

    def bwd(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _record(out, (a,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scale kept entries by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * mask)

    def bwd(g):
        return (g * mask,)

    return _record(out, (a,), bwd)


def uniform_param(shape, rng: np.random.Generator) -> Tensor:
    """Trainable leaf initialized uniform(-0.05, +0.05)."""
    return Tensor(rng.uniform(-0.05, 0.05, size=shape), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class Module:
    """A leaf parameter holder whose ``trainable`` class attribute names its
    trainable Tensor attributes.

    ``params_named`` maps each of those names, after ``prefix``, to its
    tensor.  Modules built from other modules override it to prefix their
    parts' names.  The names are declared rather than read from the
    instance ``__dict__``: on CPython 3.11 reading ``__dict__`` makes every
    later attribute access on that object slower.
    """

    trainable: tuple[str, ...] = ()

    def params_named(self, prefix: str = "") -> dict[str, Tensor]:
        return {prefix + name: getattr(self, name) for name in self.trainable}
