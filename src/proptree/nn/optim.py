"""Adam over one flat store of trainable tensors, and ``fit``, the one
training loop of every model: the joint parser and the pipeline's CRF, LTM
and MTT stages."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Scalars per block of the step: 128 KB per array, so one block's grad, m, v,
# data and two scratch arrays stay in L2 through all of the step's passes.
ADAM_BLOCK = 16384


def _views(flat: np.ndarray, params: list[Tensor]) -> list[np.ndarray]:
    """Views of ``flat`` shaped as each parameter, at consecutive offsets in order."""
    ends = np.cumsum([p.data.size for p in params], dtype=int)
    return [flat[e - p.data.size:e].reshape(p.data.shape) for p, e in zip(params, ends)]


def _flat_store(params: list[Tensor], attr: str) -> np.ndarray:
    """One flat array that holds every parameter's ``attr`` (``data`` or
    ``grad``), which becomes a view into it.  Arrays that already lie end to
    end in one buffer keep it.  Otherwise they are copied in one at a time,
    so that each old array can be freed before the next one moves."""
    n = sum(p.data.size for p in params)
    first = getattr(params[0], attr) if params else np.empty(0)
    flat = first.reshape(-1) if len(params) <= 1 else first.base
    if (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == (n,)
            and flat.flags.c_contiguous and [getattr(p, attr).ctypes.data for p in params]
            == [view.ctypes.data for view in _views(flat, params)]):
        return flat
    flat = np.empty(n)
    for p, view in zip(params, _views(flat, params)):
        view[...] = getattr(p, attr)
        setattr(p, attr, view)
    return flat


class Adam:
    """Adam with bias correction (BETA1, BETA2 and EPS above).

    ``data`` and ``grad`` are flat arrays that hold every parameter's values
    and gradients; each tensor's ``data`` and ``grad`` are reshaped views into
    them, so code that sets parameters must write in place."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("Adam received a tensor without requires_grad")
            # A lone tensor keeps its arrays through flat views, and a flat view of a
            # non-contiguous array is a copy, which would lose the updates.
            if not (p.data.flags.c_contiguous and p.grad.flags.c_contiguous):
                raise ValueError(f"Adam needs C-contiguous data and grad, got {p!r}")
        self.lr = lr
        self.t = 0
        self.data = _flat_store(self.params, "data")
        self.grad = _flat_store(self.params, "grad")
        n = self.data.size
        m, v = np.zeros((2, n))
        self._m, self._v = _views(m, self.params), _views(v, self.params)
        # Two scratch blocks, and per block of the flat arrays its views (grad,
        # m, v, data, scratch a, scratch c).  The views stay valid because grad
        # and data are only written in place.
        a, c = np.empty((2, min(ADAM_BLOCK, n)))
        self._blocks = []
        for i in range(0, n, ADAM_BLOCK):
            views = [x[i:i + ADAM_BLOCK] for x in (self.grad, m, v, self.data)]
            k = views[0].size
            self._blocks.append((*views, a[:k], c[:k]))

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        # p -= lr * m_hat / (sqrt(v_hat) + eps), one block at a time. Every pass
        # is elementwise and keeps the unblocked order of operations, so the
        # result is byte-identical to running each pass over whole arrays.
        self.t += 1
        bc1, bc2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for g, m, v, w, a, c in self._blocks:
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= BETA2
            v += np.multiply(np.multiply(g, 1.0 - BETA2, out=a), g, out=a)
            step = np.divide(m, bc1, out=a)
            step *= self.lr
            denom = np.sqrt(np.divide(v, bc2, out=c), out=c)
            denom += EPS
            step /= denom
            w -= step


def fit(opt: Adam, cases: list, step: Callable[..., float], epochs: int, seed: int,
        stage: str, lam: float, end_epoch: Callable[[int, float], bool] | None) -> None:
    """Adam on ``cases`` one at a time, in a fresh order each epoch from one
    ``default_rng(seed)``.  A step's gradient is ``lam / len(cases)`` times
    every parameter when ``lam > 0``, plus what ``step(*case)`` adds; the
    step returns the case's loss.  After each epoch ``end_epoch(epoch, mean
    loss)`` may return True to stop.

    A step's ``ValueError`` (a subclass included) or ``FloatingPointError``
    is raised again as that type, with ``stage`` and the epoch before its
    message and the original as its cause.  ``FloatingPointError`` also
    follows an epoch that leaves a parameter non-finite."""
    reg = lam / len(cases)
    rng = np.random.default_rng(seed)
    # numpy's overflow warnings stay quiet: the finite check below is the one report.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, epochs + 1):
            total = 0.0
            for idx in rng.permutation(len(cases)):
                opt.zero_grad()
                if lam > 0:
                    opt.grad += reg * opt.data
                try:
                    total += step(*cases[idx])
                except (ValueError, FloatingPointError) as exc:
                    kind = ValueError if isinstance(exc, ValueError) else FloatingPointError
                    raise kind(f"{stage}: epoch {epoch}: {exc}") from exc
                opt.step()
            # Once per epoch: a per-step gradient check costs about 2% of pipeline training.
            if not np.isfinite(opt.data).all():
                raise FloatingPointError(f"{stage}: non-finite parameters after epoch {epoch}")
            if end_epoch is not None and end_epoch(epoch, total / len(cases)):
                return
