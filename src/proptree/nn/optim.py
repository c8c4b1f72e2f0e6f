"""Adam optimizer over a flat list of trainable tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Scalars per block of the step: 128 KB per array, so one block's grad, m, v,
# data and two scratch arrays stay in L2 through all of the step's passes.
ADAM_BLOCK = 16384


class Adam:
    """Adam with bias correction (BETA1, BETA2 and EPS above)."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("Adam received a tensor without requires_grad")
            # A flat view of a non-contiguous array is a copy, which would lose the updates.
            if not (p.data.flags.c_contiguous and p.grad.flags.c_contiguous):
                raise ValueError(f"Adam needs C-contiguous data and grad, got {p!r}")
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Two scratch blocks that every parameter shares, and per block of each
        # parameter its flat views (grad, m, v, data, scratch a, scratch c).
        # The views stay valid because grad and data are only written in place.
        a, c = np.empty((2, min(ADAM_BLOCK, max((p.data.size for p in self.params), default=0))))
        self._blocks = []
        for p, m, v in zip(self.params, self._m, self._v):
            for i in range(0, p.data.size, ADAM_BLOCK):
                views = [x.reshape(-1)[i:i + ADAM_BLOCK] for x in (p.grad, m, v, p.data)]
                n = views[0].size
                self._blocks.append((*views, a[:n], c[:n]))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

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
