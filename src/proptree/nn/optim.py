"""Adam optimizer over a flat list of trainable tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction (BETA1, BETA2 and EPS above)."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        for p in params:
            if not p.requires_grad:
                raise ValueError("Adam received a tensor without requires_grad")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        # p -= lr * m_hat / (sqrt(v_hat) + eps), in the same order of
        # operations but written into two scratch arrays per parameter: the
        # step allocates nothing, so the temporaries of large parameters are
        # not mapped and page-faulted afresh on every step.
        self.t += 1
        for p, m, v, (a, c) in zip(self.params, self._m, self._v, self._scratch):
            g = p.grad
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= BETA2
            v += np.multiply(np.multiply(g, 1.0 - BETA2, out=a), g, out=a)
            step = np.divide(m, 1.0 - BETA1 ** self.t, out=a)
            step *= self.lr
            denom = np.sqrt(np.divide(v, 1.0 - BETA2 ** self.t, out=c), out=c)
            denom += EPS
            step /= denom
            p.data -= step
