"""Adam optimizer over a flat list of trainable tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for p in params:
            if not p.requires_grad:
                raise ValueError("Adam received a tensor without requires_grad")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        b1, b2 = self.beta1, self.beta2
        for p, m, v, (a, c) in zip(self.params, self._m, self._v, self._scratch):
            g = p.grad
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
            step = np.divide(m, 1.0 - b1 ** self.t, out=a)
            step *= self.lr
            denom = np.sqrt(np.divide(v, 1.0 - b2 ** self.t, out=c), out=c)
            denom += self.eps
            step /= denom
            p.data -= step
