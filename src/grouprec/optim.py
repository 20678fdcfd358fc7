"""Adam optimizer with L2 weight decay folded into the gradient."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    Weight decay adds ``weight_decay * p`` to the gradient before the moment
    update, realizing the L2 parameter penalty for every trainable tensor
    uniformly. Parameters the loss never touched get a zero gradient (decay
    still applies).
    """

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ValueError(f"lr must be nonnegative, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # two scratch arrays per parameter keep the step free of fresh temporaries
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.params]

    def step(self) -> None:
        """One update, in place, rounding exactly as the textbook expressions:

        g = grad + wd * p;  m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g;
        p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps).
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, m, v, (num, den) in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            if self.weight_decay:
                np.multiply(self.weight_decay, p.data, out=den)
                den += g
                g = den
            m *= b1
            np.multiply(1.0 - b1, g, out=num)
            m += num
            np.multiply(1.0 - b2, g, out=num)
            num *= g
            v *= b2
            v += num
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(m, c1, out=num)
            num *= self.lr
            num /= den
            p.data -= num

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
