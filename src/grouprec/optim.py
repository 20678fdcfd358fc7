"""Adam optimizer with L2 weight decay folded into the gradient."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor

# elements per block of the update: the two float64 block buffers, 256 KB
# each, stay in a 2 MB L2 cache through a block's sixteen passes
CHUNK = 2 ** 15

# the moment decay rates and the denominator guard of Kingma & Ba (arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _blocks(shape: tuple[int, ...]) -> list:
    """Keys whose basic-indexing views tile an array of `shape` along its
    leading axis, CHUNK elements or fewer each unless one row is longer."""
    if not shape:
        return [...]
    rows = max(1, CHUNK // max(1, math.prod(shape[1:])))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    Weight decay adds ``weight_decay * p`` to the gradient before the moment
    update, realizing the L2 parameter penalty for every trainable tensor
    uniformly. Parameters the loss never touched get a zero gradient (decay
    still applies).

    The state is `m` and `v`, one array each per parameter, and one pair of
    block buffers shared by every parameter: the step updates each parameter
    in blocks of whole leading-axis rows, about CHUNK elements each.
    """

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        if not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"lr must be finite and nonnegative, got {lr}")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and nonnegative, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        width = max([CHUNK] + [math.prod(p.data.shape[1:]) for p in self.params])
        self._num, self._den = np.empty(width), np.empty(width)

    def step(self) -> None:
        """One update, in place, rounding exactly as the textbook expressions:

        g = grad + wd * p;  m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g;
        p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),

        with b1, b2 and eps the module's BETA1, BETA2 and EPS.

        Every gradient's shape is checked before anything is updated. Each
        block runs the sixteen in-place passes on views of the parameter,
        its gradient, `m` and `v`; the arithmetic is elementwise, so the
        bits do not depend on the blocking.
        """
        for p in self.params:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape {p.grad.shape} != param shape {p.data.shape}")
        self.t += 1
        c1, c2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for p, m_all, v_all in zip(self.params, self.m, self.v):
            for key in _blocks(p.data.shape):
                data, m, v = p.data[key], m_all[key], v_all[key]
                # a missing gradient is a zero block, broadcast from a scalar
                g = 0.0 if p.grad is None else p.grad[key]
                num = self._num[:data.size].reshape(data.shape)
                den = self._den[:data.size].reshape(data.shape)
                if self.weight_decay:
                    np.multiply(self.weight_decay, data, out=den)
                    den += g
                    g = den
                m *= BETA1
                np.multiply(1.0 - BETA1, g, out=num)
                m += num
                np.multiply(1.0 - BETA2, g, out=num)
                num *= g
                v *= BETA2
                v += num
                np.divide(v, c2, out=den)
                np.sqrt(den, out=den)
                den += EPS
                np.divide(m, c1, out=num)
                num *= self.lr
                num /= den
                data -= num

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
