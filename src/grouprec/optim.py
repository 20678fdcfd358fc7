"""Adam optimizer with L2 weight decay folded into the gradient."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .lanes import ALIGN, row_blocks, run_on_two_lanes

# elements per block of the update: a block's two float64 buffers, 256 KB
# each, stay in a 2 MB L2 cache through its sixteen passes
CHUNK = 2 ** 15

# the moment decay rates and the denominator guard of Kingma & Ba (arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _blocks(shape: tuple[int, ...]) -> list:
    """Keys whose basic-indexing views tile an array of `shape` along its
    leading axis: `lanes.row_blocks` of about CHUNK elements each, or
    ALIGN rows where ALIGN rows hold more."""
    if not shape:
        return [...]
    width = max(1, math.prod(shape[1:]))
    return row_blocks(shape[0], max(ALIGN, CHUNK // width // ALIGN * ALIGN))


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    Weight decay adds ``weight_decay * p`` to the gradient before the moment
    update, realizing the L2 parameter penalty for every trainable tensor
    uniformly. Parameters the loss never touched get a zero gradient (decay
    still applies).

    The state is `m` and `v`, one array each per parameter. The step updates
    each parameter in blocks of whole leading-axis rows, about CHUNK elements
    each, and the blocks of every parameter are the work items of
    `lanes.run_on_two_lanes`, each with its own pair of block buffers.
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

    def step(self) -> None:
        """One update, in place, rounding exactly as the textbook expressions:

        g = grad + wd * p;  m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g;
        p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),

        with b1, b2 and eps the module's BETA1, BETA2 and EPS.

        Every gradient's shape is checked before anything is updated. Each
        block runs the sixteen in-place passes on views of the parameter,
        its gradient, `m` and `v`; the arithmetic is elementwise, so the
        bits depend neither on the blocking nor on which lane ran a block.
        """
        for p in self.params:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape {p.grad.shape} != param shape {p.data.shape}")
        self.t += 1
        c1, c2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        tasks = [(p, m, v, key) for p, m, v in zip(self.params, self.m, self.v) for key in _blocks(p.data.shape)]

        def update(task):
            p, m_all, v_all, key = task
            data, m, v = p.data[key], m_all[key], v_all[key]
            # a missing gradient is a zero block, broadcast from a scalar
            g = 0.0 if p.grad is None else p.grad[key]
            num, den = np.empty_like(data), np.empty_like(data)
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

        run_on_two_lanes(update, tasks)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
