"""Interest extraction from user embeddings.

The default extractor carves M interest vectors out of each user embedding
with per-interest self-gates: interest n is e ⊙ sigmoid(e W_n + b_n). The
alternative generators (plain linear maps, a two-layer map, free per-user
tables) exist only for the comparison harness and share the same interface:
``interests(user_emb)`` maps the (|U|, d) embedding table to one (|U|, M, d)
tensor whose [:, n] slice is interest n. Parameters stay one tensor per
interest (``gate_{n}_w``, ``gate_{n}_b``, ...), so checkpoints name them
individually.
"""

import numpy as np

from . import autodiff as ag
from .autodiff import Tensor

INIT_STD = 0.1


def _weight(rng, shape):
    return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)


class SelfGatingInterests:
    """M sigmoid self-gates; parameter count M * (d + 1) * d."""

    mode = "gate"

    def __init__(self, m_interests, dim, rng):
        if m_interests < 1:
            raise ValueError("need at least one interest")
        self.m = m_interests
        self.dim = dim
        self.w = [_weight(rng, (dim, dim)) for _ in range(m_interests)]
        # zero biases start every gate near the 0.5*e regime
        self.b = [Tensor(np.zeros(dim), requires_grad=True) for _ in range(m_interests)]

    def interests(self, user_emb):
        """(|U|, d) -> (|U|, M, d): all M gates in one fused op."""
        return ag.gated_channels(user_emb, self.w, self.b)

    def named_params(self):
        pairs = []
        for n in range(self.m):
            pairs.append((f"gate_{n}_w", self.w[n]))
            pairs.append((f"gate_{n}_b", self.b[n]))
        return pairs

    def param_count(self):
        return self.m * (self.dim + 1) * self.dim


class LinearInterests:
    """One affine map per interest; same parameter count as the gates."""

    mode = "fc1"

    def __init__(self, m_interests, dim, rng):
        self.m = m_interests
        self.dim = dim
        self.w = [_weight(rng, (dim, dim)) for _ in range(m_interests)]
        self.b = [Tensor(np.zeros(dim), requires_grad=True) for _ in range(m_interests)]

    def interests(self, user_emb):
        return ag.stack(
            [ag.add(ag.matmul(user_emb, self.w[n]), self.b[n]) for n in range(self.m)]
        )

    def named_params(self):
        pairs = []
        for n in range(self.m):
            pairs.append((f"fc1_{n}_w", self.w[n]))
            pairs.append((f"fc1_{n}_b", self.b[n]))
        return pairs

    def param_count(self):
        return self.m * (self.dim + 1) * self.dim


class TwoLayerInterests:
    """Two affine maps with a ReLU between; twice the single-layer count."""

    mode = "fc2"

    def __init__(self, m_interests, dim, rng):
        self.m = m_interests
        self.dim = dim
        self.w1 = [_weight(rng, (dim, dim)) for _ in range(m_interests)]
        self.b1 = [Tensor(np.zeros(dim), requires_grad=True) for _ in range(m_interests)]
        self.w2 = [_weight(rng, (dim, dim)) for _ in range(m_interests)]
        self.b2 = [Tensor(np.zeros(dim), requires_grad=True) for _ in range(m_interests)]

    def interests(self, user_emb):
        out = []
        for n in range(self.m):
            h = ag.relu(ag.add(ag.matmul(user_emb, self.w1[n]), self.b1[n]))
            out.append(ag.add(ag.matmul(h, self.w2[n]), self.b2[n]))
        return ag.stack(out)

    def named_params(self):
        pairs = []
        for n in range(self.m):
            pairs.extend(
                [
                    (f"fc2_{n}_w1", self.w1[n]),
                    (f"fc2_{n}_b1", self.b1[n]),
                    (f"fc2_{n}_w2", self.w2[n]),
                    (f"fc2_{n}_b2", self.b2[n]),
                ]
            )
        return pairs

    def param_count(self):
        return 2 * self.m * (self.dim + 1) * self.dim


class TableInterests:
    """Free interest embeddings, one full table per interest: M * |U| * d."""

    mode = "table"

    def __init__(self, m_interests, dim, rng, n_users=None):
        if n_users is None:
            raise ValueError("free interest tables need the user count")
        self.m = m_interests
        self.dim = dim
        self.n_users = n_users
        self.tables = [_weight(rng, (n_users, dim)) for _ in range(m_interests)]

    def interests(self, user_emb):
        if user_emb.shape[0] != self.n_users:
            raise ValueError("table generator sized for a different user count")
        return ag.stack(self.tables)

    def named_params(self):
        return [(f"interest_table_{n}", self.tables[n]) for n in range(self.m)]

    def param_count(self):
        return self.m * self.n_users * self.dim


GENERATORS = {
    "gate": SelfGatingInterests,
    "fc1": LinearInterests,
    "fc2": TwoLayerInterests,
    "table": TableInterests,
}


def make_interest_generator(mode, m_interests, dim, rng, n_users=None):
    if mode not in GENERATORS:
        raise ValueError(f"unknown interest mode {mode!r}; pick from {sorted(GENERATORS)}")
    if mode == "table":
        return TableInterests(m_interests, dim, rng, n_users=n_users)
    return GENERATORS[mode](m_interests, dim, rng)
