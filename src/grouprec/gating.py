"""Interest extraction from user embeddings.

The default extractor carves M interest vectors out of each user embedding
with per-interest self-gates: interest n is e ⊙ sigmoid(e W_n + b_n). The
alternative generators (plain linear maps, a two-layer map, free per-user
tables) exist only for the comparison harness and share the same interface:
``interests(user_rows, rows)`` maps the (r, d) embeddings of the users
``rows`` (sorted ids) to one (r, M, d) tensor whose [:, n] slice is
interest n. Only the free tables read ``rows``; the other generators depend
on the embeddings alone. Parameters follow the same convention: each role is
one tensor whose slice n belongs to interest n (``gate_w`` is (M, d, d) and
``gate_w[n]`` is W_n), except the free table, which holds every user's
interests, (|U|, M, d), and gathers the rows asked for.
"""

import numpy as np

from . import autodiff as ag
from .autodiff import Tensor

INIT_STD = 0.1


def _weight(rng, shape):
    return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)


def _bias(shape):
    # zero biases start every gate near the 0.5*e regime
    return Tensor(np.zeros(shape), requires_grad=True)


def param_count(named_params):
    """Number of scalars held by ``(name, Tensor)`` pairs."""
    return sum(t.data.size for _, t in named_params)


class SelfGatingInterests:
    """M sigmoid self-gates; parameter count M * (d + 1) * d."""

    def __init__(self, m_interests, dim, rng):
        if m_interests < 1:
            raise ValueError("need at least one interest")
        self.w = _weight(rng, (m_interests, dim, dim))
        self.b = _bias((m_interests, dim))

    def interests(self, user_rows, rows):
        """(n, d) -> (n, M, d): all M gates in one fused op."""
        return ag.gated_channels(user_rows, self.w, self.b)

    def named_params(self):
        return [("gate_w", self.w), ("gate_b", self.b)]


class LinearInterests:
    """One affine map per interest; same parameter count as the gates."""

    def __init__(self, m_interests, dim, rng):
        self.w = _weight(rng, (m_interests, dim, dim))
        self.b = _bias((m_interests, dim))

    def interests(self, user_rows, rows):
        return ag.channel_linear(user_rows, self.w, self.b)

    def named_params(self):
        return [("fc1_w", self.w), ("fc1_b", self.b)]


class TwoLayerInterests:
    """Two affine maps with a ReLU between; twice the single-layer count."""

    def __init__(self, m_interests, dim, rng):
        self.w1 = _weight(rng, (m_interests, dim, dim))
        self.b1 = _bias((m_interests, dim))
        self.w2 = _weight(rng, (m_interests, dim, dim))
        self.b2 = _bias((m_interests, dim))

    def interests(self, user_rows, rows):
        hidden = ag.relu(ag.channel_linear(user_rows, self.w1, self.b1))
        return ag.channel_linear(hidden, self.w2, self.b2)

    def named_params(self):
        return [("fc2_w1", self.w1), ("fc2_b1", self.b1), ("fc2_w2", self.w2), ("fc2_b2", self.b2)]


class TableInterests:
    """Free interest embeddings, one full table per interest: M * |U| * d."""

    def __init__(self, m_interests, dim, rng, n_users):
        # drawn interest by interest, stored user-major like the interests
        draw = rng.normal(0.0, INIT_STD, size=(m_interests, n_users, dim))
        self.table = Tensor(np.ascontiguousarray(draw.transpose(1, 0, 2)), requires_grad=True)

    def interests(self, user_rows, rows):
        """The table's rows of the users `rows`."""
        return ag.gather_rows(self.table, rows)

    def named_params(self):
        return [("interest_table", self.table)]


GENERATORS = {
    "gate": SelfGatingInterests,
    "fc1": LinearInterests,
    "fc2": TwoLayerInterests,
    "table": TableInterests,
}


def make_interest_generator(mode, m_interests, dim, rng, n_users):
    """The generator of mode for n_users users; only the free tables use the count."""
    if mode not in GENERATORS:
        raise ValueError(f"unknown interest mode {mode!r}; pick from {sorted(GENERATORS)}")
    if mode == "table":
        return TableInterests(m_interests, dim, rng, n_users)
    return GENERATORS[mode](m_interests, dim, rng)
