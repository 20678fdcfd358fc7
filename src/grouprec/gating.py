"""Interest extraction from user embeddings.

The default extractor carves M interest vectors out of each user embedding
with per-interest self-gates: interest n is e ⊙ sigmoid(e W_n + b_n). The
one alternative, free per-user tables, exists for the comparison harness and
shares the same interface: ``interests(user_rows, rows)`` maps the (r, d)
embeddings of the users ``rows`` (sorted ids) to one (r, M, d) tensor whose
[:, n] slice is interest n. Only the free tables read ``rows``; the gates
depend on the embeddings alone. Parameters follow the same convention: each
role is one tensor whose slice n belongs to interest n (``gate_w`` is
(M, d, d) and ``gate_w[n]`` is W_n), except the free table, which holds every
user's interests, (|U|, M, d), and gathers the rows asked for.
"""

import numpy as np

from . import autodiff as ag
from .autodiff import Tensor
from .config import INTEREST_MODES

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


def make_interest_generator(mode, m_interests, dim, rng, n_users):
    """The generator of mode for n_users users; only the free tables use the count."""
    if mode == "gate":
        return SelfGatingInterests(m_interests, dim, rng)
    if mode == "table":
        return TableInterests(m_interests, dim, rng, n_users)
    raise ValueError(f"unknown interest mode {mode!r}; pick from {list(INTEREST_MODES)}")
