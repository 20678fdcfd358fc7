import math

import numpy as np
import pytest

from grouprec import aggregation as agg
from grouprec import autodiff as ag
from grouprec.autodiff import Tensor

import reference as ref


class FixedUniform:
    """Stands in for an rng; hands back preset uniform draws."""

    def __init__(self, vals):
        self.vals = np.asarray(vals, dtype=np.float64)

    def random(self, shape):
        return np.broadcast_to(self.vals, shape).copy()


def channels(*tables):
    """(n, M, d) tensor whose [:, m] slice is tables[m]."""
    return Tensor(np.stack([np.asarray(t, dtype=np.float64) for t in tables], axis=1))


def pool(interest_table, uid, gid, n_groups, att):
    """Pool a single interest channel; returns the (n_groups, d) pooled table."""
    pattern = ag.segment_pattern(np.array(gid), n_groups, 1)
    out = agg.attention_pool(
        channels(interest_table), np.array(uid), np.array(gid), pattern, Tensor(att)
    )
    return out.data[:, 0]


def test_attention_single_member_identity():
    out = pool([[2.0, 5.0]], [0], [0], 1, [1.0, 0.0])
    np.testing.assert_allclose(out, [[2.0, 5.0]])


def test_attention_equal_projections_mean():
    # both members project to the same score, so weights are 1/2 each
    out = pool([[1.0, 0.0], [3.0, 0.0]], [0, 1], [0, 0], 1, [0.0, 1.0])
    np.testing.assert_allclose(out, [[2.0, 0.0]])


def test_attention_scalar_hand_case():
    out = pool([[1.0], [3.0]], [0, 1], [0, 0], 1, [1.0])
    e1, e3 = math.exp(1.0), math.exp(3.0)
    want = (e1 * 1.0 + e3 * 3.0) / (e1 + e3)
    assert out[0, 0] == pytest.approx(want, abs=1e-12)
    assert out[0, 0] == pytest.approx(2.7615941559557644)


def test_attention_rejects_silently_nothing_multi_group():
    # two groups pooled independently in one call
    out = pool(
        [[1.0, 0.0], [0.0, 1.0], [4.0, 4.0]], [0, 1, 2], [0, 0, 1], 2, [0.0, 0.0]
    )
    np.testing.assert_allclose(out, [[0.5, 0.5], [4.0, 4.0]])


def test_gumbel_noise_fixed_points():
    assert agg.sample_gumbel(FixedUniform([math.exp(-1.0)]), (1,))[0] == pytest.approx(0.0, abs=1e-12)
    assert agg.sample_gumbel(FixedUniform([math.exp(-math.e)]), (1,))[0] == pytest.approx(-1.0, abs=1e-12)


def test_gumbel_noise_mean_near_euler_mascheroni():
    rng = np.random.default_rng(0)
    draws = agg.sample_gumbel(rng, (100_000,))
    assert abs(draws.mean() - 0.5772156649) < 0.02


def test_gumbel_noise_extreme_uniforms_stay_finite():
    draws = agg.sample_gumbel(FixedUniform([0.0, 1.0]), (2,))
    assert np.all(np.isfinite(draws))


def test_selection_equal_scores_uniform():
    group = Tensor([[1.0, 0.0]])
    pooled = channels([[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]])
    omega = agg.selection_weights(group, pooled, tau=0.5)
    np.testing.assert_allclose(omega.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_selection_matches_softmax_oracle():
    group = Tensor([[1.0, 0.0]])
    pooled = channels([[2.0, 0.0]], [[0.0, 5.0]])  # scores 2 and 0
    omega = agg.selection_weights(group, pooled, tau=1.0)
    e2 = math.exp(2.0)
    np.testing.assert_allclose(omega.data, [[e2 / (e2 + 1), 1 / (e2 + 1)]], atol=1e-4)


def test_selection_hard_one_hot():
    rng = np.random.default_rng(1)
    group = Tensor(rng.normal(size=(6, 4)))
    pooled = channels(*[rng.normal(size=(6, 4)) for _ in range(3)])
    noise = agg.sample_gumbel(rng, (6, 3))
    omega = agg.selection_weights(group, pooled, tau=0.5, noise=noise, hard=True)
    assert np.all(np.isin(omega.data, [0.0, 1.0]))
    np.testing.assert_allclose(omega.data.sum(axis=1), np.ones(6))


def test_selection_simplex_invariant():
    rng = np.random.default_rng(2)
    group = Tensor(rng.normal(size=(40, 8)))
    pooled = channels(*[rng.normal(size=(40, 8)) for _ in range(5)])
    noise = agg.sample_gumbel(rng, (40, 5))
    omega = agg.selection_weights(group, pooled, tau=0.25, noise=noise)
    np.testing.assert_allclose(omega.data.sum(axis=1), np.ones(40), atol=1e-12)
    assert np.all(omega.data >= 0.0)


def test_hard_selection_frequencies_match_soft_distribution():
    # with tau=1 the argmax of noised scores is a draw from the noiseless softmax
    rng = np.random.default_rng(3)
    group = Tensor([[1.0, 0.0, 0.0]])
    pooled = channels(
        [[0.5, 0.0, 0.0]],
        [[1.3, 0.0, 0.0]],
        [[0.1, 0.0, 0.0]],
    )
    soft = agg.selection_weights(group, pooled, tau=1.0).data[0]
    counts = np.zeros(3)
    n = 10_000
    scores = np.array([0.5, 1.3, 0.1])
    picks = (scores + agg.sample_gumbel(rng, (n, 3))).argmax(axis=1)
    for j in picks:
        counts[j] += 1
    np.testing.assert_allclose(counts / n, soft, atol=0.03)


def test_mix_one_hot_selects_single_interest():
    pooled = channels([[1.0, 2.0]], [[5.0, 6.0]])
    omega = Tensor([[0.0, 1.0]])
    np.testing.assert_allclose(agg.mix_interests(omega, pooled).data, [[5.0, 6.0]])


def test_mix_uniform_is_mean():
    pooled = channels([[2.0, 0.0]], [[0.0, 2.0]])
    omega = Tensor([[0.5, 0.5]])
    np.testing.assert_allclose(agg.mix_interests(omega, pooled).data, [[1.0, 1.0]])


def test_mix_weighted_hand_case():
    pooled = channels([[4.0, 0.0]], [[0.0, 4.0]])
    omega = Tensor([[0.25, 0.75]])
    np.testing.assert_allclose(agg.mix_interests(omega, pooled).data, [[1.0, 3.0]])


def test_selection_gradients_flow():
    rng = np.random.default_rng(5)
    group = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    att = Tensor(rng.normal(size=4), requires_grad=True)
    uid = np.array([0, 1, 2, 3, 4, 0])
    gid = np.array([0, 0, 1, 1, 2, 2])

    def loss():
        interests = ref.stack([table, ref.scale(table, 2.0)])
        pooled = agg.attention_pool(interests, uid, gid, ag.segment_pattern(gid, 3, 2), att)
        omega = agg.selection_weights(group, pooled, tau=0.7)
        mixed = agg.mix_interests(omega, pooled)
        return ref.tsum(ref.mul(mixed, mixed))

    err = ref.finite_difference_check(loss, [group, table, att], h=1e-5, rng=rng)
    assert err < 1e-4
