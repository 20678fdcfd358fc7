"""Group-level interest pooling and stochastic interest selection.

Members' n-th interests are attention-pooled into one vector per group,
for all M channels at once: the (n, M, d) interest tensor of the model
becomes a (|G|, M, d) pooled tensor. A group then mixes its M pooled vectors
with weights from a Gumbel-Softmax over the scores e_g . pooled_n, giving one
(|G|, d) interest vector per group. The noise-free softmax of
the same scores is the evaluation-time path, so selection is
deterministic outside training.

The scores enter the softmax raw, not log-transformed: dot products can
be non-positive, and the raw form still reduces to the plain softmax
selection distribution when the noise is dropped.
"""

import numpy as np

from . import autodiff as ag

GUMBEL_EPS = 1e-10


def sample_gumbel(rng, shape):
    """Standard Gumbel draws via -log(-log(uniform)), clamped away from {0, 1}."""
    eps = np.clip(rng.random(shape), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
    return -np.log(-np.log(eps))


def attention_pool(interests, member_rows, member_gid, pattern, att_vec):
    """Pool every interest channel over group members.

    interests: (n, M, d) tensor. member_rows and member_gid are parallel
    arrays flattening the membership relation: each membership's row in
    interests and its group. pattern is their ag.segment_pattern, built once.
    For each group and channel the weights are a softmax over members of
    att_vec . i_u; output is (n_groups, M, d). Groups are guaranteed at least
    one member by dataset validation.
    """
    return ag.segment_attention(interests, att_vec, member_rows, member_gid, pattern)


def selection_weights(group_emb, pooled, tau, noise=None, hard=False):
    """Mixture weights over the M pooled interest vectors, one row per group.

    pooled is the (|G|, M, d) output of attention_pool. noise is an
    optional constant (|G|, M) Gumbel array; omit it for the deterministic
    softmax path. hard snaps each row to a one-hot at its argmax, with
    gradients taken from the soft weights.
    """
    psi = ag.contract("gd,gmd->gm", group_emb, pooled)
    logits = psi if noise is None else ag.weighted_sum((1.0, psi), (1.0, noise))
    omega = ag.softmax_rows(logits, tau)
    if hard:
        onehot = np.zeros_like(omega.data)
        onehot[np.arange(omega.data.shape[0]), omega.data.argmax(axis=1)] = 1.0
        omega = ag.straight_through(omega, onehot)
    return omega


def mix_interests(omega, pooled):
    """i*_g = sum_n omega[:, n] * pooled[:, n]; (|G|, M), (|G|, M, d) -> (|G|, d)."""
    return ag.contract("gm,gmd->gd", omega, pooled)
