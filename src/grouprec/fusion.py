"""Fusing interest signal into group vectors and group signal into users."""

import numpy as np

from . import autodiff as ag


def fuse_groups(group_emb, group_interest):
    """e*_g = (e_g + i*_g) / 2."""
    return ag.weighted_sum((0.5, group_emb), (0.5, group_interest))


def build_user_pool(dataset):
    """Sparse (|U|, |G|) matrix averaging a user's groups, plus a keep coefficient.

    Row u carries 1/|G(u)| at each group u joined. The coefficient vector is
    0.5 where the user has groups and 1.0 where fusion is bypassed, so that
    fused = coef * e_u + 0.5 * pool @ e*_g is the half-half blend for joiners
    and the identity for everyone else.
    """
    pool = row_mean(dataset.group_members.T.tocsr())
    coef = np.where(np.diff(pool.indptr) > 0, 0.5, 1.0)
    return pool, coef


def row_mean(m):
    """Copy of a CSR of ones whose entries are 1/(entries in their row)."""
    counts = np.diff(m.indptr)
    out = m.copy()
    out.data = 1.0 / np.repeat(counts, counts)
    return out


def fuse_users(user_emb, fused_groups, pool_csr, coef):
    """e_u-hat = (e_u + mean of the user's fused groups) / 2, identity when the user has none.

    pool_csr and coef are what build_user_pool returns.
    """
    return ag.weighted_sum((coef[:, None], user_emb), (0.5, ag.spmm(pool_csr, fused_groups)))
