"""Fusing interest signal into group vectors and group signal into users."""

import numpy as np

from . import autodiff as ag


def fuse_groups(group_emb, group_interest):
    """e*_g = (e_g + i*_g) / 2."""
    return ag.weighted_sum((0.5, group_emb), (0.5, group_interest))


def build_user_pool(dataset, mode="mean"):
    """Sparse (|U|, |G|) matrix pooling a user's groups, plus a keep coefficient.

    mean rows carry 1/|G(u)|, sum rows carry 1. The coefficient vector is
    0.5 where the user has groups and 1.0 where fusion is bypassed, so
    that fused = coef * e_u + 0.5 * pool @ e*_g is the half-half blend for
    joiners and the identity for everyone else.
    """
    pool = dataset.group_members.T.tocsr()
    if mode != "sum":
        pool = row_mean(pool)
    coef = np.where(np.diff(pool.indptr) > 0, 0.5, 1.0)
    return pool, coef


def row_mean(m):
    """Copy of a CSR of ones whose entries are 1/(entries in their row)."""
    counts = np.diff(m.indptr)
    out = m.copy()
    out.data = 1.0 / np.repeat(counts, counts)
    return out


def fuse_users(user_emb, fused_groups, pool_csr, coef, pooling="mean"):
    """e_u-hat = (e_u + pooled groups) / 2, identity when the user has none.

    pooling is the config's pooling mode. "mean" and "sum" apply pool_csr as
    build_user_pool made it. With "max" only its pattern counts: the pooled
    vector is the coordinatewise max over the fused rows of the user's groups
    (the rows of pool_csr), with the argmax picked outside the tape and
    gradients routed to the winners.
    """
    if pooling == "max":
        groups = pool_csr.indices
        counts = np.diff(pool_csr.indptr)
        has = counts > 0
        starts = pool_csr.indptr[:-1][has]
        block = fused_groups.data[groups]
        top = np.repeat(np.maximum.reduceat(block, starts, axis=0), counts[has], axis=0)
        # the first group reaching the max wins, as in argmax (a NaN counts as the max)
        hit = (block == top) | np.isnan(block)
        slot = np.where(hit, np.arange(len(groups))[:, None], len(groups))
        row_idx = np.zeros(user_emb.shape, dtype=np.int64)
        row_idx[has] = groups[np.minimum.reduceat(slot, starts, axis=0)]
        pooled = ag.gather_elements(fused_groups, row_idx)
        half = 0.5 * has[:, None]  # users without groups keep e_u alone
    else:
        pooled = ag.spmm(pool_csr, fused_groups)
        half = 0.5
    return ag.weighted_sum((coef[:, None], user_emb), (half, pooled))
