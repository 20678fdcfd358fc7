"""Synthetic worlds with planted interest structure, for property tests."""

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, Interactions, membership_matrix


@dataclass
class PlantedLabels:
    """Ground truth the generator built the world from."""

    user_interests: list  # per user, tuple of interest ids (1 or 2)
    group_interest: np.ndarray  # per group, the shared planted interest
    item_block: np.ndarray  # per item, owning interest block


def generate_synthetic(
    n_users,
    n_items,
    n_groups,
    m_true,
    noise,
    seed,
    edges_per_user=8,
    edges_per_group=6,
    group_size=3,
):
    """Build a Dataset whose edges follow planted interest blocks.

    Items are partitioned into m_true contiguous blocks. User u's first
    interest is u % m_true (so every interest is populated); half the users
    get a second, distinct interest. Group g's planted interest is
    g % m_true and its members are drawn from users holding that interest.
    Each edge falls inside the anchor's interest blocks with probability
    1 - noise, anywhere otherwise.
    """
    if m_true < 2:
        raise ValueError("need at least two interest blocks")
    if n_items < 2 * m_true:
        raise ValueError("too few items to partition into interest blocks")
    if n_users < m_true or not 0.0 <= noise <= 1.0:
        raise ValueError("infeasible sizes or noise outside [0, 1]")

    rng = np.random.default_rng(seed)
    item_block = np.array([min(v * m_true // n_items, m_true - 1) for v in range(n_items)])
    block_items = [np.flatnonzero(item_block == n) for n in range(m_true)]

    user_interests = []
    for u in range(n_users):
        ints = [u % m_true]
        if rng.random() < 0.5:
            extra = int(rng.integers(m_true - 1))
            ints.append(extra if extra < ints[0] else extra + 1)
        user_interests.append(tuple(sorted(ints)))

    holders = [
        np.array([u for u in range(n_users) if n in user_interests[u]]) for n in range(m_true)
    ]

    def draw_edges(pool_items, n_edges):
        chosen = set()
        for _ in range(n_edges):
            if noise > 0.0 and rng.random() < noise:
                v = int(rng.integers(n_items))
            else:
                v = int(pool_items[rng.integers(len(pool_items))])
            chosen.add(v)
        return sorted(chosen)

    ua, uv = [], []
    for u in range(n_users):
        pool = np.concatenate([block_items[n] for n in user_interests[u]])
        for v in draw_edges(pool, edges_per_user):
            ua.append(u)
            uv.append(v)

    group_interest = np.array([g % m_true for g in range(n_groups)], dtype=np.int64)
    mg, mu = [], []
    ga, gv = [], []
    for g in range(n_groups):
        n = int(group_interest[g])
        size = min(group_size, len(holders[n]))
        for u in rng.choice(holders[n], size=size, replace=False):
            mg.append(g)
            mu.append(int(u))
        for v in draw_edges(block_items[n], edges_per_group):
            ga.append(g)
            gv.append(v)

    ds = Dataset(
        n_users,
        n_items,
        n_groups,
        Interactions(n_users, n_items, ua, uv),
        Interactions(n_groups, n_items, ga, gv),
        membership_matrix(n_groups, n_users, mg, mu),
    )
    return ds, PlantedLabels(user_interests, group_interest, item_block)
