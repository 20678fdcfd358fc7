"""Relations between two runs of the whole model, which need no oracle.

An entity that touches nothing, a user with no edges and no groups or an
item with no edges, inserted among the others leaves every other row of the
noise-free forward bit-equal, once the other parameter rows are copied
over. Inserting it in the middle moves every later id up by one, so an
index that reads one array by another's ids (a member's row looked up by
its group id, say) shows here, though it passes every gradient test.

Relabelling every user, item and group, with the parameter rows moved to
match, permutes the forward's rows and leaves the ranking metrics as they
were. Sparse sums then add in another order, so rows agree within a bound
rather than bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from grouprec.config import TrainConfig
from grouprec.datasets import Dataset, Interactions, membership_matrix, split_holdout
from grouprec.evaluate import evaluate_ranking
from grouprec.model import GroupRecommender
from grouprec.synthetic import generate_synthetic

CONFIGS = {
    "gate": dict(interest_mode="gate"),
    "table": dict(interest_mode="table"),
    "no_groups": dict(use_groups=False),
    "mean_members": dict(variant="mean_members"),
    "uniform_mix": dict(variant="uniform_mix"),
    "hard_select": dict(variant="hard_select"),
}
# the parameters with one row per user or per item
ROWS_OF = {"user": ("user_emb", "interest_table"), "item": ("item_emb",)}
# a tested relative bound, not a derived one: a relabelled forward's entry is
# within RELABEL_RTOL * max|entry| of its array in the original; the largest
# deviation seen over CONFIGS and permutation seeds 1-40 was 3.2e-16
RELABEL_RTOL = 1e-13
PERMUTATION_SEEDS = (5, 6)
# enough edges that users and groups hold one or two test edges each, so relevant counts differ by anchor
RELABEL_WORLD = dict(n_items=60, edges_per_user=30, edges_per_group=30)
U = 2.0**-53  # the unit roundoff of float64


def tiny_world(n_items=30, **edges):
    ds, _ = generate_synthetic(40, n_items, 10, m_true=3, noise=0.1, seed=3, **edges)
    return dataclasses.replace(ds, user_items=split_holdout(ds.user_items, 0),
                               group_items=split_holdout(ds.group_items, 1))


def shifted(ids, at):
    """The ids once an entity is inserted at `at`: each at or above it moves up by one."""
    return ids + (ids >= at)


def with_user_at(ds, at):
    """ds with a user of no edges and no groups inserted as user `at`."""
    edges, members = ds.user_items, ds.group_members.tocoo()
    n_users = ds.n_users + 1
    return Dataset(n_users, ds.n_items, ds.n_groups,
                   Interactions(n_users, ds.n_items, shifted(edges.anchors, at), edges.items, edges.splits),
                   ds.group_items,
                   membership_matrix(ds.n_groups, n_users, members.row, shifted(members.col, at)))


def with_item_at(ds, at):
    """ds with an item of no edges inserted as item `at`."""
    def moved(edges):
        return Interactions(edges.n_anchors, ds.n_items + 1, edges.anchors, shifted(edges.items, at), edges.splits)

    return dataclasses.replace(ds, n_items=ds.n_items + 1,
                               user_items=moved(ds.user_items), group_items=moved(ds.group_items))


def config(**changes):
    return TrainConfig(embed_dim=8, n_interests=3, n_layers=2, temperature=0.5, seed=0).replace(**changes)


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("entity", ["user", "item"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_an_entity_that_touches_nothing_leaves_every_other_row(name, entity, where):
    ds, cfg = tiny_world(), config(**CONFIGS[name])
    n = ds.n_users if entity == "user" else ds.n_items
    at = {"first": 0, "middle": n // 2, "last": n}[where]
    grown_ds = with_user_at(ds, at) if entity == "user" else with_item_at(ds, at)
    base = GroupRecommender(ds, cfg, np.random.default_rng(1))
    grown = GroupRecommender(grown_ds, cfg, np.random.default_rng(2))
    for (key, t), (_, b) in zip(grown.named_params(), base.named_params()):
        # the inserted row keeps its own draw; every other row is the base model's
        t.data[...] = np.insert(b.data, at, t.data[at], axis=0) if key in ROWS_OF[entity] else b.data

    want, got = base.forward(), grown.forward()
    drop_user = at if entity == "user" else []
    drop_item = at if entity == "item" else []
    assert np.delete(got.user_final.data, drop_user, axis=0).tobytes() == want.user_final.data.tobytes()
    assert np.delete(got.item_final.data, drop_item, axis=0).tobytes() == want.item_final.data.tobytes()
    if cfg.use_groups:
        assert got.group_fused.data.tobytes() == want.group_fused.data.tobytes()
    else:
        assert got.group_fused is None and want.group_fused is None


def relabelled(ds, user, item, group):
    """ds with user u renamed user[u], item v item[v] and group g group[g], split labels kept."""
    def renamed(edges, anchor):
        return Interactions(edges.n_anchors, edges.n_items, anchor[edges.anchors], item[edges.items], edges.splits)

    members = ds.group_members.tocoo()
    return Dataset(ds.n_users, ds.n_items, ds.n_groups, renamed(ds.user_items, user),
                   renamed(ds.group_items, group),
                   membership_matrix(ds.n_groups, ds.n_users, group[members.row], user[members.col]))


def assert_permuted(got, want, perm):
    """got[perm] is want within RELABEL_RTOL of want's largest entry."""
    scale = np.abs(want.data).max()
    assert scale > 0.0
    assert np.abs(got.data[perm] - want.data).max() <= RELABEL_RTOL * scale


def tie_free(state, task):
    """Whether no anchor of the task scores two items exactly alike."""
    anchors = state.user_final if task == "user" else state.group_fused
    scores = np.sort(anchors.data @ state.item_final.data.T, axis=1)
    return bool(np.all(np.diff(scores, axis=1) > 0.0))


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", PERMUTATION_SEEDS)
def test_relabelling_every_entity_permutes_the_forward_and_keeps_the_metrics(name, seed):
    ds, cfg = tiny_world(**RELABEL_WORLD), config(**CONFIGS[name])
    rng = np.random.default_rng(seed)
    perm = {"user": rng.permutation(ds.n_users), "item": rng.permutation(ds.n_items),
            "group": rng.permutation(ds.n_groups)}
    base = GroupRecommender(ds, cfg, np.random.default_rng(1))
    moved_ds = relabelled(ds, perm["user"], perm["item"], perm["group"])
    moved = GroupRecommender(moved_ds, cfg, np.random.default_rng(2))
    rows_of = {"user_emb": "user", "interest_table": "user", "item_emb": "item", "group_emb": "group"}
    for (key, t), (_, b) in zip(moved.named_params(), base.named_params()):
        t.data[...] = b.data
        if key in rows_of:
            t.data[perm[rows_of[key]]] = b.data

    want, got = base.forward(), moved.forward()
    assert_permuted(got.user_final, want.user_final, perm["user"])
    assert_permuted(got.item_final, want.item_final, perm["item"])
    if cfg.use_groups:
        assert_permuted(got.group_fused, want.group_fused, perm["group"])
    if want.omega is not None:
        assert_permuted(got.omega, want.omega, perm["group"])
    assert (got.group_fused is None) == (want.group_fused is None) and (got.omega is None) == (want.omega is None)

    for task in ("user", "group") if cfg.use_groups else ("user",):
        assert tie_free(want, task) and tie_free(got, task)
        (want_metrics, n), (got_metrics, got_n) = (evaluate_ranking(m, d, task, ks=(3, 10), state=s)
                                                   for m, d, s in ((base, ds, want), (moved, moved_ds, got)))
        assert got_n == n > 0 and got_metrics.keys() == want_metrics.keys()
        # each metric is a mean of n per-anchor values, equal here, summed in another anchor order: by
        # Higham's bound for a sum of n nonnegative terms, two orders differ by at most 2 gamma_n of the
        # sum, and the division by n adds a rounding to each
        gamma = n * U / (1.0 - n * U)
        for key, value in want_metrics.items():
            assert abs(got_metrics[key] - value) <= (2.0 * gamma + 2.0 * U) * value, key
