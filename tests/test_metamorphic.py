"""Relations between two runs of the whole model, which need no oracle.

An entity that touches nothing, a user with no edges and no groups or an
item with no edges, inserted among the others leaves every other row of the
noise-free forward bit-equal, once the other parameter rows are copied
over. Inserting it in the middle moves every later id up by one, so an
index that reads one array by another's ids (a member's row looked up by
its group id, say) shows here, though it passes every gradient test.
"""

import dataclasses

import numpy as np
import pytest

from grouprec.config import TrainConfig
from grouprec.datasets import Dataset, Interactions, membership_matrix, split_holdout
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


def tiny_world():
    ds, _ = generate_synthetic(40, 30, 10, m_true=3, noise=0.1, seed=3)
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
