"""Interests generated for the rows that read them, against the full-table oracle.

`GroupRecommender.interests` generates interests for group members plus the
users it is given only: the members alone by default (inference), the
members plus the regularizer's users in training. users=np.arange(n_users)
gives every user's, the oracle. All must give the same loss, gradients and
scores.
"""

import dataclasses

import numpy as np
import pytest

from grouprec import aggregation
from grouprec import autodiff as ag
from grouprec.autodiff import Tape
from grouprec.config import TrainConfig
from grouprec.datasets import (
    TEST,
    VALID,
    Dataset,
    Interactions,
    membership_matrix,
    split_holdout,
)
from grouprec.evaluate import evaluate_ranking
from grouprec.losses import interest_regularizer
from grouprec.model import NO_USERS
from grouprec.trainer import Trainer

import reference as ref

MODES = ("gate", "fc1", "fc2", "table")
VARIANTS = ("full", "uniform_mix", "hard_select", "no_interest_reg")

N_USERS, N_ITEMS = 8, 7
MEMBERSHIPS = ((1, 2), (2, 3), (4, 5))  # users 0, 6 and 7 join no group
MEMBERS = np.array([1, 2, 3, 4, 5])
# user 6 is in the batch though in no group; users 0 and 7 are in neither, so a
# compact row differs from its user id
USER_BATCH = (np.array([1, 6, 3, 6, 4]), np.array([1, 0, 3, 2, 4]), np.array([0, 1, 2, 3, 5]))
GROUP_BATCH = (np.array([0, 2]), np.array([0, 4]), np.array([3, 1]))
BATCH_USERS = np.array([1, 2, 3, 4, 5, 6])  # the batch users plus the batch groups' members


def world(split=False):
    edges = [(u, v) for u in range(N_USERS) for v in range(N_ITEMS) if (u + v) % 2 == 0]
    gids = [g for g, us in enumerate(MEMBERSHIPS) for _ in us]
    ds = Dataset(
        N_USERS,
        N_ITEMS,
        len(MEMBERSHIPS),
        Interactions(N_USERS, N_ITEMS, [e[0] for e in edges], [e[1] for e in edges]),
        Interactions(len(MEMBERSHIPS), N_ITEMS, [0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2, 2, 3, 4, 4, 5, 6]),
        membership_matrix(len(MEMBERSHIPS), N_USERS, gids, [u for us in MEMBERSHIPS for u in us]),
    )
    if split:
        ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=0),
                                 group_items=split_holdout(ds.group_items, seed=1))
    return ds


def config(**kw):
    base = dict(
        embed_dim=5,
        n_interests=3,
        n_layers=2,
        temperature=0.5,
        sim_threshold=0.0,  # keeps the regularizer's mask smooth for finite differences
        user_task_weight=0.7,
        interest_reg_weight=0.3,
        seed=4,
    )
    base.update(kw)
    return TrainConfig(**base)


def spy(trainer, full):
    """Patch the model so the next interest stages record their interests and gradient.

    full=True also passes every user as the users, so the stage generates
    every user's interests: the oracle. The gradient at the interests is read
    through an exact identity node (x * 1.0) placed behind the generator.
    """
    model, seen = trainer.model, {}
    interests, generate = model.interests, model.generator.interests

    def patched_stage(users=NO_USERS):
        table, rows = interests(np.arange(N_USERS) if full else users)
        seen["interests"] = table.data, rows
        return table, rows

    def patched_interests(*args):
        out = ref.scale(generate(*args), 1.0)
        inner = out.slot.backward

        def backward(g, *parents):
            seen["interest_grad"] = g.copy()
            inner(g, *parents)

        out.slot.backward = backward
        return out

    model.interests = patched_stage
    model.generator.interests = patched_interests
    return seen


def step(trainer):
    """The trainer's step loss and its parts on the fixed batches, the same noise every call."""
    return trainer._loss(USER_BATCH, GROUP_BATCH, np.random.default_rng(9))


def loss_and_grads(trainer):
    """The step loss, its interest regularizer term, and every parameter's gradient."""
    for t in trainer.model.tensors():
        t.grad = None
    with Tape() as tape:
        loss, _, _, reg = step(trainer)
        tape.backward(loss)
    grads = {
        name: np.zeros_like(t.data) if t.grad is None else t.grad
        for name, t in trainer.model.named_params()
    }
    return loss.item(), reg, grads


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", MODES)
def test_compact_rows_match_the_full_table(mode, variant):
    cfg = config(interest_mode=mode, variant=variant)
    compact, full = Trainer(world(), cfg), Trainer(world(), cfg)
    seen_compact, seen_full = spy(compact, full=False), spy(full, full=True)
    loss_c, reg_c, grads_c = loss_and_grads(compact)
    loss_f, reg_f, grads_f = loss_and_grads(full)

    reg_applies = variant != "no_interest_reg"
    assert compact.reg_applies is reg_applies
    if reg_applies:  # the regularizer covers the batch users and the batch groups' members
        want_reg = interest_regularizer(seen_full["interests"][0], BATCH_USERS, 0.0).item()
        assert abs(reg_c - want_reg) <= 1e-10 * abs(want_reg) and reg_f == want_reg
    want_rows = BATCH_USERS if reg_applies else MEMBERS
    np.testing.assert_array_equal(seen_compact["interests"][1], want_rows)
    assert seen_compact["interests"][0].shape == (len(want_rows), 3, 5)
    np.testing.assert_array_equal(seen_full["interests"][1], np.arange(N_USERS))

    assert abs(loss_c - loss_f) <= 1e-10 * abs(loss_f)
    for name, gf in grads_f.items():
        scale = np.abs(gf).max()
        assert scale > 0.0, name
        assert np.abs(grads_c[name] - gf).max() <= 1e-10 * scale, name

    # in the full table, every row the compact path leaves out gets exactly zero
    g = seen_full["interest_grad"]
    outside = np.setdiff1d(np.arange(N_USERS), want_rows)
    assert 0 in outside and 7 in outside
    assert np.all(g[outside] == 0.0)
    assert np.all(np.abs(g[want_rows]).max(axis=(1, 2)) > 0.0)
    assert np.abs(seen_compact["interest_grad"] - g[want_rows]).max() <= 1e-10 * np.abs(g).max()


@pytest.mark.parametrize("mode", MODES)
def test_compact_path_gradients_match_finite_differences(mode):
    trainer = Trainer(world(), config(interest_mode=mode))
    # zero biases let fc2 zero a user's whole interest channel, where the
    # cosine (and so the loss) jumps; random biases keep every channel off zero
    rng = np.random.default_rng(2)
    for name, t in trainer.model.generator.named_params():
        if "_b" in name:
            t.data[:] = rng.normal(0.0, 0.1, size=t.data.shape)
    params = trainer.model.tensors()
    every = max(t.data.size for t in params)
    err = ref.finite_difference_check(
        lambda: step(trainer)[0], params, h=1e-4, max_coords=every
    )
    assert err < 1e-4


def test_pool_pattern_is_built_once_per_model(monkeypatch):
    trainer = Trainer(world(), config())
    model = trainer.model
    pattern = model.pool_pattern
    layout = [a.copy() for a in (pattern.indptr, pattern.indices, pattern.data)]
    onehots = []
    onehot_rows = ag._onehot_rows

    def recording_onehot_rows(idx, n_rows):
        onehots.append(np.array(idx))
        return onehot_rows(idx, n_rows)

    def no_rebuild(*args):
        raise AssertionError("segment_pattern called inside a step")

    monkeypatch.setattr(ag, "segment_pattern", no_rebuild)
    monkeypatch.setattr(ag, "_onehot_rows", recording_onehot_rows)
    trainer._step()
    trainer._step()
    assert model.pool_pattern is pattern
    for before, after in zip(layout, (pattern.indptr, pattern.indices, pattern.data)):
        np.testing.assert_array_equal(after, before)
    # the step's scatters were seen, and none was over the memberships (by group or by cell)
    assert onehots
    cells = (model.member_gid[:, None] * 3 + np.arange(3)).ravel()
    assert not any(np.array_equal(idx, model.member_gid) or np.array_equal(idx, cells) for idx in onehots)


@pytest.fixture(scope="module")
def trained():
    ds = world(split=True)
    trainer = Trainer(ds, config(epochs=3, batch_user=8, batch_group=3, lr=0.05))
    trainer.train()
    return ds, trainer.model


@pytest.mark.parametrize("task", ["user", "group"])
def test_members_only_inference_matches_the_full_table(trained, task):
    ds, model = trained
    full_state = model.forward(interests=model.interests(np.arange(N_USERS)))
    np.testing.assert_array_equal(model.interests()[1], MEMBERS)
    np.testing.assert_array_equal(model.interests(NO_USERS)[1], MEMBERS)

    scores = ref.whole(model.row_scores(task))  # no state: the members-only forward
    want = ref.whole(model.row_scores(task, full_state))
    assert np.abs(scores - want).max() <= 1e-12 * np.abs(want).max()
    for target in (VALID, TEST):
        assert evaluate_ranking(model, ds, task, target=target) == evaluate_ranking(
            model, ds, task, target=target, state=full_state
        )


def test_interest_similarity_stays_the_all_user_mean(trained):
    _, model = trained
    full, rows = model.interests(np.arange(N_USERS))
    np.testing.assert_array_equal(rows, np.arange(N_USERS))
    sim = model.interest_similarity()
    want = np.abs(ag.channel_cosines(full.data.copy())[0]).mean(axis=0)
    np.fill_diagonal(want, 1.0)
    np.testing.assert_array_equal(sim, want)
    np.testing.assert_allclose(sim, ref.mean_abs_cosine(full.data), rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["gate", "table"])
def test_interest_similarity_runs_no_forward(mode, monkeypatch):
    ds = world(split=True)
    trainer = Trainer(ds, config(interest_mode=mode, epochs=2, batch_user=8, batch_group=3, lr=0.05))
    trainer.train()
    model = trainer.model
    # the oracle: the interests a forward pools from, when it is handed every user's
    pooled_from = []
    pool = aggregation.attention_pool

    def recording_pool(interests, *args):
        pooled_from.append(interests.data.copy())
        return pool(interests, *args)

    monkeypatch.setattr(aggregation, "attention_pool", recording_pool)
    model.forward(interests=model.interests(np.arange(N_USERS)))
    (table,) = pooled_from
    want = np.abs(ag.channel_cosines(table)[0]).mean(axis=0)
    np.fill_diagonal(want, 1.0)

    def no_forward(*args, **kwargs):
        raise AssertionError("interest_similarity ran a forward")

    monkeypatch.setattr(model, "forward", no_forward)
    np.testing.assert_array_equal(model.interest_similarity(), want)


def test_regularizer_is_recorded_before_the_pool(monkeypatch):
    """The regularizer's node precedes the pool's, so its backward runs once the pool's has."""
    trainer = Trainer(world(), config())
    recorded = {}
    for name in ("mean_pair_cosine", "segment_attention"):
        op = getattr(ag, name)

        def recording(*args, _op=op, _name=name):
            recorded[_name] = _op(*args)
            return recorded[_name]

        monkeypatch.setattr(ag, name, recording)
    with Tape() as tape:
        loss = step(trainer)[0]
        order = [id(node) for node in tape.nodes]
        tape.backward(loss)
    reg, pool = (order.index(id(recorded[name].slot)) for name in ("mean_pair_cosine", "segment_attention"))
    assert reg < pool
