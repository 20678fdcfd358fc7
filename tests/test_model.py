import dataclasses
import math

import numpy as np
import pytest

from grouprec import autodiff as ag
from grouprec import fusion, graphconv, losses
from grouprec import trainer as trainer_module
from grouprec.autodiff import Tape, Tensor
from grouprec.config import TrainConfig
from grouprec.datasets import TRAIN, Dataset, Interactions, membership_matrix, split_holdout
from grouprec.gating import param_count
from grouprec.model import GroupRecommender
from grouprec.synthetic import generate_synthetic

import reference as ref

LN2 = math.log(2.0)


def toy_dataset(n_users=5, n_items=4, memberships=((0, 1), (2, 3))):
    edges = [(u, v) for u in range(n_users) for v in range(n_items) if (u + v) % 2 == 0]
    members = membership_matrix(
        len(memberships), n_users,
        [g for g, us in enumerate(memberships) for _ in us],
        [u for us in memberships for u in us],
    )
    ds = Dataset(
        n_users,
        n_items,
        len(memberships),
        Interactions(n_users, n_items, [e[0] for e in edges], [e[1] for e in edges]),
        Interactions(len(memberships), n_items, [0, 0, 1, 1], [0, 2, 1, 3]),
        members,
    )
    return ds


def small_config(**kw):
    base = dict(
        embed_dim=6,
        n_interests=2,
        n_layers=2,
        temperature=0.5,
        sim_threshold=0.0,
        user_task_weight=0.7,
        interest_reg_weight=0.3,
        lr=0.01,
        weight_decay=0.0,
        batch_user=4,
        batch_group=2,
        epochs=2,
        patience=2,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.mark.parametrize("kw", [dict(variant="mean_members"), dict(use_groups=False)])
@pytest.mark.parametrize("method", ["interests", "interest_similarity"])
def test_interest_readers_need_a_generator(kw, method):
    # interests() used to fail with an AttributeError, and interest_similarity() to return an identity
    model = GroupRecommender(toy_dataset(), small_config(**kw), np.random.default_rng(0))
    assert model.generator is None
    with pytest.raises(ValueError, match="model has no interest generator"):
        getattr(model, method)()


def bpr_of(anchor, pos, neg):
    """BPR loss of one anchor vector against one positive and one negative per row."""
    anchor, pos, neg = (np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in (anchor, pos, neg))
    b = len(pos)
    items = Tensor(np.concatenate([pos, neg]))
    idx = np.arange(b)
    return losses.bpr_loss(Tensor(anchor), items, np.zeros(b, dtype=np.int64), idx, idx + b)


def test_bpr_equal_scores_is_ln2():
    assert bpr_of([1.0], [[1.0], [2.0]], [[1.0], [2.0]]).item() == pytest.approx(LN2)


def test_bpr_unit_gap_values():
    assert bpr_of([1.0], [[1.0]], [[0.0]]).item() == pytest.approx(0.31326168751822286, abs=1e-4)
    assert bpr_of([1.0], [[0.0]], [[1.0]]).item() == pytest.approx(1.3132616875182228, abs=1e-4)


def test_bpr_large_gap_vanishes():
    assert bpr_of([1.0], [[100.0]], [[0.0]]).item() == pytest.approx(0.0, abs=1e-12)


def test_bpr_empty_batch_rejected():
    with pytest.raises(ValueError):
        losses.bpr_loss(Tensor(np.zeros((1, 2))), Tensor(np.zeros((3, 2))), [], [], [])


def test_regularizer_identical_interests():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[2.0, 0.0]])  # same direction, cosine 1
    reg = losses.interest_regularizer(ref.stack([a, b]), np.array([0]), threshold=0.5)
    assert reg.item() == pytest.approx(1.0)


def test_regularizer_orthogonal_masked_out():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0, 1.0]])
    reg = losses.interest_regularizer(ref.stack([a, b]), np.array([0]), threshold=0.5)
    assert reg.item() == 0.0


def test_regularizer_threshold_zero_keeps_all_pairs():
    rng = np.random.default_rng(0)
    ints = [Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
    idx = np.arange(3)
    reg = losses.interest_regularizer(ref.stack(ints), idx, threshold=0.0)
    manual = 0.0
    for p in range(3):
        for q in range(p + 1, 3):
            for u in range(3):
                manual += ref.cosine_similarity(ints[p].data[u], ints[q].data[u])
    assert reg.item() == pytest.approx(manual / 3.0, abs=1e-12)


def test_regularizer_mask_blocks_gradient_of_dropped_pairs():
    a = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    b = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)  # |cos| = 0 < t
    with Tape() as tape:
        reg = losses.interest_regularizer(ref.stack([a, b]), np.array([0]), threshold=0.5)
        loss = ref.add(reg, ref.tsum(ref.mul(a, a)))
        tape.backward(loss)
    np.testing.assert_allclose(b.grad if b.grad is not None else np.zeros_like(b.data), 0.0)


def test_regularizer_gradient_matches_cosine_away_from_threshold():
    rng = np.random.default_rng(1)
    ints = [Tensor(rng.normal(size=(4, 5)), requires_grad=True) for _ in range(2)]
    idx = np.arange(4)

    def loss():
        return losses.interest_regularizer(ref.stack(ints), idx, threshold=0.0)

    err = ref.finite_difference_check(loss, ints, h=1e-5, rng=rng)
    assert err < 1e-4


def test_forward_shapes_and_simplex():
    ds = toy_dataset()
    model = GroupRecommender(ds, small_config(), np.random.default_rng(0))
    interests, rows = model.interests(np.arange(5))
    state = model.forward(interests=(interests, rows))
    assert state.user_final.shape == (5, 6)
    assert state.item_final.shape == (4, 6)
    assert state.group_fused.shape == (2, 6)
    assert state.omega.shape == (2, 2)
    np.testing.assert_allclose(state.omega.data.sum(axis=1), np.ones(2), atol=1e-12)
    assert interests.shape == (5, 2, 6)
    np.testing.assert_array_equal(rows, np.arange(5))


def test_forward_deterministic_without_noise():
    ds = toy_dataset()
    model = GroupRecommender(ds, small_config(), np.random.default_rng(0))
    a = model.forward().user_final.data
    b = model.forward().user_final.data
    np.testing.assert_array_equal(a, b)


def test_mf_reduction_scores_are_raw_dot_products():
    ds = toy_dataset()
    cfg = small_config(use_groups=False, n_layers=0)
    model = GroupRecommender(ds, cfg, np.random.default_rng(0))
    scores = ref.whole(model.row_scores("user"))
    np.testing.assert_allclose(scores, model.user_emb.data @ model.item_emb.data.T, atol=1e-12)
    assert model.group_emb is None and model.generator is None


def test_graph_reduction_ignores_groups():
    ds = toy_dataset()
    cfg = small_config(use_groups=False, n_layers=2)
    model = GroupRecommender(ds, cfg, np.random.default_rng(0))
    state = model.forward()
    assert state.group_fused is None and model.generator is None
    with pytest.raises(ValueError):
        model.row_scores("group")


def test_uniform_mix_variant_freezes_omega():
    ds = toy_dataset()
    model = GroupRecommender(ds, small_config(variant="uniform_mix"), np.random.default_rng(0))
    state = model.forward(noise_rng=np.random.default_rng(1))
    np.testing.assert_allclose(state.omega.data, 0.5)


def test_hard_select_variant_emits_one_hot():
    ds = toy_dataset()
    model = GroupRecommender(ds, small_config(variant="hard_select"), np.random.default_rng(0))
    state = model.forward(noise_rng=np.random.default_rng(1))
    assert np.all(np.isin(state.omega.data, [0.0, 1.0]))


def test_mean_members_variant_uses_member_average():
    ds = toy_dataset()
    model = GroupRecommender(ds, small_config(variant="mean_members"), np.random.default_rng(0))
    state = model.forward()
    g0_members = ds.members_of(0)
    want = 0.5 * (model.group_emb.data[0] + model.user_emb.data[g0_members].mean(axis=0))
    np.testing.assert_allclose(state.group_fused.data[0], want, atol=1e-12)
    assert model.generator is None


def test_interest_similarity_matrix_properties():
    ds = toy_dataset()
    model = GroupRecommender(ds, small_config(n_interests=3), np.random.default_rng(0))
    sim = model.interest_similarity()
    assert sim.shape == (3, 3)
    np.testing.assert_allclose(np.diag(sim), 1.0)
    np.testing.assert_allclose(sim, sim.T)
    assert np.all((0.0 <= sim) & (sim <= 1.0 + 1e-12))


def test_param_registry_covers_all_modes():
    ds = toy_dataset()
    for mode, extra in (("gate", 2 * 7 * 6), ("table", 2 * 5 * 6)):
        model = GroupRecommender(
            ds, small_config(interest_mode=mode), np.random.default_rng(0)
        )
        names = [n for n, _ in model.named_params()]
        assert names[:3] == ["user_emb", "item_emb", "group_emb"]
        assert param_count(model.generator.named_params()) == extra


def test_end_to_end_gradients_match_finite_differences():
    # whole pipeline, frozen noise, threshold 0 keeps the mask smooth
    ds = toy_dataset()
    cfg = small_config()
    model = GroupRecommender(ds, cfg, np.random.default_rng(7))
    u_split = split_holdout(ds.user_items, seed=0)
    train = u_split.splits == TRAIN
    ua, uv = u_split.anchors[train], u_split.items[train]
    rng = np.random.default_rng(3)

    def loss():
        interests = model.interests(np.arange(5))
        state = model.forward(interests=interests)
        l_user = losses.bpr_loss(state.user_final, state.item_final, ua[:4], uv[:4], (uv[:4] + 1) % 4)
        l_group = losses.bpr_loss(
            state.group_fused, state.item_final, np.array([0, 1]), np.array([0, 1]), np.array([3, 2])
        )
        reg = losses.interest_regularizer(interests[0], np.arange(5), cfg.sim_threshold)
        return ref.add(
            ref.add(
                ref.scale(l_user, cfg.user_task_weight),
                ref.scale(l_group, 1.0 - cfg.user_task_weight),
            ),
            ref.scale(reg, cfg.interest_reg_weight),
        )

    # every coordinate, at a step where roundoff stays below the tolerance even
    # for gradients near 1e-8 (at h=1e-5 one such gate weight read 2.0e-4)
    every = max(t.data.size for t in model.tensors())
    err = ref.finite_difference_check(loss, model.tensors(), h=1e-4, rng=rng, max_coords=every)
    assert err < 1e-4


def traced_step(ds, cfg):
    """One training step's tape length, loss and parameter gradients."""
    trainer = trainer_module.Trainer(ds, cfg)
    user, group = trainer._draw()
    with Tape() as tape:
        loss = trainer._loss(user, group, trainer.noise_rng)[0]
        nodes = len(tape.nodes)
        tape.backward(loss)
    return nodes, loss.data, [t.grad for t in trainer.model.tensors()]


@pytest.mark.parametrize("use_groups, old_nodes, new_nodes", [(True, 33, 16), (False, 14, 4)])
def test_weighted_sum_step_bits_equal_the_old_chains(monkeypatch, use_groups, old_nodes, new_nodes):
    ds, _ = generate_synthetic(30, 40, 8, m_true=2, noise=0.1, seed=0)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=0),
                             group_items=split_holdout(ds.group_items, seed=1))
    # default layers, interests and loss weights: every term of the loss is on
    cfg = TrainConfig(embed_dim=8, batch_user=32, batch_group=8, use_groups=use_groups)
    new = traced_step(ds, cfg)
    monkeypatch.setattr(fusion, "fuse_groups", ref.chain_fuse_groups)
    monkeypatch.setattr(fusion, "fuse_users", ref.chain_fuse_users)
    monkeypatch.setattr(graphconv, "propagate", ref.chain_propagate)
    monkeypatch.setattr(trainer_module, "weighted_sum", ref.chain_loss)
    old = traced_step(ds, cfg)
    assert (old[0], new[0]) == (old_nodes, new_nodes)
    np.testing.assert_array_equal(new[1], old[1])
    for new_grad, old_grad in zip(new[2], old[2]):
        np.testing.assert_array_equal(new_grad, old_grad)
