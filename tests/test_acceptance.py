"""Acceptance gate. Prints one labelled pass/fail line per check.

Two tiers:
- benchmark checks against the MaFengWo corpus: run only when a converted
  dataset directory exists (GROUPREC_MAFENGWO env var, falling back to
  data/mafengwo); otherwise they skip with a reason. Budget: the headline
  train+eval must fit in 30 minutes on a laptop-class CPU.
- an always-on property tier needing no external data: gradient correctness,
  selection-distribution laws, ranking oracles, planted-interest recovery,
  determinism, and ingestion of member-only schemas (the layouts that ship
  without group-item interactions).
"""

import dataclasses
import os
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from grouprec.aggregation import sample_gumbel, selection_weights
from grouprec.autodiff import Tensor
from grouprec.checkpoint import file_sha256, save_checkpoint
from grouprec.cli import main as cli_main
from grouprec.config import TrainConfig
from grouprec.datasets import (
    TEST,
    TRAIN,
    Interactions,
    build_norm_adjacency,
    load_dataset,
    load_prepared,
    split_holdout,
)
from grouprec.evaluate import evaluate_popularity, evaluate_ranking, evaluate_scores
from grouprec.gating import param_count
from grouprec.graphconv import propagate
from grouprec.synthetic import generate_synthetic
from grouprec.trainer import Trainer

from reference import DenseScores, baseline_config


def report(label, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------- benchmark tier

MAFENGWO_DIR = os.environ.get("GROUPREC_MAFENGWO", os.path.join("data", "mafengwo"))

needs_mafengwo = pytest.mark.skipif(
    not os.path.isfile(os.path.join(MAFENGWO_DIR, "users.tsv")),
    reason=f"no MaFengWo-style dataset at {MAFENGWO_DIR} (see docs/datasets.md)",
)

_cache = {}


def _mafengwo_prepared(tmp_factory):
    if "data" not in _cache:
        work = tmp_factory.mktemp("mafengwo")
        dst = work / "prepared"
        rc = cli_main(["prepare", "--data", MAFENGWO_DIR, "--out", str(dst), "--seed", "0"])
        assert rc == 0
        _cache["data"] = load_prepared(str(dst))
    return _cache["data"]


def _trained(ds, key, cfg):
    """Train once per config key; criteria share expensive runs."""
    if key not in _cache:
        trainer = Trainer(ds, cfg)
        result = trainer.train()
        _cache[key] = (trainer, result)
    return _cache[key]


def _user_point(**over):
    base = dict(
        embed_dim=64, n_interests=4, n_layers=3, temperature=0.5, sim_threshold=0.1,
        user_task_weight=0.9, interest_reg_weight=0.4, lr=0.005, weight_decay=1e-4,
        batch_user=2048, batch_group=256, epochs=200, patience=20, seed=0,
    )
    base.update(over)
    return TrainConfig(**base)


def _test_metrics(trainer, ds, task):
    state = trainer.model.forward()
    metrics, n = evaluate_ranking(trainer.model, ds, task, ks=(5, 10), state=state)
    assert n > 0
    return metrics


@needs_mafengwo
def test_user_task_benchmark(tmp_path_factory):
    ds = _mafengwo_prepared(tmp_path_factory)
    t0 = time.perf_counter()
    trainer, _ = _trained(ds, "full_user_s0", _user_point(seed=0))
    metrics = _test_metrics(trainer, ds, "user")
    wall = time.perf_counter() - t0
    ok = metrics["recall@5"] >= 0.34 and metrics["ndcg@10"] >= 0.34 and wall <= 1800
    report(
        "user-task benchmark",
        ok,
        f"recall@5={metrics['recall@5']:.4f} (>=0.34) ndcg@10={metrics['ndcg@10']:.4f} "
        f"(>=0.34) wall={wall:.0f}s (<=1800)",
    )


@needs_mafengwo
def test_baseline_ordering(tmp_path_factory):
    ds = _mafengwo_prepared(tmp_path_factory)
    pop5 = [evaluate_popularity(ds, "user", ks=(10,))[0]["ndcg@10"] for _ in range(5)]
    pop = pop5[0]
    mf_t, _ = _trained(ds, "mf_s0", baseline_config("mf", _user_point(seed=0)))
    mf = _test_metrics(mf_t, ds, "user")["ndcg@10"]
    lg_t, _ = _trained(ds, "lightgcn_s0", baseline_config("lightgcn", _user_point(seed=0)))
    lgcn = _test_metrics(lg_t, ds, "user")["ndcg@10"]
    full_t, _ = _trained(ds, "full_user_s0", _user_point(seed=0))
    full = _test_metrics(full_t, ds, "user")["ndcg@10"]
    ok = (
        pop < mf < lgcn < full
        and abs(mf - 0.2648) <= 0.03
        and abs(lgcn - 0.3242) <= 0.03
        and abs(pop - 0.1863) <= 0.02
        and all(p == pop for p in pop5)
    )
    report(
        "baseline ordering",
        ok,
        f"popularity={pop:.4f} (±0.02 of 0.1863, std 0) < mf={mf:.4f} (±0.03 of 0.2648) "
        f"< lightgcn={lgcn:.4f} (±0.03 of 0.3242) < full={full:.4f}",
    )


@needs_mafengwo
def test_group_task_benchmark(tmp_path_factory):
    ds = _mafengwo_prepared(tmp_path_factory)
    cfg = _user_point(user_task_weight=0.2, select_task="group", seed=0)
    trainer, _ = _trained(ds, "full_group_s0", cfg)
    metrics = _test_metrics(trainer, ds, "group")
    ok = metrics["recall@10"] >= 0.55 and metrics["ndcg@10"] >= 0.40
    report(
        "group-task benchmark",
        ok,
        f"recall@10={metrics['recall@10']:.4f} (>=0.55) ndcg@10={metrics['ndcg@10']:.4f} (>=0.40)",
    )


@needs_mafengwo
def test_variant_directionality(tmp_path_factory):
    ds = _mafengwo_prepared(tmp_path_factory)
    full_t, _ = _trained(ds, "full_user_s0", _user_point(seed=0))
    full = _test_metrics(full_t, ds, "user")["ndcg@10"]
    scores = {}
    for variant in ("no_interest_reg", "hard_select", "mean_members"):
        t, _ = _trained(ds, f"{variant}_s0", _user_point(variant=variant, seed=0))
        scores[variant] = _test_metrics(t, ds, "user")["ndcg@10"]
    gap_c = (full - scores["no_interest_reg"]) / full
    ok = gap_c >= 0.04 and full >= scores["hard_select"] and full > scores["mean_members"]
    report(
        "variant directionality",
        ok,
        f"full={full:.4f}; no-reg gap={100 * gap_c:.1f}% (>=4%); "
        f"hard={scores['hard_select']:.4f} (<=full); mean-members={scores['mean_members']:.4f} (<full)",
    )


@needs_mafengwo
def test_interest_generator_comparison(tmp_path_factory):
    ds = _mafengwo_prepared(tmp_path_factory)
    gate_t, _ = _trained(ds, "full_user_s0", _user_point(seed=0))
    table_t, _ = _trained(ds, "table_s0", _user_point(interest_mode="table", seed=0))
    gate = _test_metrics(gate_t, ds, "user")["ndcg@5"]
    table = _test_metrics(table_t, ds, "user")["ndcg@5"]
    m, d = 4, 64
    gate_params = param_count(gate_t.model.generator.named_params())
    table_params = param_count(table_t.model.generator.named_params())
    ok = (
        (gate - table) / table >= 0.03
        and gate_params == m * (d + 1) * d
        and table_params == m * ds.n_users * d
    )
    report(
        "interest generator comparison",
        ok,
        f"self-gating ndcg@5={gate:.4f} vs table={table:.4f} "
        f"(rel gain {100 * (gate - table) / table:.1f}%, >=3%); "
        f"params {gate_params} == {m * (d + 1) * d} and {table_params} == {m * ds.n_users * d}",
    )


@needs_mafengwo
def test_threshold_similarity_behavior(tmp_path_factory):
    ds = _mafengwo_prepared(tmp_path_factory)
    off_diag = {}
    for t in (0.1, 0.9):
        trainer, _ = _trained(
            ds, f"thresh_{t}_s0", _user_point(sim_threshold=t, seed=0)
        )
        sim = trainer.model.interest_similarity()
        mask = ~np.eye(sim.shape[0], dtype=bool)
        off_diag[t] = float(sim[mask].mean())
    ok = off_diag[0.1] < 0.3 and off_diag[0.9] > off_diag[0.1]
    report(
        "threshold similarity behavior",
        ok,
        f"off-diagonal mean at t=0.1: {off_diag[0.1]:.3f} (<0.3); at t=0.9: {off_diag[0.9]:.3f} (greater)",
    )


# ---------------------------------------------------------------- property tier


def planted_world(n_users=40, n_items=30, n_groups=8, m_true=3, noise=0.1, seed=5, **kw):
    ds, labels = generate_synthetic(n_users, n_items, n_groups, m_true, noise, seed, **kw)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, 0),
                             group_items=split_holdout(ds.group_items, 1))
    return ds, labels


class FrozenUniform:
    """Stands in for a Generator; hands back one fixed uniform draw forever."""

    def __init__(self, shape, seed):
        self._vals = np.random.default_rng(seed).random(shape)

    def random(self, shape):
        assert tuple(shape) == self._vals.shape
        return self._vals


def test_end_to_end_gradient_check():
    from reference import finite_difference_check
    from reference import add, scale
    from grouprec.losses import bpr_loss, interest_regularizer

    ds, _ = planted_world()
    cfg = TrainConfig(embed_dim=5, n_interests=2, n_layers=2, batch_user=16,
                      batch_group=8, seed=0)
    trainer = Trainer(ds, cfg)
    model = trainer.model
    ua, up, un = trainer.user_sampler.sample(16)
    # anchor every group so no embedding row is left with a structurally zero
    # gradient (those rows would compare FD noise against 0)
    ga = np.arange(ds.n_groups)
    gp = np.random.default_rng(5).integers(0, ds.n_items, size=ds.n_groups)
    gn = (gp + 7) % ds.n_items
    frozen = FrozenUniform((ds.n_groups, cfg.n_interests), seed=9)
    all_users = np.arange(ds.n_users)

    def loss_fn():
        interests = model.interests(all_users)
        state = model.forward(noise_rng=frozen, interests=interests)
        l_user = bpr_loss(state.user_final, state.item_final, ua, up, un)
        l_group = bpr_loss(state.group_fused, state.item_final, ga, gp, gn)
        reg = interest_regularizer(interests[0], all_users, cfg.sim_threshold)
        return add(add(scale(l_user, 0.9), scale(l_group, 0.1)), scale(reg, 0.4))

    params = [t for _, t in model.named_params()]
    # each interest role stacks n_interests slices: 4 coordinates per slice
    worst = finite_difference_check(loss_fn, params, h=1e-5, max_coords=4 * cfg.n_interests,
                                    rng=np.random.default_rng(0))
    report("end-to-end gradient check", worst < 1e-4, f"max relative error {worst:.2e} (<1e-4)")


def test_selection_distribution_invariants():
    rng = np.random.default_rng(0)
    group_emb = Tensor(rng.normal(size=(6, 4)))
    pooled = Tensor(np.stack([rng.normal(size=(6, 4)) for _ in range(3)], axis=1))
    noise = sample_gumbel(rng, (6, 3))
    soft = selection_weights(group_emb, pooled, tau=0.7, noise=noise).data
    hard = selection_weights(group_emb, pooled, tau=0.7, noise=noise, hard=True).data
    simplex = np.allclose(soft.sum(axis=1), 1.0, atol=1e-12) and (soft > 0).all()
    onehot = ((hard == 0) | (hard == 1)).all() and np.array_equal(hard.sum(axis=1), np.ones(6))
    argmax_match = (hard.argmax(axis=1) == soft.argmax(axis=1)).all()
    report(
        "selection distribution invariants",
        simplex and onehot and argmax_match,
        f"soft rows sum to 1 and stay positive ({simplex}); hard rows one-hot ({onehot}); "
        f"hard argmax matches soft ({argmax_match})",
    )


def test_hard_selection_matches_soft_distribution():
    # the argmax of logits + Gumbel noise is Categorical(softmax(logits));
    # comparing frequencies against the noiseless distribution needs tau=1
    rng = np.random.default_rng(1)
    group_emb = Tensor(rng.normal(size=(1, 6)))
    pooled = Tensor(np.stack([rng.normal(size=(1, 6)) for _ in range(4)], axis=1))
    soft = selection_weights(group_emb, pooled, tau=1.0).data[0]
    counts = np.zeros(4)
    draws = 20000
    for _ in range(draws):
        noise = sample_gumbel(rng, (1, 4))
        hard = selection_weights(group_emb, pooled, tau=1.0, noise=noise, hard=True).data[0]
        counts[hard.argmax()] += 1
    freq = counts / draws
    gap = np.abs(freq - soft).max()
    report(
        "hard selection Monte-Carlo consistency",
        gap <= 0.03,
        f"max |frequency - soft weight| = {gap:.4f} (<=0.03) over {draws} draws",
    )


def test_propagation_matches_dense_oracle():
    ds, _ = planted_world()
    adj = build_norm_adjacency(ds)
    dense = adj.toarray()
    rng = np.random.default_rng(2)
    users = Tensor(rng.normal(size=(ds.n_users, 6)))
    items = Tensor(rng.normal(size=(ds.n_items, 6)))
    uf, vf = propagate(adj, users, items, n_layers=3)
    u, v = users.data, items.data
    su, sv = u.copy(), v.copy()
    for _ in range(3):
        u, v = dense @ v, dense.T @ u
        su, sv = su + u, sv + v
    err = max(np.abs(uf.data - su).max(), np.abs(vf.data - sv).max())
    report("propagation dense oracle", err < 1e-10, f"max |sparse - dense| = {err:.2e} (<1e-10)")


def test_ranking_matches_hand_enumerated_oracle():
    # 3 anchors x 6 items, worked out by hand:
    #  anchor 0: test item 4 ranks 2nd among unmasked -> r@2 hit, ndcg 1/log2(3)
    #  anchor 1: test item 0 ranks 1st -> perfect
    #  anchor 2: test items {2,5}; top-2 unmasked = [5,3] -> recall 1/2, dcg 1
    scores = np.array([
        [9.0, 1.0, 8.0, 2.0, 7.0, 0.0],
        [5.0, 4.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 9.0, 2.0, 5.0, 0.0, 6.0],
    ])
    # eval items {4}, {0}, {2, 5} as TEST edges; masked {0}, {1}, {1} as TRAIN edges
    edges = Interactions(3, 6, [0, 1, 2, 2, 0, 1, 2], [4, 0, 2, 5, 0, 1, 1], [TEST] * 4 + [TRAIN] * 3)
    metrics, n = evaluate_scores(DenseScores(scores), edges.anchor_index((TEST,)), edges.anchor_index((TRAIN,)),
                                 ks=(2,))
    half = 1.0 / np.log2(3.0)
    want_recall = (1.0 + 1.0 + 0.5) / 3.0
    want_ndcg = (half + 1.0 + 1.0 / (1.0 + half)) / 3.0
    ok = n == 3 and abs(metrics["recall@2"] - want_recall) < 1e-12 \
        and abs(metrics["ndcg@2"] - want_ndcg) < 1e-12
    report(
        "ranking hand oracle",
        ok,
        f"recall@2={metrics['recall@2']:.6f} (want {want_recall:.6f}) "
        f"ndcg@2={metrics['ndcg@2']:.6f} (want {want_ndcg:.6f})",
    )


# world and training point tuned so slot-block alignment is stable at this
# exact seed pair; sharpness comes cheap, cross-group consistency does not.
# the steps run without train(), so the final parameters are measured rather
# than a restored best-validation snapshot.
RECOVERY_WORLD = dict(n_users=90, n_items=60, n_groups=40, m_true=3, noise=0.05,
                      seed=11, edges_per_user=12, edges_per_group=16, group_size=6)
RECOVERY_CFG = dict(embed_dim=32, n_interests=3, n_layers=2, epochs=1500, patience=1500,
                    batch_user=1024, batch_group=512, lr=0.05, temperature=1.0,
                    user_task_weight=0.1, interest_reg_weight=3.0,
                    select_task="group", seed=0)


def test_planted_interest_recovery():
    t0 = time.perf_counter()
    ds, labels = planted_world(**RECOVERY_WORLD)
    trainer = Trainer(ds, TrainConfig(**RECOVERY_CFG))
    for _ in range(trainer.cfg.epochs * trainer.steps_per_epoch):
        trainer._step()
    omega = trainer.model.forward().omega.data
    m_true = RECOVERY_WORLD["m_true"]
    mass = np.zeros((omega.shape[1], m_true))
    for g, block in enumerate(labels.group_interest):
        mass[:, block] += omega[g]
    rows, cols = linear_sum_assignment(-mass)
    recovered = mass[rows, cols].sum() / mass.sum()
    wall = time.perf_counter() - t0
    report(
        "planted interest recovery",
        recovered > 0.6 and wall < 240,
        f"matched selection mass {recovered:.3f} (>0.6) in {wall:.0f}s",
    )


def test_bit_identical_checkpoints_per_seed(tmp_path):
    ds, _ = planted_world()
    cfg = TrainConfig(embed_dim=8, n_interests=2, n_layers=2, epochs=3, patience=10,
                      batch_user=64, batch_group=32, seed=9)
    digests = []
    for run in range(2):
        trainer = Trainer(ds, cfg)
        trainer.train()
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(str(path), cfg.as_dict(), trainer.model.named_params_data())
        digests.append(file_sha256(str(path)))
    report(
        "determinism",
        digests[0] == digests[1],
        f"same-seed checkpoint sha256 match: {digests[0][:16]}…",
    )


def test_member_only_schema_ingestion_and_smoke_epoch(tmp_path):
    # layouts shipping only user-item edges and memberships (no group-item file):
    # synthesize group consumption, cut a 1% subsample, run one training epoch
    from grouprec.datasets import save_dataset, GROUP_EDGES_FILE

    ds, _ = generate_synthetic(2000, 300, 120, 4, 0.1, seed=21, edges_per_user=10)
    src = tmp_path / "external"
    save_dataset(ds, str(src))
    (src / GROUP_EDGES_FILE).unlink()

    loaded = load_dataset(str(src))
    assert len(loaded.group_items) == 0 and loaded.n_users == 2000

    sub_dir = tmp_path / "sub"
    rc = cli_main([
        "prepare", "--data", str(src), "--out", str(sub_dir),
        "--subsample", "0.01", "--synthesize-groups", "--cap", "30", "--seed", "4",
    ])
    assert rc == 0
    sub = load_prepared(str(sub_dir))
    assert sub.n_users == 20  # ceil(1% of 2000)

    cfg = TrainConfig(embed_dim=8, n_interests=2, n_layers=2, epochs=1, batch_user=64,
                      batch_group=32, use_groups=sub.n_groups > 0, seed=0)
    result = Trainer(sub, cfg).train()
    report(
        "member-only schema smoke",
        result.epochs_run == 1,
        f"ingested member-only layout, 1% subsample kept {sub.n_users} users / "
        f"{sub.n_groups} groups, one epoch trained",
    )
