import csv
import dataclasses
import json
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprec import evaluate as ev
from grouprec import reporting
from grouprec.config import TrainConfig
from grouprec.datasets import TRAIN, VALID, TEST, Dataset, Interactions, membership_matrix, split_holdout
from grouprec.lanes import run_on_two_lanes
from grouprec.model import GroupRecommender, RowScores
from grouprec.synthetic import generate_synthetic
from grouprec.trainer import Trainer

import reference as ref

NDCG_RANK2 = 0.6309297535714574  # 1 / log2(3)


def index_of(sets, n_items):
    """The anchor index of per-anchor item sets, built through Interactions."""
    anchors = [a for a, items in enumerate(sets) for _ in items]
    items = [v for row in sets for v in row]
    return Interactions(len(sets), n_items, anchors, items).anchor_index((TRAIN,))


def test_recall_values():
    assert ref.recall_at_k(["a", "b", "c"], {"a"}, 5) == 1.0
    assert ref.recall_at_k(["x", "y", "b", "z", "w"], {"a", "b"}, 5) == 0.5
    assert ref.recall_at_k(["x", "y"], {"a"}, 2) == 0.0


def test_recall_empty_relevant_rejected():
    with pytest.raises(ValueError):
        ref.recall_at_k(["a"], set(), 5)


def test_ndcg_values():
    assert ref.ndcg_at_k(["a", "b"], {"a"}, 5) == 1.0
    assert ref.ndcg_at_k(["x", "a"], {"a"}, 5) == pytest.approx(NDCG_RANK2)
    assert ref.ndcg_at_k(["a", "b", "c"], {"a", "b"}, 5) == 1.0


def test_ndcg_monotone_in_rank():
    prev = 1.0
    for rank in range(2, 8):
        ranked = ["x"] * (rank - 1) + ["a"] + ["y"] * (8 - rank)
        cur = ref.ndcg_at_k(ranked, {"a"}, 8)
        assert cur < prev
        prev = cur


def test_top_k_respects_ban_list():
    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    got = list(ref.top_k(scores, {0, 1}, 3))
    assert got == [2, 3, 4]


def test_evaluate_scores_oracle_model_perfect_recall():
    # scores put each anchor's test items on top
    eval_sets = [{1}, {2, 3}, set()]
    mask_sets = [{0}, set(), set()]
    scores = np.array(
        [
            [9.0, 10.0, 1.0, 0.0],
            [0.0, 1.0, 10.0, 9.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
    )
    metrics, n = ev.evaluate_scores(ref.DenseScores(scores), index_of(eval_sets, 4), index_of(mask_sets, 4), ks=(5,))
    assert n == 2  # the empty-test anchor is skipped
    assert metrics["recall@5"] == 1.0
    assert metrics["ndcg@5"] == 1.0


def test_evaluate_scores_hand_enumerated_instance():
    # 5 anchors x 8 items with a fully hand-checked expectation
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(5, 8))
    eval_sets = [set(rng.choice(8, size=2, replace=False).tolist()) for _ in range(5)]
    mask_sets = [set(rng.choice(8, size=2, replace=False).tolist()) - eval_sets[i] for i in range(5)]
    metrics, n = ev.evaluate_scores(ref.DenseScores(scores), index_of(eval_sets, 8), index_of(mask_sets, 8), ks=(3,))

    recalls, ndcgs = [], []
    for a in range(5):
        order = sorted(
            (j for j in range(8) if j not in mask_sets[a]),
            key=lambda j: -scores[a, j],
        )[:3]
        hits = [r for r, j in enumerate(order, start=1) if j in eval_sets[a]]
        recalls.append(len(hits) / len(eval_sets[a]))
        dcg = sum(1.0 / np.log2(r + 1) for r in hits)
        idcg = sum(1.0 / np.log2(r + 1) for r in range(1, min(len(eval_sets[a]), 3) + 1))
        ndcgs.append(dcg / idcg)
    assert n == 5
    assert metrics["recall@3"] == pytest.approx(np.mean(recalls), abs=1e-15)
    assert metrics["ndcg@3"] == pytest.approx(np.mean(ndcgs), abs=1e-15)


def test_evaluate_scores_random_model_hypergeometric():
    rng = np.random.default_rng(1)
    n_anchor, n_items = 2000, 1000
    scores = rng.normal(size=(n_anchor, n_items))
    eval_sets = [{int(rng.integers(n_items))} for _ in range(n_anchor)]
    mask_sets = [set() for _ in range(n_anchor)]
    metrics, _ = ev.evaluate_scores(
        ref.DenseScores(scores), index_of(eval_sets, n_items), index_of(mask_sets, n_items), ks=(10,)
    )
    assert metrics["recall@10"] == pytest.approx(0.01, abs=0.005)


def test_an_empty_catalogue_evaluates_no_anchor():
    scores = RowScores(np.ones((3, 1)), np.ones((0, 1)))
    empty = (np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))  # three anchors, no edges
    zeros = {"recall@5": 0.0, "recall@10": 0.0, "ndcg@5": 0.0, "ndcg@10": 0.0}
    assert ev.evaluate_scores(scores, empty, empty, (5, 10)) == (zeros, 0)


def reference_metrics(scores, eval_sets, mask_sets, ks):
    """The per-anchor loop block ranking replaced, built from top_k and the metrics."""
    sums = {f"{m}@{k}": 0.0 for m in ("recall", "ndcg") for k in ks}
    n = 0
    for a, relevant in enumerate(eval_sets):
        if not relevant:
            continue
        ranked = list(ref.top_k(scores[a], mask_sets[a], max(ks)))
        for k in ks:
            sums[f"recall@{k}"] += ref.recall_at_k(ranked, relevant, k)
            sums[f"ndcg@{k}"] += ref.ndcg_at_k(ranked, relevant, k)
        n += 1
    if n == 0:
        return {key: 0.0 for key in sums}, 0
    return {key: val / n for key, val in sums.items()}, n


RANKING_CASES = pytest.mark.parametrize(
    "n_anchors, n_items, n_eval, n_mask, ks, ties",
    [
        (60, 40, 80, 300, (5, 10), True),  # integer scores, many ties at and across the cut
        (700, 1000, 1400, 7000, (5, 10, 20), True),  # 700 anchors, 262 rows per block
        (700, 1000, 1400, 7000, (5, 10, 20), False),
        (40, 12, 60, 400, (5, 10), False),  # most items masked: fewer unmasked than k
        (30, 6, 40, 40, (5, 10), True),  # n_items < k
        (50, 30, 12, 100, (1, 3), False),  # most anchors have no eval item
        (300, 200, 600, 3000, (10, 50), True),  # ties inside a top 50 keep their order
    ],
)


def ranking_case(n_anchors, n_items, n_eval, n_mask, ties):
    """Scores, both indexes and the eval and mask sets of one RANKING_CASES row."""
    # pairs drawn with replacement, so eval items may also be masked; each index holds a pair once
    rng = np.random.default_rng(n_anchors + n_items)
    n = n_eval + n_mask
    anchors, items = rng.integers(0, n_anchors, n), rng.integers(0, n_items, n)
    eval_sets = [set() for _ in range(n_anchors)]
    mask_sets = [set() for _ in range(n_anchors)]
    for i, (a, v) in enumerate(zip(anchors.tolist(), items.tolist())):
        (eval_sets if i < n_eval else mask_sets)[a].add(v)
    if ties:
        scores = rng.integers(0, 4, size=(n_anchors, n_items)).astype(np.float64)
    else:
        scores = rng.normal(size=(n_anchors, n_items))
    for a in range(n_anchors):  # relevant items lead, and masked ones would lead them
        scores[a, list(eval_sets[a])] += 2.0
        scores[a, list(mask_sets[a])] += 4.0
    return scores, (index_of(eval_sets, n_items), index_of(mask_sets, n_items)), eval_sets, mask_sets


@RANKING_CASES
def test_block_ranking_equals_per_anchor_reference(n_anchors, n_items, n_eval, n_mask, ks, ties):
    scores, indexes, eval_sets, mask_sets = ranking_case(n_anchors, n_items, n_eval, n_mask, ties)
    got = ev.evaluate_scores(ref.DenseScores(scores), *indexes, ks)
    assert got == reference_metrics(scores, eval_sets, mask_sets, ks)
    assert got[1] < n_anchors


def tiny_dataset():
    members = membership_matrix(1, 2, [0, 0], [0, 1])
    ui = Interactions(
        2,
        5,
        [0, 0, 0, 1, 1],
        [0, 1, 2, 2, 3],
        [TRAIN, VALID, TEST, TRAIN, TEST],
    )
    gi = Interactions(1, 5, [0, 0], [0, 4], [TRAIN, TEST])
    return Dataset(2, 5, 1, ui, gi, members)


class StubModel:
    def __init__(self, user_scores, group_scores=None):
        self._u = ref.DenseScores(user_scores)
        self._g = None if group_scores is None else ref.DenseScores(group_scores)

    def row_scores(self, task, state=None):
        return self._u if task == "user" else self._g


def test_evaluate_ranking_masks_train_and_valid():
    ds = tiny_dataset()
    # user 0: test item 2; items 0 (train) and 1 (valid) outscore it but get masked
    scores = np.array([[9.0, 8.0, 1.0, 0.5, 0.4], [0.1, 0.0, 0.0, 1.0, 0.5]])
    metrics, n = ev.evaluate_ranking(StubModel(scores), ds, "user", ks=(1,), target=TEST)
    assert n == 2
    assert metrics["recall@1"] == pytest.approx(1.0)  # both test items land on top


def test_evaluate_ranking_validation_masks_train_only():
    ds = tiny_dataset()
    scores = np.array([[9.0, 1.0, 8.0, 0.0, 0.0], [0.0] * 5])
    metrics, n = ev.evaluate_ranking(StubModel(scores), ds, "user", ks=(2,), target=VALID)
    # only user 0 has a valid item; item 2 (test) stays rankable and beats it
    assert n == 1
    assert metrics["recall@2"] == pytest.approx(1.0)


def test_evaluate_ranking_group_task():
    ds = tiny_dataset()
    g = np.array([[0.0, 1.0, 2.0, 3.0, 10.0]])
    metrics, n = ev.evaluate_ranking(StubModel(np.zeros((2, 5)), g), ds, "group", ks=(1,))
    assert n == 1
    assert metrics["recall@1"] == 1.0


def test_popularity_ranking_order():
    ui = Interactions(3, 4, [0, 1, 2, 0], [0, 0, 0, 1], [TRAIN] * 4)
    ds = Dataset(
        3,
        4,
        1,
        ui,
        Interactions(1, 4),
        membership_matrix(1, 3, [0], [0]),
    )
    scores = ev.popularity_scores(ds)
    assert list(np.argsort(-scores)) == [0, 1, 2, 3]  # counts 3,1 then unseen by id


def test_popularity_deterministic():
    ds = tiny_dataset()
    a = ev.evaluate_popularity(ds, "user", ks=(5,))
    b = ev.evaluate_popularity(ds, "user", ks=(5,))
    assert a == b


def sets_of(index):
    """The per-anchor item sets of an (indptr, indices) anchor index."""
    indptr, items = index
    return [set(items[lo:hi].tolist()) for lo, hi in zip(indptr[:-1], indptr[1:])]


@pytest.mark.parametrize("n_items", [200, 800])  # a sampling stride of 1 and of 5 at depth 10
@pytest.mark.parametrize("target", [VALID, TEST])
@pytest.mark.parametrize("task", ["user", "group"])
def test_popularity_metrics_equal_per_anchor_reference(monkeypatch, task, target, n_items):
    ds, _ = generate_synthetic(300, n_items, 120, m_true=3, noise=0.1, seed=4, edges_per_group=12)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=4),
                             group_items=split_holdout(ds.group_items, seed=5))
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 7 * n_items)  # chunks of 7 rows, so several blocks
    interactions = ds.user_items if task == "user" else ds.group_items
    dense = np.broadcast_to(ev.popularity_scores(ds), (interactions.n_anchors, n_items))
    ks = (1, 5, 10)
    got = ev.evaluate_popularity(ds, task, ks=ks, target=target)
    eval_index, mask_index = ev._indexes(ds, task, target)
    assert got == reference_metrics(dense, sets_of(eval_index), sets_of(mask_index), ks)
    assert got[1] > 7 and got[0]["recall@10"] > 0  # several blocks, and hits to count


def test_metric_rows_and_summary_round_trip(tmp_path):
    rows = []
    for task in ("user", "group"):
        for seed in range(5):
            rows.extend(
                reporting.metric_rows(
                    task, {"recall@5": 0.3 + seed * 0.01, "recall@10": 0.4, "ndcg@5": 0.2, "ndcg@10": 0.25}, seed
                )
            )
    assert len(rows) == 2 * 2 * 2 * 5  # tasks x metrics x ks x seeds

    out = tmp_path / "report"
    summary = reporting.export_report(rows, {"lr": 0.01}, "toy", 1.5, out, similarity=np.eye(3))
    with open(out / "summary.json") as f:
        parsed = json.load(f)
    assert parsed == summary
    assert parsed["results"]["user"]["recall@5"]["mean"] == pytest.approx(0.32)
    assert parsed["results"]["user"]["recall@10"]["std"] == 0.0

    with open(out / "metrics.csv") as f:
        data = list(csv.reader(f))
    assert data[0] == ["task", "metric", "k", "seed", "value"]
    assert len(data) == 41

    with open(out / "interest_sim.csv") as f:
        sim = [[float(x) for x in row] for row in csv.reader(f)]
    assert sim[0][0] == 1.0 and sim[0][1] == 0.0


def test_metric_bounds_invariant():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(30, 20))
    eval_sets = [set(map(int, rng.choice(20, size=3, replace=False))) for _ in range(30)]
    mask_sets = [set() for _ in range(30)]
    metrics, _ = ev.evaluate_scores(ref.DenseScores(scores), index_of(eval_sets, 20), index_of(mask_sets, 20),
                                    ks=(5, 10))
    for v in metrics.values():
        assert 0.0 <= v <= 1.0


def test_row_scores_blocks_and_nbytes():
    rng = np.random.default_rng(5)
    anchors, items = rng.normal(size=(9, 4)), rng.normal(size=(7, 4))
    scores = RowScores(anchors, items)
    assert scores.shape == (9, 7) and scores.nbytes == 0
    rows = np.array([8, 0, 3])
    np.testing.assert_allclose(-scores.negated(rows), (anchors @ items.T)[rows], rtol=0, atol=1e-14)
    scores.negated(np.array([1]))
    assert scores.nbytes == 3 * 7 * 8  # the largest block returned so far


def test_row_scores_pair_scores_and_error_bounds_do_not_depend_on_the_other_rows():
    # the second sample recomputes both for its kept rows alone, and must read the bits the first
    # read for the whole block: any subset of the rows, in any order, gets each row's same bits
    rng = np.random.default_rng(13)
    n_anchors, n_items, width = 200, 300, 64
    scores = RowScores(rng.normal(size=(n_anchors, width)), rng.normal(size=(n_items, width)))
    rows = np.repeat(np.arange(n_anchors), 3)
    items = rng.integers(0, n_items, size=len(rows))
    pairs, bounds = scores.negated_pairs(rows, items), scores.error_bound(np.arange(n_anchors))
    for size in [1, 2, 3, 7, 64, 65, 333, len(rows)]:
        pick = rng.permutation(len(rows))[:size]
        assert (scores.negated_pairs(rows[pick], items[pick]) == pairs[pick]).all()
        anchors = rng.permutation(n_anchors)[:min(size, n_anchors)]
        assert (scores.error_bound(anchors) == bounds[anchors]).all()


@pytest.fixture(scope="module")
def trained_toy():
    ds, _ = generate_synthetic(300, 200, 40, m_true=3, noise=0.1, seed=4)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=4),
                             group_items=split_holdout(ds.group_items, seed=5))
    cfg = TrainConfig(embed_dim=8, n_interests=2, n_layers=1, batch_user=256, batch_group=32,
                      epochs=2, patience=5, seed=2, lr=0.05)
    trainer = Trainer(ds, cfg)
    trainer.train()
    return trainer.model, ds


@pytest.mark.parametrize("block_elements", [ev.BLOCK_ELEMENTS, 200 * 7])  # one block; chunks of 7 rows
@pytest.mark.parametrize("target", [VALID, TEST])
@pytest.mark.parametrize("task", ["user", "group"])
def test_row_block_scoring_equals_dense_product(trained_toy, monkeypatch, task, target, block_elements):
    model, ds = trained_toy
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", block_elements)
    state = model.forward()
    anchors = state.user_final.data if task == "user" else state.group_fused.data
    dense = anchors @ state.item_final.data.T
    interactions = ds.user_items if task == "user" else ds.group_items
    ks = (5, 10, 20)
    got = ev.evaluate_ranking(model, ds, task, ks=ks, target=target, state=state)
    assert got == ev.evaluate_scores(ref.DenseScores(dense), *ev._indexes(ds, task, target), ks)
    assert got[1] > 0


def test_evaluate_ranking_never_holds_the_dense_matrix():
    n_users, n_items, per_user = 3000, 2000, 4
    rng = np.random.default_rng(0)
    items = np.concatenate([rng.choice(n_items, size=per_user, replace=False) for _ in range(n_users)])
    splits = np.tile([TRAIN, TRAIN, VALID, TEST], n_users)
    ui = Interactions(n_users, n_items, np.repeat(np.arange(n_users), per_user), items, splits)
    ds = Dataset(n_users, n_items, 1, ui, Interactions(1, n_items), membership_matrix(1, n_users, [0], [0]))
    cfg = TrainConfig(embed_dim=16, n_layers=1, use_groups=False)
    model = GroupRecommender(ds, cfg, np.random.default_rng(1))
    dense_bytes = n_users * n_items * 8
    tracemalloc.start()
    try:
        metrics, n = ev.evaluate_ranking(model, ds, "user", ks=(10,), target=TEST)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == n_users and 0.0 <= metrics["ndcg@10"] <= 1.0
    assert peak < dense_bytes / 4, f"peak {peak / 1e6:.1f} MB against a {dense_bytes / 1e6:.0f} MB dense matrix"


# --- ranking on two lanes ---------------------------------------------------


def block_count(n_rows, n_items, ks):
    """The sampled blocks of n_rows evaluated rows: an even number, each of whole chunks and at most `widest` rows."""
    depth = min(max(ks), n_items)
    chunk = max(1, ev.BLOCK_ELEMENTS // n_items)
    n_sampled = len(range(0, n_items, max(1, n_items // (ev.SAMPLE * depth))))
    chunks_per_block = max(1, ev.BLOCK_ELEMENTS // (n_sampled * chunk))  # widest // chunk
    n_chunks = -(-n_rows // chunk)
    n_blocks = -(-n_chunks // chunks_per_block)
    return min(n_chunks, n_blocks + n_blocks % 2)


SCHEDULES = ("free", "late_helper", "eager_helper")  # helper schedules of the `lanes` fixture


class BlockFault(RuntimeError):
    pass


class LaneLog(ref.DenseScores):
    """Dense scores that record the thread of every `negated` call, and fail on blocks `fail` picks.

    `columns` gives a LaneLog of the sampled columns that shares the log and
    files its calls as the sampled reads. Each block is read first, once,
    through the sample, so `sampled` holds one thread per block ranked;
    `fail` is asked at each sampled read, so it picks blocks.
    """

    def __init__(self, scores, fail=lambda: False, log=None, sample=False):
        super().__init__(scores)
        self.fail, self.sample = fail, sample
        self.log = [] if log is None else log  # (thread, whether a sampled read) per call

    @property
    def threads(self):
        return [thread for thread, _ in self.log]

    @property
    def sampled(self):
        return [thread for thread, sample in self.log if sample]

    def negated(self, rows):
        self.log.append((threading.get_ident(), self.sample))
        if self.sample and self.fail():
            raise BlockFault("block failed")
        return super().negated(rows)

    def columns(self, cols):
        return LaneLog(self.scores[:, cols], self.fail, self.log, sample=True)


@RANKING_CASES
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_two_lanes_rank_as_one_lane(lanes, monkeypatch, schedule, n_anchors, n_items, n_eval, n_mask, ks, ties):
    scores, indexes, eval_sets, mask_sets = ranking_case(n_anchors, n_items, n_eval, n_mask, ties)
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 7 * n_items)  # chunks of 7 rows
    monkeypatch.setattr(ev, "SAMPLE", 2)  # a narrow sample, so a block may hold several chunks
    lanes(1)
    one_lane = ev.evaluate_scores(ref.DenseScores(scores), *indexes, ks)
    helper = lanes(2, schedule)
    log = LaneLog(scores)
    assert ev.evaluate_scores(log, *indexes, ks) == one_lane == reference_metrics(scores, eval_sets, mask_sets, ks)
    caller = threading.get_ident()
    n_blocks = block_count(one_lane[1], n_items, ks)
    assert n_blocks >= 2
    assert len(log.sampled) == n_blocks  # each block ranked once: one sampled read each
    if schedule == "late_helper":
        assert set(log.threads) == {caller} and len(helper.made) == 1
    elif schedule == "eager_helper":
        assert caller not in log.threads and len(set(log.threads)) == 1
    for thread in getattr(helper, "made", ()):
        assert not thread.is_alive()


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("target", [VALID, TEST])
@pytest.mark.parametrize("task", ["user", "group"])
def test_two_lanes_rank_the_trained_toy_as_one_lane(trained_toy, lanes, monkeypatch, task, target, schedule):
    model, ds = trained_toy
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 200 * 7)  # chunks of 7 rows
    state = model.forward()
    lanes(1)
    one_lane = ev.evaluate_ranking(model, ds, task, ks=(5, 10, 20), target=target, state=state)
    lanes(2, schedule)
    assert ev.evaluate_ranking(model, ds, task, ks=(5, 10, 20), target=target, state=state) == one_lane
    assert one_lane[1] > 7


@pytest.mark.parametrize("lane, schedule", [("caller", "late_helper"), ("helper", "eager_helper"),
                                            ("either", "free")])
def test_a_failed_block_reaches_the_caller_and_leaves_no_thread(lanes, monkeypatch, lane, schedule):
    scores, indexes, _, _ = ranking_case(700, 1000, 1400, 7000, True)
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 7 * 1000)  # chunks of 7 rows
    monkeypatch.setattr(ev, "SAMPLE", 8)  # 84 sampled columns at depth 10: 11 chunks a block
    n_blocks = block_count(ev.evaluate_scores(ref.DenseScores(scores), *indexes, (5, 10))[1], 1000, (5, 10))
    assert n_blocks >= 4
    helper = lanes(2, schedule)
    caller = threading.get_ident()
    fail = {
        "caller": lambda: threading.get_ident() == caller,
        "helper": lambda: threading.get_ident() != caller,
        "either": lambda: len(log.sampled) == 2,  # the second block, on whichever lane takes it
    }[lane]
    log = LaneLog(scores, fail)
    before = threading.active_count()
    with pytest.raises(BlockFault, match="block failed"):
        ev.evaluate_scores(log, *indexes, (5, 10))
    assert threading.active_count() == before
    for thread in getattr(helper, "made", ()):
        assert not thread.is_alive()
    if lane != "either":
        assert len(log.threads) == 1  # the failing read was the first: no lane read after it
    else:
        assert 2 <= len(log.sampled) <= n_blocks  # one sampled read a block, the second failing


def test_lanes_take_each_task_once_under_fast_switching():
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            taken.clear()
            run_on_two_lanes(taken.append, range(500))
            assert sorted(taken) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2])
def test_lanes_pass_each_item_as_given(lanes, cpus):
    lanes(cpus)
    items = [None, slice(0, 64), (np.zeros(2), "key")]
    seen = []
    run_on_two_lanes(seen.append, items)
    assert sorted(map(id, seen)) == sorted(map(id, items))
    run_on_two_lanes(seen.append, [])
    assert len(seen) == 3


def test_row_scores_nbytes_is_the_largest_block_across_threads():
    rng = np.random.default_rng(6)
    scores = RowScores(rng.normal(size=(64, 4)), rng.normal(size=(5, 4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda n=n: [scores.negated(np.arange(n)) for _ in range(200)])
                   for n in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert scores.nbytes == 8 * 5 * 8
    np.testing.assert_array_equal(scores.negated(np.arange(9)), -(scores.anchors[:9] @ scores.items_t))


# --- cutoffs ------------------------------------------------------------------


def refuse(*args, **kwargs):
    raise AssertionError("scores computed before the arguments were checked")


class Refusing:
    """A model whose scores must not be asked for."""

    row_scores = staticmethod(refuse)


@pytest.mark.parametrize("ks", [(), (0, 5), (-1,), (5, 0), (2.5,), (1, 1), (5, 10, 5)])
def test_bad_cutoffs_are_refused_before_any_work(monkeypatch, ks):
    ds = tiny_dataset()
    monkeypatch.setattr(ev, "popularity_scores", refuse)
    with pytest.raises(ValueError, match="ks must be"):
        ev.evaluate_scores(ref.DenseScores(np.zeros((2, 5))), *ev._indexes(ds, "user", TEST), ks)
    with pytest.raises(ValueError, match="ks must be"):
        ev.evaluate_ranking(Refusing(), ds, "user", ks=ks)
    with pytest.raises(ValueError, match="ks must be"):
        ev.evaluate_popularity(ds, "user", ks=ks)
    # a bad cutoff is reported first, whatever else is wrong
    with pytest.raises(ValueError, match="ks must be"):
        ev.evaluate_popularity(ds, "users", ks=ks, target=TRAIN)


@pytest.mark.parametrize("task, target, message", [
    ("users", TEST, "unknown task 'users'"),
    (None, TEST, "unknown task None"),
    ("group", TRAIN, "target must be"),
    ("user", 7, "target must be"),
    ("user", None, "target must be"),
])
def test_unknown_tasks_and_targets_are_refused_before_any_work(monkeypatch, task, target, message):
    # the group task's metrics used to come back for any task but "user", and TRAIN ranked train edges
    ds = tiny_dataset()
    monkeypatch.setattr(ev, "popularity_scores", refuse)
    with pytest.raises(ValueError, match=message):
        ev.evaluate_ranking(Refusing(), ds, task, target=target)
    with pytest.raises(ValueError, match=message):
        ev.evaluate_popularity(ds, task, target=target)
    with pytest.raises(ValueError, match=message):
        ev._indexes(ds, task, target)


# --- ranking only the rows that can score ---------------------------------------


# the second sample's factor and its two gates: as shipped, and opened wide
DENSER_CONSTANTS = [dict(DENSER=ev.DENSER, DENSER_KEPT=ev.DENSER_KEPT, DENSER_MIN_STRIDE=ev.DENSER_MIN_STRIDE),
                    dict(DENSER=2, DENSER_KEPT=1.0, DENSER_MIN_STRIDE=1),
                    dict(DENSER=4, DENSER_KEPT=0.5, DENSER_MIN_STRIDE=1)]


@st.composite
def pruning_worlds(draw):
    """Small-integer anchors and items, so every product and dot product is exact.

    Each anchor's relevant items are its best item, come from the top or the
    bottom of its row or from anywhere, or it has none; its masked items may
    cover them. Anchors come in runs of one kind, so a block may have every
    row kept (all best), none kept, or several runs of kept rows; with a
    narrow sample a block holds several chunks, and the last one may be short.
    The second sample's constants are drawn too: with its gates opened, any
    block whose first sample kept a row re-thresholds it.
    """
    runs = draw(st.lists(st.tuples(st.sampled_from(["best", "top", "bottom", "any", "none"]), st.integers(1, 8)),
                         min_size=1, max_size=4))
    kinds = [kind for kind, length in runs for _ in range(length)]
    n_anchors, n_items, width = len(kinds), draw(st.integers(1, 48)), draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    anchors = np.array(draw(st.lists(ints, min_size=n_anchors * width, max_size=n_anchors * width)), float)
    items = np.array(draw(st.lists(ints, min_size=n_items * width, max_size=n_items * width)), float)
    anchors, items = anchors.reshape(n_anchors, width), items.reshape(n_items, width)
    ks = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True)))
    scores = anchors @ items.T
    eval_sets, mask_sets = [], []
    for a in range(n_anchors):
        order = np.argsort(-scores[a], kind="stable").tolist()
        pool = {"best": order[:1], "top": order[:3], "bottom": order[-3:], "any": order, "none": []}[kinds[a]]
        eval_sets.append(set(draw(st.lists(st.sampled_from(pool), max_size=3))) if pool else set())
        mask_sets.append(set(draw(st.lists(st.integers(0, n_items - 1), max_size=n_items // 2))))
    nan_cells = draw(st.lists(st.tuples(st.integers(0, n_anchors - 1), st.integers(0, n_items - 1)), max_size=3))
    rows_per_block, sample = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, ev.SAMPLE]))
    denser = draw(st.sampled_from(DENSER_CONSTANTS))
    return anchors, items, ks, eval_sets, mask_sets, nan_cells, rows_per_block, sample, denser


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(world=pruning_worlds())
def test_pruned_ranking_equals_per_anchor_reference(world):
    anchors, items, ks, eval_sets, mask_sets, nan_cells, rows_per_block, sample, denser = world
    n_items = len(items)
    scores = anchors @ items.T
    indexes = index_of(eval_sets, n_items), index_of(mask_sets, n_items)
    with mock.patch.object(ev, "BLOCK_ELEMENTS", rows_per_block * n_items), mock.patch.object(ev, "SAMPLE", sample), \
            mock.patch.multiple(ev, **denser):
        want = reference_metrics(scores, eval_sets, mask_sets, ks)
        assert ev.evaluate_scores(ref.DenseScores(scores), *indexes, ks) == want
        logged = LoggedScores(anchors, items)
        assert ev.evaluate_scores(logged, *indexes, ks) == want
        assert bool(logged.samples) == (want[1] > 0)  # no anchor evaluated: no sampled product
        assert len(logged.samples) <= 2  # the second sample is made once, if at all
        stride = max(1, n_items // (sample * min(max(ks), n_items)))
        if max(1, stride // ev.DENSER) < ev.DENSER_MIN_STRIDE:
            assert len(logged.samples) <= 1
        assert max([logged.nbytes] + [source.nbytes for source in logged.samples]) <= 8 * ev.BLOCK_ELEMENTS
        # each sample is the items of largest norm (exact squares of small integers), ties to the
        # smaller id, in id order; the first has the count of every stride-th column
        sq = np.einsum("ij,ij->i", items, items)
        reach = sorted(range(n_items), key=lambda j: (-sq[j], j))
        assert [cols.tolist() for cols in logged.picked] == [sorted(reach[:len(cols)]) for cols in logged.picked]
        if logged.picked:
            assert len(logged.picked[0]) == -(-n_items // stride)
        for a, v in nan_cells:
            scores[a, v] = np.nan
        assert ev.evaluate_scores(ref.DenseScores(scores), *indexes, ks) == reference_metrics(scores, eval_sets,
                                                                                               mask_sets, ks)


class LoggedScores(RowScores):
    """A RowScores that records the rows of every full-width `negated` call, and keeps its sampled sources.

    `samples` holds every source `columns` made, in order, and `picked` its
    item ids; `sample` is the last source.
    """

    def __init__(self, anchors, items):
        super().__init__(anchors, items)
        self.calls = []
        self.samples = []
        self.picked = []
        self.sample = None

    def negated(self, rows):
        self.calls.append(np.array(rows))
        return super().negated(rows)

    def columns(self, cols):
        self.sample = super().columns(cols)
        self.samples.append(self.sample)
        self.picked.append(np.array(cols))
        return self.sample


class LowRowwise(LoggedScores):
    """Row-wise dot products a few ulps lower than the exact scores.

    A summation order other than the block product's may round so: four
    ulps is within Higham's γ_K·|a|·|v| for the scores below.
    """

    def negated_pairs(self, rows, items):
        out = super().negated_pairs(rows, items)
        for _ in range(4):
            out = np.nextafter(out, np.inf)
        return out


def test_a_relevant_score_within_ulps_of_the_threshold_keeps_its_row():
    # one non-zero anchor coordinate, so the block product is exact: item 1 (unsampled) beats
    # item 0 (sampled) by one ulp, and the row-wise product puts it three ulps behind. A second
    # item coordinate gives every item but item 1 a larger norm, and item 0 the largest
    width, n_items = 16, 4 * ev.SAMPLE  # SAMPLE columns sampled at depth 1
    x = 1.5
    anchors = np.zeros((3, width))
    anchors[:, 0] = 1.0
    items = np.zeros((n_items, width))
    items[:, 0] = np.linspace(-1.0, 1.0, n_items)
    items[:, 1] = 2.0
    items[0, 0] = x
    items[1, :2] = np.nextafter(x, np.inf), 0.0
    eval_sets = [{1}, {2}, {2}]  # rows 1 and 2 hold a relevant item far below the cut
    mask_sets = [set(), set(), set()]
    scores = LowRowwise(anchors, items)
    got = ev.evaluate_scores(scores, index_of(eval_sets, n_items), index_of(mask_sets, n_items), (1,))
    assert got == reference_metrics(anchors @ items.T, eval_sets, mask_sets, (1,)) == ({"recall@1": 1 / 3,
                                                                                       "ndcg@1": 1 / 3}, 3)
    assert [c.tolist() for c in scores.calls] == [[0]]


def test_the_first_sample_holds_the_items_of_largest_norm_in_id_order():
    # small integer items, so the squared norms are exact and many tie; depth 1 and 4 * SAMPLE
    # items sample SAMPLE of them, and the cut falls inside a tie, which goes to the smaller ids
    rng = np.random.default_rng(0)
    n_items = 4 * ev.SAMPLE
    items = rng.integers(-2, 3, size=(n_items, 3)).astype(float)
    anchors = rng.normal(size=(4, 3))
    sq = (items ** 2).sum(axis=1)
    reach = sorted(range(n_items), key=lambda j: (-sq[j], j))
    assert sq[reach[ev.SAMPLE - 1]] == sq[reach[ev.SAMPLE]]  # a tie across the cut
    eval_sets, mask_sets = [{0}, {5}, {9}, {13}], [{1}, set(), {2, 3}, set()]
    log = LoggedScores(anchors, items)
    got = ev.evaluate_scores(log, index_of(eval_sets, n_items), index_of(mask_sets, n_items), (1,))
    assert got == reference_metrics(anchors @ items.T, eval_sets, mask_sets, (1,))
    assert [cols.tolist() for cols in log.picked] == [sorted(reach[:ev.SAMPLE])]
    assert np.array_equal(log.samples[0].items, items[sorted(reach[:ev.SAMPLE])])


def test_popularity_samples_the_most_popular_items(monkeypatch):
    # a rank-1 source: an item's norm is its popularity score's magnitude, which orders the items
    # trained at least twice by popularity, ahead of every other item
    ds, _ = generate_synthetic(300, 800, 120, m_true=3, noise=0.1, seed=4, edges_per_group=12)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=4))
    made = []
    monkeypatch.setattr(ev, "RowScores", lambda anchors, items: made.append(LoggedScores(anchors, items)) or made[-1])
    ev.evaluate_popularity(ds, "user", ks=(10,))
    popularity = ev.popularity_scores(ds)
    n_sampled = 800 // (800 // (ev.SAMPLE * 10))  # every stride-th column's count, stride 800 // 160 = 5
    most = np.sort(np.argsort(-popularity, kind="stable")[:n_sampled])
    assert popularity[most].min() > 1.0  # each trained at least twice
    assert [cols.tolist() for cols in made[0].picked] == [most.tolist()]


def test_a_large_norm_item_off_the_stride_grid_drops_the_row_it_outscores(lanes):
    # depth 1 and 4 * SAMPLE items, SAMPLE of them sampled: item 1, off the grid of every 4th item,
    # has the largest norm and the best score, and row 0's relevant item 2 comes next, ahead of
    # every item on the grid. Item 1 alone stands ahead of it, so row 0 is dropped unscored; row 1
    # holds item 1 and is ranked
    n_items = 4 * ev.SAMPLE
    items = np.zeros((n_items, 2))
    items[:, 0] = np.linspace(-1.0, 0.5, n_items)
    items[1, 0], items[2, 0] = 3.0, 2.0
    anchors = np.tile([1.0, 0.0], (2, 1))
    eval_sets, mask_sets = [{2}, {1}], [set(), set()]
    lanes(1)
    log = LoggedScores(anchors, items)
    got = ev.evaluate_scores(log, index_of(eval_sets, n_items), index_of(mask_sets, n_items), (1,))
    assert got == reference_metrics(anchors @ items.T, eval_sets, mask_sets, (1,)) == ({"recall@1": 1 / 2,
                                                                                       "ndcg@1": 1 / 2}, 2)
    assert [c.tolist() for c in log.calls] == [[1]]


def test_rows_that_cannot_score_are_never_fully_scored(monkeypatch):
    rng = np.random.default_rng(7)
    n_items, width = 400, 8
    anchors, items = rng.normal(size=(12, width)), rng.normal(size=(n_items, width))
    scores = anchors @ items.T
    order = np.argsort(-scores, axis=1)
    best, worst = order[:, [0, 3]], order[:, [-1, -3]]
    # chunks of 4 rows: every row can score, every row but row 5, no row
    eval_sets = [set(best[a].tolist()) for a in range(8)] + [set(worst[a].tolist()) for a in range(8, 12)]
    eval_sets[5] = set(worst[5].tolist())
    mask_sets = [{int(order[a, 1])} for a in range(12)]
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 4 * n_items)
    log = LoggedScores(anchors, items)
    got = ev.evaluate_scores(log, index_of(eval_sets, n_items), index_of(mask_sets, n_items), (5,))
    assert got == reference_metrics(scores, eval_sets, mask_sets, (5,))
    assert sorted(c.tolist() for c in log.calls) == [[0, 1, 2, 3], [4, 6, 7]]


@pytest.mark.parametrize("kept", ["every", "none", "alternate"])
def test_kept_rows_are_scored_in_runs_of_one_chunk(lanes, monkeypatch, kept):
    rng = np.random.default_rng(9)
    n_anchors, n_items, width = 50, 300, 8
    anchors, items = rng.normal(size=(n_anchors, width)), rng.normal(size=(n_items, width))
    scores = anchors @ items.T
    order = np.argsort(-scores, axis=1)
    can_score = {"every": lambda a: True, "none": lambda a: False, "alternate": lambda a: a % 2 == 0}[kept]
    eval_sets = [set(order[a, :2].tolist() if can_score(a) else order[a, -2:].tolist()) for a in range(n_anchors)]
    mask_sets = [{int(order[a, 2])} for a in range(n_anchors)]
    # chunks of 7 rows; 20 sampled columns at depth 10, so a block may hold 15 chunks, and the
    # 50 rows (7 chunks and one short one) make two blocks, rows 0-27 and 28-49
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 7 * n_items)
    monkeypatch.setattr(ev, "SAMPLE", 2)
    lanes(1)
    log = LoggedScores(anchors, items)
    got = ev.evaluate_scores(log, index_of(eval_sets, n_items), index_of(mask_sets, n_items), (10,))
    assert got == reference_metrics(scores, eval_sets, mask_sets, (10,))
    calls = [c.tolist() for c in log.calls]
    if kept == "every":  # the consecutive chunks, as when every row is ranked
        assert calls == [list(range(lo, min(lo + 7, n_anchors))) for lo in range(0, n_anchors, 7)]
        assert log.nbytes == 8 * ev.BLOCK_ELEMENTS
    elif kept == "none":
        assert calls == []
    else:  # each block's kept rows, 7 at a time: two runs in each block, the last one short
        assert calls == [list(range(lo, hi, 2)) for lo, hi in ((0, 14), (14, 28), (28, 42), (42, 50))]
    assert log.sample.nbytes == 8 * 28 * 20  # the first block's sampled scores
    assert max(log.nbytes, log.sample.nbytes) <= 8 * ev.BLOCK_ELEMENTS


def test_the_second_sample_drops_rows_the_first_kept(lanes):
    # depth 1 and a catalogue of SAMPLE * DENSER * DENSER_MIN_STRIDE items (256): the first sample
    # takes the 16 items of largest norm, every 16th, all scored 0, and the second the 64 largest,
    # every 4th, the others of them scored 2. A second coordinate, which the anchors do not read,
    # sets the norms. Row 0's relevant item (1.0) beats the first sample's best and not the
    # second's; row 1's is the best item (3.0); rows 2-7 hold the worst (-5.0). So the first sample
    # keeps rows 0 and 1, a quarter of the block, and only row 1 is scored in full.
    first = ev.DENSER * ev.DENSER_MIN_STRIDE
    n_items = ev.SAMPLE * first
    items = np.zeros((n_items, 2))
    items[:, 0] = -1.0
    items[::ev.DENSER_MIN_STRIDE] = 2.0, 50.0
    items[::first] = 0.0, 100.0
    items[1:4, 0] = 3.0, 1.0, -5.0
    anchors = np.tile([1.0, 0.0], (8, 1))
    eval_sets = [{2}, {1}] + [{3}] * 6
    mask_sets = [set() for _ in range(8)]
    lanes(1)
    log = LoggedScores(anchors, items)
    got = ev.evaluate_scores(log, index_of(eval_sets, n_items), index_of(mask_sets, n_items), (1,))
    assert got == reference_metrics(anchors @ items.T, eval_sets, mask_sets, (1,)) == ({"recall@1": 1 / 8,
                                                                                       "ndcg@1": 1 / 8}, 8)
    assert [c.tolist() for c in log.calls] == [[1]]
    assert [s.shape[1] for s in log.samples] == [n_items // first, n_items // ev.DENSER_MIN_STRIDE]
    assert log.samples[1].nbytes == 8 * 2 * n_items // ev.DENSER_MIN_STRIDE  # rows 0 and 1 alone


def poor_fit_case(n_anchors, n_items):
    """Normal scores and eval sets of a poorly fit model: one anchor in twenty holds its row's two
    best items, three in twenty hold items ranked 200th to 400th, and the rest their two worst;
    each anchor has one best item masked."""
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(n_anchors, n_items))
    order = np.argsort(-scores, axis=1)
    picks = {0: [1, 2], 1: [200, 300], 2: [250, 350], 3: [399, 220]}
    eval_sets = [set(order[a, picks.get(a % 20, [-1, -2])].tolist()) for a in range(n_anchors)]
    mask_sets = [{int(order[a, 0])} for a in range(n_anchors)]
    return scores, (index_of(eval_sets, n_items), index_of(mask_sets, n_items)), eval_sets, mask_sets


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_two_lanes_rank_through_the_second_sample_as_one_lane(lanes, monkeypatch, schedule):
    n_items, ks = 2000, (5, 10)
    scores, indexes, eval_sets, mask_sets = poor_fit_case(1400, n_items)
    # chunks of 7 rows; 40 sampled columns at depth 10 (stride 50), so blocks of 350 rows, four of
    # them; the second sample takes every 12th column, 167 of them, 83 rows a product
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 7 * n_items)
    monkeypatch.setattr(ev, "SAMPLE", 4)
    made = []
    columns = LaneLog.columns
    monkeypatch.setattr(LaneLog, "columns", lambda self, cols: made.append(len(cols)) or columns(self, cols))
    lanes(1)
    one_lane = ev.evaluate_scores(ref.DenseScores(scores), *indexes, ks)
    helper = lanes(2, schedule)
    log = LaneLog(scores)
    assert ev.evaluate_scores(log, *indexes, ks) == one_lane == reference_metrics(scores, eval_sets, mask_sets, ks)
    n_blocks = block_count(one_lane[1], n_items, ks)
    assert n_blocks == 4 and len(log.sampled) == 2 * n_blocks  # each block's kept rows in one denser product
    assert made == [40, 167]  # the second sample made once, before any block
    for thread in getattr(helper, "made", ()):
        assert not thread.is_alive()


def test_the_sampled_sources_are_made_by_the_caller_before_any_block(lanes, monkeypatch):
    # the case above, with the helper ranking every block and each block reading the second
    # sample: the lanes share the sources and make none
    n_items, ks = 2000, (5, 10)
    scores, indexes, eval_sets, mask_sets = poor_fit_case(1400, n_items)
    monkeypatch.setattr(ev, "BLOCK_ELEMENTS", 7 * n_items)
    monkeypatch.setattr(ev, "SAMPLE", 4)
    log = LaneLog(scores)
    made = []  # (thread, `negated` calls before it) of each `columns` call
    columns = LaneLog.columns
    monkeypatch.setattr(LaneLog, "columns",
                        lambda self, cols: made.append((threading.get_ident(), len(log.log))) or columns(self, cols))
    helper = lanes(2, "eager_helper")
    assert ev.evaluate_scores(log, *indexes, ks) == reference_metrics(scores, eval_sets, mask_sets, ks)
    caller = threading.get_ident()
    assert made == [(caller, 0), (caller, 0)]
    assert caller not in log.threads and len(log.sampled) == 2 * 4  # four blocks, each through both samples
    assert len(helper.made) == 1 and not helper.made[0].is_alive()
