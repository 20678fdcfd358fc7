"""Full-ranking evaluation: Recall@K and NDCG@K over all items.

Every anchor's scores cover the whole item catalog; items the anchor
already touched in the masked splits are pushed to -inf before ranking,
and anchors with nothing held out in the target split are skipped.
`evaluate_scores` ranks row blocks (at most BLOCK_ELEMENTS scores each):
argpartition takes each row's k best, with ties across the cut left as
numpy's introselect leaves them, and a stable argsort orders them. Gains
add in rank order and anchors left to right, so the metrics are bit-equal
to a per-anchor loop that ranks one row at a time and scores it with the
textbook Recall@K and NDCG@K (the tests keep that loop as the oracle).

Blocks are ranked on two lanes, the caller's thread and one helper thread,
which take the next block from one shared counter; each block's per-anchor
metrics are filed by block index and summed in anchor order afterwards, so
the metrics are bit-equal whichever lane ranked which block. The helper runs
only where the process may use more than one CPU and there are two blocks or
more; BLAS and argpartition release the GIL, so the lanes overlap. Once a
`Trainer.train` has run in the process, glibc keeps one malloc arena, so the
helper's blocks come from the caller's kept heap and not a second one.

A model's scores are never held whole: `evaluate_ranking` hands
`evaluate_scores` a `model.RowScores`, which computes each block, negated,
as `-anchors[block] @ items.T` when it is ranked (negation is exact, so
these are the bits of the negated product). Evaluation holds at most two
blocks of BLOCK_ELEMENTS scores at a time, one per lane, and only anchors
with held-out items are scored. BLAS may round a block's product
differently from the same rows of the whole product: with OpenBLAS 0.3.31
(Haswell kernel, one thread), blocks of 173 rows by 1513 items differed in
the last bit in about 1.6e-5 of the entries, and blocks of 65 rows by 4000
items were bit-equal. The ranking metrics matched the whole product's in
every case measured.
"""

import itertools
import math
import os
import threading

import numpy as np

from .datasets import TRAIN, VALID, TEST, edge_keys, in_sorted


BLOCK_ELEMENTS = 1 << 18  # so score memory is fixed and the rest grows with edges, not anchors


def evaluate_scores(score_matrix, eval_index, mask_index, ks):
    """Mean metrics over anchors with nonempty eval rows.

    `score_matrix` is anything with `.shape` whose `[rows]` gives float64
    rows: a dense array, a broadcast view or a `model.RowScores`, whose
    `negated(rows)` gives them negated; only the rows of evaluated anchors
    are read, one block at a time.

    The indexes are (indptr, indices) pairs from `Interactions.anchor_index`:
    each anchor's relevant items, each once, and the items kept out of its ranking.
    Returns ({"recall@k": v, "ndcg@k": v, ...}, n_evaluated).
    """
    n_anchors, n_items = score_matrix.shape
    n_relevant = np.diff(eval_index[0])
    eval_keys = edge_keys(np.repeat(np.arange(n_anchors), n_relevant), eval_index[1], n_anchors, n_items)
    rows = np.flatnonzero(n_relevant)
    kept = np.repeat(n_relevant > 0, np.diff(mask_index[0]))  # mask entries of evaluated anchors
    mask_pos = np.repeat(np.cumsum(n_relevant > 0) - 1, np.diff(mask_index[0]))[kept]  # in `rows`
    mask_items = mask_index[1][kept]
    depth = min(max(ks), n_items)
    gains = np.array([1.0 / math.log2(rank + 1) for rank in range(1, max(ks) + 1)])
    ideal = np.cumsum(gains)  # ideal[m - 1]: the first m ranks all hit
    step = max(1, BLOCK_ELEMENTS // n_items)
    per_block = [None] * -(-len(rows) // step)  # each block's per-anchor metrics, filed by block index

    def rank_block(i):
        lo = i * step
        block = rows[lo : lo + step]
        neg = _negated_rows(score_matrix, block)
        a, b = np.searchsorted(mask_pos, (lo, lo + step))
        neg[mask_pos[a:b] - lo, mask_items[a:b]] = np.inf
        part = np.argpartition(neg, depth - 1, axis=1)[:, :depth].copy()  # frees the full buffer
        order = np.argsort(np.take_along_axis(neg, part, axis=1), axis=1, kind="stable")
        ranked = np.take_along_axis(part, order, axis=1)
        hit = in_sorted(eval_keys, edge_keys(block[:, None], ranked, n_anchors, n_items))
        hits, dcg = np.cumsum(hit, axis=1), np.cumsum(np.where(hit, gains[:depth], 0.0), axis=1)
        relevant = n_relevant[block]
        metrics = {}
        for k in ks:
            metrics[f"recall@{k}"] = hits[:, min(k, depth) - 1] / relevant
            metrics[f"ndcg@{k}"] = dcg[:, min(k, depth) - 1] / ideal[np.minimum(relevant, k) - 1]
        per_block[i] = metrics

    _run_on_two_lanes(rank_block, len(per_block))
    # cumsum adds left to right, in anchor order whatever lane ranked a block, and 0.0 + v is exactly v
    n = len(rows)
    return {
        key: float(np.cumsum(np.hstack([0.0] + [m[key] for m in per_block]))[-1] / max(n, 1))
        for key in (f"{m}@{k}" for m in ("recall", "ndcg") for k in ks)
    }, n


def _negated_rows(score_matrix, rows):
    """-score_matrix[rows] as a new float64 array; a `RowScores` has BLAS give it negated."""
    if hasattr(score_matrix, "negated"):
        return score_matrix.negated(rows)
    neg = np.asarray(score_matrix[rows], dtype=np.float64)
    return np.negative(neg, out=neg)


def _usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_on_two_lanes(task, n_tasks):
    """Run task(0), ..., task(n_tasks - 1), each once, on the caller's thread and one helper.

    Both lanes take the next index from one counter, so a helper the host
    starves holds back at most the one task it took. The helper starts only
    when there are two tasks and more than one usable CPU, and it is joined
    before this returns; the first exception either lane raised is raised
    here, after which neither lane takes another task.
    """
    taken = itertools.count()
    lock = threading.Lock()
    errors = []

    def lane():
        try:
            while not errors:
                with lock:
                    i = next(taken)
                if i >= n_tasks:
                    return
                task(i)
        except BaseException as exc:  # re-raised on the caller's thread below
            errors.append(exc)

    helper = None
    if n_tasks >= 2 and _usable_cpus() > 1:
        helper = threading.Thread(target=lane, name="grouprec-rank", daemon=True)
        helper.start()
    lane()  # stores what it raises, so the helper is always joined
    if helper is not None:
        helper.join()
    if errors:
        raise errors[0]


def _indexes(interactions, target):
    """Eval and mask index: TEST masks train+valid, VALID masks train only."""
    mask_splits = (TRAIN, VALID) if target == TEST else (TRAIN,)
    return interactions.anchor_index((target,)), interactions.anchor_index(mask_splits)


def evaluate_ranking(model, dataset, task, ks=(5, 10), target=TEST, state=None):
    """Rank all items for every anchor of the task and average the metrics.

    target=TEST masks train+valid items; target=VALID masks train only
    (the model-selection path during training).
    """
    interactions = dataset.user_items if task == "user" else dataset.group_items
    scores = model.row_scores(task, state=state)
    return evaluate_scores(scores, *_indexes(interactions, target), ks)


def popularity_scores(dataset):
    """One static score per item: train count, ties resolved to smaller ids.

    The id tie-break rides on a sub-unit penalty, which cannot reorder
    distinct integer counts.
    """
    _, items = dataset.user_items.edges_of(TRAIN)
    counts = np.bincount(items, minlength=dataset.n_items).astype(np.float64)
    return counts - np.arange(dataset.n_items) / (dataset.n_items + 1.0)


def evaluate_popularity(dataset, task, ks=(5, 10), target=TEST):
    interactions = dataset.user_items if task == "user" else dataset.group_items
    scores = np.broadcast_to(popularity_scores(dataset), (interactions.n_anchors, dataset.n_items))
    return evaluate_scores(scores, *_indexes(interactions, target), ks)
