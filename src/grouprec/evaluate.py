"""Full-ranking evaluation: Recall@K and NDCG@K over all items.

Every anchor's scores cover the whole item catalog; items the anchor
already touched in the masked splits are pushed to -inf before ranking,
and anchors with nothing held out in the target split are skipped.
`evaluate_scores` works through row blocks (at most BLOCK_ELEMENTS scores
each) and ranks in full only the rows where a relevant item can reach the
top depth = min(max(ks), n_items). Every other row gets recall 0 and NDCG 0,
which is what ranking it would give.

The threshold. Every stride-th item column is sampled, with stride =
max(1, n_items // (SAMPLE * depth)), so at least SAMPLE * depth columns are.
A row's thr is the depth-th smallest of its negated sampled scores, masked
columns counting as +inf. A relevant item whose negated score is above thr
has at least depth items strictly ahead of it and cannot be ranked; a row is
dropped when none of its relevant items can. The sampled scores come from
one product with a copy of the sampled columns of items.T, made once per
call, and the relevant scores from row-wise dot products. Neither is the
block product that would rank the row, so the comparison carries a slack of
8e, e = γ_K·‖a‖·max‖v‖, with K the embedding width, γ_K = K·u / (1 - K·u)
and u = 2**-53. By Higham's dot-product bound,
|fl(a·v) - a·v| <= γ_K·|a|·|v| <= e for every summation order (absent
underflow and overflow). So when one evaluation puts a relevant score above
thr + 8e, any other puts it above thr + 6e and puts each of the depth
sampled scores at or below thr under thr + 2e: they all stay strictly ahead.
A row is dropped only when every float evaluation of its dot products, the
block product included, would drop it. NaN compares false, so a row with a
NaN relevant score or threshold is never dropped. At stride 1 the sample is
every column, so a catalogue below SAMPLE * depth items has each kept row
multiplied twice, once for the sample and once to rank it.

Ranking the rows that remain. Their negated rows come from `negated(rows)`
and an in-place partition brings each row's depth best values to its front.
A relevant item's rank is one more than the number of those values strictly
below it, when it is below the cut and equals no other of them, or is the
cut and equals no other value of its row. In any other case (a tie, a NaN)
the row is read again and ranked in full: argpartition takes its depth best,
with ties across the cut left as numpy's introselect leaves them, and a
stable argsort orders them. Gains add in rank order and anchors left to
right, so the metrics are bit-equal to a per-anchor loop that ranks one row
at a time and scores it with the textbook Recall@K and NDCG@K (the tests
keep that loop as the oracle) over the same scores.

Blocks are ranked on two lanes, the caller's thread and one helper thread,
which take the next block from one shared counter; each block's per-anchor
metrics are filed by block index and summed in anchor order afterwards, so
the metrics are bit-equal whichever lane ranked which block. The helper runs
only where the process may use more than one CPU and there are two blocks or
more; BLAS, partition and argpartition release the GIL, so the lanes overlap.
Once a `Trainer.train` has run in the process, glibc keeps one malloc arena,
so the helper's blocks come from the caller's kept heap and not a second one.

Scores are never held whole: `evaluate_ranking` hands `evaluate_scores` a
model's `model.RowScores`, and `evaluate_popularity` a rank-1 one (a column
of ones by the item scores, exact since K = 1). A RowScores computes a
block, negated, as `-anchors[rows] @ items.T` when it is ranked (negation is
exact, so these are the bits of the negated product). Evaluation holds at
most two blocks of BLOCK_ELEMENTS scores at a time, one per lane. Which bits
are kept: when every row of a block remains, `negated(block)` is the same
call on the same rows as when every row was ranked, so those scores keep
their bits. When only some remain, the product over them is another BLAS
call and may round differently; likewise a block's product may differ from
the same rows of the whole product. With OpenBLAS 0.3.31 (Haswell kernel,
one thread, d = 64), one-row products (a gemv) differed from the block's
rows in 82% of entries at 1513 and 4000 items; products of 2 to 64 of 173
rows by 1513 items in 1.4e-5 to 5e-4 of them; of 2 to 64 of 65 rows by 4000
items in none; and blocks of 173 rows by 1513 items differed from the whole
product in about 1.6e-5 of the entries. A rank moves only where such a bit
reorders two items, so parity with ranking every row is measured, not
guaranteed: the metrics matched in every case measured.

The cost on a model that fits well. When every row remains, a block pays the
sampled product (about SAMPLE * depth / n_items of the full one), the
row-wise dot products and the partition of the sample on top of the full
product, and an in-place partition replaces argpartition and argsort. At
10000 x 4000 scores, d = 64, with two relevant items per row ranked near the
top, every row was kept, and a one-lane pass took 0.263 s against 0.281 s
for argpartition on every row (medians of 9 alternating runs each on a
shared 2-vCPU host, SAMPLE = 16).
"""

import itertools
import math
import numbers
import os
import threading

import numpy as np

from .datasets import TRAIN, VALID, TEST, edge_keys, in_sorted
from .model import RowScores


BLOCK_ELEMENTS = 1 << 18  # so score memory is fixed and the rest grows with edges, not anchors
SAMPLE = 16  # sampled item columns per rank of depth; a row's threshold is its depth-th best of them


def _cutoffs(ks):
    """ks as a tuple, checked to be one or more distinct integer cutoffs of at least 1."""
    ks = tuple(ks)
    if not ks or any(not isinstance(k, numbers.Integral) or k < 1 for k in ks) or len(set(ks)) < len(ks):
        raise ValueError(f"ks must be one or more distinct integer cutoffs >= 1, got {ks!r}")
    return ks


def evaluate_scores(score_matrix, eval_index, mask_index, ks):
    """Mean metrics over anchors with nonempty eval rows.

    `score_matrix` is a `model.RowScores` or anything shaped like one: `.shape`,
    `negated(rows)` for those rows negated as a new float64 array, and
    `columns`, `negated_pairs` and `error_bound` for the sampled threshold;
    only the rows of evaluated anchors that can score are computed whole,
    one block at a time.

    The indexes are (indptr, indices) pairs from `Interactions.anchor_index`:
    each anchor's relevant items, each once, and the items kept out of its ranking.
    Returns ({"recall@k": v, "ndcg@k": v, ...}, n_evaluated).
    """
    ks = _cutoffs(ks)
    n_anchors, n_items = score_matrix.shape
    n_relevant = np.diff(eval_index[0])
    eval_keys = edge_keys(np.repeat(np.arange(n_anchors), n_relevant), eval_index[1], n_anchors, n_items)
    rows = np.flatnonzero(n_relevant)
    rel_pos = np.repeat(np.arange(len(rows)), n_relevant[rows])  # each eval entry's anchor, in `rows`
    masked = np.repeat(n_relevant > 0, np.diff(mask_index[0]))  # mask entries of evaluated anchors
    mask_pos = np.repeat(np.cumsum(n_relevant > 0) - 1, np.diff(mask_index[0]))[masked]  # in `rows`
    mask_items = mask_index[1][masked]
    depth = min(max(ks), n_items)
    gains = np.array([1.0 / math.log2(rank + 1) for rank in range(1, max(ks) + 1)])
    ideal = np.cumsum(gains)  # ideal[m - 1]: the first m ranks all hit
    step = max(1, BLOCK_ELEMENTS // n_items)
    per_block = [None] * -(-len(rows) // step)  # each block's per-anchor metrics, filed by block index
    stride = max(1, n_items // (SAMPLE * depth))  # so at least SAMPLE * depth columns are sampled
    sample = score_matrix.columns(np.arange(0, n_items, stride))  # at stride 1, every column

    def ranked_hits(neg, anchors):
        """Whether each of the top `depth` items of each negated row is relevant, best first."""
        part = np.argpartition(neg, depth - 1, axis=1)[:, :depth].copy()  # frees the full buffer
        order = np.argsort(np.take_along_axis(neg, part, axis=1), axis=1, kind="stable")
        ranked = np.take_along_axis(part, order, axis=1)
        return in_sorted(eval_keys, edge_keys(anchors[:, None], ranked, n_anchors, n_items))

    def kept_hits(scores, anchors, row, item):
        """ranked_hits(scores(), anchors), given the relevant (row, item) pairs of those rows.

        `scores()` gives the same negated rows each call; the first is partitioned in
        place, and a row is ranked in full, from a second call, only on a tie or a NaN.
        """
        neg = scores()
        x = neg[row, item]
        neg.partition(depth - 1, axis=1)  # each row's `depth` best now lead it, unordered
        top = neg[row, :depth]
        cut = top[:, -1]
        # with no tie, x's rank is one more than the count of top values below it
        sure = (x < cut) & ((top == x[:, None]).sum(axis=1) == 1)
        at_cut = np.flatnonzero(x == cut)  # the cut itself, when no other item of the row equals it
        sure[at_cut] = (neg[row[at_cut]] == x[at_cut, None]).sum(axis=1) == 1
        del neg  # so a second call holds one buffer of these rows, not two
        hit = np.zeros((len(anchors), depth), dtype=bool)
        hit[row[sure], (top[sure] < x[sure, None]).sum(axis=1)] = True
        redo = np.unique(row[~sure & ~(x > cut)])
        if len(redo):
            hit[redo] = ranked_hits(scores()[redo], anchors[redo])
        return hit

    def rank_block(i):
        lo = i * step
        block = rows[lo : lo + step]
        a, b = np.searchsorted(mask_pos, (lo, lo + step))
        m_row, m_item = mask_pos[a:b] - lo, mask_items[a:b]
        a, b = np.searchsorted(rel_pos, (lo, lo + step))
        r_row, r_item = rel_pos[a:b] - lo, eval_index[1][a:b]
        head = sample.negated(block)
        on = m_item % stride == 0
        head[m_row[on], m_item[on] // stride] = np.inf
        rel = score_matrix.negated_pairs(block[r_row], r_item)
        slack = 8.0 * score_matrix.error_bound(block)[r_row]
        head.partition(depth - 1, axis=1)
        # depth items lie strictly ahead of a relevant item above its row's threshold plus slack
        keep = np.zeros(len(block), dtype=bool)
        keep[r_row[~(rel > head[r_row, depth - 1] + slack)]] = True  # NaN compares False: kept
        kept = np.flatnonzero(keep)
        at = np.cumsum(keep) - 1  # a kept row's place among the kept

        def kept_scores():
            neg = score_matrix.negated(block if len(kept) == len(block) else block[kept])
            on = keep[m_row]
            neg[at[m_row[on]], m_item[on]] = np.inf
            return neg

        hit = np.zeros((len(block), depth), dtype=bool)
        if len(kept):
            sel = keep[r_row]
            hit[kept] = kept_hits(kept_scores, block[kept], at[r_row[sel]], r_item[sel])
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
    ks = _cutoffs(ks)
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
    ks = _cutoffs(ks)
    interactions = dataset.user_items if task == "user" else dataset.group_items
    # a rank-1 product: with one coordinate, 1.0 * score is exact, so every row holds the scores
    scores = RowScores(np.ones((interactions.n_anchors, 1)), popularity_scores(dataset)[:, None])
    return evaluate_scores(scores, *_indexes(interactions, target), ks)
