"""Full-ranking evaluation: Recall@K and NDCG@K over all items.

Every anchor's scores cover the whole item catalog; items the anchor
already touched in the masked splits are pushed to -inf before ranking,
and anchors with nothing held out in the target split are skipped.
`evaluate_scores` ranks in full only the rows where a relevant item can reach
the top depth = min(max(ks), n_items). Every other row gets recall 0 and
NDCG 0, which is what ranking it would give.

The geometry. The evaluated anchors are split into an even number of
near-equal blocks. A chunk is chunk = max(1, BLOCK_ELEMENTS // n_items)
rows, the most that one full-width product holds; a block is a whole number
of chunks (only the last chunk may be short) and at most widest = chunk *
max(1, BLOCK_ELEMENTS // (n_sampled * chunk)) rows, so that no sampled
product holds more than BLOCK_ELEMENTS scores either. A block passes three
stages, each given anchor ids alone and each reading its rows' masked and
relevant items from the two (indptr, indices) indexes: the first sample
thresholds the whole block; where the second sample runs (below), it
thresholds the anchors the first kept, in runs of at most max(1,
BLOCK_ELEMENTS // n_dense) anchors, n_dense being its column count, so its
products keep within BLOCK_ELEMENTS scores too; and the anchors still kept
are scored and ranked in runs of at most chunk. When every row is kept,
each run is one chunk of consecutive rows: the calls of ranking every row,
chunk by chunk.

The threshold. The sample is the items of largest reach, as many as every
stride-th column would be, with stride = max(1, n_items // (SAMPLE *
depth)), so at least SAMPLE * depth columns are sampled. A source orders its
items by `by_reach()`: a RowScores by item norm, largest first, ties to the
smaller id. A score a·v is at most ‖a‖·‖v‖, so the items of largest norm
are those that can set a high threshold for any row (exact
maximum-inner-product search prunes with the same bound); in a LightGCN-style
model they are mostly the popular items. The sampled items are copied in id
order, and masking finds an item's column in a source through a map from
each item to its column, -1 where the source has none.
A row's thr is the depth-th smallest of its negated sampled scores, masked
columns counting as +inf. A relevant item whose negated score is above thr
has at least depth items strictly ahead of it and cannot be ranked; a row is
dropped when none of its relevant items can. The sampled scores come from
one product per block with a copy of the sampled items, made once per call,
and the relevant scores from row-wise dot products over rows of the item
table. Neither is the product that would rank the row, so the comparison
carries a slack of 8e, e = γ_K·‖a‖·max‖v‖, with K the embedding width,
γ_K = K·u / (1 - K·u) and u = 2**-53. By Higham's dot-product bound,
|fl(a·v) - a·v| <= γ_K·|a|·|v| <= e for every summation order (absent
underflow and overflow). So when one evaluation puts a relevant score above
thr + 8e, any other puts it above thr + 6e and puts each of the depth
sampled scores at or below thr under thr + 2e: they all stay strictly ahead.
A row is dropped only when every float evaluation of its dot products, the
product that ranks it included, would drop it. NaN compares false, so a row
with a NaN relevant score or threshold is never dropped. At stride 1 the sample is
every column, so a catalogue below SAMPLE * depth items has each kept row
multiplied twice, once for the sample and once to rank it.

The second sample. Any set of columns gives a threshold no better than the
depth-th best of the whole row, so the argument above holds for every
sample, and a denser one drops more rows. Where the first sample kept at
most DENSER_KEPT (a quarter) of a block's rows, and dense_stride = stride //
DENSER is at least DENSER_MIN_STRIDE (4), the kept rows are thresholded
again against the items of largest reach, as many as every dense_stride-th
column would be: about DENSER (4) times as many, holding the first sample.
The same masking and the same 8e slack apply; only the rows that survive
both are scored in full. So a row is still dropped only when every float
evaluation would drop it. Each run recomputes its rows' relevant scores and
slack; a RowScores gives each row the same bits of both whatever other rows
share the call, so which rows survive does not depend on how the runs are
cut. The second source is made once per call, before the blocks, wherever
dense_stride allows, and is never multiplied while the kept-share gate is
closed; there it costs its copy of the items, about 0.7 MB at 4000 items
and d = 64. Both gates are read from what the call sees: a block of a well
fit model keeps most rows, and there a second pass over nearly every row
costs more than it saves; a catalogue of 1513 items at depth 10 has stride
9 and dense_stride 2, where the second product is near a full one. Either
way the call makes the calls of one sample, on the same rows.

Ranking the rows that remain. Each run's negated rows come from
`negated(rows)`, and an in-place partition brings each row's depth best
values to its front. A relevant item's rank is one more than the number of those values strictly
below it, when it is below the cut and equals no other of them, or is the
cut and equals no other value of its row. In any other case (a tie, a NaN)
the row is read again and ranked in full: argpartition takes its depth best,
with ties across the cut left as numpy's introselect leaves them, and a
stable argsort orders them. Gains add in rank order and anchors left to
right, so the metrics are bit-equal to a per-anchor loop that ranks one row
at a time and scores it with the textbook Recall@K and NDCG@K (the tests
keep that loop as the oracle) over the same scores.

Blocks are ranked on two lanes, the caller's thread and one helper thread,
by `lanes.run_on_two_lanes`, the runner propagation uses too. The lanes
take the next block number from one shared list (an even count of
near-equal blocks gives the lanes equal shares); each block's per-anchor
metrics are filed by block index and summed in anchor order afterwards, so
the metrics are bit-equal whichever lane ranked which block. The helper runs
only where the process may use more than one CPU and there are two blocks or
more; BLAS, partition and argpartition release the GIL, so the lanes overlap.
Once a `Trainer.train` has run in the process, glibc keeps one malloc arena,
so the helper's blocks come from the caller's kept heap and not a second one.

Scores are never held whole: `evaluate_ranking` hands `evaluate_scores` a
model's `model.RowScores`, and `evaluate_popularity` a rank-1 one (a column
of ones by the item scores, exact since K = 1). A RowScores computes a
run, negated, as `-anchors[rows] @ items.T` when it is ranked (negation is
exact, so these are the bits of the negated product). Each lane holds one
buffer of at most BLOCK_ELEMENTS scores at a time: a block's sampled scores
are freed before its first run is scored. Which bits are kept: when every
row remains, each run's `negated(rows)` is the same call on the same rows as
when every row was ranked chunk by chunk, so those scores keep their bits.
When only some remain, a run gathers kept rows from several chunks, and its
product is another BLAS call that may round differently; likewise a chunk's
product may differ from the same rows of the whole product. With OpenBLAS
0.3.31 at one thread, d = 64 and 5275 random anchors, one-row products (a
gemv) differed from a chunk's rows in 82% of entries at 1513 and 4000 items,
on the SkylakeX kernel and on Haswell. The rest depends on the kernel.
Products of 2 to 64 gathered rows of a 173-row chunk by 1513 items differed
in up to 6.6e-4 of the entries on SkylakeX and up to 5.2e-2 on Haswell; of a
65-row chunk by 4000 items, in none on SkylakeX and up to 1.0e-1 on Haswell.
Chunks differed from the whole product in about 1.6e-5 of the entries at
1513 items and in none at 4000 on SkylakeX, and in about 4.6e-3 and 1.4e-2
on Haswell. A rank moves only where such a bit reorders two items, so parity
with ranking every row is measured, not guaranteed: the metrics matched in
every case the tests measure, on both kernels.

The cost on a model that fits well. When every row remains, a row pays its
share of the sampled product (about SAMPLE * depth / n_items of the full
one), the row-wise dot products and the partition of the sample on top of
the full product, and an in-place partition replaces argpartition and
argsort. At 10000 x 4000 scores, d = 64, with two relevant items per row
ranked near the top, every row is kept, in 154 full-width calls: a one-lane
pass took 0.146 s and a two-lane pass 0.079 s (medians of 10 runs, one BLAS
thread, a shared 2-vCPU host). There the kept-share gate keeps the second
sample off. Without that gate, a second pass over every row, a one-lane pass
read 0.214 s against 0.185 s with it (medians of 5 alternating runs).

The cost on a model that fits poorly. On perfbench's seed-1 stress world
(10000 users by 4000 items, d = 64) after two training steps, the first
sample keeps 673 of 10000 rows of a validation pass and the second 147. At
1513 items (stride 9, so no second sample), a validation pass scores 133
rows in full for a LightGCN model after 64 steps of perfbench's seed-1
world, and 208 for the full model after 32 steps. There a pass costs mostly
the first sample's product and partition.
"""

import math
import numbers

import numpy as np

from .config import TASKS
from .datasets import TRAIN, VALID, TEST, edge_keys, in_sorted
from .lanes import run_on_two_lanes
from .model import RowScores


BLOCK_ELEMENTS = 1 << 18  # so score memory is fixed and the rest grows with edges, not anchors
SAMPLE = 16  # sampled item columns per rank of depth; a row's threshold is its depth-th best of them
DENSER = 4  # a second sample takes as many columns as every (stride // DENSER)-th, about DENSER times as many
DENSER_KEPT = 0.25  # it re-thresholds a block's kept rows only when the first kept at most this share
DENSER_MIN_STRIDE = 4  # and only when its stride is at least this; below it the product nears a full one


def _cutoffs(ks):
    """ks as a tuple, checked to be one or more distinct integer cutoffs of at least 1."""
    ks = tuple(ks)
    if not ks or any(not isinstance(k, numbers.Integral) or k < 1 for k in ks) or len(set(ks)) < len(ks):
        raise ValueError(f"ks must be one or more distinct integer cutoffs >= 1, got {ks!r}")
    return ks


def evaluate_scores(score_matrix, eval_index, mask_index, ks):
    """Mean metrics over anchors with nonempty eval rows.

    `score_matrix` is a `model.RowScores` or anything shaped like one: `.shape`,
    `negated(rows)` for those rows negated as a new float64 array, and for
    the sampled threshold `by_reach()` (the item ids, those that may score
    highest first), `columns`, `negated_pairs` and `error_bound`; only the
    rows of evaluated anchors that can score are computed whole, one block
    at a time.

    The indexes are (indptr, indices) pairs from `Interactions.anchor_index`:
    each anchor's relevant items, each once, and the items kept out of its ranking.
    Returns ({"recall@k": v, "ndcg@k": v, ...}, n_evaluated), every metric
    0.0 when no anchor is evaluated.
    """
    ks = _cutoffs(ks)
    keys = [f"{m}@{k}" for m in ("recall", "ndcg") for k in ks]
    n_items = score_matrix.shape[1]
    n_relevant = np.diff(eval_index[0])
    rows = np.flatnonzero(n_relevant)
    if not len(rows):  # before the block geometry, which divides by the catalogue size
        return dict.fromkeys(keys, 0.0), 0
    depth = min(max(ks), n_items)
    gains = np.array([1.0 / math.log2(rank + 1) for rank in range(1, max(ks) + 1)])
    ideal = np.cumsum(gains)  # ideal[m - 1]: the first m ranks all hit
    chunk = max(1, BLOCK_ELEMENTS // n_items)  # the rows of one full-width product
    stride = max(1, n_items // (SAMPLE * depth))  # so at least SAMPLE * depth columns are sampled
    dense_stride = max(1, stride // DENSER)  # the second sample's, made only at DENSER_MIN_STRIDE or more
    reach = score_matrix.by_reach()
    whole_at = np.arange(n_items)  # each item's column in the whole row

    def sampled(n_cols):
        """The source of the n_cols items of largest reach, copied in id order, and each item's column in it, or -1."""
        cols = np.sort(reach[:n_cols])
        at = np.full(n_items, -1)
        at[cols] = np.arange(n_cols)
        return score_matrix.columns(cols), at

    sample, sample_at = sampled(-(-n_items // stride))  # the count of every stride-th column; at stride 1, all
    widest = chunk * max(1, BLOCK_ELEMENTS // (sample.shape[1] * chunk))  # the rows of one sampled product
    bounds = _block_bounds(len(rows), chunk, widest)
    n_dense = -(-n_items // dense_stride)  # it holds the first sample: both lead `reach`
    dense, dense_at = (None, None) if dense_stride < DENSER_MIN_STRIDE else sampled(n_dense)
    dense_run = max(1, BLOCK_ELEMENTS // n_dense)  # the rows of one second-sample product
    per_block = [None] * (len(bounds) - 1)  # each block's per-anchor metrics, filed by block index

    def entries(index, anchors):
        """The (row, item) entries of `anchors` in an (indptr, indices) index, rows counted in `anchors`."""
        indptr, indices = index
        start = indptr[anchors]
        count = indptr[anchors + 1] - start
        row = np.arange(len(anchors)).repeat(count)
        return row, indices[np.arange(len(row)) + (start - count.cumsum() + count)[row]]

    def masked(source, at, anchors):
        """`source`'s negated rows of `anchors`, their masked items among its columns at +inf.

        `source` is a sampled source or the whole row; `at` maps each item to
        its column in it, -1 where it has none.
        """
        neg = source.negated(anchors)
        row, item = entries(mask_index, anchors)
        col = at[item]
        on = col >= 0
        neg[row[on], col[on]] = np.inf
        return neg

    def reachable(source, at, anchors):
        """Those of `anchors` that may rank a relevant item, against the depth-th best of `masked` `source`."""
        row, item = entries(eval_index, anchors)
        rel = score_matrix.negated_pairs(anchors[row], item)
        slack = 8.0 * score_matrix.error_bound(anchors)[row]
        head = masked(source, at, anchors)
        head.partition(depth - 1, axis=1)
        # depth items lie strictly ahead of a relevant item above its row's threshold plus slack
        keep = np.zeros(len(anchors), dtype=bool)
        keep[row[~(rel > head[row, depth - 1] + slack)]] = True  # NaN compares False: kept
        return anchors[keep]

    def ranked_hits(neg, anchors):
        """Whether each of the top `depth` items of each negated row is relevant, best first."""
        part = np.argpartition(neg, depth - 1, axis=1)[:, :depth].copy()  # frees the full buffer
        order = np.argsort(np.take_along_axis(neg, part, axis=1), axis=1, kind="stable")
        ranked = np.take_along_axis(part, order, axis=1)
        row, item = entries(eval_index, anchors)
        n = len(anchors)
        return in_sorted(edge_keys(row, item, n, n_items), edge_keys(np.arange(n)[:, None], ranked, n, n_items))

    def kept_hits(anchors):
        """ranked_hits of the masked negated rows of `anchors`.

        The rows are partitioned in place, and ranked in full, from a second
        product of the same rows, only on a tie or a NaN.
        """
        neg = masked(score_matrix, whole_at, anchors)
        row, item = entries(eval_index, anchors)
        x = neg[row, item]
        neg.partition(depth - 1, axis=1)  # each row's `depth` best now lead it, unordered
        top = neg[row, :depth]
        cut = top[:, -1]
        # with no tie, x's rank is one more than the count of top values below it
        sure = (x < cut) & ((top == x[:, None]).sum(axis=1) == 1)
        at_cut = np.flatnonzero(x == cut)  # the cut itself, when no other item of the row equals it
        sure[at_cut] = (neg[row[at_cut]] == x[at_cut, None]).sum(axis=1) == 1
        del neg  # so a second product holds one buffer of these rows, not two
        hit = np.zeros((len(anchors), depth), dtype=bool)
        hit[row[sure], (top[sure] < x[sure, None]).sum(axis=1)] = True
        redo = np.unique(row[~sure & ~(x > cut)])
        if len(redo):
            hit[redo] = ranked_hits(masked(score_matrix, whole_at, anchors)[redo], anchors[redo])
        return hit

    def rank_block(i):
        block = rows[bounds[i]:bounds[i + 1]]
        kept = reachable(sample, sample_at, block)
        if dense is not None and 0 < len(kept) <= DENSER_KEPT * len(block):
            # a poorly fit block with rows left: the denser sample's threshold, over the kept rows alone
            kept = np.concatenate([reachable(dense, dense_at, kept[s:s + dense_run])
                                   for s in range(0, len(kept), dense_run)])
        hit = np.zeros((len(block), depth), dtype=bool)
        at = np.searchsorted(block, kept)  # the kept rows' places in the block
        for s in range(0, len(kept), chunk):  # every row kept: the block's chunks of rows
            hit[at[s:s + chunk]] = kept_hits(kept[s:s + chunk])
        hits, dcg = np.cumsum(hit, axis=1), np.cumsum(np.where(hit, gains[:depth], 0.0), axis=1)
        relevant = n_relevant[block]
        metrics = {}
        for k in ks:
            metrics[f"recall@{k}"] = hits[:, min(k, depth) - 1] / relevant
            metrics[f"ndcg@{k}"] = dcg[:, min(k, depth) - 1] / ideal[np.minimum(relevant, k) - 1]
        per_block[i] = metrics

    run_on_two_lanes(rank_block, range(len(per_block)))
    # cumsum adds left to right, in anchor order whatever lane ranked a block, and 0.0 + v is exactly v
    n = len(rows)
    return {key: float(np.cumsum(np.hstack([0.0] + [m[key] for m in per_block]))[-1] / n) for key in keys}, n


def _block_bounds(n_rows, chunk, widest):
    """The row bounds of near-equal blocks of n_rows rows, as few as fit, in an even count where the chunks allow.

    Each block is a whole number of chunks of `chunk` rows (only the last
    chunk may be short) and at most `widest` rows, a multiple of `chunk`.
    """
    n_chunks = -(-n_rows // chunk)
    n_blocks = -(-n_chunks // (widest // chunk))
    n_blocks = min(n_chunks, n_blocks + n_blocks % 2)  # an even count, so two lanes take equal shares
    return np.minimum(np.arange(n_blocks + 1) * n_chunks // max(n_blocks, 1) * chunk, n_rows)


def _indexes(dataset, task, target):
    """The task's eval and mask index: TEST masks train+valid, VALID masks train only.

    Raises ValueError for a task outside TASKS or a target outside (VALID, TEST).
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    if target not in (VALID, TEST):
        raise ValueError(f"target must be VALID ({VALID}) or TEST ({TEST}), got {target!r}")
    interactions = dataset.user_items if task == "user" else dataset.group_items
    mask_splits = (TRAIN, VALID) if target == TEST else (TRAIN,)
    return interactions.anchor_index((target,)), interactions.anchor_index(mask_splits)


def evaluate_ranking(model, dataset, task, ks=(5, 10), target=TEST, state=None):
    """Rank all items for every anchor of the task and average the metrics.

    target=TEST masks train+valid items; target=VALID masks train only
    (the model-selection path during training).
    """
    ks = _cutoffs(ks)
    indexes = _indexes(dataset, task, target)
    return evaluate_scores(model.row_scores(task, state=state), *indexes, ks)


def popularity_scores(dataset):
    """One static score per item: train count, ties resolved to smaller ids.

    The id tie-break rides on a sub-unit penalty, which cannot reorder
    distinct integer counts.
    """
    _, items = dataset.user_items.anchor_index((TRAIN,))
    counts = np.bincount(items, minlength=dataset.n_items).astype(np.float64)
    return counts - np.arange(dataset.n_items) / (dataset.n_items + 1.0)


def evaluate_popularity(dataset, task, ks=(5, 10), target=TEST):
    ks = _cutoffs(ks)
    indexes = _indexes(dataset, task, target)
    n_anchors = len(indexes[0][0]) - 1  # the eval index's indptr
    # a rank-1 product: with one coordinate, 1.0 * score is exact, so every row holds the scores
    scores = RowScores(np.ones((n_anchors, 1)), popularity_scores(dataset)[:, None])
    return evaluate_scores(scores, *indexes, ks)
