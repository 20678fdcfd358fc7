"""Two lanes of work: the caller's thread and at most one helper thread.

Each work item runs once, on either lane: propagation's two sides (one
layer chain each), evaluation's block numbers, the `row_blocks` slices of
the self-gated interests (`autodiff.gated_channels`) and the interest
regularizer (`autodiff.mean_pair_cosine`), and the Adam update's
(parameter, moments, block) tuples. The work overlaps because the products,
partitions and ufuncs release the GIL. The helper starts only where the
process may use more than one CPU, so a process with one usable CPU runs
everything on the caller's thread, and there is no setting for the lane
count.

The row layout keeps the bits. A block's product need not round like the
same rows of the whole product: with OpenBLAS 0.3.31 (Haswell kernel, one
thread, random 3800 x 64 inputs), a one-row `x @ w` of the interest gate
differed from the whole product in 198-222 of its 256 entries, and 1- to
16-row tails of its backward product in 89-92% of theirs, while tails of
40 rows or more matched.
So `row_blocks` depends on the row count alone, never on the lane count;
its blocks start on multiples of ALIGN rows and hold at least ALIGN rows,
unless the whole array is shorter, when it is one block: the unsplit call.
"""

import os
import threading

ALIGN = 64  # rows: blocks start on multiples of ALIGN and, unless the whole is shorter, hold ALIGN or more
# rows per block of the row-wise ops. At the mfw shape (about 3800 interest rows, M = 4, d = 64,
# one BLAS thread, two lanes on a shared 2-vCPU host) the two interest ops' forward and backward
# took 27.4-28.0 ms in blocks of 512 rows, against 28.1-28.8 ms in blocks of 1024 and 27.1-28.4 ms
# in blocks of 256 (medians of 30 interleaved steps, three runs)
BLOCK_ROWS = 512


def usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_on_two_lanes(task, items):
    """Run task(item) once for each item of the sequence `items`, on the caller's thread and one helper.

    Both lanes take the next item from one shared iterator, so a helper the
    host starves holds back at most the one item it took. The helper starts
    only when there are two items or more and more than one usable CPU, and
    it is joined before this returns; the first exception either lane raised
    is raised here, after which neither lane takes another item.
    """
    queue, done = iter(items), object()
    lock = threading.Lock()
    errors = []

    def lane():
        try:
            while not errors:
                with lock:
                    item = next(queue, done)
                if item is done:
                    return
                task(item)
        except BaseException as exc:  # re-raised on the caller's thread below
            errors.append(exc)

    helper = None
    if len(items) >= 2 and usable_cpus() > 1:
        helper = threading.Thread(target=lane, name="grouprec-lane", daemon=True)
        helper.start()
    lane()  # stores what it raises, so the helper is always joined
    if helper is not None:
        helper.join()
    if errors:
        raise errors[0]


def row_blocks(n_rows, size=None):
    """Slices that tile range(n_rows) in blocks of `size` rows (default BLOCK_ROWS), a positive multiple of ALIGN.

    A last block shorter than ALIGN rows joins the one before it, so every
    block starts on a multiple of ALIGN and holds at least ALIGN rows, unless
    n_rows < ALIGN, which gives the one block slice(0, n_rows).
    """
    size = BLOCK_ROWS if size is None else size
    if size < ALIGN or size % ALIGN:
        raise ValueError(f"block size must be a positive multiple of {ALIGN}, got {size}")
    starts = list(range(0, n_rows, size)) or [0]
    if len(starts) > 1 and n_rows - starts[-1] < ALIGN:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_rows])]
