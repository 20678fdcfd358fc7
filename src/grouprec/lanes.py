"""Two lanes of work: the caller's thread and at most one helper thread.

Propagation runs its two independent layer chains on them, and evaluation
its blocks of rows. The work overlaps because the products and partitions
release the GIL. The helper starts only where the process may use more than
one CPU, so a process with one usable CPU runs everything on the caller's
thread, and there is no setting for the lane count.
"""

import itertools
import os
import threading


def usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_on_two_lanes(task, n_tasks):
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
    if n_tasks >= 2 and usable_cpus() > 1:
        helper = threading.Thread(target=lane, name="grouprec-lane", daemon=True)
        helper.start()
    lane()  # stores what it raises, so the helper is always joined
    if helper is not None:
        helper.join()
    if errors:
        raise errors[0]
