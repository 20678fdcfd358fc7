"""Set-up, training and evaluation memory grow linearly with the data.

A world and its double (users, items and groups x2; edges per user, edges
per group and group size fixed) go through every phase of a training run.
Each phase's tracemalloc peak above what was held when it started may at
most grow by PEAK_RATIO_BOUND: linear phases read about 2, and one dense
users x items array reads 4. A phase over the bound is a fault in that
phase, not in the bound.
"""

import dataclasses
import json
import os
import tracemalloc

import numpy as np

from grouprec.config import TrainConfig
from grouprec.datasets import (
    GROUP_SPLITS_FILE,
    USER_SPLITS_FILE,
    load_dataset,
    load_prepared,
    split_holdout,
    write_splits,
)
from grouprec.evaluate import evaluate_ranking
from grouprec.trainer import Trainer

PEAK_RATIO_BOUND = 2.5
EDGES_PER_USER, EDGES_PER_GROUP, GROUP_SIZE = 8, 6, 5


def write_world(path, n_users, n_items, n_groups, seed):
    """The four raw files of a world with fixed per-anchor degrees; no edge repeats."""
    rng = np.random.default_rng(seed)

    def edges(n_anchors, per_anchor, n_targets):
        start = rng.integers(n_targets, size=n_anchors)[:, None]
        return (start + 7 * np.arange(per_anchor)) % n_targets  # distinct while 7 * per_anchor <= n_targets

    def edge_text(targets):
        return "".join(f"{a}\t{v}\n" for a, row in enumerate(targets.tolist()) for v in row)

    os.makedirs(path)
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump({"n_users": n_users, "n_items": n_items, "n_groups": n_groups}, f)
    with open(os.path.join(path, "users.tsv"), "w") as f:
        f.write(edge_text(edges(n_users, EDGES_PER_USER, n_items)))
    with open(os.path.join(path, "groups_items.tsv"), "w") as f:
        f.write(edge_text(edges(n_groups, EDGES_PER_GROUP, n_items)))
    members = edges(n_groups, GROUP_SIZE, n_users)
    with open(os.path.join(path, "group_members.txt"), "w") as f:
        f.write("".join(f"{g} {','.join(map(str, row))}\n" for g, row in enumerate(members.tolist())))


def prepare(path):
    raw = load_dataset(path)
    raw = dataclasses.replace(raw, user_items=split_holdout(raw.user_items, 0),
                              group_items=split_holdout(raw.group_items, 1))
    write_splits(raw.user_items, os.path.join(path, USER_SPLITS_FILE))
    write_splits(raw.group_items, os.path.join(path, GROUP_SPLITS_FILE))
    return raw.fingerprint()


def phase_peaks(path):
    """Each phase's traced peak above the memory held when it began, in phase order."""
    peaks = {}

    def measure(name, fn):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peaks[name] = tracemalloc.get_traced_memory()[1] - before
        return out

    measure("load_dataset", lambda: load_dataset(path))
    measure("split, write and fingerprint", lambda: prepare(path))
    ds = measure("load_prepared", lambda: load_prepared(path))
    trainer = measure("Trainer construction", lambda: Trainer(ds, TrainConfig(seed=0)))
    measure("one step", trainer._step)
    for task in ("user", "group"):
        measure(f"{task} evaluation", lambda: evaluate_ranking(trainer.model, ds, task))
    return peaks


def test_every_phase_peak_grows_linearly_with_the_data(tmp_path):
    write_world(tmp_path / "warm", 100, 80, 20, seed=0)
    write_world(tmp_path / "small", 1000, 400, 200, seed=1)
    write_world(tmp_path / "double", 2000, 800, 400, seed=1)
    tracemalloc.start()
    try:
        phase_peaks(tmp_path / "warm")  # first calls' one-off allocations land here
        small = phase_peaks(tmp_path / "small")
        double = phase_peaks(tmp_path / "double")
    finally:
        tracemalloc.stop()
    ratios = {name: double[name] / small[name] for name in small}
    over = {name: round(r, 2) for name, r in ratios.items() if r > PEAK_RATIO_BOUND}
    assert not over, f"peak memory grows faster than the data: {ratios}"
    assert ratios.keys() == {
        "load_dataset", "split, write and fingerprint", "load_prepared", "Trainer construction",
        "one step", "user evaluation", "group evaluation",
    }
    assert min(ratios.values()) > 1.0, ratios  # each phase does scale with the data
