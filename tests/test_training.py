import csv
import ctypes
import logging
import types

import numpy as np
import pytest

from grouprec import trainer as trainer_mod
from grouprec.checkpoint import file_sha256, load_checkpoint, save_checkpoint
from grouprec.config import TrainConfig
from grouprec.datasets import split_holdout
from grouprec.synthetic import generate_synthetic
from grouprec.trainer import LOG_COLUMNS, Trainer, build_model_from_arrays

import reference as ref


def planted_dataset(seed=0):
    ds, labels = generate_synthetic(30, 40, 8, m_true=2, noise=0.1, seed=seed)
    ds.user_items = split_holdout(ds.user_items, seed=seed)
    ds.group_items = split_holdout(ds.group_items, seed=seed + 1)
    return ds, labels


def toy_config(**kw):
    base = dict(
        embed_dim=8,
        n_interests=2,
        n_layers=1,
        batch_user=64,
        batch_group=16,
        epochs=3,
        patience=5,
        seed=1,
        lr=0.05,
    )
    base.update(kw)
    return TrainConfig(**base)


def param_bytes(model):
    return b"".join(t.data.tobytes() for t in model.tensors())


def test_zero_lr_leaves_parameters_untouched():
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(lr=0.0, weight_decay=0.0, epochs=3))
    before = param_bytes(trainer.model)
    result = trainer.train()
    assert param_bytes(trainer.model) == before
    vals = [row["val_metric"] for row in result.history]
    assert len(set(vals)) == 1  # frozen model, frozen metric


def test_loss_decreases_on_planted_world():
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(epochs=10))
    result = trainer.train()
    bpr = [row["l_bpr"] for row in result.history]
    assert bpr[-1] < bpr[0]
    # early epochs on this world improve monotonically
    for a, b in zip(bpr[:5], bpr[1:6]):
        assert b < a


def test_training_deterministic_bit_identical(tmp_path):
    ds, _ = planted_dataset()
    hashes = []
    for run in range(2):
        trainer = Trainer(ds, toy_config(epochs=3))
        trainer.train()
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, trainer.cfg.as_dict(), trainer.model.named_params_data())
        hashes.append(file_sha256(path))
    assert hashes[0] == hashes[1]


def test_selection_history_patience(monkeypatch):
    ds, _ = planted_dataset()
    metrics = iter([0.3, 0.5, 0.4, 0.4, 0.4, 0.9, 0.9])
    monkeypatch.setattr(Trainer, "_validation_metric", lambda self: next(metrics))
    trainer = Trainer(ds, toy_config(epochs=10, patience=3))
    result = trainer.train()
    assert result.best_epoch == 2
    assert result.epochs_run == 5
    assert result.stopped_early


def test_selection_patience_zero_stops_at_first_plateau(monkeypatch):
    ds, _ = planted_dataset()
    metrics = iter([0.5, 0.4, 0.9])
    monkeypatch.setattr(Trainer, "_validation_metric", lambda self: next(metrics))
    trainer = Trainer(ds, toy_config(epochs=10, patience=0))
    result = trainer.train()
    assert result.best_epoch == 1
    assert result.epochs_run == 2


def test_selection_monotone_improvement_keeps_last(monkeypatch):
    ds, _ = planted_dataset()
    metrics = iter([0.1, 0.2, 0.3])
    monkeypatch.setattr(Trainer, "_validation_metric", lambda self: next(metrics))
    trainer = Trainer(ds, toy_config(epochs=3, patience=2))
    result = trainer.train()
    assert result.best_epoch == 3
    assert not result.stopped_early


def test_restores_best_parameters(monkeypatch):
    ds, _ = planted_dataset()
    seq = iter([0.9, 0.1, 0.1])
    captured = {}

    def fake_metric(self):
        v = next(seq)
        if v == 0.9:
            captured["best"] = param_bytes(self.model)
        return v

    monkeypatch.setattr(Trainer, "_validation_metric", fake_metric)
    trainer = Trainer(ds, toy_config(epochs=3, patience=5))
    result = trainer.train()
    assert result.best_epoch == 1
    assert param_bytes(trainer.model) == captured["best"]


def test_numpy_float_config_trains_as_its_checkpoint_round_trip():
    # a float32 weight was once kept, and trained with, as float32, while its round trip through
    # the checkpoint's JSON gave a Python float: the configs compared equal but trained apart
    ds, _ = generate_synthetic(120, 90, 20, 3, 0.1, 1)
    ds.user_items = split_holdout(ds.user_items, seed=1)
    ds.group_items = split_holdout(ds.group_items, seed=2)
    cfg = TrainConfig(embed_dim=8, epochs=2, user_task_weight=np.float32(0.9))
    back = TrainConfig.from_dict(cfg.as_dict())
    assert back == cfg
    totals = [[row["total"] for row in Trainer(ds, c).train().history] for c in (cfg, back)]
    assert totals[0] == totals[1]


def test_variant_no_reg_logs_zero_regularizer():
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(variant="no_interest_reg", epochs=2))
    result = trainer.train()
    assert all(row["reg_interest"] == 0.0 for row in result.history)


def test_pure_user_task_skips_group_loss():
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(user_task_weight=1.0, epochs=2))
    result = trainer.train()
    assert all(row["l_group"] == 0.0 for row in result.history)


def test_nan_abort_carries_diagnostics():
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(epochs=2))
    trainer.model.user_emb.data[:] = 1e200
    trainer.model.item_emb.data[:] = 1e200
    with pytest.raises(FloatingPointError, match="non-finite"):
        trainer.train()


def test_epoch_log_csv(tmp_path):
    ds, _ = planted_dataset()
    cfg = toy_config(epochs=2)
    path = tmp_path / "train_log.csv"
    result = Trainer(ds, cfg).train(log_path=path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    # the columns perfbench/run.py's read_log reads by name
    header = ["epoch", "l_bpr", "l_group", "reg_interest", "reg_params", "total", "val_metric", "seconds"]
    assert rows[0] == header == list(LOG_COLUMNS)
    assert len(rows) == 3 and len(result.history) == 2
    for row, hist in zip(rows[1:], result.history):
        assert list(hist) == header
        assert row == ["" if value is None else str(value) for value in hist.values()]
        weighted = (
            cfg.user_task_weight * hist["l_bpr"]
            + (1.0 - cfg.user_task_weight) * hist["l_group"]
            + cfg.interest_reg_weight * hist["reg_interest"]
            + cfg.weight_decay * hist["reg_params"]
        )
        assert hist["total"] == pytest.approx(weighted, rel=1e-9)
        assert min(hist["l_bpr"], hist["l_group"], hist["reg_interest"], hist["reg_params"]) > 0.0


def test_single_epoch_completes():
    ds, _ = planted_dataset()
    result = Trainer(ds, toy_config(epochs=1)).train()
    assert result.epochs_run == 1


def test_checkpoint_rebuild_reproduces_scores(tmp_path):
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(epochs=2))
    trainer.train()
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, trainer.cfg.as_dict(), trainer.model.named_params_data())
    cfg_dict, arrays, _ = load_checkpoint(path)
    model = build_model_from_arrays(ds, TrainConfig.from_dict(cfg_dict), arrays)
    np.testing.assert_array_equal(
        ref.whole(model.row_scores("user")), ref.whole(trainer.model.row_scores("user"))
    )


def test_checkpoint_rebuild_rejects_mismatch(tmp_path):
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(epochs=1))
    trainer.train()
    arrays = trainer.model.named_params_data()
    bad = [(n, a[:-1] if n == "user_emb" else a) for n, a in arrays]
    with pytest.raises(ValueError, match="shape"):
        build_model_from_arrays(ds, trainer.cfg, bad)
    with pytest.raises(ValueError, match="missing"):
        build_model_from_arrays(ds, trainer.cfg, arrays[1:])


def test_checkpoint_rebuild_rejects_a_table_for_another_user_count():
    # the free interest table has no size check of its own: the rebuild is its guard
    ds, _ = planted_dataset()
    cfg = toy_config(interest_mode="table")
    arrays = Trainer(ds, cfg).model.named_params_data()
    bad = [(n, a[:-1] if n == "interest_table" else a) for n, a in arrays]
    with pytest.raises(ValueError, match="'interest_table' has shape"):
        build_model_from_arrays(ds, cfg, bad)


def test_checkpoint_in_the_per_interest_layout_is_rejected(tmp_path):
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(epochs=1))
    old = []
    for name, arr in trainer.model.named_params_data():
        if name.startswith("gate_"):
            role = name.split("_")[1]  # gate_w -> gate_0_w, gate_1_w, ...
            old.extend((f"gate_{n}_{role}", arr[n]) for n in range(len(arr)))
        else:
            old.append((name, arr))
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, trainer.cfg.as_dict(), old)
    cfg_dict, arrays, _ = load_checkpoint(path)
    with pytest.raises(ValueError, match="missing tensor 'gate_w'"):
        build_model_from_arrays(ds, TrainConfig.from_dict(cfg_dict), arrays)


# --- the malloc setting of Trainer.train ----------------------------------


class StubMallopt:
    """Stands in for libc's mallopt: records calls, returns a fixed status."""

    def __init__(self, status):
        self.status = status
        self.calls = []
        self.argtypes = self.restype = None

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.status


@pytest.fixture
def fresh_malloc_state(monkeypatch):
    """Pretend Trainer.train has not yet run in this process, on glibc."""
    monkeypatch.setattr(trainer_mod, "_heap_kept", None)
    monkeypatch.setattr(trainer_mod.platform, "libc_ver", lambda: ("glibc", "2.35"))


def stub_libc(monkeypatch, mallopt):
    monkeypatch.setattr(trainer_mod, "_load_libc", lambda: types.SimpleNamespace(mallopt=mallopt))


def trained_ckpt_bytes(tmp_path, name):
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(epochs=2))
    trainer.train()
    path = tmp_path / name
    save_checkpoint(path, trainer.cfg.as_dict(), trainer.model.named_params_data())
    return path.read_bytes()


def test_malloc_thresholds_set_once_per_process(monkeypatch, fresh_malloc_state, tmp_path):
    mallopt = StubMallopt(1)
    stub_libc(monkeypatch, mallopt)
    trained_ckpt_bytes(tmp_path, "a.ckpt")
    trained_ckpt_bytes(tmp_path, "b.ckpt")
    assert mallopt.calls == [
        (trainer_mod.M_MMAP_THRESHOLD, 1 << 30),
        (trainer_mod.M_TRIM_THRESHOLD, 2**31 - 1),
        (trainer_mod.M_ARENA_MAX, 1),
    ]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert trainer_mod.heap_kept()


def failing_loader():
    raise OSError("no libc here")


@pytest.mark.parametrize("failure", ["rejected", "unloadable", "not_glibc"])
def test_malloc_setting_failure_logs_once_and_trains_the_same(
    monkeypatch, fresh_malloc_state, tmp_path, caplog, failure
):
    monkeypatch.setattr(trainer_mod, "_heap_kept", True)  # the unpatched run skips the setting
    want = trained_ckpt_bytes(tmp_path, "plain.ckpt")
    monkeypatch.setattr(trainer_mod, "_heap_kept", None)
    if failure == "rejected":
        stub_libc(monkeypatch, StubMallopt(0))
    elif failure == "unloadable":
        monkeypatch.setattr(trainer_mod, "_load_libc", failing_loader)
    else:
        monkeypatch.setattr(trainer_mod.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(trainer_mod, "_load_libc", failing_loader)  # must not be reached
    with caplog.at_level(logging.DEBUG, logger=trainer_mod.__name__):
        first = trained_ckpt_bytes(tmp_path, "first.ckpt")
        second = trained_ckpt_bytes(tmp_path, "second.ckpt")
    debug = [r for r in caplog.records if r.name == trainer_mod.__name__ and r.levelno == logging.DEBUG]
    assert len(debug) == 1
    assert ("not glibc" in debug[0].getMessage()) is (failure == "not_glibc")
    assert first == want and second == want
    assert not trainer_mod.heap_kept()
