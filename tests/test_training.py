import csv
import ctypes
import dataclasses
import gc
import logging
import types
import weakref

import numpy as np
import pytest

from grouprec import autodiff as ag
from grouprec import trainer as trainer_mod
from grouprec.checkpoint import file_sha256, load_checkpoint, save_checkpoint
from grouprec.config import TrainConfig
from grouprec.datasets import split_holdout
from grouprec.synthetic import generate_synthetic
from grouprec.trainer import LOG_COLUMNS, LOSS_TERMS, Trainer, build_model_from_arrays

import reference as ref


def planted_dataset(seed=0):
    ds, labels = generate_synthetic(30, 40, 8, m_true=2, noise=0.1, seed=seed)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=seed),
                             group_items=split_holdout(ds.group_items, seed=seed + 1))
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
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=1),
                             group_items=split_holdout(ds.group_items, seed=2))
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


def test_a_non_finite_step_raises_before_anything_is_updated(adams):
    ds, _ = planted_dataset()
    trainer = Trainer(ds, toy_config(epochs=2))
    trainer.model.user_emb.data[:] = 1e200
    trainer.model.item_emb.data[:] = 1e200
    before = [t.data.copy() for t in trainer.model.tensors()]
    with pytest.raises(FloatingPointError, match=r"non-finite loss: bpr=\S+ group=\S+ reg=\S+ params=\S+"):
        trainer._step()
    assert not adams and trainer.opt is None
    for tensor, want in zip(trainer.model.tensors(), before):
        assert tensor.grad is None
        np.testing.assert_array_equal(tensor.data, want)


def test_a_non_finite_gradient_raises_before_adam_moves_anything(adams, monkeypatch):
    # a finite loss whose gradient is not: the interests' row gather passes an inf back to user_emb
    trainer = Trainer(planted_dataset()[0], toy_config(epochs=2))
    trainer._step()
    opt = trainer.opt
    before = [(t.data.copy(), m.copy(), v.copy()) for t, m, v in zip(trainer.model.tensors(), opt.m, opt.v)]
    gather = ag.gather_rows

    def poisoned(x, idx):
        out = gather(x, idx)
        closure = out.slot.backward

        def backward(g, *parents):
            g = g.copy()
            g[0, 0] = np.inf
            closure(g, *parents)

        out.slot.backward = backward
        return out

    monkeypatch.setattr(ag, "gather_rows", poisoned)
    with pytest.raises(FloatingPointError, match=r"non-finite gradient of user_emb: loss=\S+"):
        trainer._step()
    assert trainer.opt is opt and opt.t == 1 and len(adams) == 1
    for tensor, m, v, (data, m_before, v_before) in zip(trainer.model.tensors(), opt.m, opt.v, before):
        assert tensor.grad is None
        np.testing.assert_array_equal(tensor.data, data)
        np.testing.assert_array_equal(m, m_before)
        np.testing.assert_array_equal(v, v_before)


def test_the_log_file_changes_neither_the_record_nor_the_parameters(tmp_path):
    ds, _ = planted_dataset()
    runs = []
    for log_path in (None, tmp_path / "train_log.csv"):
        trainer = Trainer(ds, toy_config(epochs=4, eval_every=2, patience=1))
        result = trainer.train(log_path=log_path)
        for row in result.history:
            row.pop("seconds")  # wall time, the one column two runs need not share
        runs.append((result, trainer.model.named_params_data()))
    (quiet, quiet_params), (logged, logged_params) = runs
    assert quiet == logged and len(quiet.history) == quiet.epochs_run > 0
    assert [name for name, _ in quiet_params] == [name for name, _ in logged_params]
    for (_, a), (_, b) in zip(quiet_params, logged_params):
        np.testing.assert_array_equal(a, b)


def test_epoch_log_csv(tmp_path):
    # the columns perfbench/run.py's read_log reads by name
    header = ["epoch", "l_bpr", "l_group", "reg_interest", "reg_params", "total", "val_metric", "seconds"]
    assert list(LOG_COLUMNS) == header
    ds, _ = planted_dataset()
    cases = {"default": {}, "user_only": {"user_task_weight": 1.0}, "group_only": {"user_task_weight": 0.0},
             "B": {"variant": "uniform_mix"}, "C": {"variant": "no_interest_reg"}, "no_groups": {"use_groups": False}}
    for name, kw in cases.items():
        cfg = toy_config(epochs=2, **kw)
        trainer = Trainer(ds, cfg)
        steps, step = [], trainer._step

        def recorded():
            steps.append(step())
            return steps[-1]

        trainer._step = recorded
        path = tmp_path / f"{name}.csv"
        result = trainer.train(log_path=path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == header
        assert len(rows) == 3 and len(result.history) == 2
        for row, hist in zip(rows[1:], result.history):
            assert list(hist) == header
            assert row == ["" if value is None else str(value) for value in hist.values()]

        # each step's total is the loss it backpropagated plus the decay term, with the bits of
        # the weighted sum added left to right, a term that does not apply weighted 0
        w, decay = cfg.user_task_weight, cfg.weight_decay
        r = cfg.interest_reg_weight if trainer.reg_applies else 0.0
        for l_bpr, l_group, reg_interest, reg_params, total in steps:
            assert total == w * l_bpr + (1.0 - w) * l_group + r * reg_interest + decay * reg_params, name
        # a row holds the mean of its epoch's steps; a term is positive where it applies and 0 elsewhere
        n = trainer.steps_per_epoch
        assert len(steps) == 2 * n
        group_applies = trainer.group_sampler is not None and w < 1.0
        for epoch, hist in enumerate(result.history):
            means = np.mean(steps[epoch * n:(epoch + 1) * n], axis=0)
            np.testing.assert_allclose([hist[t] for t in LOSS_TERMS], means, rtol=1e-12)
            assert hist["l_bpr"] > 0.0 and hist["reg_params"] > 0.0
            assert hist["l_group"] > 0.0 if group_applies else hist["l_group"] == 0.0
            assert hist["reg_interest"] > 0.0 if trainer.reg_applies else hist["reg_interest"] == 0.0


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


# --- the optimizer's lifetime ---------------------------------------------


@pytest.fixture
def adams(monkeypatch):
    """Every Adam the trainer makes, in order: a weak reference, and what its first step found."""
    made = []

    class Recorded(trainer_mod.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.record = types.SimpleNamespace(ref=weakref.ref(self), first_step=None)
            made.append(self.record)

        def step(self):
            if self.record.first_step is None:
                self.record.first_step = (
                    self.t,
                    all(not m.any() and not v.any() for m, v in zip(self.m, self.v)),
                    [p.data.copy() for p in self.params],
                )
            super().step()

    monkeypatch.setattr(trainer_mod, "Adam", Recorded)
    return made


def live(made):
    gc.collect()
    return [r for r in made if r.ref() is not None]


def test_a_built_trainer_holds_no_optimizer(adams):
    trainer = Trainer(planted_dataset()[0], toy_config())
    assert trainer.opt is None
    assert not adams and not live(adams)


def test_train_drops_its_optimizer_when_it_returns(adams):
    trainer = Trainer(planted_dataset()[0], toy_config(epochs=2))
    trainer.train()
    assert trainer.opt is None
    assert len(adams) == 1 and not live(adams)


def test_train_drops_its_optimizer_when_it_raises(adams):
    # the set-up of test_nan_abort_carries_diagnostics, applied once the first step has made the
    # optimizer: the second step's loss is not finite
    trainer = Trainer(planted_dataset()[0], toy_config(epochs=2))
    step = trainer._step

    def diverging():
        if trainer.opt is not None:
            trainer.model.user_emb.data[:] = 1e200
            trainer.model.item_emb.data[:] = 1e200
        return step()

    trainer._step = diverging
    with pytest.raises(FloatingPointError, match="non-finite"):
        trainer.train()
    assert trainer.opt is None
    assert len(adams) == 1 and not live(adams)


def test_a_step_on_its_own_keeps_its_optimizer(adams):
    trainer = Trainer(planted_dataset()[0], toy_config())
    trainer._step()
    opt = trainer.opt
    trainer._step()
    assert trainer.opt is opt and opt.t == 2 and len(adams) == 1


def test_a_second_train_starts_fresh_moments_from_the_kept_parameters(adams):
    trainer = Trainer(planted_dataset()[0], toy_config(epochs=2))
    trainer.train()
    kept = [t.data.copy() for t in trainer.model.tensors()]
    trainer.train()
    assert len(adams) == 2 and not live(adams)
    for record in adams:
        t, zero_moments, _ = record.first_step
        assert t == 0 and zero_moments
    for start, want in zip(adams[1].first_step[2], kept):
        np.testing.assert_array_equal(start, want)


def test_trainers_trained_twice_write_equal_checkpoints(tmp_path):
    ds, _ = planted_dataset()
    files = []
    for run in range(2):
        trainer = Trainer(ds, toy_config(epochs=2))
        trainer.train()
        trainer.train()
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, trainer.cfg.as_dict(), trainer.model.named_params_data())
        files.append(path.read_bytes())
    assert files[0] == files[1]
