"""End-to-end command tests driven through the argparse entry point."""

import csv
import dataclasses
import json
import logging
import pathlib
import platform
import re
import shutil

import numpy as np
import pytest

from grouprec import cli
from grouprec.cli import main
from grouprec.checkpoint import load_checkpoint, save_checkpoint
from grouprec.config import COUNTS, REALS, VARIANT_LETTERS, VARIANTS, TrainConfig, resolve_variant
from grouprec.datasets import TRAIN, VALID, TEST, load_dataset, load_prepared
from grouprec.evaluate import evaluate_ranking
from grouprec.losses import pairwise_abs_cosine
from grouprec.trainer import Trainer, build_model_from_arrays

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# small but structured enough that groups, splits, and both tasks all exist
TOY = [
    "--set", "epochs=2",
    "--set", "embed_dim=8",
    "--set", "batch_user=64",
    "--set", "batch_group=32",
    "--set", "n_layers=2",
    "--set", "patience=10",
]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    d = tmp_path_factory.mktemp("cliworld") / "world"
    assert run(["synth", "--out", d, "--users", 30, "--items", 24, "--groups", 6,
                "--interests", 3, "--noise", 0.1, "--seed", 7]) == 0
    assert run(["prepare", "--data", d, "--seed", 1]) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, world):
    out = tmp_path_factory.mktemp("clirun") / "run"
    assert run(["train", "--data", world, "--out", out, "--seed", 3, *TOY]) == 0
    return out


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def test_synth_writes_loadable_layout(world):
    ds = load_dataset(str(world))
    assert ds.n_users == 30 and ds.n_items == 24 and ds.n_groups == 6
    labels = json.loads((world / "labels.json").read_text())
    assert len(labels["user_interests"]) == 30
    assert len(labels["item_block"]) == 24


def test_prepare_split_proportions(world):
    ds = load_prepared(str(world))
    for anchor in range(ds.user_items.n_anchors):
        labels = ds.user_items.splits[ds.user_items.anchors == anchor]
        n = len(labels)
        if n == 0:
            continue
        expect_hold = max(1, n // 10) if n >= 3 else 0
        assert (labels == VALID).sum() == expect_hold
        assert (labels == TEST).sum() == expect_hold
        assert (labels == TRAIN).sum() == n - 2 * expect_hold


def test_prepare_same_seed_identical_split_files(world, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["prepare", "--data", world, "--out", out, "--seed", 5]) == 0
        outs.append((out / "splits_user.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_prepare_refuses_synthesis_over_existing_groups(world, tmp_path, capsys):
    out = tmp_path / "guard"
    assert run(["prepare", "--data", world, "--out", out, "--synthesize-groups"]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ValueError"
    assert "refusing" in payload["message"]


def test_prepare_synthesizes_when_group_edges_absent(world, tmp_path):
    src = tmp_path / "nogroups"
    shutil.copytree(world, src)
    for name in ("groups_items.tsv", "splits_user.tsv", "splits_group.tsv"):
        (src / name).unlink(missing_ok=True)
    assert run(["prepare", "--data", src, "--synthesize-groups", "--cap", 5, "--seed", 2]) == 0
    ds = load_prepared(str(src))
    assert len(ds.group_items) > 0
    per_group = np.bincount(ds.group_items.anchors, minlength=ds.n_groups)
    assert per_group.max() <= 5


def test_train_outputs(run_dir):
    assert (run_dir / "best.ckpt").exists()
    with open(run_dir / "train_log.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert {"epoch", "l_bpr", "l_group", "reg_interest", "reg_params", "total", "val_metric"} <= set(rows[0])


def test_train_single_epoch_single_log_row(world, tmp_path):
    out = tmp_path / "one"
    assert run(["train", "--data", world, "--out", out, "--seed", 0, *TOY, "--set", "epochs=1"]) == 0
    with open(out / "train_log.csv") as f:
        assert len(list(csv.DictReader(f))) == 1


def test_train_variant_c_logs_zero_interest_reg(world, tmp_path):
    out = tmp_path / "vc"
    assert run(["train", "--data", world, "--out", out, "--seed", 0, *TOY, "--set", "variant=C"]) == 0
    with open(out / "train_log.csv") as f:
        for row in csv.DictReader(f):
            assert float(row["reg_interest"]) == 0.0


def test_train_same_seed_byte_identical_checkpoint(world, run_dir, tmp_path):
    out = tmp_path / "again"
    assert run(["train", "--data", world, "--out", out, "--seed", 3, *TOY]) == 0
    assert (out / "best.ckpt").read_bytes() == (run_dir / "best.ckpt").read_bytes()


def test_config_validation_runs_before_data_loading(tmp_path, capsys):
    rc = run(["train", "--data", tmp_path / "missing", "--out", tmp_path / "x",
              "--set", "temperature=0"])
    assert rc == 2
    assert "temperature" in stderr_payload(capsys)["message"]


def test_infinite_config_real_fails_before_data_loading(tmp_path, capsys):
    rc = run(["train", "--data", tmp_path / "missing", "--out", tmp_path / "x",
              "--set", "lr=Infinity"])
    assert rc == 2
    assert stderr_payload(capsys)["message"] == "invalid config: lr must be finite, got inf"


def test_eval_both_tasks(world, run_dir, tmp_path):
    out = tmp_path / "ev"
    assert run(["eval", "--data", world, "--out", out,
                "--checkpoint", run_dir / "best.ckpt", "--task", "both"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["results"]) == {"user", "group"}
    assert "wall_time_s" in summary
    with open(out / "metrics.csv") as f:
        header = f.readline().strip()
    assert header == "task,metric,k,seed,value"
    # the similarity is the mean over every user's interests, not the members' alone
    cfg_dict, arrays, _ = load_checkpoint(run_dir / "best.ckpt")
    ds = load_prepared(str(world))
    model = build_model_from_arrays(ds, TrainConfig.from_dict(cfg_dict), arrays)
    full = model.forward(users=np.arange(model.dataset.n_users))
    want = [[f"{v:.6f}" for v in row] for row in pairwise_abs_cosine(full.interests)]
    with open(out / "interest_sim.csv", newline="") as f:
        assert list(csv.reader(f)) == want


def test_interest_rows_log_line_leaves_outputs_unchanged(world, run_dir, tmp_path, caplog):
    quiet, logged = tmp_path / "quiet", tmp_path / "logged"
    assert run(["eval", "--data", world, "--out", quiet,
                "--checkpoint", run_dir / "best.ckpt", "--task", "both"]) == 0
    with caplog.at_level(logging.INFO, logger="grouprec.trainer"):
        assert run(["train", "--data", world, "--out", logged / "run", "--seed", 3, *TOY]) == 0
        assert run(["eval", "--data", world, "--out", logged,
                    "--checkpoint", logged / "run" / "best.ckpt", "--task", "both"]) == 0
    lines = [r.getMessage() for r in caplog.records if "group members" in r.getMessage()]
    members = int(np.count_nonzero(np.diff(load_prepared(str(world)).group_members.tocsc().indptr)))
    assert lines == [f"interests generated for {members} group members of 30 users "
                     "plus each step's regularized batch users"]
    assert (logged / "run" / "best.ckpt").read_bytes() == (run_dir / "best.ckpt").read_bytes()
    assert (logged / "metrics.csv").read_bytes() == (quiet / "metrics.csv").read_bytes()


def test_eval_popularity_zero_std_and_reproducible(world, tmp_path):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert run(["eval", "--data", world, "--out", out,
                    "--baseline", "popularity", "--task", "both"]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]
    # the baseline is deterministic: one row per task, metric and cutoff, filed as seed 0
    with open(tmp_path / "p1" / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    assert {row["seed"] for row in rows} == {"0"}
    assert len({(row["task"], row["metric"], row["k"]) for row in rows}) == len(rows) == 8
    assert json.loads((tmp_path / "p1" / "run_manifest.json").read_text())["seeds"] == [0]
    summary = json.loads((tmp_path / "p1" / "summary.json").read_text())
    for task_metrics in summary["results"].values():
        for stats in task_metrics.values():
            assert stats["std"] == 0.0


def test_eval_has_no_seeds_flag(world, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--data", world, "--out", out, "--baseline", "popularity", "--seeds", 3])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_ambiguous_source(world, run_dir, tmp_path, capsys):
    rc = run(["eval", "--data", world, "--out", tmp_path / "bad",
              "--checkpoint", run_dir / "best.ckpt", "--baseline", "popularity"])
    assert rc == 2
    assert "either" in stderr_payload(capsys)["message"]
    assert run(["eval", "--data", world, "--out", tmp_path / "bad2"]) == 2
    capsys.readouterr()


def test_eval_multiple_checkpoints_one_row_per_seed(world, run_dir, tmp_path):
    other = tmp_path / "other"
    assert run(["train", "--data", world, "--out", other, "--seed", 4, *TOY]) == 0
    out = tmp_path / "ev2"
    assert run(["eval", "--data", world, "--out", out, "--task", "user",
                "--checkpoint", run_dir / "best.ckpt", other / "best.ckpt"]) == 0
    with open(out / "metrics.csv") as f:
        seeds = {row["seed"] for row in csv.DictReader(f)}
    assert seeds == {"3", "4"}


def test_sweep_single_point_grid(world, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text('{"n_interests": [2]}\n')
    out = tmp_path / "sw"
    assert run(["sweep", "--data", world, "--out", out, "--grid", grid, "--seed", 0, *TOY]) == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["n_interests"] == "2"
    with open(out / "sensitivity_n_interests.csv") as f:
        assert len(list(csv.DictReader(f))) == 1


def test_sweep_budget_must_be_positive(world, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"n_interests": [2]}\n')
    rc = run(["sweep", "--data", world, "--out", tmp_path / "sw2", "--grid", grid,
              "--budget", 0])
    assert rc == 2
    assert "budget" in stderr_payload(capsys)["message"]


@pytest.mark.parametrize("grid_text, shown", [
    ('{"lr": []}', "[]"),  # wrote a header-only sweep.csv, then failed with an IndexError
    ('{"lr": 0.01}', "0.01"),  # failed with a TypeError: 'float' object is not iterable
])
def test_sweep_grid_values_must_be_non_empty_lists(world, tmp_path, capsys, grid_text, shown):
    grid = tmp_path / "grid.json"
    grid.write_text(grid_text)
    out = tmp_path / "sw"
    assert run(["sweep", "--data", world, "--out", out, "--grid", grid]) == 2
    assert stderr_payload(capsys)["message"] == f"grid key 'lr' must map to a non-empty list, got {shown}"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--grid", "GRID"],
    ["ablate"],
])
def test_seeds_must_be_positive(world, tmp_path, capsys, command):
    grid = tmp_path / "grid.json"
    grid.write_text('{"n_interests": [2]}\n')
    out = tmp_path / "out"
    argv = [grid if a == "GRID" else a for a in command]
    assert run([*argv, "--data", world, "--out", out, "--seeds", 0]) == 2
    assert "--seeds" in stderr_payload(capsys)["message"]
    assert not out.exists()


def test_ablate_full_row_has_zero_delta(world, tmp_path):
    out = tmp_path / "abl"
    assert run(["ablate", "--data", world, "--out", out, "--variants", "Full,C",
                "--seed", 0, *TOY]) == 0
    with open(out / "ablation_summary.csv") as f:
        rows = {row["letter"]: row for row in csv.DictReader(f)}
    assert set(rows) == {"Full", "C"}
    assert float(rows["Full"]["rel_delta_ndcg@10_pct"]) == 0.0


@pytest.mark.parametrize("task", ["user", "group"])
def test_ablate_test_metrics_equal_the_full_table_forward(world, tmp_path, monkeypatch, task):
    # ablate ranks from the members-only forward; ranking from the forward that
    # gates every user must give the same metrics, which are the ones written
    seen = []

    def both_forwards(model, ds, which, ks=(5, 10), target=TEST, state=None):
        got = evaluate_ranking(model, ds, which, ks=ks, target=target, state=state)
        full_state = model.forward(users=np.arange(ds.n_users))
        full = evaluate_ranking(model, ds, which, ks=ks, target=target, state=full_state)
        seen.append((state, got, full))
        return got

    monkeypatch.setattr(cli, "evaluate_ranking", both_forwards)
    out = tmp_path / "abl"
    assert run(["ablate", "--data", world, "--out", out, "--variants", "Full,A,D", "--task", task,
                "--seeds", 2, "--seed", 0, *TOY]) == 0
    assert len(seen) == 6
    with open(out / "ablation.csv") as f:
        rows = list(csv.DictReader(f))
    for row, (state, got, full) in zip(rows, seen):
        assert state is None
        assert got == full and got[1] > 0
        for name, value in got[0].items():
            assert row[name] == f"{value:.6f}"


def test_variant_table_resolves_names_and_letters():
    assert VARIANTS == tuple(VARIANT_LETTERS)
    assert list(VARIANT_LETTERS.values()) == ["Full", "A", "B", "C", "D"]
    for variant, letter in VARIANT_LETTERS.items():
        for spelling in (variant, variant.upper(), f" {variant.title()}\t", letter, letter.lower(),
                         letter.upper(), f"  {letter} "):
            assert resolve_variant(spelling) == variant
        assert TrainConfig.from_dict({"variant": letter}).variant == variant
        assert TrainConfig.from_dict({"variant": f" {letter.lower()} "}).variant == variant
    for bad in ("E", "", "fulll", "mean members", "AB", "Full,A"):
        with pytest.raises(ValueError, match="unknown variant"):
            resolve_variant(bad)
    with pytest.raises(ValueError, match="variant must be one of"):
        TrainConfig.from_dict({"variant": "E"})


@pytest.mark.parametrize("name", COUNTS)
def test_config_counts_must_be_integers(name):
    for bad in (2.5, 2.0, "2", True, None):
        with pytest.raises(ValueError, match=f"invalid config: {name} must be an integer"):
            TrainConfig.from_dict({name: bad})
    with pytest.raises(ValueError, match=f"invalid config: {name} must be >= "):
        TrainConfig.from_dict({name: -1})
    assert getattr(TrainConfig.from_dict({name: np.int64(2)}), name) == 2


@pytest.mark.parametrize("name", REALS)
def test_config_reals_must_be_finite_numbers(name):
    # each used to validate, or to fail in a comparison with a TypeError
    for bad in (float("inf"), float("-inf"), "0.1", True):
        with pytest.raises(ValueError, match=f"invalid config: {name} must be"):
            TrainConfig.from_dict({name: bad})
    assert getattr(TrainConfig.from_dict({name: 1}), name) == 1  # an int is a real
    assert getattr(TrainConfig.from_dict({name: np.float64(0.5)}), name) == 0.5


@pytest.mark.parametrize("name", COUNTS)
def test_numpy_integer_config_saves_as_the_python_int_config(tmp_path, name):
    # a numpy integer validates, so the checkpoint header's JSON must take it too
    arrays = [("emb", np.arange(6.0).reshape(2, 3))]
    numpy_cfg, plain_cfg = (TrainConfig.from_dict({name: value}) for value in (np.int64(2), 2))
    save_checkpoint(tmp_path / "numpy.ckpt", numpy_cfg.as_dict(), arrays)
    save_checkpoint(tmp_path / "plain.ckpt", plain_cfg.as_dict(), arrays)
    assert (tmp_path / "numpy.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
    cfg_dict, back, _ = load_checkpoint(tmp_path / "numpy.ckpt")
    assert TrainConfig.from_dict(cfg_dict) == plain_cfg
    assert type(cfg_dict[name]) is int and back[0][1].tobytes() == arrays[0][1].tobytes()
    # a Python-valued config gives the same dict as before, so its checkpoints keep their bytes
    assert plain_cfg.as_dict() == dataclasses.asdict(plain_cfg)
    assert all(type(v) is type(getattr(plain_cfg, k)) for k, v in plain_cfg.as_dict().items())


@pytest.mark.parametrize("name", REALS)
def test_numpy_float_config_saves_as_the_python_float_config(tmp_path, name):
    # a numpy float validates as a real, so the checkpoint header's JSON must take it too
    arrays = [("emb", np.arange(6.0).reshape(2, 3))]
    plain_cfg = TrainConfig.from_dict({name: 0.25})
    save_checkpoint(tmp_path / "plain.ckpt", plain_cfg.as_dict(), arrays)
    for value in (np.float32(0.25), np.float16(0.25), np.float64(0.25)):
        save_checkpoint(tmp_path / "numpy.ckpt", TrainConfig.from_dict({name: value}).as_dict(), arrays)
        assert (tmp_path / "numpy.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
    # a value float32 cannot hold exactly comes back as that float32, widened
    save_checkpoint(tmp_path / "f32.ckpt", TrainConfig.from_dict({name: np.float32(0.01)}).as_dict(), arrays)
    cfg_dict, back, _ = load_checkpoint(tmp_path / "f32.ckpt")
    assert type(cfg_dict[name]) is float and cfg_dict[name] == float(np.float32(0.01))
    assert TrainConfig.from_dict(cfg_dict) == TrainConfig.from_dict({name: float(np.float32(0.01))})
    assert back[0][1].tobytes() == arrays[0][1].tobytes()
    assert plain_cfg.as_dict() == dataclasses.asdict(plain_cfg)


def test_config_use_groups_must_be_a_bool(world, tmp_path, capsys):
    # a truthy string used to validate and train with groups on
    for bad in ("false", "False", 0, 1, None):
        with pytest.raises(ValueError, match="invalid config: use_groups must be a bool"):
            TrainConfig.from_dict({"use_groups": bad})
    assert TrainConfig.from_dict({"use_groups": False}).use_groups is False
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"use_groups": ["false"]}))
    assert run(["sweep", "--data", world, "--out", tmp_path / "sw", "--grid", grid, "--seed", 0, *TOY]) == 2
    assert "invalid config: use_groups must be a bool" in stderr_payload(capsys)["message"]


def test_config_and_checkpoint_naming_pooling_are_rejected(world, run_dir, tmp_path, capsys):
    # user fusion has one mode, the mean over the user's groups; the old key is not read silently
    message = "unknown config keys: ['pooling']"
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig.from_dict({**TrainConfig().as_dict(), "pooling": "mean"})
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"pooling": "mean"}))
    assert run(["train", "--data", world, "--out", tmp_path / "tr", "--config", config]) == 2
    assert stderr_payload(capsys)["message"] == message
    cfg_dict, arrays, meta = load_checkpoint(run_dir / "best.ckpt")
    save_checkpoint(tmp_path / "old.ckpt", {**cfg_dict, "pooling": "mean"}, arrays, meta)
    assert run(["eval", "--data", world, "--out", tmp_path / "ev", "--checkpoint", tmp_path / "old.ckpt"]) == 2
    assert stderr_payload(capsys)["message"] == message


def test_shipped_configs_load():
    configs = sorted(CONFIGS.glob("*.json"))
    grids = [p for p in configs if p.name.startswith("sweep_")]
    assert grids and len(configs) > len(grids)
    for path in configs:
        if path in grids:
            grid = json.loads(path.read_text())
            for key, values in grid.items():
                assert isinstance(values, list) and values, (path.name, key)
                for value in values:
                    TrainConfig.from_dict({key: value})
        else:
            TrainConfig.from_json(path)


def test_ablate_letters_come_from_the_variant_table(world, tmp_path):
    out = tmp_path / "abl"
    assert run(["ablate", "--data", world, "--out", out, "--variants", " full ,a,Uniform_Mix,c , HARD_SELECT",
                "--seed", 0, *TOY]) == 0
    for name in ("ablation.csv", "ablation_summary.csv"):
        with open(out / name) as f:
            rows = list(csv.DictReader(f))
        assert [(row["variant"], row["letter"]) for row in rows] == list(VARIANT_LETTERS.items())


def test_ablate_rejects_unknown_variant(world, tmp_path, capsys):
    rc = run(["ablate", "--data", world, "--out", tmp_path / "abl2", "--variants", "Full,Z"])
    assert rc == 2
    assert "variant" in stderr_payload(capsys)["message"]


def test_ablate_interest_mode_param_counts(world, tmp_path):
    out = tmp_path / "modes"
    assert run(["ablate", "--data", world, "--out", out, "--variants", "Full",
                "--interest-modes", "gate,table", "--seed", 0, *TOY,
                "--set", "n_interests=2"]) == 0
    with open(out / "interest_modes.csv") as f:
        rows = {row["mode"]: row for row in csv.DictReader(f)}
    assert int(rows["gate"]["interest_params"]) == 2 * (8 + 1) * 8
    assert int(rows["table"]["interest_params"]) == 2 * 30 * 8


def test_ablate_trains_each_configuration_once(world, tmp_path, monkeypatch):
    built = []

    def counting_trainer(ds, cfg):
        built.append((cfg.variant, cfg.interest_mode, cfg.seed))
        return Trainer(ds, cfg)

    monkeypatch.setattr(cli, "Trainer", counting_trainer)
    out = tmp_path / "abl"
    assert run(["ablate", "--data", world, "--out", out, "--variants", "Full,A",
                "--interest-modes", "gate,fc1", "--seeds", 2, "--seed", 0, *TOY]) == 0
    # the gate mode's configuration is the Full variant's, so it reuses those runs
    assert len(built) == len(set(built)) == 6
    with open(out / "ablation.csv") as f:
        full = [row for row in csv.DictReader(f) if row["variant"] == "full"]
    with open(out / "interest_modes.csv") as f:
        gate = [row for row in csv.DictReader(f) if row["mode"] == "gate"]
    assert [row["ndcg@10"] for row in gate] == [row["ndcg@10"] for row in full]


def test_every_output_dir_gets_one_manifest(run_dir):
    manifests = list(run_dir.glob("*manifest*"))
    assert len(manifests) == 1
    payload = json.loads(manifests[0].read_text())
    assert payload["command"] == "train"
    for key in ("config", "dataset_fingerprint", "seeds", "out_dir", "version"):
        assert key in payload
    assert payload["seeds"] == [3]
    env = payload["environment"]
    assert env["numpy"] == np.__version__
    for key in ("python", "scipy"):
        assert isinstance(env[key], str) and env[key]
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert env[key] is None or isinstance(env[key], str)
    # Trainer.train sets the malloc thresholds wherever libc is glibc
    assert env["malloc_keeps_freed_heap"] is (platform.libc_ver()[0] == "glibc")


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "grouprec" in capsys.readouterr().out
