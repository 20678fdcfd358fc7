"""End-to-end command tests driven through the argparse entry point."""

import csv
import dataclasses
import itertools
import json
import logging
import pathlib
import platform
import re
import shutil

import numpy as np
import pytest

from grouprec import cli
from grouprec.autodiff import channel_cosines
from grouprec.cli import main
from grouprec.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from grouprec.config import COUNTS, REALS, VARIANT_LETTERS, VARIANTS, TrainConfig, resolve_variant
from grouprec.datasets import TRAIN, VALID, TEST, load_dataset, load_prepared
from grouprec.evaluate import evaluate_ranking
from grouprec.lanes import usable_cpus
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


def toy_config(**changes):
    """The config that the TOY flags set, with changes."""
    pairs = (flag.split("=") for flag in TOY[1::2])
    return TrainConfig.from_dict({key: json.loads(value) for key, value in pairs}).replace(**changes)


def counting_trainers(monkeypatch, key):
    """Patches cli.Trainer to file key(cfg) of each Trainer built, in build order; returns that list."""
    built = []

    def counting_trainer(ds, cfg):
        built.append(key(cfg))
        return Trainer(ds, cfg)

    monkeypatch.setattr(cli, "Trainer", counting_trainer)
    return built


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


def world_without_groups(world, path):
    """A copy of world at path with no group-item edges and no splits."""
    shutil.copytree(world, path)
    for name in ("groups_items.tsv", "splits_user.tsv", "splits_group.tsv"):
        (path / name).unlink(missing_ok=True)
    return path


def test_prepare_synthesizes_when_group_edges_absent(world, tmp_path):
    src = world_without_groups(world, tmp_path / "nogroups")
    assert run(["prepare", "--data", src, "--synthesize-groups", "--cap", 5, "--seed", 2]) == 0
    ds = load_prepared(str(src))
    assert len(ds.group_items) > 0
    per_group = np.bincount(ds.group_items.anchors, minlength=ds.n_groups)
    assert per_group.max() <= 5


@pytest.mark.parametrize("cap", [0, -3])
def test_prepare_refuses_a_cap_below_one_before_writing(world, tmp_path, capsys, cap):
    src = world_without_groups(world, tmp_path / "nogroups")
    before = {p.name: p.read_bytes() for p in src.iterdir()}
    assert run(["prepare", "--data", src, "--synthesize-groups", "--cap", cap, "--seed", 2]) == 2
    assert stderr_payload(capsys)["message"] == f"cap must be at least 1, got {cap}"
    assert {p.name: p.read_bytes() for p in src.iterdir()} == before
    out = tmp_path / "out"
    assert run(["prepare", "--data", src, "--out", out, "--synthesize-groups", "--cap", cap]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_prepare_with_a_cap_of_one_keeps_one_item_per_group(world, tmp_path):
    src = world_without_groups(world, tmp_path / "nogroups")
    assert run(["prepare", "--data", src, "--synthesize-groups", "--cap", 1, "--seed", 2]) == 0
    ds = load_prepared(str(src))
    assert len(ds.group_items) > 0
    assert np.bincount(ds.group_items.anchors, minlength=ds.n_groups).max() == 1


def test_prepare_refuses_a_cap_without_synthesis_before_writing(world, tmp_path, capsys):
    before = {p.name: p.read_bytes() for p in world.iterdir()}
    for flags in (["--cap", 0], ["--cap", 5, "--out", tmp_path / "out"]):
        assert run(["prepare", "--data", world, *flags, "--seed", 2]) == 2
        assert stderr_payload(capsys)["message"] == "--cap applies only with --synthesize-groups"
    assert {p.name: p.read_bytes() for p in world.iterdir()} == before
    assert not (tmp_path / "out").exists()


def test_prepare_manifest_records_the_cap_that_applied(world, tmp_path):
    src = world_without_groups(world, tmp_path / "nogroups")
    cases = {"plain": ([], world, None), "default": (["--synthesize-groups"], src, 30),
             "given": (["--synthesize-groups", "--cap", 5], src, 5)}
    for name, (flags, data, cap) in cases.items():
        out = tmp_path / name
        assert run(["prepare", "--data", data, "--out", out, *flags, "--seed", 2]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["config"] == {"cap": cap}


def test_prepare_counts_other_spellings_of_the_source_as_in_place(world, tmp_path, capsys, monkeypatch):
    src = shutil.copytree(world, tmp_path / "w")
    (tmp_path / "link").symlink_to(src)
    before = {p.name: p.read_bytes() for p in src.iterdir()}
    for out in (f"{src}/", tmp_path / "w" / ".." / "w", tmp_path / "link"):
        assert run(["prepare", "--data", src, "--out", out, "--subsample", 0.5, "--seed", 1]) == 2
        assert stderr_payload(capsys)["message"] == "--subsample would clobber the source; pass --out"
    assert {p.name: p.read_bytes() for p in src.iterdir()} == before
    # without --subsample, in place writes the splits and leaves the raw files alone
    saved = []
    monkeypatch.setattr(cli, "save_dataset", lambda ds, out: saved.append(out))
    assert run(["prepare", "--data", src, "--out", f"{src}/", "--seed", 1]) == 0
    assert saved == []
    assert load_prepared(str(src)).fingerprint() == load_prepared(str(world)).fingerprint()


def test_eval_on_an_empty_catalogue_reports_no_anchors(tmp_path, capsys):
    data = tmp_path / "empty"
    data.mkdir()
    (data / "meta.json").write_text('{"n_users": 2, "n_items": 0, "n_groups": 1}')
    (data / "users.tsv").write_text("")
    (data / "group_members.txt").write_text("0 0,1\n")
    assert run(["prepare", "--data", data, "--seed", 1]) == 0
    capsys.readouterr()
    assert run(["eval", "--data", data, "--out", tmp_path / "ev", "--baseline", "popularity"]) == 2
    assert stderr_payload(capsys)["message"] == "no user anchors with test edges"


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


@pytest.mark.parametrize("text, shown", [
    ('{"lr": 0.01,\n}', "not valid JSON: Expecting property name enclosed in double quotes"),  # named no file
    ("null", "expected a JSON object, got NoneType"),  # a TypeError: 'NoneType' object is not iterable
    ('"abc"', "expected a JSON object, got str"),  # unknown config keys: ['a', 'b', 'c']
    ('[["lr", 0.01]]', "expected a JSON object, got list"),  # a TypeError: unhashable type: 'list'
], ids=["malformed", "null", "string", "list"])
def test_a_bad_config_file_is_named(tmp_path, capsys, text, shown):
    config = tmp_path / "bad.json"
    config.write_text(text)
    rc = run(["train", "--data", tmp_path / "missing", "--out", tmp_path / "x", "--config", config])
    assert rc == 2
    assert stderr_payload(capsys)["message"].startswith(f"{config}: {shown}")


@pytest.mark.parametrize("value", [None, "abc", [["lr", 0.01]]])
def test_config_from_dict_refuses_what_is_not_a_mapping(value):
    with pytest.raises(ValueError, match="a config maps keys to values"):
        TrainConfig.from_dict(value)


def test_a_bad_grid_file_is_named(tmp_path, capsys, no_work):
    grid = tmp_path / "grid.json"
    grid.write_text('{"lr": [0.01]\n')
    out = tmp_path / "sw"
    assert run(["sweep", "--data", tmp_path / "missing", "--out", out, "--grid", grid]) == 2
    assert stderr_payload(capsys)["message"].startswith(f"{grid}: not valid JSON: ")
    assert not out.exists()


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
    full, _ = model.interests(np.arange(model.dataset.n_users))
    sim = np.abs(channel_cosines(full.data)[0]).mean(axis=0)
    np.fill_diagonal(sim, 1.0)
    want = [[f"{v:.6f}" for v in row] for row in sim]
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


@pytest.fixture
def no_work(monkeypatch):
    """Makes loading prepared data or building a Trainer fail the command with a message naming it."""

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} before the arguments were checked")
        return call

    monkeypatch.setattr(cli, "load_prepared", refuse("data loaded"))
    monkeypatch.setattr(cli, "Trainer", refuse("Trainer built"))


@pytest.mark.parametrize("flags, message", [
    (["--baseline", "popularity", "--k", "5,x"], "bad cutoff list '5,x'"),
    (["--baseline", "popularity", "--k", "0"], "bad cutoff list '0'"),
    (["--k", "5"], "pass either --checkpoint paths or --baseline, not both or neither"),
    (["--baseline", "popularity", "--k", "5,5"], "bad cutoff list '5,5'"),
    (["--baseline", "popularity", "--k", "5,2.5"], "bad cutoff list '5,2.5'"),
])
def test_eval_checks_its_arguments_before_loading_data(world, tmp_path, capsys, no_work, flags, message):
    out = tmp_path / "ev"
    assert run(["eval", "--data", world, "--out", out, *flags]) == 2
    assert stderr_payload(capsys)["message"] == message
    assert not out.exists()


def test_eval_task_must_be_a_task_or_both(world, tmp_path, capsys, no_work):
    out = tmp_path / "ev"
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--data", world, "--out", out, "--baseline", "popularity", "--task", "items"])
    assert exc.value.code == 2
    assert "--task" in capsys.readouterr().err
    assert not out.exists()


def test_eval_refuses_a_checkpoint_trained_on_other_data(world, run_dir, tmp_path, capsys):
    # re-splitting with another seed may turn the checkpoint's training edges into test edges
    other = tmp_path / "world"
    shutil.copytree(world, other)
    assert run(["prepare", "--data", other, "--seed", 5]) == 0
    ckpt = run_dir / "best.ckpt"
    trained_on, now = load_checkpoint(ckpt)[2]["dataset_fingerprint"], load_prepared(other).fingerprint()
    assert trained_on == load_prepared(world).fingerprint() != now
    out = tmp_path / "ev"
    assert run(["eval", "--data", other, "--out", out, "--checkpoint", ckpt]) == 2
    assert stderr_payload(capsys)["message"] == f"{ckpt}: trained on data with fingerprint {trained_on}, not {now}"
    assert not out.exists()


@pytest.mark.parametrize("config", ["mf.json", "lightgcn.json"])
def test_eval_of_both_tasks_refuses_a_checkpoint_trained_without_groups(world, tmp_path, capsys, config):
    trained = tmp_path / "run"
    assert run(["train", "--data", world, "--out", trained, "--config", CONFIGS / config, "--seed", 3, *TOY]) == 0
    ckpt = trained / "best.ckpt"
    out = tmp_path / "ev"
    assert run(["eval", "--data", world, "--out", out, "--checkpoint", ckpt]) == 2
    assert stderr_payload(capsys)["message"] == (
        f"{ckpt}: trained with groups disabled, so it scores no groups; pass --task user")
    assert not out.exists()
    assert run(["eval", "--data", world, "--out", out, "--checkpoint", ckpt, "--task", "user"]) == 0


def test_eval_refuses_a_checkpoint_whose_meta_is_not_an_object(world, run_dir, tmp_path, capsys):
    # save_checkpoint refuses such a meta, so the file is written by hand: the header
    # of a good checkpoint with its meta wrapped in a list, then the same payload
    data = (run_dir / "best.ckpt").read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC) : start], "big")
    header = json.loads(data[start:end])
    meta = header["meta"]
    blob = json.dumps({**header, "meta": [meta]}, sort_keys=True).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + len(blob).to_bytes(8, "big") + blob + data[end:])
    out = tmp_path / "ev"
    assert run(["eval", "--data", world, "--out", out, "--checkpoint", bad]) == 2
    assert stderr_payload(capsys)["message"] == f"{bad}: header's meta must be a JSON object, got {[meta]!r}"
    assert not out.exists()


def test_eval_multiple_checkpoints_one_row_per_seed(world, run_dir, tmp_path):
    other = tmp_path / "other"
    assert run(["train", "--data", world, "--out", other, "--seed", 4, *TOY]) == 0
    out = tmp_path / "ev2"
    assert run(["eval", "--data", world, "--out", out, "--task", "user",
                "--checkpoint", run_dir / "best.ckpt", other / "best.ckpt"]) == 0
    with open(out / "metrics.csv") as f:
        seeds = {row["seed"] for row in csv.DictReader(f)}
    assert seeds == {"3", "4"}


def test_eval_refuses_checkpoints_of_other_models_or_a_repeated_seed(world, run_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert run(["train", "--data", world, "--out", other, "--seed", 3, *TOY,
                "--set", "variant=B", "--set", "n_interests=2"]) == 0
    first, second = run_dir / "best.ckpt", other / "best.ckpt"
    out = tmp_path / "ev"
    assert run(["eval", "--data", world, "--out", out, "--task", "user", "--checkpoint", first, second]) == 2
    # the first key, in config order, in which the two differ (variant differs too)
    assert stderr_payload(capsys)["message"] == (
        f"{first} and {second} hold different models: 'n_interests' is 4 and 2; "
        "evaluate each model's seeds on their own"
    )
    assert run(["eval", "--data", world, "--out", out, "--task", "user", "--checkpoint", first, first]) == 2
    assert stderr_payload(capsys)["message"] == (
        f"{first} and {first} both hold seed 3; each seed may be evaluated once"
    )
    assert not out.exists()


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


def test_sweep_trains_each_point_and_seed_once_point_major(world, tmp_path, monkeypatch):
    built = counting_trainers(monkeypatch, lambda cfg: (cfg.n_interests, cfg.temperature, cfg.seed))
    grid = tmp_path / "grid.json"
    grid.write_text('{"temperature": [0.3, 0.5], "n_interests": [2, 3]}')
    assert run(["sweep", "--data", world, "--out", tmp_path / "sw", "--grid", grid,
                "--seeds", 2, "--seed", 0, *TOY]) == 0
    # axes in sorted order, the last varying fastest, and every seed of a point before the next point
    assert built == [(n, t, seed) for n, t in itertools.product([2, 3], [0.3, 0.5]) for seed in (0, 1)]


def test_sweep_rows_and_sensitivity_follow_independent_runs(world, tmp_path):
    # variant A has no interests to regularize, so its two weights train alike and tie
    grid = tmp_path / "grid.json"
    grid.write_text('{"variant": ["A", "Full"], "interest_reg_weight": [0.0, 1.0]}')
    out = tmp_path / "sw"
    assert run(["sweep", "--data", world, "--out", out, "--grid", grid, "--seeds", 2, "--seed", 0, *TOY]) == 0

    ds = load_prepared(world)
    in_grid_order = []
    for weight, variant in itertools.product([0.0, 1.0], ["A", "Full"]):
        vals = [
            Trainer(ds, toy_config(interest_reg_weight=weight, variant=resolve_variant(variant), seed=seed))
            .train().best_metric
            for seed in (0, 1)
        ]
        in_grid_order.append(((str(weight), variant), np.mean(vals), np.std(vals)))
    means = [mean for _point, mean, _std in in_grid_order]
    assert means[0] == means[2] and len(set(means)) == 3

    with open(out / "sweep.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["interest_reg_weight", "variant", "val_ndcg10_mean", "val_ndcg10_std"]
    # mean descending, ties in grid order
    assert rows[1:] == [
        [*point, f"{mean:.6f}", f"{std:.6f}"]
        for point, mean, std in sorted(in_grid_order, key=lambda t: -t[1])
    ]
    with open(out / "sensitivity_interest_reg_weight.csv") as f:
        assert list(csv.reader(f)) == [["interest_reg_weight", "val_ndcg10"]] + [
            [w, f"{max(mean for (pw, _v), mean, _std in in_grid_order if pw == w):.6f}"] for w in ("0.0", "1.0")
        ]
    assert not (out / "sensitivity_variant.csv").exists()


def test_sweep_manifest_reruns_the_sweep_after_the_grid_file_changes(world, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text('{"n_interests": [2, 3], "temperature": [0.3, 0.5]}')
    out = tmp_path / "sw"
    assert run(["sweep", "--data", world, "--out", out, "--grid", grid, "--budget", 3,
                "--seeds", 2, "--seed", 0, *TOY]) == 0
    grid.write_text('{"n_interests": [4]}')

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["grid"] == {"n_interests": [2, 3], "temperature": [0.3, 0.5]}
    assert manifest["budget"] == 3
    config, again_grid, again = tmp_path / "config.json", tmp_path / "again.json", tmp_path / "again"
    config.write_text(json.dumps(manifest["config"]))
    again_grid.write_text(json.dumps(manifest["grid"]))
    assert run(["sweep", "--data", world, "--out", again, "--grid", again_grid, "--config", config,
                "--budget", manifest["budget"], "--seeds", len(manifest["seeds"])]) == 0
    for name in ("sweep.csv", "sensitivity_n_interests.csv", "sensitivity_temperature.csv"):
        assert (again / name).read_bytes() == (out / name).read_bytes()
    with open(again / "sweep.csv") as f:
        assert len(list(csv.DictReader(f))) == 3


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


@pytest.mark.parametrize("grid_text, message", [
    # trained every point with seed 0, writing identical sweep.csv rows and "seeds": [0]
    ('{"seed": [1, 2, 3]}', "grid key 'seed' is not swept: set the first seed with --seed, the count with --seeds"),
    # trained the lr=0.01 point, then failed and left an empty --out
    ('{"lr": [0.01, -1]}', "invalid config: lr must be >= 0"),
    ('{"n_interests": [2, 3], "interest_mode": ["gate", "fc3"]}', "invalid config: interest_mode must be one of"),
    ('{"n_interests": [2], "pooling": ["max"]}', "unknown config keys: ['pooling']"),
    # each trained its point twice and wrote its sweep.csv row twice
    ('{"temperature": [0.5, 0.5]}', "grid key 'temperature' takes values that give distinct configs, got [0.5, 0.5]"),
    ('{"n_layers": [1], "lr": [1, 1.0]}', "grid key 'lr' takes values that give distinct configs, got [1, 1.0]"),
    ('{"variant": ["Full", "full"]}', "grid key 'variant' takes values that give distinct configs"),
])
def test_sweep_checks_every_grid_value_before_work(world, tmp_path, capsys, no_work, grid_text, message):
    grid = tmp_path / "grid.json"
    grid.write_text(grid_text)
    out = tmp_path / "sw"
    assert run(["sweep", "--data", world, "--out", out, "--grid", grid]) == 2
    assert stderr_payload(capsys)["message"].startswith(message)
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
        every_user = None if model.generator is None else model.interests(np.arange(ds.n_users))
        full_state = model.forward(interests=every_user)
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


def test_every_number_field_is_type_checked():
    # COUNTS and REALS come from the annotations, so a new int or float field is checked too
    kinds = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    assert COUNTS == tuple(name for name, kind in kinds.items() if kind is int)
    assert REALS == tuple(name for name, kind in kinds.items() if kind is float)
    assert {"embed_dim", "seed", "eval_every"} <= set(COUNTS) and {"lr", "temperature"} <= set(REALS)
    assert set(kinds) - set(COUNTS) - set(REALS) == {"variant", "interest_mode", "use_groups", "select_task"}


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


def test_config_is_frozen_hashable_and_checked_on_replace():
    cfg = TrainConfig(lr=np.float32(0.25), seed=np.int64(3))
    assert type(cfg.lr) is float and type(cfg.seed) is int
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lr = 0.1
    assert not hasattr(cfg, "validate")
    same = TrainConfig.from_dict({"lr": 0.25, "seed": 3})
    assert cfg == same and hash(cfg) == hash(same) and len({cfg, same}) == 1
    assert cfg.replace(seed=4) != cfg
    with pytest.raises(ValueError, match="invalid config: lr must be >= 0"):
        cfg.replace(lr=-1.0)


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


@pytest.mark.parametrize("setting, message", [
    # trained a whole epoch, then failed at validation: "group scoring requested with groups disabled"
    (("select_task", "group"), "invalid config: select_task 'group' needs use_groups"),
    # weighted the only loss term by 0: a run's parameters moved by weight decay alone
    (("user_task_weight", 0.0), "invalid config: user_task_weight must be > 0 without use_groups"),
])
def test_configs_without_groups_that_cannot_train_are_refused_before_work(world, tmp_path, capsys, no_work,
                                                                           setting, message):
    key, value = setting
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(use_groups=False, **{key: value})
    assert getattr(TrainConfig(use_groups=True, **{key: value}), key) == value  # with groups, both train
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"use_groups": [True, False], key: [value]}))
    flags = ["--set", "use_groups=false", "--set", f"{key}={value}"]
    for argv in (["sweep", "--grid", grid], ["ablate", *flags], ["train", *flags]):
        out = tmp_path / argv[0]
        assert run([*argv, "--data", world, "--out", out]) == 2
        assert stderr_payload(capsys)["message"].startswith(message)
        assert not out.exists()


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


@pytest.mark.parametrize("flags, message", [
    # trained Full and A and wrote ablation.csv and ablation_summary.csv before failing
    (["--variants", "Full,A", "--interest-modes", "gate,fc3"], "invalid config: interest_mode must be one of"),
    (["--variants", "Full,Z"], "unknown variant 'Z'"),
    (["--k", "5,0"], "bad cutoff list '5,0'"),
    (["--k", "5,5"], "bad cutoff list '5,5'"),  # would write recall@5 and ndcg@5 twice into each header
    (["--k", "5,x"], "bad cutoff list '5,x'"),
    # each wrote its repeated rows twice into the ablation CSVs
    (["--variants", "Full,full,A"], "--variants takes one or more distinct names, got ['full', 'full', 'mean_"),
    (["--variants", "Full", "--interest-modes", "gate,fc1,gate"],
     "--interest-modes takes one or more distinct names, got ['gate', 'fc1', 'gate']"),
    (["--variants", ","], "--variants takes one or more distinct names, got []"),
])
def test_ablate_checks_its_arguments_before_work(world, tmp_path, capsys, no_work, flags, message):
    out = tmp_path / "abl"
    assert run(["ablate", "--data", world, "--out", out, *flags]) == 2
    assert stderr_payload(capsys)["message"].startswith(message)
    assert not out.exists()


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


def config_and_metric(trainer, result):
    return trainer.cfg, result.best_metric


def test_train_each_trains_each_distinct_config_once_in_first_seen_order(world, monkeypatch):
    built = counting_trainers(monkeypatch, lambda cfg: cfg)
    ds = load_prepared(world)
    a, b, c = toy_config(seed=1), toy_config(seed=0), toy_config(variant="mean_members", seed=1)
    got = cli.train_each(ds, [a, b, a, c, b, a], config_and_metric)
    assert built == [a, b, c]
    assert [cfg for cfg, _metric in got] == [a, b, a, c, b, a]
    assert got[0] is got[2] is got[5] and got[1] is got[4]
    assert [metric for _cfg, metric in got[:2]] == [Trainer(ds, cfg).train().best_metric for cfg in (a, b)]
    assert cli.train_each(ds, [], config_and_metric) == []
    assert len(built) == 3


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


def test_manifest_records_the_usable_cpus(run_dir, world, tmp_path, lanes):
    # a run's timings depend on whether it had a helper lane, so the manifest says how many CPUs it could use
    env = json.loads((run_dir / "run_manifest.json").read_text())["environment"]
    assert env["usable_cpus"] == usable_cpus() >= 1
    for cpus in (1, 2):
        lanes(cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run(["prepare", "--data", world, "--out", out, "--seed", 1]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["environment"]["usable_cpus"] == cpus


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "grouprec" in capsys.readouterr().out
