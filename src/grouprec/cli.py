"""Batch command-line surface: prepare, train, eval, sweep, ablate, synth.

Every command writes a run_manifest.json into its output directory with the
resolved configuration, dataset fingerprint and seeds (a sweep's also holds
its grid and budget), which is enough to re-run it identically, plus the
library versions, the BLAS thread variables, whether the malloc setting of
Trainer.train took effect and the CPUs the process may use (a second one
gives the row-block ops, propagation and evaluation their helper lane).
Errors leave a machine-readable JSON line on stderr and a nonzero exit code.
Log verbosity comes from the GROUPREC_LOG environment variable
(DEBUG/INFO/WARNING/ERROR).
"""

import argparse
import dataclasses
import functools
import itertools
import json
import logging
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__, lanes
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TASKS, VARIANT_LETTERS, TrainConfig, resolve_variant
from .datasets import (
    GROUP_EDGES_FILE,
    GROUP_ITEM_CAP,
    GROUP_SPLITS_FILE,
    USER_SPLITS_FILE,
    load_dataset,
    load_prepared,
    save_dataset,
    split_holdout,
    subsample,
    synthesize_group_items,
    write_edges,
    write_splits,
)
from .evaluate import _cutoffs, evaluate_popularity, evaluate_ranking
from .gating import param_count
from .reporting import export_report, metric_rows, write_csv
from .synthetic import generate_synthetic
from .trainer import Trainer, build_model_from_arrays, heap_kept

log = logging.getLogger(__name__)


def write_manifest(out_dir, command, config_dict, fingerprint, seeds, argv, **inputs):
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        **inputs,
        "command": command,
        "argv": list(argv),
        "config": config_dict,
        "dataset_fingerprint": fingerprint,
        "seeds": list(seeds),
        "out_dir": os.path.abspath(out_dir),
        "version": f"grouprec-{__version__}",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "malloc_keeps_freed_heap": heap_kept(),
            # a helper lane runs only where this is above 1, so timings depend on it
            "usable_cpus": lanes.usable_cpus(),
        },
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_config(args):
    cfg = TrainConfig.from_json(args.config) if args.config else TrainConfig()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    if args.seed is not None:
        overrides["seed"] = args.seed
    return TrainConfig.from_dict({**cfg.as_dict(), **overrides}) if overrides else cfg


def parse_ks(text):
    """Comma-separated distinct integer cutoffs of at least 1, in the order given."""
    try:
        return _cutoffs(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ValueError(f"bad cutoff list {text!r}") from None


def _distinct(flag, names):
    """names, refused if there are none or one repeats, as `--k` refuses its cutoffs."""
    if not names or len(set(names)) < len(names):
        raise ValueError(f"{flag} takes one or more distinct names, got {names}")
    return names


def cmd_prepare(args):
    if args.cap is not None and not args.synthesize_groups:
        raise ValueError("--cap applies only with --synthesize-groups")
    cap = args.cap  # the cap that applied, for the manifest
    if args.synthesize_groups and cap is None:
        cap = GROUP_ITEM_CAP
    ds = load_dataset(args.data)
    out_dir = args.out or args.data
    in_place = os.path.realpath(out_dir) == os.path.realpath(args.data)  # however either is spelled
    if args.subsample is not None:
        if in_place:
            raise ValueError("--subsample would clobber the source; pass --out")
        ds = subsample(ds, args.subsample, args.seed)
    had_group_edges = len(ds.group_items) > 0
    if args.synthesize_groups and had_group_edges:
        raise ValueError(
            "dataset already ships group-item interactions; refusing to synthesize over them"
        )

    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, args.seed))
    if args.synthesize_groups:  # from the members' train edges, so after the user split
        ds = dataclasses.replace(ds, group_items=synthesize_group_items(ds, cap=cap))
    if len(ds.group_items):
        ds = dataclasses.replace(ds, group_items=split_holdout(ds.group_items, args.seed + 1))

    if not in_place:
        save_dataset(ds, out_dir)
    elif args.synthesize_groups:
        # only the synthesized file is new; the rest is already in place
        write_edges(ds.group_items, os.path.join(out_dir, GROUP_EDGES_FILE))
    write_splits(ds.user_items, os.path.join(out_dir, USER_SPLITS_FILE))
    if len(ds.group_items):
        write_splits(ds.group_items, os.path.join(out_dir, GROUP_SPLITS_FILE))

    write_manifest(out_dir, "prepare", {"cap": cap}, ds.fingerprint(), [args.seed], args.argv_used)
    print(
        f"prepared {out_dir}: {ds.n_users} users, {ds.n_items} items, "
        f"{ds.n_groups} groups, {len(ds.user_items)} user edges, "
        f"{len(ds.group_items)} group edges"
    )
    return 0


def cmd_train(args):
    cfg = load_config(args)
    ds = load_prepared(args.data)
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    trainer = Trainer(ds, cfg)
    result = trainer.train(log_path=os.path.join(args.out, "train_log.csv"))
    wall = time.perf_counter() - t0
    ckpt_path = os.path.join(args.out, "best.ckpt")
    fingerprint = ds.fingerprint()
    # timing is deliberately absent: same-seed runs must rewrite this file byte for byte
    save_checkpoint(
        ckpt_path,
        cfg.as_dict(),
        trainer.model.named_params_data(),
        meta={
            "best_epoch": result.best_epoch,
            "best_metric": result.best_metric,
            "epochs_run": result.epochs_run,
            "stopped_early": result.stopped_early,
            "dataset_fingerprint": fingerprint,
        },
    )
    write_manifest(args.out, "train", cfg.as_dict(), fingerprint, [cfg.seed], args.argv_used)
    print(
        f"trained {result.epochs_run} epochs in {wall:.1f}s; "
        f"best val ndcg@10 {result.best_metric:.4f} at epoch {result.best_epoch}; "
        f"checkpoint {ckpt_path}"
    )
    return 0


def _test_metrics(task, evaluation):
    """The metrics of a (metrics, n) test evaluation, which must have ranked some anchor."""
    metrics, n = evaluation
    if n == 0:
        raise ValueError(f"no {task} anchors with test edges")
    return metrics


def _refuse_another_model(path, cfg, earlier):
    """Refuse the checkpoint at path unless it is the earlier checkpoints' model under a new seed.

    earlier holds the (path, TrainConfig) of each checkpoint before it, in
    order. eval reports one model's mean and spread over seeds, so a config
    may differ from the first one in its seed alone.
    """
    if not earlier:
        return
    first_path, first = earlier[0][0], earlier[0][1].as_dict()
    key = next((k for k, v in cfg.as_dict().items() if k != "seed" and v != first[k]), None)
    if key is not None:
        raise ValueError(
            f"{first_path} and {path} hold different models: {key!r} is {first[key]!r} and "
            f"{getattr(cfg, key)!r}; evaluate each model's seeds on their own"
        )
    twin = next((p for p, c in earlier if c.seed == cfg.seed), None)
    if twin is not None:
        raise ValueError(f"{twin} and {path} both hold seed {cfg.seed}; each seed may be evaluated once")


def cmd_eval(args):
    ks = parse_ks(args.k)
    tasks = TASKS if args.task == "both" else (args.task,)
    if bool(args.checkpoint) == (args.baseline is not None):
        raise ValueError("pass either --checkpoint paths or --baseline, not both or neither")
    ds = load_prepared(args.data)
    fingerprint = ds.fingerprint()

    t0 = time.perf_counter()
    rows = []
    similarity = None
    config_echo = {}
    seeds = []
    if args.baseline == "popularity":  # deterministic: one evaluation, filed as seed 0
        seeds.append(0)
        for task in tasks:
            metrics = _test_metrics(task, evaluate_popularity(ds, task, ks=ks))
            rows.extend(metric_rows(task, metrics, 0))
        config_echo = {"baseline": "popularity"}
    else:
        checked = []
        for path in args.checkpoint:
            cfg_dict, arrays, meta = load_checkpoint(path)
            trained_on = meta.get("dataset_fingerprint")
            if trained_on != fingerprint:  # its test edges may have been training edges
                raise ValueError(f"{path}: trained on data with fingerprint {trained_on}, not {fingerprint}")
            cfg = TrainConfig.from_dict(cfg_dict)
            _refuse_another_model(path, cfg, checked)
            checked.append((path, cfg))
            if "group" in tasks and not cfg.use_groups:
                raise ValueError(f"{path}: trained with groups disabled, so it scores no groups; pass --task user")
            model = build_model_from_arrays(ds, cfg, arrays)
            state = model.forward()
            seed = cfg.seed
            seeds.append(seed)
            for task in tasks:
                metrics = _test_metrics(task, evaluate_ranking(model, ds, task, ks=ks, state=state))
                rows.extend(metric_rows(task, metrics, seed))
            if similarity is None and model.generator is not None:
                similarity = model.interest_similarity()
            config_echo = cfg.as_dict()

    summary = export_report(
        rows,
        config_echo,
        os.path.basename(os.path.normpath(args.data)),
        time.perf_counter() - t0,
        args.out,
        similarity=similarity,
    )
    write_manifest(args.out, "eval", config_echo, fingerprint, seeds, args.argv_used)
    for task, metrics in sorted(summary["results"].items()):
        parts = ", ".join(
            f"{key} {val['mean']:.4f}±{val['std']:.4f}" for key, val in sorted(metrics.items())
        )
        print(f"{task}: {parts}")
    return 0


def train_each(ds, configs, measure):
    """measure(trainer, result) of each config, in input order, training each distinct config once.

    Configs train in the order first seen; measure is a module-level function or a partial of one.
    """
    measured = {}
    for cfg in configs:
        if cfg not in measured:
            trainer = Trainer(ds, cfg)
            measured[cfg] = measure(trainer, trainer.train())
    return [measured[cfg] for cfg in configs]


def best_val_metric(_trainer, result):
    return result.best_metric


def heldout_metrics(task, ks, trainer, _result):
    """The test metrics of a trained run and its interest parameter count (None without a generator)."""
    gen = trainer.model.generator
    n_params = None if gen is None else param_count(gen.named_params())
    return _test_metrics(task, evaluate_ranking(trainer.model, trainer.dataset, task, ks=ks)), n_params


SENSITIVITY_AXES = (
    "n_interests",
    "interest_reg_weight",
    "sim_threshold",
    "temperature",
    "user_task_weight",
)


def cmd_sweep(args):
    if args.budget < 1:
        raise ValueError("--budget must be >= 1")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    cfg = load_config(args)
    try:
        with open(args.grid) as f:
            grid = json.load(f)
    except ValueError as e:  # malformed JSON, or bytes that are not UTF-8
        raise ValueError(f"{args.grid}: not valid JSON: {e}") from None
    if not isinstance(grid, dict) or not grid:
        raise ValueError(f"{args.grid}: grid file must map config keys to value lists")
    if "seed" in grid:
        raise ValueError("grid key 'seed' is not swept: set the first seed with --seed, the count with --seeds")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"grid key {key!r} must map to a non-empty list, got {values!r}")
        # equal configs would train one point twice
        configs = [TrainConfig.from_dict({**cfg.as_dict(), key: value}) for value in values]
        if len(set(configs)) < len(configs):
            raise ValueError(f"grid key {key!r} takes values that give distinct configs, got {values!r}")
    axes = sorted(grid)
    points = [dict(zip(axes, v)) for v in itertools.islice(itertools.product(*(grid[a] for a in axes)), args.budget)]
    seeds = [cfg.seed + i for i in range(args.seeds)]
    # every point is checked before any work, as some checks span two keys (use_groups and select_task)
    configs = [TrainConfig.from_dict({**cfg.as_dict(), **point, "seed": seed}) for point in points for seed in seeds]
    ds = load_prepared(args.data)

    os.makedirs(args.out, exist_ok=True)
    vals = np.reshape(train_each(ds, configs, best_val_metric), (len(points), len(seeds)))
    # a stable sort: points with equal means keep their grid order
    trials = sorted(((p, float(np.mean(v)), float(np.std(v))) for p, v in zip(points, vals)), key=lambda t: -t[1])
    write_csv(
        os.path.join(args.out, "sweep.csv"),
        axes + ["val_ndcg10_mean", "val_ndcg10_std"],
        ([point[a] for a in axes] + [f"{mean:.6f}", f"{std:.6f}"] for point, mean, std in trials),
    )

    for axis in [a for a in axes if a in SENSITIVITY_AXES]:
        # trials run from the best mean down, so a value's first trial holds its best mean
        best_by_value = {point[axis]: mean for point, mean, _std in reversed(trials)}
        write_csv(
            os.path.join(args.out, f"sensitivity_{axis}.csv"),
            [axis, "val_ndcg10"],
            ([v, f"{best_by_value[v]:.6f}"] for v in sorted(best_by_value)),
        )

    write_manifest(
        args.out, "sweep", cfg.as_dict(), ds.fingerprint(), seeds, args.argv_used, grid=grid, budget=args.budget
    )
    best = trials[0]
    print(f"best point {best[0]} with val ndcg@10 {best[1]:.4f} over {len(trials)} trials")
    return 0


def cmd_ablate(args):
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    cfg = load_config(args)
    ks = parse_ks(args.k)
    variants = _distinct("--variants", [resolve_variant(v) for v in args.variants.split(",") if v])
    modes = [m.strip() for m in (args.interest_modes or "").split(",") if m.strip()]
    if args.interest_modes is not None:
        _distinct("--interest-modes", modes)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    variant_cfgs = [cfg.replace(variant=variant, seed=seed) for variant in variants for seed in seeds]
    mode_cfgs = [cfg.replace(interest_mode=mode, variant="full", seed=seed) for mode in modes for seed in seeds]
    ds = load_prepared(args.data)
    os.makedirs(args.out, exist_ok=True)
    # the gate mode's configs are the Full variant's, so those runs train once
    tested = train_each(ds, variant_cfgs + mode_cfgs, functools.partial(heldout_metrics, args.task, ks))

    metric_names = [f"{m}@{k}" for m in ("recall", "ndcg") for k in ks]
    write_csv(
        os.path.join(args.out, "ablation.csv"),
        ["variant", "letter", "seed"] + metric_names,
        (
            [c.variant, VARIANT_LETTERS[c.variant], c.seed] + [f"{metrics[name]:.6f}" for name in metric_names]
            for c, (metrics, _) in zip(variant_cfgs, tested)
        ),
    )

    anchor = "ndcg@10" if 10 in ks else metric_names[-1]
    means = {
        v: {name: float(np.mean([m[name] for m, _ in tested[i : i + args.seeds]])) for name in metric_names}
        for v, i in zip(variants, range(0, len(variant_cfgs), args.seeds))
    }
    full_mean = means.get("full", {}).get(anchor)
    write_csv(
        os.path.join(args.out, "ablation_summary.csv"),
        ["variant", "letter"] + [f"{n}_mean" for n in metric_names] + [f"rel_delta_{anchor}_pct"],
        (
            [variant, VARIANT_LETTERS[variant]]
            + [f"{means[variant][nm]:.6f}" for nm in metric_names]
            + [f"{100.0 * (means[variant][anchor] - full_mean) / full_mean:.2f}" if full_mean else ""]
            for variant in variants
        ),
    )

    if modes:
        write_csv(
            os.path.join(args.out, "interest_modes.csv"),
            ["mode", "interest_params", "seed"] + metric_names,
            (
                [c.interest_mode, n_params, c.seed] + [f"{metrics[nm]:.6f}" for nm in metric_names]
                for c, (metrics, n_params) in zip(mode_cfgs, tested[len(variant_cfgs) :])
            ),
        )

    write_manifest(args.out, "ablate", cfg.as_dict(), ds.fingerprint(), seeds, args.argv_used)
    print(f"ablation over {variants} written to {args.out}")
    return 0


def cmd_synth(args):
    ds, labels = generate_synthetic(
        args.users,
        args.items,
        args.groups,
        args.interests,
        args.noise,
        args.seed,
        edges_per_user=args.edges_per_user,
    )
    save_dataset(ds, args.out)
    with open(os.path.join(args.out, "labels.json"), "w") as f:
        json.dump(
            {
                "user_interests": [list(t) for t in labels.user_interests],
                "group_interest": labels.group_interest.tolist(),
                "item_block": labels.item_block.tolist(),
            },
            f,
        )
        f.write("\n")
    knobs = {
        "users": args.users,
        "items": args.items,
        "groups": args.groups,
        "interests": args.interests,
        "noise": args.noise,
        "edges_per_user": args.edges_per_user,
    }
    write_manifest(args.out, "synth", knobs, ds.fingerprint(), [args.seed], args.argv_used)
    print(f"synthetic world at {args.out}: {ds.n_users} users, {ds.n_items} items, {ds.n_groups} groups")
    return 0


def add_config_args(p):
    p.add_argument("--config", help="JSON config file; defaults apply when omitted")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grouprec", description="Group-aware multi-interest recommender toolkit"
    )
    parser.add_argument("--version", action="version", version=f"grouprec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="split a canonical dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", help="write prepared copy here instead of in place")
    p.add_argument("--synthesize-groups", action="store_true")
    p.add_argument("--cap", type=int, help="max synthesized items per group (with --synthesize-groups)")
    p.add_argument("--subsample", type=float, default=None, metavar="FRACTION")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank-based evaluation of checkpoints or a baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", nargs="*", default=[], help="one row per checkpoint")
    p.add_argument("--baseline", choices=["popularity"], default=None)
    p.add_argument("--task", default="both", choices=(*TASKS, "both"))
    p.add_argument("--k", default="5,10")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid search ranked by validation ndcg@10")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", required=True, help="JSON file mapping config keys to value lists")
    p.add_argument("--budget", type=int, default=10**6, help="max grid points to run")
    p.add_argument("--seeds", type=int, default=1, help="seeds per grid point")
    add_config_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="train and compare model variants")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", default="Full,A,B,C,D")
    p.add_argument("--interest-modes", default=None, help="e.g. gate,fc1,fc2,table")
    p.add_argument("--task", default="user", choices=TASKS)
    p.add_argument("--k", default="5,10")
    p.add_argument("--seeds", type=int, default=1)
    add_config_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", help="generate a planted-interest synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--items", type=int, default=120)
    p.add_argument("--groups", type=int, default=20)
    p.add_argument("--interests", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--edges-per-user", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    level = os.environ.get("GROUPREC_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    args.argv_used = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a parseable failure line, not a traceback
        log.debug("command failed", exc_info=True)
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
