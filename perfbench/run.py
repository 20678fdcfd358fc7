"""The grouprec benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload mfw_train --seed 1 --seconds 5 --trace 0

Each run generates its seeded inputs (perfbench/gen.py), sets up from the raw
four files several times (prepare, load, Trainer construction), trains a
fixed number of epochs, then repeats validation passes and test evaluations
for at least --seconds. It checks every output it can, prints a summary and,
as its last line, one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics of perfbench/layers.json (--trace 1). The full result,
with versions and the traced spans, goes to perfbench/_runs/.
"""

import os

BLAS_THREADS = 1  # fixed before numpy loads; steadier than 2 on a shared 2-core box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import csv
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

# setups: set-up repetitions (setup_s is their median); trainings: independent
# same-seed trainings whose best.ckpt must match byte for byte; steps: cap on
# steps per epoch (None keeps the full epoch of the default config).
WORKLOADS = {
    "mfw_train": dict(shape="mfw", config={}, setups=3, trainings=2, epochs=2, steps=None),
    "lightgcn_train": dict(
        shape="mfw", config={"use_groups": False, "n_layers": 3},
        setups=3, trainings=2, epochs=4, steps=None,
    ),
    "stress_setup_eval": dict(shape="stress", config={}, setups=2, trainings=2, epochs=1, steps=2),
}

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "epoch_s": "s",
    "val_eval_s": "s",
    "test_eval_s": "s",
    "peak_rss_mb": "MB",
}
MIN_EVAL_PASSES = 3


class Checks:
    """Correctness checks, each one counted; failures are printed, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", flush=True)
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)
        return ok


def import_grouprec():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "grouprec", "__init__.py")):
        sys.exit(f"perfbench: no grouprec sources under {src}; run from a full checkout")
    sys.path.insert(0, src)
    import grouprec

    if os.path.dirname(os.path.abspath(grouprec.__file__)) != os.path.join(src, "grouprec"):
        sys.exit(f"perfbench: imported grouprec from {grouprec.__file__}, not {src}")
    from grouprec import aggregation, autodiff, checkpoint, datasets, evaluate, fusion
    from grouprec import gating, graphconv, model, optim, sampling, trainer

    return {
        "aggregation": aggregation, "autodiff": autodiff, "checkpoint": checkpoint,
        "datasets": datasets, "evaluate": evaluate, "fusion": fusion, "gating": gating,
        "graphconv": graphconv, "model": model, "optim": optim, "sampling": sampling,
        "trainer": trainer, "TrainConfig": grouprec.TrainConfig,
    }


def instrument(tracer, g):
    """Wrap each public entry point where its caller looks it up."""
    ds, md, tr, ev = g["datasets"], g["model"], g["trainer"], g["evaluate"]
    w = tracer.wrap
    w(ds, "load_dataset", "datasets.load_dataset")
    w(ds, "split_holdout", "datasets.split_holdout")
    w(ds, "write_splits", "datasets.write_splits")
    w(ds, "read_splits", "datasets.read_splits")
    w(ds, "load_prepared", "datasets.load_prepared")
    w(ds.Dataset, "fingerprint", "datasets.fingerprint")
    w(ds.Dataset, "members_of", "datasets.membership_index")
    w(ds.Dataset, "groups_of", "datasets.membership_index")
    w(ds.Interactions, "sets_per_anchor", "datasets.sets_per_anchor")
    w(md, "build_norm_adjacency", "datasets.norm_adjacency")  # model.py imports it by name
    w(md.GroupRecommender, "__init__", "model.init")
    w(md.GroupRecommender, "forward", "model.forward")
    w(md.GroupRecommender, "full_scores", "evaluate.full_scores")
    w(g["gating"].SelfGatingInterests, "interests", "gating.interests")
    for name in ("attention_pool", "selection_weights", "mix_interests"):
        w(g["aggregation"], name, f"aggregation.{name}")
    w(g["fusion"], "fuse_groups", "fusion.fuse")
    w(g["fusion"], "fuse_users", "fusion.fuse")
    w(g["fusion"], "build_user_pool", "fusion.build_user_pool")
    w(g["graphconv"], "propagate", "graphconv.propagate")
    # trainer.py binds these by name at import, so its own bindings are wrapped
    w(tr, "score_pairs", "graphconv.score_pairs")
    w(tr, "bpr_loss", "losses.bpr")
    w(tr, "interest_regularizer", "losses.interest_reg")
    w(tr, "evaluate_ranking", "evaluate.evaluate_ranking")
    w(ev, "evaluate_ranking", "evaluate.evaluate_ranking")
    w(ev, "evaluate_scores", "evaluate.rank",
      info=lambda a, out: {"mb": a[0].nbytes / 1e6, "anchors": out[1]})
    w(g["autodiff"].Tape, "backward", "autodiff.backward",
      info=lambda a, out: {"nodes": len(a[0].nodes)})
    w(g["optim"].Adam, "step", "optim.adam")
    w(g["sampling"].TripleSampler, "sample", "sampling.sample")
    w(g["sampling"].TripleSampler, "__init__", "sampling.init")
    w(tr.Trainer, "__init__", "trainer.init")
    w(tr.Trainer, "_step", "trainer.step")
    w(g["checkpoint"], "save_checkpoint", "checkpoint.save",
      info=lambda a, out: {"mb": os.path.getsize(a[0]) / 1e6})
    w(g["checkpoint"], "load_checkpoint", "checkpoint.load")


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": source_digest(),
        "seed": seed,
    }


def source_digest():
    """sha256 over grouprec's sources, so a result names its code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "grouprec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def setup_once(g, data_dir, cfg, seed):
    """prepare (load, split, write splits, fingerprint), load_prepared, Trainer."""
    ds_mod = g["datasets"]
    raw = ds_mod.load_dataset(data_dir)
    raw.user_items = ds_mod.split_holdout(raw.user_items, seed)
    raw.group_items = ds_mod.split_holdout(raw.group_items, seed + 1)
    ds_mod.write_splits(raw.user_items, os.path.join(data_dir, "splits_user.tsv"))
    ds_mod.write_splits(raw.group_items, os.path.join(data_dir, "splits_group.tsv"))
    fingerprint = raw.fingerprint()
    ds = ds_mod.load_prepared(data_dir)
    return g["trainer"].Trainer(ds, cfg), fingerprint


def same_arrays(a, b):
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a
    )


def read_log(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Run:
    """State shared by the phases of one run."""

    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.g = import_grouprec()
        self.tracer = Tracer()
        self.checks = Checks()
        self.out_dir = os.path.join(HERE, "_runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
        self.data_dir = os.path.join(self.out_dir, "data")
        self.cfg = self.g["TrainConfig"](seed=args.seed, epochs=self.spec["epochs"], **self.spec["config"])
        self.result = {"workload": args.workload, "env": environment(args.seed), "seconds": args.seconds}
        self.digests = None
        self.clock = None

    def make_inputs(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        files = gen.generate(gen.SHAPES[self.spec["shape"]], self.args.seed)
        self.digests = self.result["input_sha256"] = gen.write(files, self.data_dir)
        with open(os.path.join(HERE, "digests.json")) as f:
            expected = json.load(f).get(self.spec["shape"], {}).get(str(self.args.seed))
        if expected is not None:
            self.checks(expected == self.digests, f"inputs for seed {self.args.seed} differ from digests.json")

    def check_inputs(self, when):
        self.checks(not gen.check_on_disk(self.data_dir, self.digests), f"raw input files changed {when}")

    def save(self, name, trainer, meta):
        path = os.path.join(self.out_dir, name)
        with self.tracer.span("bench.save"):
            self.g["checkpoint"].save_checkpoint(
                path, trainer.cfg.as_dict(), trainer.model.named_params_data(), meta=meta
            )
        return path, self.g["checkpoint"].file_sha256(path)

    def set_up(self):
        """Several set-ups; returns the trainers of the last ones and their phases."""
        phases, trainers, fingerprints, init_shas = [], [], [], []
        for rep in range(self.spec["setups"]):
            with self.clock.phase() as ph, self.tracer.span("bench.setup"):
                trainer, fp = setup_once(self.g, self.data_dir, self.cfg, self.args.seed)
            phases.append(ph)
            fingerprints.append(fp)
            path, sha = self.save("init.ckpt", trainer, {})
            init_shas.append(sha)
            arrays = dict(self.g["checkpoint"].load_checkpoint(path)[1])
            self.checks(same_arrays(arrays, dict(trainer.model.named_params_data())),
                        f"set-up {rep} initial checkpoint reload is not bit-exact")
            self.check_inputs(f"by set-up {rep}")
            trainers = (trainers + [trainer])[-self.spec["trainings"]:]
        for rep in range(1, len(phases)):
            self.checks(fingerprints[rep] == fingerprints[0], f"set-up {rep} fingerprint differs from set-up 0")
            self.checks(init_shas[rep] == init_shas[0], f"set-up {rep} initial checkpoint differs from set-up 0")
        self.result["fingerprint"] = fingerprints[0]
        self.result["init_ckpt_sha256"] = init_shas[0]
        return trainers, phases

    def train(self, trainers):
        """Same-seed trainings; with --trace 1 the first runs untraced, for the overhead."""
        phases, samples, epoch_secs, shas, rates = [], [], [], [], []
        for i, trainer in enumerate(trainers):
            if self.spec["steps"] is not None:
                if not hasattr(trainer, "steps_per_epoch"):
                    raise RuntimeError("Trainer.steps_per_epoch is gone; cannot cap the epoch")
                trainer.steps_per_epoch = min(trainer.steps_per_epoch, self.spec["steps"])
            log_path = os.path.join(self.out_dir, f"train_log_{i}.csv")
            untraced = self.args.trace and i == 0 and len(trainers) > 1
            if untraced:
                self.tracer.restore()
            with self.clock.phase() as ph, self.tracer.span("bench.train"):
                res = trainer.train(log_path=log_path)
            if untraced:
                instrument(self.tracer, self.g)
            n = res.epochs_run * trainer.steps_per_epoch * self.cfg.batch_user
            phases.append(ph)
            samples.append(n)
            rates.append(n / ph.scaled)
            for row in read_log(log_path):
                # the trainer times epochs on the wall clock; scale them like their phase
                epoch_secs.append(float(row["seconds"]) * ph.scaled / ph.wall)
                where = f"training {i} epoch {row['epoch']}"
                for col in ("l_bpr", "l_group", "reg_interest", "reg_params", "total"):
                    self.checks(math.isfinite(float(row[col])), f"{where}: {col} not finite")
                self.checks(0.0 <= float(row["val_metric"]) <= 1.0, f"{where}: val_metric outside [0, 1]")
            meta = {
                "best_epoch": res.best_epoch,
                "best_metric": res.best_metric,
                "epochs_run": res.epochs_run,
                "stopped_early": res.stopped_early,
                "dataset_fingerprint": self.result["fingerprint"],
            }
            path, sha = self.save(f"best_{i}.ckpt", trainer, meta)
            shas.append(sha)
        for i in range(1, len(shas)):
            self.checks(shas[i] == shas[0], f"training {i} best.ckpt sha256 differs from training 0")
        self.result["best_ckpt_sha256"] = shas[0]
        return (trainer, res, path), phases, samples, epoch_secs, rates

    def evaluate(self, trainer, res, ckpt_path):
        """Validation passes and test evaluations, for at least --seconds."""
        g, checks, model, ds = self.g, self.checks, trainer.model, trainer.dataset
        saved = {name: t.data.copy() for name, t in model.named_params()}
        tasks = ("user", "group") if self.cfg.use_groups else ("user",)
        vals, tests, first_test = [], [], None
        t_end = time.perf_counter() + self.args.seconds
        while len(vals) < MIN_EVAL_PASSES or time.perf_counter() < t_end:
            with self.clock.phase() as ph, self.tracer.span("bench.val_eval"):
                val, n = g["evaluate"].evaluate_ranking(model, ds, "user", ks=(10,), target=g["datasets"].VALID)
            vals.append(ph)
            checks(n > 0 and 0.0 <= val["ndcg@10"] <= 1.0, f"validation ndcg@10 {val} over {n} anchors")
            checks(val["ndcg@10"] == res.best_metric, "validation ndcg@10 differs from the trainer's best")

            with self.clock.phase() as ph, self.tracer.span("bench.test_eval"):
                loaded = dict(g["checkpoint"].load_checkpoint(ckpt_path)[1])
                for name, tensor in model.named_params():
                    tensor.data = loaded[name]
                state = model.forward()
                test = {
                    task: g["evaluate"].evaluate_ranking(
                        model, ds, task, ks=(5, 10), target=g["datasets"].TEST, state=state
                    )
                    for task in tasks
                }
            tests.append(ph)
            checks(same_arrays(loaded, saved), "best checkpoint reload is not bit-exact against the model")
            for task, (metrics, n) in test.items():
                checks(n > 0, f"no {task} anchors with test edges")
                for key, value in metrics.items():
                    checks(0.0 <= value <= 1.0, f"test {task} {key}={value} outside [0, 1]")
            first_test = first_test or test
            checks(test == first_test, "test evaluation differs from the first pass")
        return vals, tests, first_test


def run(args):
    r = Run(args)
    r.make_inputs()
    if args.trace:
        instrument(r.tracer, r.g)
    r.clock = Clock()
    trainers, setups = r.set_up()
    best, trains, samples, epoch_secs, rates = r.train(trainers)
    vals, tests, first_test = r.evaluate(*best)
    r.check_inputs("during the run")

    e2e = {
        "setup_s": statistics.median(p.scaled for p in setups),
        "train_samples_per_s": sum(samples) / sum(p.scaled for p in trains),
        "epoch_s": statistics.median(epoch_secs),
        "val_eval_s": statistics.median(p.scaled for p in vals),
        "test_eval_s": statistics.median(p.scaled for p in tests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    quality = {
        "val_ndcg10": best[1].best_metric,
        "test_ndcg10_user": first_test["user"][0]["ndcg@10"],
        "test_ndcg10_group": first_test["group"][0]["ndcg@10"] if "group" in first_test else None,
    }
    result = r.result
    result.update(
        phases={
            kind: {"wall_s": [p.wall for p in ps], "scaled_s": [p.scaled for p in ps]}
            for kind, ps in (("setup", setups), ("train", trains), ("val_eval", vals), ("test_eval", tests))
        },
        calibration_s=r.clock.calibrations,
        epoch_seconds_scaled=epoch_secs,
        end_to_end=e2e,
        quality=quality,
        test_metrics={t: m for t, (m, _n) in first_test.items()},
        checks={"attempted": r.checks.attempted, "failed": r.checks.failures},
    )
    if args.trace:
        r.tracer.restore()
        metrics, result["absent"] = layer_metrics(r.tracer, rates, quality)
        result["per_layer"] = metrics
        with open(os.path.join(r.out_dir, "spans.json"), "w") as f:
            json.dump(r.tracer.spans, f)
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}

    # keep the small files; the inputs and checkpoints can be rebuilt from the seed
    shutil.rmtree(r.data_dir, ignore_errors=True)
    for name in os.listdir(r.out_dir):
        if name.endswith(".ckpt"):
            os.remove(os.path.join(r.out_dir, name))
    with open(os.path.join(r.out_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)

    report(args, e2e, quality, r.checks, result)
    return {
        "correct": not r.checks.failures,
        "attempted": r.checks.attempted,
        "failed": len(r.checks.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, rates, quality):
    """Every per-layer metric of layers.json; absent entry points read 0 and are listed."""
    with open(os.path.join(HERE, "layers.json")) as f:
        specs = json.load(f)
    values, absent = {}, []
    for spec in specs:
        if spec["stat"] == "run":
            continue
        v = tracer.reduce(spec)
        if v is None:
            absent.append(spec["name"])
        values[spec["name"]] = v
    p50, own = values.get("trainer.step_ms_p50"), values.get("trainer.step_self_ms")
    values["trainer.step_uncovered_share"] = own / p50 if p50 and own is not None else None
    values["trace.overhead_share"] = 1.0 - rates[1] / rates[0] if len(rates) > 1 else None
    for key, v in quality.items():
        values[f"quality.{key}"] = v
    out = {}
    for spec in specs:
        v = values.get(spec["name"])
        if v is None and spec["name"] not in absent:
            absent.append(spec["name"])
        out[spec["name"]] = (0.0 if v is None else float(v), spec["unit"])
    return out, absent


def report(args, e2e, quality, checks, result):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<22} {e2e[name]:>14.6f} {unit}")
    for name, v in quality.items():
        print(f"  {name:<22} {'n/a' if v is None else format(v, '>14.6f')}")
    share = len(checks.failures) / checks.attempted
    print(f"  {'failed_share':<22} {share:>14.6f} ({len(checks.failures)} of {checks.attempted} checks)")
    print(f"  best.ckpt sha256 {result['best_ckpt_sha256']}")
    if "per_layer" in result:
        for name, (v, unit) in result["per_layer"].items():
            mark = "  (absent)" if name in result["absent"] else ""
            print(f"  {name:<36} {v:>14.6f} {unit}{mark}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
