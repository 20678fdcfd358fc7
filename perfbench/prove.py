"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads mfw_train,...] [--trace 0] [--out FILE]

Runs are sequential, one process each, from the repository root. For every
workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. With --trace 0 it
also flags an end-to-end spread above a third of the metric's bound in
BENCHMARK.json. --out writes the runs and the summary as JSON. --compare
checks that every seed also run in an earlier --out file wrote the same
best.ckpt sha256. It exits non-zero on any flag, failed check or mismatch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", help="an earlier --out file of the same code: best.ckpt hashes must match")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            for name, w in json.load(f)["workloads"].items():
                earlier.update({(name, r["seed"]): r["best_ckpt_sha256"] for r in w["runs"]})

    report = {"seeds": parse_seeds(args.seeds), "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            result_path = os.path.join(
                ROOT, "perfbench", "_runs", f"{workload}-seed{seed}-trace{args.trace}", "result.json"
            )
            with open(result_path) as f:
                detail = json.load(f)
            report["env"] = detail["env"]
            runs.append({
                "seed": seed, "wall_s": wall, **last,
                "best_ckpt_sha256": detail["best_ckpt_sha256"], "quality": detail["quality"],
                "absent": detail.get("absent", []),
            })
            print(f"{workload} seed {seed}: {wall:.1f}s correct={last['correct']} "
                  f"failed={last['failed']}/{last['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names
        }
        summary["wall_s"] = summarize([r["wall_s"] for r in runs])
        for name, s in summary.items():
            flag = ""
            if name in bounds and name != "setup_s" and (s["spread"] or 0) > bounds[name] / 3:
                flag = f"  ABOVE {bounds[name] / 3:.3f}"
                ok = False
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<36} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {spread}{flag}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for r in runs:
            want = earlier.get((workload, r["seed"]))
            if want is not None and want != r["best_ckpt_sha256"]:
                print(f"  seed {r['seed']}: best.ckpt sha256 differs from --compare")
                ok = False
        if not all(r["correct"] for r in runs):
            ok = False
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
