"""Structured result export: metric rows, summary stats, similarity matrix."""

import csv
import json
import os

import numpy as np


def metric_rows(task, metrics, seed):
    """Flatten an evaluate_ranking dict into (task, metric, k, seed, value) rows."""
    rows = []
    for key, value in sorted(metrics.items()):
        metric, k = key.split("@")
        rows.append((task, metric, int(k), seed, float(value)))
    return rows


def write_csv(path, header, rows):
    """Write rows as CSV (excel dialect), after a header row unless header is None."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _spread(vals):
    # identical repeats must report exactly 0, not mean-subtraction dust
    if all(v == vals[0] for v in vals):
        return 0.0
    return float(np.std(vals))


def summarize(rows):
    """Per task and metric@k, mean and std over the seed column."""
    grouped = {}
    for task, metric, k, _seed, value in rows:
        grouped.setdefault(task, {}).setdefault(f"{metric}@{k}", []).append(value)
    out = {}
    for task, metrics in grouped.items():
        out[task] = {
            key: {"mean": float(np.mean(vals)), "std": _spread(vals)}
            for key, vals in metrics.items()
        }
    return out


def write_summary_json(rows, config_dict, dataset_name, wall_time_s, path):
    payload = {
        "dataset": dataset_name,
        "config": config_dict,
        "results": summarize(rows),
        "wall_time_s": float(wall_time_s),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return payload


def export_report(rows, config_dict, dataset_name, wall_time_s, out_dir, similarity=None):
    """Write metrics.csv, summary.json, and optionally interest_sim.csv."""
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "metrics.csv"), ("task", "metric", "k", "seed", "value"), rows)
    summary = write_summary_json(
        rows, config_dict, dataset_name, wall_time_s, os.path.join(out_dir, "summary.json")
    )
    if similarity is not None:
        sim_rows = ([f"{v:.6f}" for v in row] for row in np.asarray(similarity))
        write_csv(os.path.join(out_dir, "interest_sim.csv"), None, sim_rows)
    return summary
