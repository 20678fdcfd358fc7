"""Seeded planted-interest worlds in the canonical four-file layout.

This generator is the benchmark's own and uses numpy alone, so a change to
``grouprec.synthetic`` or to the library's data structures cannot change a
workload's inputs. Items fall into ``m`` contiguous interest blocks. User u
holds interest ``u % m`` and, with probability one half, a second one. Each
edge lands in the anchor's blocks with probability ``1 - noise`` and
anywhere otherwise. A group's members are drawn from the holders of the
group's interest. Duplicate edges are dropped.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Shape:
    n_users: int
    n_items: int
    n_groups: int
    edges_per_user: int
    edges_per_group: int = 6
    group_size: int = 5
    m_true: int = 4
    noise: float = 0.1


# MaFengWo-sized (about 42k user edges) and the stress shape, 2x MaFengWo in
# each count (about 199k user edges): at ROADMAP's 4x shape the 70 runs of a
# full benchmark evaluation would not fit in 3420 s on a slowed machine
SHAPES = {
    "mfw": Shape(n_users=5275, n_items=1513, n_groups=995, edges_per_user=8),
    "stress": Shape(n_users=10000, n_items=4000, n_groups=2000, edges_per_user=20),
}
DIGEST_SEEDS = range(21)


def _draw(rng, blocks, block_lo, block_hi, n_items, noise):
    """One item per entry of ``blocks``: uniform in that block, or anywhere with prob noise."""
    lo, width = block_lo[blocks], block_hi[blocks] - block_lo[blocks]
    inside = lo + np.floor(rng.random(len(blocks)) * width).astype(np.int64)
    anywhere = rng.integers(n_items, size=len(blocks))
    return np.where(rng.random(len(blocks)) < noise, anywhere, inside)


def _dedup(anchors, items, n_items):
    key = np.unique(anchors * n_items + items)
    return key // n_items, key % n_items


def _edge_bytes(anchors, items):
    return "".join(f"{a}\t{v}\n" for a, v in zip(anchors.tolist(), items.tolist())).encode()


def generate(shape, seed):
    """Return {file name: bytes} for one seeded world."""
    rng = np.random.default_rng([seed, shape.n_users, shape.n_items])
    m, n_items = shape.m_true, shape.n_items
    block_lo = np.arange(m) * n_items // m
    block_hi = np.append(block_lo[1:], n_items)

    n_users, n_groups = shape.n_users, shape.n_groups
    first = np.arange(n_users) % m
    has_second = rng.random(n_users) < 0.5
    second = (first + 1 + rng.integers(m - 1, size=n_users)) % m

    ua = np.repeat(np.arange(n_users, dtype=np.int64), shape.edges_per_user)
    use_second = has_second[ua] & (rng.random(len(ua)) < 0.5)
    blocks = np.where(use_second, second[ua], first[ua])
    uv = _draw(rng, blocks, block_lo, block_hi, n_items, shape.noise)
    ua, uv = _dedup(ua, uv, n_items)

    g_interest = np.arange(n_groups) % m
    holds = np.zeros((n_users, m), dtype=bool)
    holds[np.arange(n_users), first] = True
    holds[np.flatnonzero(has_second), second[has_second]] = True
    holders = [np.flatnonzero(holds[:, n]) for n in range(m)]
    members = [
        np.sort(rng.choice(holders[n], size=min(shape.group_size, len(holders[n])), replace=False))
        for n in g_interest
    ]
    ga = np.repeat(np.arange(n_groups, dtype=np.int64), shape.edges_per_group)
    gv = _draw(rng, g_interest[ga], block_lo, block_hi, n_items, shape.noise)
    ga, gv = _dedup(ga, gv, n_items)

    meta = {"n_users": shape.n_users, "n_items": n_items, "n_groups": shape.n_groups}
    return {
        "meta.json": (json.dumps(meta, indent=2) + "\n").encode(),
        "users.tsv": _edge_bytes(ua, uv),
        "groups_items.tsv": _edge_bytes(ga, gv),
        "group_members.txt": "".join(
            f"{g} {','.join(map(str, ms.tolist()))}\n" for g, ms in enumerate(members)
        ).encode(),
    }


def sha256_of(data):
    return hashlib.sha256(data).hexdigest()


def write(files, out_dir):
    """Write the files and return their sha256 digests by name."""
    os.makedirs(out_dir, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(data)
    return {name: sha256_of(data) for name, data in files.items()}


def check_on_disk(out_dir, digests):
    """Names of files whose bytes on disk no longer match their digest."""
    bad = []
    for name, want in digests.items():
        with open(os.path.join(out_dir, name), "rb") as f:
            if sha256_of(f.read()) != want:
                bad.append(name)
    return bad


def write_digest_table(path):
    """Record the input digests of DIGEST_SEEDS, which every run then checks."""
    table = {
        name: {str(seed): {k: sha256_of(v) for k, v in generate(shape, seed).items()}
               for seed in DIGEST_SEEDS}
        for name, shape in SHAPES.items()
    }
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    write_digest_table(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json"))
