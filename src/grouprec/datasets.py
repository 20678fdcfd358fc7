"""Dataset loading, holdout splits, group-item synthesis, and the train graph.

Canonical on-disk layout for a dataset directory:

    meta.json          {"n_users": U, "n_items": I, "n_groups": G}
    users.tsv          one "user<TAB>item" edge per line
    groups_items.tsv   one "group<TAB>item" edge per line (optional; may be synthesized)
    group_members.txt  one "group u1,u2,..." line per group

All ids are 0-based and dense. A prepared directory additionally holds
splits_user.tsv and splits_group.tsv with "anchor<TAB>item<TAB>split" rows.

Edge order is decided once, by `Interactions`: edges are held sorted by
(anchor, item), and every reader and writer here takes them as stored.
"""

import dataclasses
import hashlib
import json
import logging
import math
import os
import warnings

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

TRAIN, VALID, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "valid", "test")

META_FILE = "meta.json"
USER_EDGES_FILE = "users.tsv"
GROUP_EDGES_FILE = "groups_items.tsv"
MEMBERS_FILE = "group_members.txt"
USER_SPLITS_FILE = "splits_user.tsv"
GROUP_SPLITS_FILE = "splits_group.tsv"

# the items synthesize_group_items keeps per group when no cap is given
GROUP_ITEM_CAP = 30

# rows of the whole-file parse of an edge file and of a splits file; the label
# is one byte wider than the longest name, so no longer label is cut down to one
_EDGE_ROW = np.dtype([("a", "i8"), ("v", "i8")])
_SPLIT_ROW = np.dtype([("a", "i8"), ("v", "i8"), ("s", f"S{max(map(len, SPLIT_NAMES)) + 1}")])

# the _lines label table of a splits file: the name of each split code
_SPLIT_LABELS = tuple(name.encode() for name in SPLIT_NAMES)

# 10**k for each digit place of an id of at most 18 digits, in the whole-file membership parse
_POWERS_OF_TEN = 10 ** np.arange(18, dtype=np.int64)


class Interactions:
    """Anchor-item edges with a split label each, held sorted by (anchor, item).

    The constructor enforces three invariants and raises a ValueError naming
    the one broken: each (anchor, item) pair appears once, n_anchors * n_items
    is below 2**63 (so every edge_keys key fits in int64), and every split code
    is TRAIN, VALID or TEST. It then sorts once; every reader of the arrays
    relies on this order and sorts nothing. Edges whose keys already strictly
    increase, as every file the library writes and every `relabeled` copy
    gives them, pass one comparison in place of the sort. The arrays are
    read-only: an array given read-only is held as it is, any other is
    copied, so a caller's writeable array stays writeable. A copy with other
    split labels comes from `relabeled`.
    """

    def __init__(self, n_anchors, n_items, anchors=(), items=(), splits=None):
        self.n_anchors = int(n_anchors)
        self.n_items = int(n_items)
        anchors = np.asarray(anchors, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if anchors.shape != items.shape:
            raise ValueError("anchor and item arrays differ in length")
        splits = np.zeros(len(anchors), dtype=np.int8) if splits is None else np.asarray(splits)
        if splits.shape != anchors.shape:
            raise ValueError("split labels differ in length from edges")
        if len(anchors):
            if anchors.min() < 0 or anchors.max() >= self.n_anchors:
                raise ValueError("anchor id out of range")
            if items.min() < 0 or items.max() >= self.n_items:
                raise ValueError("item id out of range")
            if splits.min() < TRAIN or splits.max() > TEST:
                raise ValueError(f"split codes must be TRAIN, VALID or TEST, got {np.unique(splits).tolist()}")
        splits = splits.astype(np.int8, copy=False)
        keys = edge_keys(anchors, items, self.n_anchors, self.n_items)
        if _increasing(keys):  # sorted, and no key twice
            arrays = [_read_only(x) for x in (anchors, items, splits)]
        else:  # a stable sort on one key per edge: the same order as lexsort
            order = np.argsort(keys, kind="stable")
            twice = order[1:][np.diff(keys[order]) == 0]
            if len(twice):
                raise ValueError(f"edge ({anchors[twice[0]]}, {items[twice[0]]}) appears more than once")
            arrays = [x[order] for x in (anchors, items, splits)]
            for array in arrays:
                array.flags.writeable = False  # so no memoised anchor_index goes stale
        self.anchors, self.items, self.splits = arrays
        self._indexes = {}  # anchor_index's (indptr, indices), by the sorted split codes

    def __len__(self):
        return len(self.anchors)

    def relabeled(self, splits):
        """A copy of the edges carrying new split labels, given in stored order."""
        return Interactions(self.n_anchors, self.n_items, self.anchors, self.items, splits)

    def anchor_index(self, splits=(TRAIN,)):
        """CSR-style (indptr, indices) of each anchor's items in the given splits.

        Row a is indices[indptr[a] : indptr[a + 1]], sorted. Each split set's
        pair is built once and kept; both arrays are read-only.
        """
        key = tuple(np.unique(np.asarray(splits, dtype=np.int8)).tolist())
        if key not in self._indexes:
            keep = np.isin(self.splits, key)
            counts = np.bincount(self.anchors[keep], minlength=self.n_anchors)
            index = np.concatenate(([0], np.cumsum(counts))), self.items[keep]
            for array in index:
                array.flags.writeable = False
            self._indexes[key] = index
        return self._indexes[key]


def _increasing(keys):
    """Whether the keys strictly increase: sorted, and each one once."""
    return bool(np.all(keys[1:] > keys[:-1]))


def _read_only(array):
    """The array itself when neither it nor any array it views is writeable, else a read-only copy."""
    base = array
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            array = array.copy()
            array.flags.writeable = False
            return array
        base = base.base
    return array


def membership_matrix(n_groups, n_users, gids, uids):
    """Groups x users CSR of ones in canonical form; a repeated pair counts once."""
    gids = np.asarray(gids, dtype=np.int64)
    uids = np.asarray(uids, dtype=np.int64)
    m = sp.csr_matrix((np.ones(len(gids)), (gids, uids)), shape=(n_groups, n_users))
    m.data[:] = 1.0
    return m


@dataclasses.dataclass(eq=False)
class Dataset:
    """Counts, both edge lists, and `group_members`, a membership_matrix CSR.

    A Dataset is checked when it is made: the counts become ints, and a
    ValueError is raised when the membership is not n_groups x n_users, a
    group has no members, or either edge list's counts differ from the
    dataset's. The membership CSR's arrays are then read-only. A changed
    dataset comes from `dataclasses.replace`, which runs the checks again;
    no field is assigned after construction. The class is not frozen and
    `fingerprint()` is not memoised, because perfbench/run.py's `setup_once`
    still assigns `user_items` and `group_items`.
    """

    n_users: int
    n_items: int
    n_groups: int
    user_items: Interactions
    group_items: Interactions
    group_members: sp.csr_matrix

    def __post_init__(self):
        self.n_users, self.n_items, self.n_groups = map(int, (self.n_users, self.n_items, self.n_groups))
        m = self.group_members
        if m.shape != (self.n_groups, self.n_users):
            raise ValueError("membership matrix shape does not match counts")
        empty = np.flatnonzero(np.diff(m.indptr) == 0)
        if len(empty):
            raise ValueError(f"group {empty[0]} has no members")
        if (self.user_items.n_anchors, self.user_items.n_items) != (self.n_users, self.n_items):
            raise ValueError("user interactions do not match counts")
        if (self.group_items.n_anchors, self.group_items.n_items) != (self.n_groups, self.n_items):
            raise ValueError("group interactions do not match counts")
        for array in (m.data, m.indices, m.indptr):
            array.flags.writeable = False

    def members_of(self, g):
        """Sorted member ids of group g, a view into the membership CSR."""
        m = self.group_members
        return m.indices[m.indptr[g] : m.indptr[g + 1]]

    def fingerprint(self):
        """Content hash covering counts, edges, split labels, and memberships."""
        h = hashlib.sha256()
        h.update(json.dumps([self.n_users, self.n_items, self.n_groups]).encode())
        for inter in (self.user_items, self.group_items):
            h.update(_lines(inter.anchors, b" ", inter.items, b" ", inter.splits, b"\n"))
        m = self.group_members.tocoo()  # row-major, as the CSR stores it
        h.update(_lines(b"m", m.row, b" ", m.col, b"\n"))
        return h.hexdigest()


def _lines(*fields):
    """One line per row, as bytes: each row's fields side by side.

    A field is bytes, written on every row; an array of non-negative
    integers, written in decimal; or a (codes, labels) pair, which writes
    labels[code]. The rows are laid out in one uint8 array of fixed-width
    columns, with a mask of the bytes kept, so the work is a few array passes
    per output column and one compaction, whatever the row count.
    """
    n = len(next(f[0] if isinstance(f, tuple) else f for f in fields if not isinstance(f, bytes)))
    if n == 0:
        return b""
    columns = []  # (bytes or array field, width)
    for f in fields:
        if isinstance(f, bytes):
            columns.append((f, len(f)))
        elif isinstance(f, tuple):
            columns.append((f, max(map(len, f[1]))))
        else:
            columns.append((f, len(str(int(f.max())))))
    buf = np.empty((n, sum(w for _, w in columns)), dtype=np.uint8)
    keep = np.empty(buf.shape, dtype=bool)
    start = 0
    for f, w in columns:
        out, kept = buf[:, start : start + w], keep[:, start : start + w]
        start += w
        if isinstance(f, bytes):
            out[:] = np.frombuffer(f, dtype=np.uint8)
            kept[:] = True
        elif isinstance(f, tuple):
            codes, labels = f  # no label holds a NUL byte, so NULs are the padding
            table = np.array(labels, dtype=f"S{w}").view(np.uint8).reshape(len(labels), w)
            out[:] = table[codes]
            np.not_equal(out, 0, out=kept)
        else:
            # digits right to left; a digit is kept while the number is not
            # used up, and the units digit always, so 0 is written "0"
            x = f.astype(np.uint32 if int(f.max()) < 2**32 else np.uint64)
            digit = np.empty_like(x)
            for j in reversed(range(w)):
                np.greater(x, 0, out=kept[:, j])
                np.divmod(x, 10, out=(x, digit))
                np.add(digit, ord("0"), out=out[:, j], casting="unsafe")
            kept[:, -1] = True
    return buf[keep].tobytes()


def load_interactions(path, n_anchors, n_items):
    """Read 'id<TAB>item' edges as int64 (anchors, items), sorted, duplicates dropped.

    The whole file is parsed at once; a file that parse refuses, or one with
    an id out of range, is read again line by line to name the bad line.
    """
    rows = _load_rows(path, _EDGE_ROW)
    if rows is None or not (_in_range(rows["a"], n_anchors) and _in_range(rows["v"], n_items)):
        return _load_interactions_lines(path, n_anchors, n_items)
    return _unique_edges(rows["a"], rows["v"], n_anchors, n_items)


def _load_interactions_lines(path, n_anchors, n_items):
    """load_interactions one line at a time: raises 'path:line' errors."""
    anchors, items = [], []
    for lineno, line in _scan_lines(path):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'id<TAB>item', got {line!r}")
        a, v = _parse_ids(parts, path, lineno, line)
        if a < 0 or v < 0:
            raise ValueError(f"{path}:{lineno}: negative id in {line!r}")
        if a >= n_anchors:
            raise ValueError(f"{path}:{lineno}: anchor id {a} out of range (n={n_anchors})")
        if v >= n_items:
            raise ValueError(f"{path}:{lineno}: item id {v} out of range (n={n_items})")
        anchors.append(a)
        items.append(v)
    anchors, items = (np.asarray(ids, dtype=np.int64) for ids in (anchors, items))
    return _unique_edges(anchors, items, n_anchors, n_items)


def edge_keys(anchors, items, n_anchors, n_items):
    """anchor * n_items + item: one int64 key per edge, ordered and equal as its pair is.

    Ids must be in range. Counts whose keys could pass int64 are rejected.
    """
    if int(n_anchors) * int(n_items) >= 2**63:  # Python ints: the product cannot wrap
        raise ValueError(f"{n_anchors} anchors * {n_items} items reach 2**63: edge keys pass int64")
    return anchors * n_items + items


def in_sorted(keys, query):
    """Whether each key of `query` is in `keys`, a sorted, non-empty key array."""
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return keys[at] == query


def _unique_edges(anchors, items, n_anchors, n_items):
    """Distinct (anchor, item) pairs sorted by key, through a sort and a neighbour mask.

    Pairs whose keys already strictly increase come back as given.
    """
    keys = edge_keys(anchors, items, n_anchors, n_items)
    if _increasing(keys):
        return anchors, items
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.divmod(keys[first], max(n_items, 1))


def _in_range(ids, n):
    return ids.min() >= 0 and ids.max() < n


def _load_rows(path, dtype):
    """The whole tab-separated file as one structured array, or None.

    None means the per-line reader must decide: a wrong field count, an id
    that is not a plain int64 literal, a whitespace-only line, no rows at all
    (loadtxt only warns), a NUL byte anywhere (a fixed-width label drops
    trailing NULs), or a byte 0x1c-0x1f anywhere (loadtxt strips them around
    an id as whitespace, and int() refuses them). Empty lines are skipped, as
    the per-line reader skips them.
    """
    with open(path, "rb") as f:
        data = f.read()
    if any(byte in data for byte in (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, dtype=dtype, delimiter="\t", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _scan_lines(path):
    """(lineno, line) for each line of a dataset text file that is not blank.

    Lines are numbered from 1 under universal newlines, whitespace-only ones
    counted but skipped. A byte that is not UTF-8 decodes to a lone surrogate,
    which matches no id, label or separator, so its line fails the caller's
    checks with a 'path:line' error instead of a decode error naming neither.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                yield lineno, line


def _parse_ids(tokens, path, lineno, line):
    """The tokens as ints, or a 'path:line: non-integer id' error."""
    try:
        return list(map(int, tokens))
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-integer id in {line!r}") from None


def load_group_members(path, n_users, n_groups):
    """Read "gid u1,u2,..." lines as a membership_matrix CSR of n_groups x n_users.

    A file of canonical lines, each ASCII digits, one space, comma-separated
    ASCII digits and LF, that lists each group once with every id in range,
    is parsed whole. Any other file is read again line by line, which names
    the line at fault: fields split on whitespace, members on commas (empty
    ones skipped), ids as `int()` reads them, blank lines skipped.
    """
    with open(path, "rb") as f:
        members = _members_from_bytes(f.read(), n_users, n_groups)
    if members is None:
        return _load_group_members_lines(path, n_users, n_groups)
    return membership_matrix(n_groups, n_users, *members)


def _members_from_bytes(data, n_users, n_groups):
    """(gids, uids), one pair per listed member, of a canonical membership file, else None.

    Every byte that is not an ASCII digit ends a token. The separators must
    run space, commas, LF on each line, and no token may be empty or over 18
    digits, so each fits in int64. A token's value is the sum of its digits
    times their powers of ten, summed for all tokens at once.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if not len(buf) or buf[-1] != ord("\n"):
        return None
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    ends = np.flatnonzero(~digit)
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    seps = buf[ends]
    gid = seps == ord(" ")  # the token before a line's space is its group id
    line_end = seps == ord("\n")
    if not (gid[0] and np.array_equal(gid[1:], line_end[:-1]) and np.all(gid | line_end | (seps == ord(",")))):
        return None
    values = buf[digit].astype(np.int64) - ord("0")
    # a digit's power is how many digits of its token follow it
    power = np.repeat(ends - np.arange(len(ends)), lengths) - 1 - np.arange(len(values))
    ids = np.add.reduceat(values * _POWERS_OF_TEN[power], np.cumsum(lengths) - lengths)
    gids, uids = ids[gid], ids[~gid]
    if gids.max() >= n_groups or uids.max() >= n_users or len(gids) != n_groups:
        return None
    listed = np.zeros(n_groups, dtype=bool)
    listed[gids] = True
    if not listed.all():  # a group listed twice, so another not at all
        return None
    return np.repeat(gids, np.diff(np.flatnonzero(gid), append=len(gid)) - 1), uids


def _load_group_members_lines(path, n_users, n_groups):
    """load_group_members one line at a time: raises 'path:line' errors."""
    gids, uids = [], []
    line_of = {}
    for lineno, line in _scan_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'gid u1,u2,...', got {line!r}")
        g, *users = _parse_ids([parts[0], *filter(None, parts[1].split(","))], path, lineno, line)
        if not users:
            raise ValueError(f"{path}:{lineno}: group {g} lists no members")
        if g < 0 or g >= n_groups:
            raise ValueError(f"{path}:{lineno}: group id {g} out of range (n={n_groups})")
        if g in line_of:
            raise ValueError(f"{path}:{lineno}: group {g} already listed on line {line_of[g]}")
        line_of[g] = lineno
        for u in users:
            if u < 0 or u >= n_users:
                raise ValueError(f"{path}:{lineno}: user id {u} out of range (n={n_users})")
        gids.extend([g] * len(users))
        uids.extend(users)
    if len(line_of) < n_groups:  # every listed id is in range and listed once
        g = next(g for g in range(n_groups) if g not in line_of)
        raise ValueError(f"{path}: group {g} is not listed")
    return membership_matrix(n_groups, n_users, gids, uids)


def load_dataset(dataset_dir):
    """Load the canonical layout; group edges are optional (synthesized later)."""
    meta_path = os.path.join(dataset_dir, META_FILE)
    try:
        with open(meta_path, encoding="utf-8") as f:
            meta = json.load(f)
    except FileNotFoundError:
        raise FileNotFoundError(f"missing {meta_path}") from None
    except ValueError as e:  # malformed JSON, or bytes that are not UTF-8
        raise ValueError(f"{meta_path}: not valid JSON: {e}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    for key in ("n_users", "n_items", "n_groups"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
        if type(meta[key]) is not int or meta[key] < 0:  # a bool is no count
            raise ValueError(f"{meta_path}: {key} must be an integer >= 0, got {meta[key]!r}")
    n_users, n_items, n_groups = meta["n_users"], meta["n_items"], meta["n_groups"]
    for key in ("n_users", "n_groups"):  # so edge keys, and each count taken as at least 1, fit in int64
        if max(meta[key], 1) * max(n_items, 1) >= 2**63:
            raise ValueError(f"{meta_path}: {key} * n_items must be below 2**63, got {meta[key]} and {n_items}")

    user_edges = load_interactions(os.path.join(dataset_dir, USER_EDGES_FILE), n_users, n_items)
    user_items = Interactions(n_users, n_items, *user_edges)

    ge_path = os.path.join(dataset_dir, GROUP_EDGES_FILE)
    if os.path.exists(ge_path):
        group_items = Interactions(n_groups, n_items, *load_interactions(ge_path, n_groups, n_items))
    else:
        group_items = Interactions(n_groups, n_items)

    members = load_group_members(os.path.join(dataset_dir, MEMBERS_FILE), n_users, n_groups)
    return Dataset(n_users, n_items, n_groups, user_items, group_items, members)


def save_dataset(dataset, dataset_dir):
    os.makedirs(dataset_dir, exist_ok=True)
    with open(os.path.join(dataset_dir, META_FILE), "w") as f:
        json.dump(
            {"n_users": dataset.n_users, "n_items": dataset.n_items, "n_groups": dataset.n_groups},
            f,
            indent=2,
        )
        f.write("\n")
    write_edges(dataset.user_items, os.path.join(dataset_dir, USER_EDGES_FILE))
    write_edges(dataset.group_items, os.path.join(dataset_dir, GROUP_EDGES_FILE))
    with open(os.path.join(dataset_dir, MEMBERS_FILE), "w") as f:
        for g in range(dataset.n_groups):
            us = ",".join(str(u) for u in dataset.members_of(g))
            f.write(f"{g} {us}\n")


def write_edges(interactions, path):
    """Write 'id<TAB>item' lines in stored order: by anchor, then item."""
    text = _lines(interactions.anchors, b"\t", interactions.items, b"\n")
    with open(path, "wb") as f:
        f.write(text)


def split_holdout(interactions, seed):
    """Label each edge train/valid/test, 80/10/10 per anchor.

    Valid and test each get max(1, floor(n/10)) edges so every held-out
    anchor is testable; anchors with fewer than 3 edges hold nothing out.
    Anchors draw their permutations in id order over their edges in stored
    order, so the labels depend only on the edge set. Each anchor's draw is
    `rng.shuffle` of its slice of one buffer of 0..k-1 runs: the draws of
    `rng.permutation(k)`, without an array per anchor.
    """
    rng = np.random.default_rng(seed)
    counts = np.bincount(interactions.anchors, minlength=interactions.n_anchors)
    held = np.flatnonzero(counts >= 3)
    n = counts[held]
    starts = np.cumsum(n) - n
    slot = np.arange(n.sum()) - np.repeat(starts, n)  # each held anchor's 0..k-1
    perm = slot.copy()
    for start, stop in zip(starts.tolist(), (starts + n).tolist()):
        rng.shuffle(perm[start:stop])
    # slot j of anchor held[i] takes its perm[j]-th edge; slots fill valid, then test
    splits = np.zeros(len(interactions), dtype=np.int8)
    n_hold = np.repeat(np.maximum(1, n // 10), n)
    edge = np.repeat(np.cumsum(counts)[held] - n, n) + perm
    splits[edge] = np.where(slot < n_hold, VALID, np.where(slot < 2 * n_hold, TEST, TRAIN))
    return interactions.relabeled(splits)


def synthesize_group_items(dataset, cap=GROUP_ITEM_CAP):
    """Build group-item edges from members' train interactions.

    Per group, items are ranked by how many member train edges touch them,
    ties broken toward the smaller item id, and the top `cap` are kept;
    a cap below 1 is refused.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    indptr, items = dataset.user_items.anchor_index((TRAIN,))
    counts = sp.csr_matrix((np.ones(len(items)), items, indptr), (dataset.n_users, dataset.n_items))
    per_group = (dataset.group_members @ counts).tocsr()  # member train edges per group and item
    groups = np.repeat(np.arange(dataset.n_groups), np.diff(per_group.indptr))
    order = np.lexsort((per_group.indices, -per_group.data, groups))
    rank = np.arange(len(order)) - per_group.indptr[groups[order]]
    keep = order[rank < cap]
    return Interactions(dataset.n_groups, dataset.n_items, groups[keep], per_group.indices[keep])


def build_norm_adjacency(dataset):
    """User-item adjacency over train edges, weight 1/(sqrt(deg_u) sqrt(deg_v))."""
    indptr, items = dataset.user_items.anchor_index((TRAIN,))  # canonical CSR: sorted rows, no repeats
    deg_u = np.diff(indptr)
    deg_v = np.bincount(items, minlength=dataset.n_items).astype(np.float64)
    weights = 1.0 / np.sqrt(np.repeat(deg_u.astype(np.float64), deg_u) * deg_v[items])
    return sp.csr_matrix((weights, items, indptr), shape=(dataset.n_users, dataset.n_items))


def subsample(dataset, fraction, seed):
    """Keep a user fraction, then compact users, items, and groups.

    Groups survive if any member does; the item universe shrinks to items
    still referenced by a kept edge. Split labels are dropped (re-split after).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    n_keep = max(1, math.ceil(fraction * dataset.n_users))
    kept_users = np.sort(rng.choice(dataset.n_users, size=n_keep, replace=False))
    user_map = np.full(dataset.n_users, -1, dtype=np.int64)
    user_map[kept_users] = np.arange(n_keep)

    ui = dataset.user_items
    ua = user_map[ui.anchors]
    uv = ui.items[ua >= 0]
    ua = ua[ua >= 0]

    m = dataset.group_members.tocoo()
    mu = user_map[m.col]
    mg = m.row[mu >= 0]
    mu = mu[mu >= 0]
    kept_groups = np.unique(mg)
    group_map = np.full(dataset.n_groups, -1, dtype=np.int64)
    group_map[kept_groups] = np.arange(len(kept_groups))

    gi = dataset.group_items
    ga = group_map[gi.anchors]
    gv = gi.items[ga >= 0]
    ga = ga[ga >= 0]

    kept_items = np.unique(np.concatenate([uv, gv]))
    item_map = np.full(dataset.n_items, -1, dtype=np.int64)
    item_map[kept_items] = np.arange(len(kept_items))
    n_items = max(1, len(kept_items))

    ds = Dataset(
        n_keep,
        n_items,
        len(kept_groups),
        Interactions(n_keep, n_items, ua, item_map[uv]),
        Interactions(len(kept_groups), n_items, ga, item_map[gv]),
        membership_matrix(len(kept_groups), n_keep, group_map[mg], mu),
    )
    log.info(
        "subsampled to %d users, %d items, %d groups", ds.n_users, ds.n_items, ds.n_groups
    )
    return ds


def write_splits(interactions, path):
    """Write 'anchor<TAB>item<TAB>split' lines in stored order: by anchor, then item."""
    split = (interactions.splits, _SPLIT_LABELS)
    text = _lines(interactions.anchors, b"\t", interactions.items, b"\t", split, b"\n")
    with open(path, "wb") as f:
        f.write(text)


def read_splits(interactions, path):
    """Attach split labels from a splits file to the same edge set.

    Lines may come in any order but must label each edge exactly once. The
    whole file is parsed at once; a file that parse refuses, or one that does
    not label each edge once, is read again line by line to name the fault.
    """
    rows = _load_rows(path, _SPLIT_ROW)
    labeled = None if rows is None else _labels_from_rows(interactions, rows)
    return _read_splits_lines(interactions, path) if labeled is None else labeled


def _labels_from_rows(interactions, rows):
    """interactions relabeled from parsed rows that label each edge once, else None."""
    codes = np.full(len(rows), -1, dtype=np.int8)
    for code, name in enumerate(SPLIT_NAMES):
        codes[rows["s"] == name.encode()] = code
    anchors, items = rows["a"], rows["v"]
    n_anchors, n_items = interactions.n_anchors, interactions.n_items
    if codes.min() < 0 or not (_in_range(anchors, n_anchors) and _in_range(items, n_items)):
        return None
    keys = edge_keys(anchors, items, n_anchors, n_items)
    if not _increasing(keys):  # rows in stored order need no sort
        order = np.argsort(keys, kind="stable")
        keys, codes = keys[order], codes[order]
    wanted = edge_keys(interactions.anchors, interactions.items, n_anchors, n_items)
    if not np.array_equal(keys, wanted):  # the edges' keys are distinct: one row per edge
        return None
    return interactions.relabeled(codes)


def _read_splits_lines(interactions, path):
    """read_splits one line at a time: raises 'path:line' errors."""
    label_of = {name: code for code, name in enumerate(SPLIT_NAMES)}
    n_anchors, n_items = interactions.n_anchors, interactions.n_items
    fields = []  # anchor, item, label, line of each in-range line
    n_outside = 0
    for lineno, line in _scan_lines(path):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3 or parts[2] not in label_of:
            raise ValueError(f"{path}:{lineno}: expected 'anchor<TAB>item<TAB>split'")
        a, v = _parse_ids(parts[:2], path, lineno, line)
        if 0 <= a < n_anchors and 0 <= v < n_items:
            fields.extend((a, v, label_of[parts[2]], lineno))
        else:  # cannot be a dataset edge
            n_outside += 1
    anchors, items, labels, linenos = np.array(fields, dtype=np.int64).reshape(-1, 4).T
    keys = edge_keys(anchors, items, n_anchors, n_items)
    order = np.argsort(keys, kind="stable")  # each key's lines in file order
    twice = np.flatnonzero(np.diff(keys[order]) == 0)
    if len(twice):
        first, second = order[twice[0]], order[twice[0] + 1]
        edge = (int(anchors[first]), int(items[first]))
        label = SPLIT_NAMES[labels[first]]
        raise ValueError(f"{path}:{linenos[second]}: edge {edge} already labeled {label!r}")
    wanted = edge_keys(interactions.anchors, interactions.items, n_anchors, n_items)
    unlabeled = ~np.isin(wanted, keys)
    if unlabeled.any():
        j = np.argmax(unlabeled)
        edge = (int(interactions.anchors[j]), int(interactions.items[j]))
        raise ValueError(f"{path}: no split label for edge {edge}")
    extra = len(keys) + n_outside - len(wanted)
    if extra:
        raise ValueError(f"{path}: {extra} labeled edges missing from the dataset")
    return Interactions(n_anchors, n_items, anchors, items, labels)


def load_prepared(dataset_dir):
    """Load a dataset plus the split labels written by the prepare step."""
    ds = load_dataset(dataset_dir)
    user_splits = os.path.join(dataset_dir, USER_SPLITS_FILE)
    group_splits = os.path.join(dataset_dir, GROUP_SPLITS_FILE)
    if not os.path.exists(user_splits):
        raise FileNotFoundError(f"{dataset_dir} is not prepared (missing {USER_SPLITS_FILE})")
    user_items = read_splits(ds.user_items, user_splits)
    group_items = ds.group_items
    if os.path.exists(group_splits):
        group_items = read_splits(group_items, group_splits)
    return dataclasses.replace(ds, user_items=user_items, group_items=group_items)
