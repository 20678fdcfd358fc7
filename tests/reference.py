"""Unfused reference ops, kept as the oracles for the fused ops in grouprec.autodiff.

Each is a plain tape op built on autodiff's own recording helpers, so the
fused ops can be checked against compositions of these. Like autodiff's
ops, each closure receives its parents' gradient slots and captures at
forward time the arrays and shapes it reads, and no tensor. The broadcasting
add, mul and scale are also what test losses are built from. Then come
gated_channels, mean_pair_cosine and the Adam update as one block each, the
oracles for the ops that run their rows in blocks on two lanes, with
blas_threads to run an oracle and its op at a stated OpenBLAS thread count,
and finite_difference_check, the central-difference check that every op's
gradients are tested with. Then come the per-edge file writers and the
dataset fingerprint, the byte oracles for grouprec.datasets' array writers,
the normalised adjacency as scipy's COO path builds it, the checkpoint
writer that copied each tensor's bytes, the per-row ranking and metrics that grouprec.evaluate's block ranking is
checked against, with the dense score source those tests rank, and the
structural baseline configs.
"""

import contextlib
import ctypes
import glob
import hashlib
import json
import logging
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from grouprec.autodiff import (
    COSINE_NORM_EPS,
    Tape,
    Tensor,
    _accum,
    _as_tensor,
    _onehot_rows,
    _record,
    _segment_softmax,
    _sigmoid_inplace,
    channel_cosines,
    _segment_softmax_grad,
    gather_rows,
    scatter_rows,
    spmm,
)
from grouprec.checkpoint import MAGIC as CHECKPOINT_MAGIC
from grouprec.config import TrainConfig
from grouprec.datasets import SPLIT_NAMES, TRAIN
from grouprec.optim import BETA1, BETA2, EPS

log = logging.getLogger(__name__)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to an operand's shape (g itself if equal)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    out = Tensor(a.data + b.data)

    def backward(g, a, b):
        ga, gb = _unbroadcast(g, sa), _unbroadcast(g, sb)
        _accum(a, ga)
        _accum(b, gb.copy() if gb is ga else gb)

    return _record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)

    def backward(g, a, b):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * bd, ad.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * ad, bd.shape))

    return _record(out, (a, b), backward)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    out = Tensor(x.data * c)

    def backward(g, x):
        _accum(x, g * c)

    return _record(out, (x,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ValueError(f"matmul expects 2-d @ 1/2-d, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)

    def backward(g, a, b):
        if a.requires_grad:
            _accum(a, np.outer(g, bd) if bd.ndim == 1 else g @ bd.T)
        if b.requires_grad:
            _accum(b, ad.T @ g)

    return _record(out, (a, b), backward)


def stack(tensors: list[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new axis 1: M of (n, ...) -> (n, M, ...)."""
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors], axis=1))

    def backward(g, *slots):
        for j, slot in enumerate(slots):
            _accum(slot, g[:, j])

    return _record(out, tuple(tensors), backward)


def take(x, n) -> Tensor:
    """Slice x[n] of a stacked parameter, as its own tape node."""
    x = _as_tensor(x)
    shape = x.data.shape
    out = Tensor(x.data[n])

    def backward(g, x):
        grad = np.zeros(shape)
        grad[n] = g
        _accum(x, grad)

    return _record(out, (x,), backward)


def neg(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(-x.data)

    def backward(g, x):
        _accum(x, -g)

    return _record(out, (x,), backward)


def sigmoid(x) -> Tensor:
    """Elementwise logistic function; saturates instead of overflowing."""
    x = _as_tensor(x)
    y = expit(x.data)
    out = Tensor(y)

    def backward(g, x):
        _accum(x, g * y * (1.0 - y))

    return _record(out, (x,), backward)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    x_shape = x.data.shape
    out = Tensor(x.data.reshape(shape))

    def backward(g, x):
        _accum(x, g.reshape(x_shape))

    return _record(out, (x,), backward)


def cosine_rows(a, b) -> Tensor:
    """Rowwise cosine similarity in [-1, 1].

    Rows where either norm is below COSINE_NORM_EPS yield similarity 0 and
    pass no gradient to either side.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ValueError(f"cosine_rows shape mismatch: {ad.shape} vs {bd.shape}")
    na = np.linalg.norm(ad, axis=1)
    nb = np.linalg.norm(bd, axis=1)
    ok = (na >= COSINE_NORM_EPS) & (nb >= COSINE_NORM_EPS)
    if not ok.all():
        log.debug("cosine_rows: %d degenerate row(s) clamped to 0", int((~ok).sum()))
    denom = np.where(ok, na * nb, 1.0)
    cos = np.where(ok, (ad * bd).sum(axis=1) / denom, 0.0)
    out = Tensor(cos)

    def backward(g, a, b):
        gm = np.where(ok, g, 0.0)[:, None]
        na_ = np.where(ok, na, 1.0)[:, None]
        nb_ = np.where(ok, nb, 1.0)[:, None]
        c = cos[:, None]
        _accum(a, gm * (bd / (na_ * nb_) - c * ad / (na_ * na_)))
        _accum(b, gm * (ad / (na_ * nb_) - c * bd / (nb_ * nb_)))

    return _record(out, (a, b), backward)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Plain-number cosine of two vectors; 0.0 when either is near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"cosine_similarity shape mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < COSINE_NORM_EPS or nb < COSINE_NORM_EPS:
        log.debug("cosine_similarity: degenerate input, returning 0")
        return 0.0
    return float(a @ b / (na * nb))


def mean_abs_cosine(interests: np.ndarray) -> np.ndarray:
    """The M x M mean over rows of |cosine| between channels, diagonal 1, pair by pair."""
    m = interests.shape[1]
    out = np.eye(m)
    for p in range(m):
        for q in range(p + 1, m):
            out[p, q] = out[q, p] = np.mean([abs(cosine_similarity(x[p], x[q])) for x in interests])
    return out


def segment_softmax(scores, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Softmax of a 1-d score vector within each segment.

    Empty segments are fine (they simply contribute no entries).
    """
    scores = _as_tensor(scores)
    seg = np.asarray(segment_ids, dtype=np.int64)
    onehot = _onehot_rows(seg, n_segments)
    p = _segment_softmax(scores.data, seg, onehot)
    out = Tensor(p)

    def backward(g, scores):
        _accum(scores, _segment_softmax_grad(p, g, seg, onehot))

    return _record(out, (scores,), backward)


def segment_attention(x, att, rows: np.ndarray, segment_ids: np.ndarray,
                      n_segments: int) -> Tensor:
    """Attention-weighted segment sums of gathered rows, per channel.

    The oracle for autodiff.segment_attention: the group one-hot built per
    call, the (n, M, d) weighted rows, and a per-entry scatter in backward.
    x is (U, M, d); rows and segment_ids are parallel (n,) arrays placing
    row x[rows[j]] in segment segment_ids[j]. Within each segment and
    channel the weights are a softmax of att . x[rows[j], m]. Returns
    (n_segments, M, d); empty segments come out zero.
    """
    x, att = _as_tensor(x), _as_tensor(att)
    rows = np.asarray(rows, dtype=np.int64)
    seg = np.asarray(segment_ids, dtype=np.int64)
    onehot = _onehot_rows(seg, n_segments)
    n_x, ad = x.data.shape[0], att.data
    r = x.data[rows]
    gamma = _segment_softmax(r @ ad, seg, onehot)
    out = Tensor(scatter_rows(seg, gamma[:, :, None] * r, n_segments))

    def backward(g, x, att):
        g_rows = g[seg]
        ds = _segment_softmax_grad(gamma, np.einsum("nmd,nmd->nm", g_rows, r), seg, onehot)
        _accum(att, np.einsum("nm,nmd->d", ds, r))
        if x.requires_grad:
            g_rows *= gamma[:, :, None]
            g_rows += np.multiply(ds[:, :, None], ad, out=r)  # r is dead here
            _accum(x, scatter_rows(rows, g_rows, n_x))

    return _record(out, (x, att), backward)


def segment_sum(x, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows of x into n_segments buckets given per-row segment ids."""
    x = _as_tensor(x)
    seg = np.asarray(segment_ids, dtype=np.int64)
    out = Tensor(scatter_rows(seg, x.data, n_segments))

    def backward(g, x):
        _accum(x, g[seg])

    return _record(out, (x,), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    out = Tensor(a.data - b.data)

    def backward(g, a, b):
        _accum(a, _unbroadcast(g, sa))
        _accum(b, _unbroadcast(-g, sb))

    return _record(out, (a, b), backward)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), computed stably. Gradient is sigmoid(x)."""
    x = _as_tensor(x)
    xd = x.data
    out = Tensor(np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd))))

    def backward(g, x):
        _accum(x, g * expit(xd))

    return _record(out, (x,), backward)


def tsum(x) -> Tensor:
    x = _as_tensor(x)
    shape = x.data.shape
    out = Tensor(x.data.sum())

    def backward(g, x):
        _accum(x, np.full(shape, float(g)))

    return _record(out, (x,), backward)


def tmean(x) -> Tensor:
    x = _as_tensor(x)
    shape, n = x.data.shape, x.data.size
    out = Tensor(x.data.mean())

    def backward(g, x):
        _accum(x, np.full(shape, float(g) / n))

    return _record(out, (x,), backward)


def rowwise_dot(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ValueError(f"rowwise_dot shape mismatch: {ad.shape} vs {bd.shape}")
    out = Tensor((ad * bd).sum(axis=1))

    def backward(g, a, b):
        _accum(a, g[:, None] * bd)
        _accum(b, g[:, None] * ad)

    return _record(out, (a, b), backward)


def score_pairs(final_anchor, final_items, anchor_idx, item_idx):
    """Dot-product scores for aligned (anchor, item) index arrays."""
    a = gather_rows(final_anchor, anchor_idx)
    b = gather_rows(final_items, item_idx)
    return rowwise_dot(a, b)


def bpr_loss(pos_scores, neg_scores):
    """Mean of -log sigmoid(pos - neg) over the batch.

    softplus(neg - pos) is the same quantity without the intermediate
    sigmoid, so large score gaps stay finite.
    """
    if pos_scores.shape[0] == 0:
        raise ValueError("empty batch")
    return tmean(softplus(sub(neg_scores, pos_scores)))


# ---------------------------------------------------------------------------
# the two-operand chains that autodiff.weighted_sum replaced, as bit oracles


def chain_fuse_groups(group_emb, group_interest):
    return scale(add(group_emb, group_interest), 0.5)


def chain_fuse_users(user_emb, fused_groups, pool_csr, coef):
    return add(mul(Tensor(coef[:, None]), user_emb), scale(spmm(pool_csr, fused_groups), 0.5))


def chain_propagate(adj, users0, items0, n_layers):
    u_cur, v_cur = users0, items0
    u_acc, v_acc = users0, items0
    for _ in range(n_layers):
        u_next = spmm(adj, v_cur)
        v_next = spmm(adj.T, u_cur)
        u_acc = add(u_acc, u_next)
        v_acc = add(v_acc, v_next)
        u_cur, v_cur = u_next, v_next
    return u_acc, v_acc


def chain_loss(*terms):
    """The training loss as it was chained: every (c, x) term scaled, then added left to right."""
    (c0, x0), *rest = terms
    loss = scale(x0, c0)
    for c, x in rest:
        loss = add(loss, scale(x, c))
    return loss


# the row-block ops as one block on the caller's thread: grouprec's code before
# gated_channels, mean_pair_cosine and Adam.step ran their rows in blocks on two lanes


def gated_channels(x, w, b) -> Tensor:
    """autodiff.gated_channels as one product over every row."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd = x.data
    m, d = w.data.shape[0], xd.shape[1]
    w_cat = w.data.transpose(1, 0, 2).reshape(d, m * d)
    z = xd @ w_cat
    z += b.data.reshape(m * d)
    gate = _sigmoid_inplace(z).reshape(-1, m, d)
    gated = xd[:, None, :] * gate
    out = Tensor(gated)

    def backward(g, x, w, b):
        if x.requires_grad:
            _accum(x, np.einsum("umd,umd->ud", g, gate))
        dz = g
        dz *= gated
        dz *= np.subtract(1.0, gate, out=gate)
        dz = dz.reshape(-1, m * d)
        _accum(w, (xd.T @ dz).reshape(d, m, d).transpose(1, 0, 2))
        _accum(b, dz.sum(axis=0).reshape(m, d))
        if x.requires_grad:
            x.grad += dz @ w_cat.T

    return _record(out, (x, w, b), backward)


def _bundled_openblas():
    """numpy's bundled scipy-openblas library, with restype and argtypes of its thread calls set.

    Returns (library, None), or (None, why) where numpy bundles no such
    library or it lacks the thread calls.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if not libs:
        return None, "numpy bundles no libscipy_openblas64_ library"
    try:
        lib = ctypes.CDLL(libs[0])  # the copy numpy loaded: the same file maps to the same handle
        lib.scipy_openblas_set_num_threads64_.argtypes = (ctypes.c_int,)
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    except (OSError, AttributeError) as exc:
        return None, f"{libs[0]} offers no thread calls ({exc})"
    return lib, None


@contextlib.contextmanager
def blas_threads(n):
    """Run the body with numpy's OpenBLAS at n threads, and restore its count afterwards.

    How a product splits over OpenBLAS threads changes its rounding on some
    cores (two threads on the Haswell kernel round a whole product unlike
    the row blocks of gated_channels), so a bit-equality oracle and its op
    run at a stated count. Where the count cannot be set, the body runs at
    the process's own count and the reason is logged.
    """
    lib, why = _bundled_openblas()
    if lib is None:
        log.warning("BLAS thread count left as it is: %s", why)
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(n)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def mean_pair_cosine(x, rows: np.ndarray, threshold: float) -> Tensor:
    """autodiff.mean_pair_cosine with every row's cosines and gradient taken at once."""
    x = _as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    n, (n_x, m) = len(rows), x.data.shape[:2]
    cos, unit, inv, ok = channel_cosines(x.data[rows])
    mask = np.triu(np.ones((m, m), dtype=bool), k=1) & ok[:, :, None] & ok[:, None, :]
    mask &= np.abs(cos) >= threshold
    inv_n = 1.0 / n
    out = Tensor((cos * mask).sum() * inv_n)
    sorted_rows = bool(np.all(rows[1:] > rows[:-1]))

    def backward(g, x):
        w = mask * (float(g) * inv_n)
        w += w.transpose(0, 2, 1)
        d_unit = w @ unit
        proj = np.einsum("nmd,nmd->nm", d_unit, unit)
        d_unit -= np.multiply(unit, proj[:, :, None], out=unit)
        d_unit *= inv[:, :, None]
        if x.grad is not None and sorted_rows:
            x.grad[rows] += d_unit
        else:
            _accum(x, scatter_rows(rows, d_unit, n_x))

    return _record(out, (x,), backward)


def adam_step(opt) -> None:
    """optim.Adam.step for `opt`, one whole-array pass per parameter, with the same roundings."""
    opt.t += 1
    c1, c2 = 1.0 - BETA1 ** opt.t, 1.0 - BETA2 ** opt.t
    for p, m, v in zip(opt.params, opt.m, opt.v):
        g = 0.0 if p.grad is None else p.grad
        if opt.weight_decay:
            g = opt.weight_decay * p.data + g
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= (m / c1) * opt.lr / (np.sqrt(v / c2) + EPS)


def finite_difference_check(loss_fn, params: list[Tensor], h: float = 1e-5,
                            max_coords: int = 16, rng=None) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` must build the loss from scratch on each call (deterministic
    under any frozen noise) and return a scalar Tensor when run under a tape.
    Checks up to ``max_coords`` coordinates per parameter, sampled with
    ``rng`` when given, else a fixed spread.
    """
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        n = p.data.size
        if n <= max_coords:
            coords = np.arange(n)
        elif rng is not None:
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = np.linspace(0, n - 1, max_coords).astype(np.int64)
        for c in coords:
            ix = np.unravel_index(c, p.data.shape)
            orig = p.data[ix]
            p.data[ix] = orig + h
            up = float(loss_fn().data)
            p.data[ix] = orig - h
            down = float(loss_fn().data)
            p.data[ix] = orig
            fd = (up - down) / (2.0 * h)
            an = float(ga[ix])
            err = abs(an - fd) / (abs(an) + abs(fd) + 1e-12)
            worst = max(worst, err)
    return worst


# the per-edge writers and fingerprint that datasets._lines replaced, as byte oracles


def write_edges(interactions, path):
    """Write 'id<TAB>item' lines in stored order: by anchor, then item."""
    with open(path, "w") as f:
        for a, v in zip(interactions.anchors.tolist(), interactions.items.tolist()):
            f.write(f"{a}\t{v}\n")


def write_splits(interactions, path):
    """Write 'anchor<TAB>item<TAB>split' lines in stored order: by anchor, then item."""
    cols = (interactions.anchors, interactions.items, interactions.splits)
    with open(path, "w") as f:
        for a, v, s in zip(*(col.tolist() for col in cols)):
            f.write(f"{a}\t{v}\t{SPLIT_NAMES[s]}\n")


def fingerprint(dataset):
    """Content hash covering counts, edges, split labels, and memberships."""
    h = hashlib.sha256()
    h.update(json.dumps([dataset.n_users, dataset.n_items, dataset.n_groups]).encode())
    for inter in (dataset.user_items, dataset.group_items):
        rows = zip(inter.anchors.tolist(), inter.items.tolist(), inter.splits.tolist())
        h.update(b"".join(b"%d %d %d\n" % row for row in rows))
    m = dataset.group_members.tocoo()  # row-major, as the CSR stores it
    h.update(b"".join(b"m%d %d\n" % pair for pair in zip(m.row.tolist(), m.col.tolist())))
    return h.hexdigest()


def coo_norm_adjacency(dataset):
    """build_norm_adjacency through scipy's COO path, from the masked train edges."""
    ui = dataset.user_items
    train = ui.splits == TRAIN
    users, items = ui.anchors[train], ui.items[train]
    deg_u = np.bincount(users, minlength=dataset.n_users).astype(np.float64)
    deg_v = np.bincount(items, minlength=dataset.n_items).astype(np.float64)
    weights = 1.0 / np.sqrt(deg_u[users] * deg_v[items])
    return sp.csr_matrix((weights, (users, items)), shape=(dataset.n_users, dataset.n_items))


# the checkpoint writer that copied every tensor's bytes out before it wrote, as a byte oracle


def save_checkpoint(path, config_dict, named_arrays, meta=None):
    """grouprec.checkpoint.save_checkpoint's file, from one bytes copy of each tensor."""
    descriptors = []
    offset = 0
    blobs = []
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        blob = arr.tobytes()
        descriptors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps(
        {"config": config_dict, "meta": {} if meta is None else meta, "tensors": descriptors},
        sort_keys=True,
    ).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(len(header).to_bytes(8, "big"))
        f.write(header)
        for blob in blobs:
            f.write(blob)


# the per-row ranking and metrics that block ranking in grouprec.evaluate replaced


def recall_at_k(topk_items, relevant, k):
    if not relevant:
        raise ValueError("empty relevant set")
    hits = sum(1 for v in topk_items[:k] if v in relevant)
    return hits / len(relevant)


def ndcg_at_k(topk_items, relevant, k):
    if not relevant:
        raise ValueError("empty relevant set")
    dcg = ideal = 0.0  # added left to right: builtin sum() compensates from Python 3.12 on
    for rank, v in enumerate(topk_items[:k], start=1):
        if v in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    for rank in range(1, min(len(relevant), k) + 1):
        ideal += 1.0 / math.log2(rank + 1)
    return dcg / ideal


def top_k(scores_row, banned, k):
    """Indices of the k best items with banned ones excluded."""
    s = scores_row.astype(np.float64, copy=True)
    if banned:
        s[list(banned)] = -np.inf
    k = min(k, len(s))
    part = np.argpartition(-s, k - 1)[:k]
    return part[np.argsort(-s[part], kind="stable")]


class DenseScores:
    """A dense score array shaped as a `grouprec.model.RowScores`, the source evaluate_scores takes.

    Its scores are the array's exact values, so `error_bound` is zero and the
    sampled threshold compares them with no slack.
    """

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.shape = self.scores.shape

    def negated(self, rows):
        return -self.scores[rows]

    def by_reach(self):
        """The columns by their largest |score|, largest first, ties to the smaller id."""
        return np.argsort(-np.abs(self.scores).max(axis=0, initial=0.0), kind="stable")

    def columns(self, cols):
        return DenseScores(self.scores[:, cols])

    def negated_pairs(self, rows, items):
        return -self.scores[rows, items]

    def error_bound(self, rows):
        return np.zeros(len(rows))


def whole(score_source):
    """Every row of a score source, as one array: negation is exact, so these are its bits."""
    return -score_source.negated(np.arange(score_source.shape[0]))


def baseline_config(name, base=None):
    """Structural baselines: groups off, and layers zeroed for plain MF."""
    cfg = base or TrainConfig()
    if name == "mf":
        return cfg.replace(use_groups=False, n_layers=0, variant="full")
    if name == "lightgcn":
        return cfg.replace(use_groups=False, variant="full")
    raise ValueError(f"unknown baseline {name!r}")
