"""Unfused reference ops, kept as the oracles for the fused ops in grouprec.autodiff.

Each is a plain tape op built on autodiff's own recording helpers, so the
fused ops can be checked against compositions of these. The broadcasting
add, mul and scale are also what test losses are built from. Then comes
finite_difference_check, the central-difference check that every op's
gradients are tested with. Then come the per-edge file writers and the
dataset fingerprint, the byte oracles for grouprec.datasets' array writers,
the per-row ranking and metrics that grouprec.evaluate's block ranking is
checked against, with the dense score source those tests rank, and the
structural baseline configs.
"""

import hashlib
import json
import logging
import math

import numpy as np
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
    _segment_softmax_grad,
    gather_rows,
    scatter_rows,
    spmm,
)
from grouprec.config import TrainConfig
from grouprec.datasets import SPLIT_NAMES

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
    out = Tensor(a.data + b.data)

    def backward(g):
        ga, gb = _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)
        _accum(a, ga)
        _accum(b, gb.copy() if gb is ga else gb)

    return _record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    out = Tensor(x.data * c)

    def backward(g):
        _accum(x, g * c)

    return _record(out, (x,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ValueError(f"matmul expects 2-d @ 1/2-d, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, np.outer(g, b.data) if b.data.ndim == 1 else g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _record(out, (a, b), backward)


def stack(tensors: list[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new axis 1: M of (n, ...) -> (n, M, ...)."""
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors], axis=1))

    def backward(g):
        for j, t in enumerate(tensors):
            _accum(t, g[:, j])

    return _record(out, tuple(tensors), backward)


def take(x, n) -> Tensor:
    """Slice x[n] of a stacked parameter, as its own tape node."""
    x = _as_tensor(x)
    out = Tensor(x.data[n])

    def backward(g):
        grad = np.zeros_like(x.data)
        grad[n] = g
        _accum(x, grad)

    return _record(out, (x,), backward)


def neg(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(-x.data)

    def backward(g):
        _accum(x, -g)

    return _record(out, (x,), backward)


def sigmoid(x) -> Tensor:
    """Elementwise logistic function; saturates instead of overflowing."""
    x = _as_tensor(x)
    y = expit(x.data)
    out = Tensor(y)

    def backward(g):
        _accum(x, g * y * (1.0 - y))

    return _record(out, (x,), backward)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _record(out, (x,), backward)


def cosine_rows(a, b) -> Tensor:
    """Rowwise cosine similarity in [-1, 1].

    Rows where either norm is below COSINE_NORM_EPS yield similarity 0 and
    pass no gradient to either side.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"cosine_rows shape mismatch: {a.data.shape} vs {b.data.shape}")
    na = np.linalg.norm(a.data, axis=1)
    nb = np.linalg.norm(b.data, axis=1)
    ok = (na >= COSINE_NORM_EPS) & (nb >= COSINE_NORM_EPS)
    if not ok.all():
        log.debug("cosine_rows: %d degenerate row(s) clamped to 0", int((~ok).sum()))
    denom = np.where(ok, na * nb, 1.0)
    cos = np.where(ok, (a.data * b.data).sum(axis=1) / denom, 0.0)
    out = Tensor(cos)

    def backward(g):
        gm = np.where(ok, g, 0.0)[:, None]
        na_ = np.where(ok, na, 1.0)[:, None]
        nb_ = np.where(ok, nb, 1.0)[:, None]
        c = cos[:, None]
        _accum(a, gm * (b.data / (na_ * nb_) - c * a.data / (na_ * na_)))
        _accum(b, gm * (a.data / (na_ * nb_) - c * b.data / (nb_ * nb_)))

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


def segment_softmax(scores, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Softmax of a 1-d score vector within each segment.

    Empty segments are fine (they simply contribute no entries).
    """
    scores = _as_tensor(scores)
    seg = np.asarray(segment_ids, dtype=np.int64)
    onehot = _onehot_rows(seg, n_segments)
    p = _segment_softmax(scores.data, seg, onehot)
    out = Tensor(p)

    def backward(g):
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
    r = x.data[rows]
    gamma = _segment_softmax(r @ att.data, seg, onehot)
    out = Tensor(scatter_rows(seg, gamma[:, :, None] * r, n_segments))

    def backward(g):
        g_rows = g[seg]
        ds = _segment_softmax_grad(gamma, np.einsum("nmd,nmd->nm", g_rows, r), seg, onehot)
        _accum(att, np.einsum("nm,nmd->d", ds, r))
        if x.requires_grad:
            g_rows *= gamma[:, :, None]
            g_rows += np.multiply(ds[:, :, None], att.data, out=r)  # r is dead here
            _accum(x, scatter_rows(rows, g_rows, x.data.shape[0]))

    return _record(out, (x, att), backward)


def segment_sum(x, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows of x into n_segments buckets given per-row segment ids."""
    x = _as_tensor(x)
    seg = np.asarray(segment_ids, dtype=np.int64)
    out = Tensor(scatter_rows(seg, x.data, n_segments))

    def backward(g):
        _accum(x, g[seg])

    return _record(out, (x,), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _record(out, (a, b), backward)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), computed stably. Gradient is sigmoid(x)."""
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data))))

    def backward(g):
        _accum(x, g * expit(x.data))

    return _record(out, (x,), backward)


def tsum(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.sum())

    def backward(g):
        _accum(x, np.full_like(x.data, float(g)))

    return _record(out, (x,), backward)


def tmean(x) -> Tensor:
    x = _as_tensor(x)
    n = x.data.size
    out = Tensor(x.data.mean())

    def backward(g):
        _accum(x, np.full_like(x.data, float(g) / n))

    return _record(out, (x,), backward)


def rowwise_dot(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"rowwise_dot shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor((a.data * b.data).sum(axis=1))

    def backward(g):
        _accum(a, g[:, None] * b.data)
        _accum(b, g[:, None] * a.data)

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
