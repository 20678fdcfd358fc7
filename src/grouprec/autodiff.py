"""Minimal reverse-mode autodiff over numpy float64 arrays.

Every op does a plain numpy forward pass and, when a tape is active and some
input requires gradients, records a backward closure on the tape. Calling
``Tape.backward(loss)`` walks the recorded nodes in reverse creation order,
which is a valid reverse topological order because operands always exist
before their results.

The tape holds gradient slots, not tensors. Every tensor has a `GradSlot`
that holds its gradient, its requires-grad flag and, once recorded, its
closure and its parents' slots. The tape and the closures hold slots; only
the caller holds a tensor and so its array. A closure receives its parents'
slots as arguments and captures at forward time the arrays, shapes and flags
it reads, so an intermediate the forward drops is freed during the forward,
unless a closure captured its array. Each node's gradient is released as the
walk reaches it, so a closure may hand that array (or disjoint views of it)
to an operand instead of copying it; only leaf tensors keep a gradient
afterwards. The node's closure and tape slot are released there too, so an
op's captured forward buffers live only until its own backward has run.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import scipy.sparse as sp

from .lanes import row_blocks, run_on_two_lanes

COSINE_NORM_EPS = 1e-12


class GradSlot:
    """A tensor's gradient, requires-grad flag and, once recorded, its closure and parents' slots.

    ``backward(g, *parents)`` adds the gradient g at the tensor into its
    parents' slots.
    """

    __slots__ = ("grad", "requires_grad", "backward", "parents")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.backward = None
        self.parents = ()


class Tensor:
    """A float64 ndarray plus the `GradSlot` that accumulates its gradient.

    Data is treated as immutable once written; the optimizer, which owns the
    parameters exclusively during training, is its one sanctioned writer.
    ``grad`` and ``requires_grad`` are the slot's.
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = GradSlot(requires_grad)

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, value):
        self.slot.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool):
        self.slot.requires_grad = value

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of op applications for one forward pass, one gradient slot per recorded output."""

    def __init__(self):
        self.nodes: list[GradSlot | None] = []  # a slot is None once backward has passed it
        self._spent = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(x) into ``.grad`` of every reachable leaf.

        The tape holds no tensor, so a recorded output's array lives as long
        as the caller or a closure holds it, and backward changes no
        ``.data``. Recorded (non-leaf) tensors end with ``.grad`` None: each
        one's gradient is taken off its slot before its closure runs.
        Closures may also reuse their own forward buffers, so a tape runs
        backward once.

        The walk releases each node as it passes it: the node's entry in
        ``nodes`` becomes None and its closure and parents are taken off its
        slot, so the op's captured forward buffers are freed before the
        earlier closures allocate. ``nodes`` keeps its length, one None
        entry per recorded op.
        """
        if self._spent:
            raise RuntimeError("backward already ran on this tape; record a new one")
        self._spent = True
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        nodes = self.nodes
        for i in reversed(range(len(nodes))):
            # the locals are rebound before the next closure runs, so they hold nothing it frees
            slot, nodes[i] = nodes[i], None
            backward, slot.backward = slot.backward, None
            parents, slot.parents = slot.parents, ()
            g, slot.grad = slot.grad, None
            if g is not None and backward is not None:
                backward(g, *parents)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accum(slot: GradSlot, g: np.ndarray) -> None:
    """Add g into slot.grad, taking g over as the buffer when the slot has none yet.

    Callers pass arrays no other slot will hold: fresh results, or views
    of the released output gradient that no other operand receives.
    """
    if not slot.requires_grad:
        return
    if slot.grad is None:
        slot.grad = g
    else:
        slot.grad += g


def _record(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Put out's slot on the active tape with backward(g, *parent slots), if a parent needs a gradient."""
    tape = _ACTIVE_TAPE
    if tape is not None and any(p.requires_grad for p in parents):
        slot = out.slot
        slot.requires_grad = True
        slot.backward = backward
        slot.parents = tuple(p.slot for p in parents)
        tape.nodes.append(slot)
    return out


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def weighted_sum(*terms) -> Tensor:
    """sum_i c_i * x_i over (c_i, x_i) pairs with constant coefficients.

    Each c_i is a float or an array that broadcasts into x_i's shape (an
    (n, 1) column, say), and every x_i has the output's shape. The forward
    adds the products left to right into the first one's buffer. A product
    by 1.0 is exact, so a plain sum has the bits of a chain of two-operand
    adds. Backward gives each x_i the gradient g * c_i, in term order, so a
    tensor in several terms sums its gradients left to right.
    """
    coefs = [c for c, _ in terms]
    xs = tuple(_as_tensor(x) for _, x in terms)
    out = xs[0].data * coefs[0]
    for c, x in zip(coefs[1:], xs[1:]):
        out += x.data * c

    def backward(g, *xs):
        for c, x in zip(coefs, xs):
            if x.requires_grad:
                _accum(x, g * c)

    return _record(Tensor(out), xs, backward)


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """z <- 1 / (1 + exp(-z)), in place. Saturates to exactly 0 and 1.

    exp overflows to inf for z below about -709, which gives 1 / inf = 0;
    that overflow is expected and not warned about.
    """
    with np.errstate(over="ignore"):
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.reciprocal(z, out=z)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    y = np.maximum(x.data, 0.0)
    out = Tensor(y)

    def backward(g, x):
        _accum(x, g * (y > 0.0))  # y > 0 exactly where x > 0, and y is all that is kept

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# shape plumbing


def _onehot_rows(idx: np.ndarray, n_rows: int):
    """CSR (n_rows, len(idx)) with a 1 at (idx[j], j), columns in order per row.

    ``_onehot_rows(idx, n) @ g`` sums the rows of g into n buckets. Each bucket
    adds its rows in their original order, so the result is bit-equal to
    ``np.add.at(zeros, idx, g)``, only without the per-element dispatch.
    """
    idx = np.asarray(idx, dtype=np.int64)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n_rows), out=indptr[1:])
    order = np.argsort(idx, kind="stable")
    return sp.csr_matrix((np.ones(len(idx)), order, indptr), shape=(n_rows, len(idx)))


def scatter_rows(idx: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum g's rows (any trailing shape) into n_rows buckets by idx; bit-equal to np.add.at."""
    flat = g.reshape(len(idx), math.prod(g.shape[1:]))
    return (_onehot_rows(idx, n_rows) @ flat).reshape((n_rows,) + g.shape[1:])


def gather_rows(x, idx: np.ndarray) -> Tensor:
    """Row lookup x[idx]; backward adds each row's gradient back into its source row.

    The rows' gradients sum through scatter_rows, whatever order or repeats
    idx has, so a source row gains the bits np.add.at sums for it from zero,
    added to any gradient it already holds.
    """
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    n_rows = x.data.shape[0]

    def backward(g, x):
        _accum(x, scatter_rows(idx, g, n_rows))

    return _record(Tensor(x.data[idx]), (x,), backward)


def _segment_max(x: np.ndarray, onehot) -> np.ndarray:
    """Per-segment max over x's leading axis; -inf for empty segments."""
    counts = np.diff(onehot.indptr)
    out = np.full((onehot.shape[0],) + x.shape[1:], -np.inf)
    has = counts > 0
    if has.any():
        out[has] = np.maximum.reduceat(x[onehot.indices], onehot.indptr[:-1][has], axis=0)
    return out


def _segment_softmax(s: np.ndarray, seg: np.ndarray, onehot) -> np.ndarray:
    """Softmax of s over its leading axis within each segment, max-shifted."""
    e = np.exp(s - _segment_max(s, onehot)[seg])
    return e / (onehot @ e)[seg]


def _segment_softmax_grad(p: np.ndarray, g: np.ndarray, seg: np.ndarray, onehot) -> np.ndarray:
    """Gradient at the scores of a segment softmax p, given the gradient g at p."""
    return p * (g - (onehot @ (p * g))[seg])


# ---------------------------------------------------------------------------
# softmax family


def softmax_rows(x, tau: float = 1.0) -> Tensor:
    """Row softmax of x / tau, with a row-max shift for stability."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    x = _as_tensor(x)
    z = x.data / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def backward(g, x):
        inner = (p * g).sum(axis=1, keepdims=True)
        _accum(x, p * (g - inner) / tau)

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# sparse


def spmm(mat, x) -> Tensor:
    """Sparse times dense; the sparse factor is a constant.

    Backward multiplies by ``mat.T``, which scipy gives as a view (CSR turns
    into CSC and back without a copy), so no transpose is ever built. The
    product through the view adds the same terms in the same order as one
    through a transposed copy, so the bits match too.
    """
    x = _as_tensor(x)
    if mat.shape[1] != x.data.shape[0]:
        raise ValueError(f"spmm shape mismatch: {mat.shape} @ {x.data.shape}")
    out = Tensor(mat @ x.data)

    def backward(g, x):
        _accum(x, mat.T @ g)

    return _record(out, (x,), backward)


class _LayerSum:
    """One side's sum of layers 0..K, added in layer order from either lane.

    `add(k, x)` files layer k, then, holding the sum's lock, adds every filed
    layer that is next in turn. A layer filed before the one before it waits
    in `held` until that one is added, by whichever lane adds it. The lock
    holder waits on nothing, so a lane waits only for an add in progress on
    the same side, never for the other chain.
    """

    def __init__(self, layer0):
        self.total = layer0.copy()
        self.held = {}
        self.next = 1
        self.lock = threading.Lock()

    def add(self, k, x):
        with self.lock:
            self.held[k] = x
            while self.next in self.held:
                self.total += self.held.pop(self.next)
                self.next += 1


def propagate(adj, users0, items0, n_layers: int) -> tuple[Tensor, Tensor]:
    """LightGCN's layer sums over the bipartite operator adj, as one op.

    Each layer maps ``u, v = adj @ v, adj.T @ u``; the outputs are
    users0 + u_1 + ... + u_K and items0 + v_1 + ... + v_K. The layers form
    two chains that share no operand, u_0 -> v_1 -> u_2 -> ... and
    v_0 -> u_1 -> v_2 -> ..., which run on the two lanes of
    `lanes.run_on_two_lanes`. Each chain keeps only its last layer and adds
    each layer into its side's sum, a fresh copy of the input, in layer
    order, under the sum's lock: a layer that is ready before the one
    before it on its side is held until that one has been added, and a lane
    waits only for an add in progress on the same side, never for the other
    chain. So the sums have the bits of a chain of spmm and two-operand
    adds, on one lane or two.

    Backward is the adjoint in Horner form, y_u <- g_u + adj @ y_v and
    y_v <- g_v + adj.T @ y_u, K times from y = g, and splits the same way
    into two chains: one from g_v through y_u1 = adj @ g_v + g_u,
    y_v2 = adj.T @ y_u1 + g_v, ..., and one from g_u starting on the item
    side. Each keeps only its last output; for odd K the chain from g_v
    ends at users0's gradient. ``adj.T`` is scipy's CSC view, so no
    transpose is built, and a side with no gradient counts as zeros.

    The op returns two tensors, so it records two tape entries. The item
    output is recorded last, so its closure runs first: it takes the user
    output's gradient off that tensor's slot, which is complete because every
    consumer of either output was recorded later, and runs the adjoint once
    for both. The user output's closure runs the adjoint only when the item
    output got no gradient.
    """
    users0, items0 = _as_tensor(users0), _as_tensor(items0)
    ops = (adj, adj.T)  # side 0 (users) is adj @ items, side 1 (items) is adj.T @ users
    sums = (_LayerSum(users0.data), _LayerSum(items0.data))

    def layers(side):
        x = (users0.data, items0.data)[side]
        for k in range(1, n_layers + 1):
            side ^= 1
            x = ops[side] @ x
            sums[side].add(k, x)

    run_on_two_lanes(layers, (0, 1))
    out_u, out_v = Tensor(sums[0].total), Tensor(sums[1].total)
    shape_u, shape_v = out_u.data.shape, out_v.data.shape
    slot_u = out_u.slot

    def adjoint(g_u, g_v, users0, items0):
        g_u = np.zeros(shape_u) if g_u is None else g_u
        g_v = np.zeros(shape_v) if g_v is None else g_v
        g, ends = (g_u, g_v), [None, None]

        def horner(side):
            y = g[side]
            for _ in range(n_layers):
                side ^= 1
                y = ops[side] @ y
                y += g[side]
            ends[side] = y

        run_on_two_lanes(horner, (0, 1))
        _accum(users0, ends[0])
        _accum(items0, ends[1])

    def backward_users(g, users0, items0):
        adjoint(g, None, users0, items0)

    def backward_items(g, users0, items0):
        g_u, slot_u.grad = slot_u.grad, None
        adjoint(g_u, g, users0, items0)

    _record(out_u, (users0, items0), backward_users)
    return out_u, _record(out_v, (users0, items0), backward_items)


def straight_through(soft: Tensor, hard: np.ndarray) -> Tensor:
    """Forward the hard values, route gradients to the soft ones unchanged."""
    soft = _as_tensor(soft)
    if soft.data.shape != hard.shape:
        raise ValueError("straight_through shape mismatch")
    out = Tensor(np.asarray(hard, dtype=np.float64))

    def backward(g, soft):
        _accum(soft, g)

    return _record(out, (soft,), backward)


# ---------------------------------------------------------------------------
# fused interest ops: M interest channels carried as one (n, M, d) tensor,
# one tape node per op, backward written out by hand


def gated_channels(x, w, b) -> Tensor:
    """out[:, n] = x * sigmoid(x @ w[n] + b[n]): (U, d), (M, d, d), (M, d) -> (U, M, d).

    The M (d, d) gates run as one (U, d) @ (d, M*d) product, whose column
    block n is w[n]. The rows split into `lanes.row_blocks`, whose slices
    are the items of `lanes.run_on_two_lanes`: forward, each block's
    product, bias, sigmoid and gated multiply, into its slice of the whole
    gate and output; backward, each block's x-gradient einsum and in-place
    dz passes, then one pass whose first item, None, takes the weight and
    bias gradients whole, since their sums run over the rows, and whose
    blocks each add their rows' dz @ w_cat.T. The block layout keeps every
    product's bits (see `lanes`), so the op has the bits of the unsplit
    one, on one lane or two.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd = x.data
    (n, d), m = xd.shape, w.data.shape[0]
    w_cat = w.data.transpose(1, 0, 2).reshape(d, m * d)
    bias = b.data.reshape(m * d)
    blocks = row_blocks(n)
    gate, gated = np.empty((n, m, d)), np.empty((n, m, d))

    def forward_block(r):
        z = np.matmul(xd[r], w_cat, out=gate[r].reshape(-1, m * d))
        z += bias
        _sigmoid_inplace(z)
        np.multiply(xd[r, None, :], gate[r], out=gated[r])

    run_on_two_lanes(forward_block, blocks)
    out = Tensor(gated)

    def backward(g, x, w, b):
        # g (released by the tape) and gate are dead after this, so both are reused
        dz = g
        dx = np.empty((n, d)) if x.requires_grad else None

        def dz_block(r):
            if dx is not None:
                np.einsum("umd,umd->ud", g[r], gate[r], out=dx[r])
            dz[r] *= gated[r]
            dz[r] *= np.subtract(1.0, gate[r], out=gate[r])  # g * x * gate * (1 - gate)

        run_on_two_lanes(dz_block, blocks)
        dz = dz.reshape(n, m * d)
        if dx is not None:
            _accum(x, dx)

        def grad_task(r):  # None: the weight and bias gradients; a block: its rows' x-gradient
            if r is None:
                _accum(w, (xd.T @ dz).reshape(d, m, d).transpose(1, 0, 2))
                _accum(b, dz.sum(axis=0).reshape(m, d))
            else:
                x.grad[r] += dz[r] @ w_cat.T

        run_on_two_lanes(grad_task, [None] + blocks if dx is not None else [None])

    return _record(out, (x, w, b), backward)


def channel_linear(x, w, b) -> Tensor:
    """out[:, n] = x_n @ w[n] + b[n]: (U, d) or (U, M, d), (M, d, d'), (M, d') -> (U, M, d').

    x_n is x itself for a (U, d) input and x[:, n] for a (U, M, d) one. The
    M products run as one stacked matmul over the channel axis.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    shared, wd = x.data.ndim == 2, w.data
    xc = x.data[None] if shared else x.data.transpose(1, 0, 2)  # (1 or M, U, d)
    out = Tensor((xc @ wd).transpose(1, 0, 2) + b.data)

    def backward(g, x, w, b):
        gc = g.transpose(1, 0, 2)  # (M, U, d')
        if x.requires_grad:
            dx = gc @ wd.transpose(0, 2, 1)  # (M, U, d)
            _accum(x, dx.sum(axis=0) if shared else dx.transpose(1, 0, 2))
        _accum(w, xc.transpose(0, 2, 1) @ gc)
        _accum(b, g.sum(axis=0))

    return _record(out, (x, w, b), backward)


def _cells(idx: np.ndarray, m: int) -> np.ndarray:
    """Flat (entry, channel) cells idx[j] * m + c, in entry-major order."""
    return (idx[:, None] * m + np.arange(m)).ravel()


def segment_pattern(segment_ids: np.ndarray, n_segments: int, n_channels: int):
    """segment_attention's layout for a fixed segment assignment, built once.

    The one-hot CSR of shape (n_segments * M, n * M) whose row s * M + c
    holds cell j * M + c of every entry j in segment s, in order of j.
    """
    seg = np.asarray(segment_ids, dtype=np.int64)
    return _onehot_rows(_cells(seg, n_channels), n_segments * n_channels)


def _gathered_dots(a: np.ndarray, ia: np.ndarray, b: np.ndarray, ib: np.ndarray, block=256):
    """einsum("nmd,nmd->nm", a[ia], b[ib]), gathered a cache-sized block of rows at a time."""
    out = np.empty((len(ia), a.shape[1]))
    for i in range(0, len(ia), block):
        j = slice(i, i + block)
        out[j] = np.einsum("nmd,nmd->nm", a[ia[j]], b[ib[j]])
    return out


def segment_attention(x, att, rows: np.ndarray, segment_ids: np.ndarray, pattern) -> Tensor:
    """Attention-weighted segment sums of gathered rows, per channel.

    x is (U, M, d); rows and segment_ids are parallel (n,) arrays placing
    row x[rows[j]] in segment segment_ids[j], and pattern is their
    segment_pattern. Within each segment and channel the weights γ are a
    softmax of att . x[rows[j], m]. Returns (n_segments, M, d); empty
    segments come out zero. The sum is one sparse product over x: the
    pattern with γ as its data and each cell's column moved to its row of x.
    """
    x, att = _as_tensor(x), _as_tensor(att)
    rows = np.asarray(rows, dtype=np.int64)
    sid = np.asarray(segment_ids, dtype=np.int64)
    xd, ad = x.data, att.data
    u, m, d = xd.shape
    seg, cols = _cells(sid, m), _cells(rows, m)  # each cell's pattern row, and its row of x's cells
    # att . x per row of x, then gathered: the same (M, d) @ (d,) products as gathering first
    gamma = _segment_softmax((xd @ ad)[rows].ravel(), seg, pattern)
    cell = pattern.indices
    weights = sp.csr_matrix((gamma[cell], cols[cell], pattern.indptr), shape=(pattern.shape[0], u * m))
    table = xd.reshape(u * m, d)
    out = Tensor((weights @ table).reshape(-1, m, d))

    def backward(g, x, att):
        gdot = _gathered_dots(g, sid, xd, rows).ravel()
        ds_cells = _segment_softmax_grad(gamma, gdot, seg, pattern)
        ds = np.bincount(cols, weights=ds_cells, minlength=u * m)  # summed into x's cells
        _accum(att, ds @ table)
        if x.requires_grad:
            # weights.T @ g, then ds ⊗ att added in row blocks: the CSC-view product adds each
            # cell's terms in order, so the bits are those of one product with ds as a last row
            dx = weights.T @ g.reshape(-1, d)
            for r in row_blocks(u * m):
                dx[r] += ds[r, None] * ad
            _accum(x, dx.reshape(u, m, d))

    return _record(out, (x, att), backward)


def contract(spec: str, a, b) -> Tensor:
    """The two-operand einsum spec = "A,B->C" of a and b, such as "gd,gmd->gm".

    Backward takes einsum("C,B->A", g, b) to a and einsum("A,C->B", a, g) to b.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    operands, sc = spec.split("->")
    sa, sb = operands.split(",")
    ad, bd = a.data, b.data
    out = Tensor(np.einsum(spec, ad, bd))

    def backward(g, a, b):
        _accum(a, np.einsum(f"{sc},{sb}->{sa}", g, bd))
        _accum(b, np.einsum(f"{sa},{sc}->{sb}", ad, g))

    return _record(out, (a, b), backward)


def channel_cosines(r: np.ndarray):
    """Cosines between the channels of each row of r, an (n, M, d) array normalised in place.

    Returns (cos, unit, inv, live): the (n, M, M) cosines, r itself scaled
    to unit rows, the (n, M) inverse norms and the (n, M) live mask. A
    channel whose norm is below COSINE_NORM_EPS is not live: its inverse
    norm and unit row are 0, so its cosine with every channel is 0.
    """
    norms = np.sqrt(np.einsum("nmd,nmd->nm", r, r))
    live = norms >= COSINE_NORM_EPS
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=live)
    r *= inv[:, :, None]
    return r @ r.transpose(0, 2, 1), r, inv, live


def mean_pair_cosine(x, rows: np.ndarray, threshold: float) -> Tensor:
    """Mean over rows of the summed channel-pair cosines that pass a threshold.

    For each r in rows, sums cosine(x[r, p], x[r, q]) over channel pairs
    p < q with |cosine| >= threshold, then divides by len(rows). The mask
    is taken from forward values and is constant under backward. A channel
    whose norm is below COSINE_NORM_EPS has similarity 0 with everything and
    passes no gradient. rows must be distinct, in any order: backward adds
    each row's gradient in place, which would lose the sums of a repeat.

    The forward is one `channel_cosines` call. The backward runs the
    `lanes.row_blocks` of the rows on `lanes.run_on_two_lanes`: each block
    gathers and rescales its rows again, as `channel_cosines` does, and adds
    their gradient in place into x's, which starts from zeros when x has
    none. The op keeps x's array, not a copy of the unit rows, and the bits
    are those of the unsplit op.
    """
    x = _as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    ordered = np.sort(rows)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("mean_pair_cosine needs distinct rows")
    xd = x.data
    n, m = len(rows), xd.shape[1]
    cos, _, inv, ok = channel_cosines(xd[rows])
    mask = np.triu(np.ones((m, m), dtype=bool), k=1) & ok[:, :, None] & ok[:, None, :]
    mask &= np.abs(cos) >= threshold
    inv_n = 1.0 / n
    out = Tensor((cos * mask).sum() * inv_n)

    def backward(g, x):
        coef = float(g) * inv_n
        if x.grad is None:
            x.grad = np.zeros(xd.shape)

        def grad_block(r):
            w = mask[r] * coef
            w += w.transpose(0, 2, 1)
            unit = xd[rows[r]]
            unit *= inv[r][:, :, None]
            du = w @ unit
            proj = np.einsum("nmd,nmd->nm", du, unit)
            du -= np.multiply(unit, proj[:, :, None], out=unit)  # unit is dead here
            du *= inv[r][:, :, None]
            x.grad[rows[r]] += du

        run_on_two_lanes(grad_block, row_blocks(n))

    return _record(out, (x,), backward)


def bpr_pairs(anchors, items, a: np.ndarray, p: np.ndarray, n: np.ndarray) -> Tensor:
    """Mean over the batch of softplus(s(a, n) - s(a, p)), s the dot product.

    softplus(s_n - s_p) = -log sigmoid(s_p - s_n), computed stably. a, p and
    n are parallel index arrays into the anchor and item tables. The anchor
    rows are gathered once; backward does one scatter per table.
    """
    anchors, items = _as_tensor(anchors), _as_tensor(items)
    a, p, n = (np.asarray(i, dtype=np.int64) for i in (a, p, n))
    n_anchors, n_items = anchors.data.shape[0], items.data.shape[0]
    rows = anchors.data[a]
    diff = items.data[n] - items.data[p]
    x = np.einsum("bd,bd->b", rows, diff)
    out = Tensor(np.mean(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))))

    def backward(g, anchors, items):
        s = _sigmoid_inplace(x)[:, None] * (float(g) / len(x))  # x is dead here
        # a positive that is its own negative scores log 2 whatever the tables hold; without this
        # its item terms, added at the positives then at the negatives, leave a rounding residue
        s[p == n] = 0.0
        if anchors.requires_grad:
            _accum(anchors, scatter_rows(a, diff * s, n_anchors))
        if items.requires_grad:
            d_neg = rows * s  # and its negation at the positives
            d_rows = np.concatenate((np.negative(d_neg), d_neg))
            _accum(items, scatter_rows(np.concatenate((p, n)), d_rows, n_items))

    return _record(out, (anchors, items), backward)
