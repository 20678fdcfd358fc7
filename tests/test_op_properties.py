"""Property tests of nine tape ops against their references in tests/reference.py.

`segment_attention` on empty and one-member segments, rows in several
segments and unsorted segment ids; `bpr_pairs` on repeated anchors and
items, positives equal to their negatives and batches of one; `propagate`
at K = 0-3 with one side reading no gradient or needing none;
`gather_rows` on repeated and unsorted indices, with and without an
existing gradient; `weighted_sum` with array coefficients and one tensor in
several terms; `spmm`; `softmax_rows` at temperatures other than 1;
`contract` with the model's two specs; and `straight_through` on rows that
tie at the argmax.
Forward values are compared with the reference op (or with numpy where
tests/reference.py has none), gradients with the reference op and by
`finite_difference_check`.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grouprec import autodiff as ag
from grouprec.autodiff import Tape, Tensor

import reference as ref

PROPERTY = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
SEEDS = st.integers(0, 2 ** 32 - 1)


def close(a, b, rel=1e-12, terms=0.0):
    """Agreement relative to the larger of the reference array's largest magnitude and `terms`.

    `terms` bounds the magnitude of the summands behind each entry: a sum
    that cancels to about 0 keeps a rounding residue of their size.
    """
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.abs(b).max(initial=0.0), terms, 1e-300)
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= rel * scale


def run(op, arrays, upstream, grad_of=None):
    """op's outputs and the gradients of sum(upstream * output) with respect to each array.

    grad_of marks which arrays need a gradient (default all); the others come
    back as None.
    """
    grad_of = grad_of or [True] * len(arrays)
    inputs = [Tensor(a.copy(), requires_grad=g) for a, g in zip(arrays, grad_of)]
    with Tape() as tape:
        outs = op(*inputs)
        outs = outs if isinstance(outs, tuple) else (outs,)
        terms = [ref.tsum(ref.mul(out, Tensor(up))) for out, up in zip(outs, upstream) if up is not None]
        loss = terms[0] if len(terms) == 1 else ref.add(*terms)
        tape.backward(loss)
    return [out.data for out in outs], [t.grad for t in inputs]


# ------------------------------------------------------------ segment_attention


@st.composite
def memberships(draw):
    """(rows of x, rows, segment ids, segment count): 1-5 segments of 0-3 distinct rows, entries in drawn order.

    A row may sit in several segments. A row twice in one segment would make
    the loss flat along att, where central differences read rounding noise.
    """
    n_rows = draw(st.integers(1, 6))
    members = draw(st.lists(st.lists(st.integers(0, n_rows - 1), max_size=3, unique=True), min_size=1, max_size=5))
    seg = np.repeat(np.arange(len(members)), [len(rows) for rows in members])
    rows = np.array([r for rows in members for r in rows], dtype=np.int64)
    order = np.array(draw(st.permutations(range(len(seg)))), dtype=np.int64)
    return n_rows, rows[order], seg[order], len(members)


@PROPERTY
@given(members=memberships(), m=st.integers(1, 3), d=st.integers(1, 3), seed=SEEDS)
def test_segment_attention_property(members, m, d, seed):
    n_rows, rows, seg, n_seg = members
    rng = np.random.default_rng(seed)
    x0, att0 = rng.normal(size=(n_rows, m, d)), rng.normal(size=d)
    coef = rng.normal(size=(n_seg, m, d))
    pattern = ag.segment_pattern(seg, n_seg, m)

    (out,), grads = run(lambda x, att: ag.segment_attention(x, att, rows, seg, pattern), [x0, att0], [coef])
    (want,), want_grads = run(lambda x, att: ref.segment_attention(x, att, rows, seg, n_seg), [x0, att0], [coef])
    assert close(out, want)
    for got, expected in zip(grads, want_grads):
        assert close(got, expected)
    sizes = np.bincount(seg, minlength=n_seg)
    assert not out[sizes == 0].any()  # an empty segment sums nothing
    for s in np.flatnonzero(sizes == 1):  # one member passes its row through, bit for bit
        np.testing.assert_array_equal(out[s], x0[rows[seg == s][0]])
    unread = np.setdiff1d(np.arange(n_rows), rows)
    assert not grads[0][unread].any()

    x, att = Tensor(x0.copy(), requires_grad=True), Tensor(att0.copy(), requires_grad=True)

    def loss():
        out = ag.segment_attention(x, att, rows, seg, pattern)
        return ref.tsum(ref.mul(ref.mul(out, out), Tensor(coef)))

    assert ref.finite_difference_check(loss, [x, att], h=1e-5, max_coords=12, rng=rng) < 1e-4


# ------------------------------------------------------------ bpr_pairs


@st.composite
def triples(draw):
    """(anchor rows, item rows, a, p, n): a batch of 1-6 over tables of 1-4 rows, so indices repeat."""
    n_anchors, n_items, b = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    index = st.lists(st.integers(0, n_items - 1), min_size=b, max_size=b)
    a = draw(st.lists(st.integers(0, n_anchors - 1), min_size=b, max_size=b))
    p, n = draw(index), draw(index)
    same = draw(st.lists(st.booleans(), min_size=b, max_size=b))  # a positive that is its own negative
    n = [pi if s else ni for pi, ni, s in zip(p, n, same)]
    return n_anchors, n_items, *(np.array(v, dtype=np.int64) for v in (a, p, n))


@PROPERTY
@given(batch=triples(), d=st.integers(1, 3), seed=SEEDS)
def test_bpr_pairs_property(batch, d, seed):
    n_anchors, n_items, a, p, n = batch
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n_anchors, d)), rng.normal(size=(n_items, d))]

    def composed(anchors, items):
        return ref.bpr_loss(ref.score_pairs(anchors, items, a, p), ref.score_pairs(anchors, items, a, n))

    (loss,), grads = run(lambda anchors, items: ag.bpr_pairs(anchors, items, a, p, n), arrays, [1.0])
    (want,), want_grads = run(composed, arrays, [1.0])
    assert close(loss, want)
    # each pair adds at most |anchor row| * |item row difference| / batch to an entry
    terms = 2.0 * np.abs(arrays[0]).max() * np.abs(arrays[1]).max() * max(1, d) / len(a)
    for got, expected in zip(grads, want_grads):
        assert close(got, expected, terms=terms)
    if np.array_equal(p, n):  # every score gap is 0: the loss is log 2, flat in both tables
        assert loss == np.log(2.0)
        assert not grads[0].any() and not grads[1].any()

    anchors, items = (Tensor(x.copy(), requires_grad=True) for x in arrays)
    err = ref.finite_difference_check(lambda: ag.bpr_pairs(anchors, items, a, p, n), [anchors, items],
                                      h=1e-5, max_coords=12, rng=rng)
    assert err < 1e-4


# ------------------------------------------------------------ propagate


@st.composite
def graphs(draw):
    """A random bipartite operator of 1-6 users by 1-5 items, some rows and columns empty."""
    n_users, n_items = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    seed = draw(SEEDS)
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.1, 1.0, size=(n_users, n_items)) * (rng.random((n_users, n_items)) < 0.4)
    return sp.csr_matrix(dense), rng


@PROPERTY
@given(
    graph=graphs(),
    n_layers=st.integers(0, 3),
    read=st.sampled_from(["both", "users", "items"]),
    constant=st.sampled_from([None, "users", "items"]),
    cpus=st.integers(1, 2),
)
def test_propagate_property(lanes, graph, n_layers, read, constant, cpus):
    lanes(cpus)
    adj, rng = graph
    arrays = [rng.normal(size=(adj.shape[0], 3)), rng.normal(size=(adj.shape[1], 3))]
    upstream = [rng.normal(size=a.shape) if read in ("both", side) else None
                for a, side in zip(arrays, ("users", "items"))]
    grad_of = [constant != side for side in ("users", "items")]

    got = run(lambda u, v: ag.propagate(adj, u, v, n_layers), arrays, upstream, grad_of)
    want = run(lambda u, v: ref.chain_propagate(adj, u, v, n_layers), arrays, upstream, grad_of)
    for new, old in zip(got[0] + got[1], want[0] + want[1]):  # the op keeps the chain's bits
        if old is None:  # the chain gave this input no gradient; the op may give it zeros
            assert new is None or not new.any()
        else:
            np.testing.assert_array_equal(new, old)

    params = [Tensor(a.copy(), requires_grad=g) for a, g in zip(arrays, grad_of)]

    def loss():
        outs = ag.propagate(adj, *params, n_layers)
        terms = [ref.tsum(ref.mul(out, ref.mul(out, Tensor(up)))) for out, up in zip(outs, upstream) if up is not None]
        return terms[0] if len(terms) == 1 else ref.add(*terms)

    err = ref.finite_difference_check(loss, [t for t in params if t.requires_grad], h=1e-5, max_coords=12, rng=rng)
    assert err < 1e-4


# ------------------------------------------------------------ gather_rows


@st.composite
def lookups(draw):
    """(rows of x, idx): 0-8 indices into 1-5 rows, in drawn order, so they may repeat and be unsorted."""
    n_rows = draw(st.integers(1, 5))
    return n_rows, np.array(draw(st.lists(st.integers(0, n_rows - 1), max_size=8)), dtype=np.int64)


@PROPERTY
@given(lookup=lookups(), d=st.integers(1, 3), prior=st.booleans(), seed=SEEDS)
def test_gather_rows_property(lookup, d, prior, seed):
    n_rows, idx = lookup
    rng = np.random.default_rng(seed)
    x0, up = rng.normal(size=(n_rows, d)), rng.normal(size=(len(idx), d))
    before = rng.normal(size=(n_rows, d)) if prior else None
    x = Tensor(x0.copy(), requires_grad=True)
    x.grad = None if before is None else before.copy()
    with Tape() as tape:
        out = ag.gather_rows(x, idx)
        tape.backward(ref.tsum(ref.mul(out, Tensor(up))))
    np.testing.assert_array_equal(out.data, x0[idx])
    # a source row gains the bits np.add.at sums for it from zero, added to any gradient it had
    want = np.zeros_like(x0)
    np.add.at(want, idx, up)
    if before is not None:
        want = before + want
    np.testing.assert_array_equal(x.grad, want)

    x = Tensor(x0.copy(), requires_grad=True)
    weight = Tensor(up)
    err = ref.finite_difference_check(lambda: ref.tsum(ref.mul(ref.mul(ag.gather_rows(x, idx), weight),
                                                               ag.gather_rows(x, idx))),
                                      [x], h=1e-5, max_coords=12, rng=rng)
    assert err < 1e-4


# ------------------------------------------------------------ weighted_sum


@st.composite
def weightings(draw):
    """(tensor count, [(tensor, coefficient kind)]): 1-4 terms over 1-3 tensors, so a tensor may sit in several."""
    n_tensors = draw(st.integers(1, 3))
    kinds = st.sampled_from(["unit", "scalar", "full", "column", "row"])
    terms = draw(st.lists(st.tuples(st.integers(0, n_tensors - 1), kinds), min_size=1, max_size=4))
    return n_tensors, terms


def coefficient(kind, shape, rng):
    """A constant coefficient of the kind: 1.0, a float, or an array that broadcasts into shape."""
    if kind == "unit":
        return 1.0
    if kind == "scalar":
        return float(rng.normal())
    return rng.normal(size={"full": shape, "column": (shape[0], 1), "row": shape[1:]}[kind])


@PROPERTY
@given(weighting=weightings(), n=st.integers(1, 4), d=st.integers(1, 3), seed=SEEDS)
def test_weighted_sum_property(weighting, n, d, seed):
    n_tensors, terms = weighting
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n, d)) for _ in range(n_tensors)]
    coefs = [coefficient(kind, (n, d), rng) for _, kind in terms]
    up = rng.normal(size=(n, d))

    def composed(*xs):
        parts = [xs[j] if kind == "unit" else ref.mul(Tensor(c), xs[j]) for (j, kind), c in zip(terms, coefs)]
        total = parts[0]
        for part in parts[1:]:
            total = ref.add(total, part)
        return total

    (out,), grads = run(lambda *xs: ag.weighted_sum(*((c, xs[j]) for (j, _), c in zip(terms, coefs))), arrays, [up])
    (want,), want_grads = run(composed, arrays, [up])
    np.testing.assert_array_equal(out, want)  # left to right, as a chain of two-operand adds
    for got, expected in zip(grads, want_grads):
        if expected is None:  # a tensor in no term
            assert got is None
        else:
            assert close(got, expected, terms=np.abs(up).max() * sum(np.abs(c).max() for c in coefs))

    xs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    used = [xs[j] for j in sorted({j for j, _ in terms})]

    def loss():  # linear in out: a squared loss's gradient also holds out, and with it the summed
        # coefficients of a tensor twice, whose near cancellation left a flat direction
        out = ag.weighted_sum(*((c, xs[j]) for (j, _), c in zip(terms, coefs)))
        return ref.tsum(ref.mul(out, Tensor(up)))

    assert ref.finite_difference_check(loss, used, h=1e-5, max_coords=12, rng=rng) < 1e-4


# ------------------------------------------------------------ spmm


@PROPERTY
@given(graph=graphs(), d=st.integers(1, 3))
def test_spmm_property(graph, d):
    mat, rng = graph
    x0, up = rng.normal(size=(mat.shape[1], d)), rng.normal(size=(mat.shape[0], d))
    (out,), (grad,) = run(lambda x: ag.spmm(mat, x), [x0], [up])
    (want,), (want_grad,) = run(lambda x: ref.matmul(Tensor(mat.toarray()), x), [x0], [up])
    terms = np.abs(mat.data).max(initial=0.0) * max(np.abs(x0).max(), np.abs(up).max()) * max(mat.shape)
    assert close(out, want, terms=terms) and close(grad, want_grad, terms=terms)
    # backward through scipy's transposed view has the bits of a product through a transposed copy
    np.testing.assert_array_equal(grad, mat.T.tocsr() @ up)

    x = Tensor(x0.copy(), requires_grad=True)
    err = ref.finite_difference_check(lambda: ref.tsum(ref.mul(ref.mul(ag.spmm(mat, x), ag.spmm(mat, x)), Tensor(up))),
                                      [x], h=1e-5, max_coords=12, rng=rng)
    assert err < 1e-4


# ------------------------------------------------------------ softmax_rows


@PROPERTY
@given(n=st.integers(1, 4), k=st.integers(1, 5), tau=st.sampled_from([0.1, 0.3, 0.5, 2.0, 3.7]), seed=SEEDS)
def test_softmax_rows_property(n, k, tau, seed):
    rng = np.random.default_rng(seed)
    # logits within 2 of each other after the division by tau: no probability is so small that its
    # gradient sits below the central difference's rounding noise
    x0, up = rng.uniform(-1.0, 1.0, size=(n, k)) * tau, rng.normal(size=(n, k))
    seg = np.repeat(np.arange(n), k)

    def composed(x):  # a segment softmax over each row's entries, of x * (1 / tau)
        return ref.reshape(ref.segment_softmax(ref.reshape(ref.scale(x, 1.0 / tau), (n * k,)), seg, n), (n, k))

    (out,), (grad,) = run(lambda x: ag.softmax_rows(x, tau), [x0], [up])
    (want,), (want_grad,) = run(composed, [x0], [up])
    assert close(out, want) and close(grad, want_grad, terms=np.abs(up).max() / tau)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-12)

    x = Tensor(x0.copy(), requires_grad=True)
    err = ref.finite_difference_check(lambda: ref.tsum(ref.mul(ag.softmax_rows(x, tau), Tensor(up))),
                                      [x], h=1e-5, max_coords=12, rng=rng)
    assert err < 1e-4


# ------------------------------------------------------------ contract


def off_zero(rng, size):
    """Random signs with magnitudes in [0.5, 1.5].

    A gradient of these bilinear ops under a squared loss is a product of
    entries; with an entry near 0 it is itself near 0, a flat direction
    where the central difference reads rounding residue as a relative error.
    """
    return rng.choice([-1.0, 1.0], size=size) * rng.uniform(0.5, 1.5, size=size)


@PROPERTY
@given(spec=st.sampled_from(["gd,gmd->gm", "gm,gmd->gd"]), g=st.integers(1, 4), m=st.integers(1, 3),
       d=st.integers(1, 3), seed=SEEDS)
def test_contract_property(spec, g, m, d, seed):
    rng = np.random.default_rng(seed)
    scores = spec == "gd,gmd->gm"  # group scores psi = e_g . pooled; otherwise the omega mix
    # the (G, M, d) operand is passed as its M channels, stacked, so the reference reads each one
    a0 = off_zero(rng, (g, d if scores else m))
    chans = [off_zero(rng, (g, d)) for _ in range(m)]
    up = off_zero(rng, (g, m if scores else d))

    def composed(a, *chans):
        if scores:
            return ref.stack([ref.rowwise_dot(a, c) for c in chans])
        mixed = None
        for n, c in enumerate(chans):
            term = ref.mul(ref.matmul(a, Tensor(np.eye(m)[:, n:n + 1])), c)
            mixed = term if mixed is None else ref.add(mixed, term)
        return mixed

    (out,), grads = run(lambda a, *chans: ag.contract(spec, a, ref.stack(list(chans))), [a0, *chans], [up])
    (want,), want_grads = run(composed, [a0, *chans], [up])
    a_max, c_max = np.abs(a0).max(), max(np.abs(c).max() for c in chans)
    assert close(out, want, terms=a_max * c_max * max(m, d))
    for got, expected in zip(grads, want_grads):
        assert close(got, expected, terms=np.abs(up).max() * max(a_max, c_max) * max(m, d))

    a, b = Tensor(a0.copy(), requires_grad=True), Tensor(np.stack(chans, axis=1), requires_grad=True)

    def loss():
        out = ag.contract(spec, a, b)
        return ref.tsum(ref.mul(ref.mul(out, out), Tensor(up)))

    assert ref.finite_difference_check(loss, [a, b], h=1e-5, max_coords=12, rng=rng) < 1e-4


# ------------------------------------------------------------ straight_through


@PROPERTY
@given(n=st.integers(1, 4), k=st.integers(2, 5), tau=st.sampled_from([0.5, 1.0, 2.0]), seed=SEEDS)
def test_straight_through_property(n, k, tau, seed):
    rng = np.random.default_rng(seed)
    # logits on a grid of three values, with a second column raised to each row's maximum, so
    # every row ties at its argmax; within 2 of each other after the division by tau
    x0 = rng.choice([-1.0, 0.0, 1.0], size=(n, k)) * tau
    tie = rng.integers(0, k, size=n)
    x0[np.arange(n), tie] = x0.max(axis=1)
    tie2 = (tie + rng.integers(1, k, size=n)) % k
    x0[np.arange(n), tie2] = x0.max(axis=1)
    up = rng.normal(size=(n, k))

    soft0 = ag.softmax_rows(Tensor(x0), tau).data
    assert np.all((soft0 == soft0.max(axis=1, keepdims=True)).sum(axis=1) >= 2)  # the tie survives the softmax
    hard = np.zeros_like(soft0)  # the one-hot at the first maximum, as aggregation.selection_weights builds it
    hard[np.arange(n), soft0.argmax(axis=1)] = 1.0
    (out,), (grad,) = run(lambda s: ag.straight_through(s, hard), [soft0], [up])
    np.testing.assert_array_equal(out, hard)
    np.testing.assert_array_equal(out.sum(axis=1), np.ones(n))  # one winner however many tie
    np.testing.assert_array_equal(out.argmax(axis=1), (x0 == x0.max(axis=1, keepdims=True)).argmax(axis=1))
    np.testing.assert_array_equal(grad, up)  # the upstream gradient reaches the soft values unchanged

    # through a softmax, the logits get the bits of the soft path's own gradient
    (_,), (through,) = run(lambda x: ag.straight_through(ag.softmax_rows(x, tau), hard), [x0], [up])
    (_,), (soft_path,) = run(lambda x: ag.softmax_rows(x, tau), [x0], [up])
    np.testing.assert_array_equal(through, soft_path)
    x = Tensor(x0.copy(), requires_grad=True)
    err = ref.finite_difference_check(lambda: ref.tsum(ref.mul(ag.softmax_rows(x, tau), Tensor(up))),
                                      [x], h=1e-5, max_coords=12, rng=rng)
    assert err < 1e-4
    with pytest.raises(ValueError, match="shape mismatch"):
        ag.straight_through(Tensor(soft0), hard[:, :-1])
