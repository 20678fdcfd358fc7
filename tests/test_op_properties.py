"""Property tests of three tape ops against their references in tests/reference.py.

`segment_attention` on empty and one-member segments, rows in several
segments and unsorted segment ids; `bpr_pairs` on repeated anchors and
items, positives equal to their negatives and batches of one; `propagate`
at K = 0-3 with one side reading no gradient or needing none. Forward values
are compared with the reference op, gradients with the reference op and by
`finite_difference_check`.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
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
