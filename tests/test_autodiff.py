import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from grouprec import aggregation
from grouprec import autodiff as ag
from grouprec.autodiff import Tape, Tensor
from grouprec.config import TrainConfig
from grouprec.datasets import split_holdout
from grouprec.optim import CHUNK, Adam
from grouprec.synthetic import generate_synthetic
from grouprec.trainer import Trainer

import reference as ref


def grad_of(fn, *arrs):
    """Run fn under a tape and return (value, grads of the inputs)."""
    params = [Tensor(a, requires_grad=True) for a in arrs]
    with Tape() as tape:
        out = fn(*params)
        loss = out if out.data.ndim == 0 else ref.tsum(out)
        tape.backward(loss)
    return out.data, [p.grad for p in params]


def test_sigmoid_values():
    assert ref.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)
    assert ref.sigmoid(Tensor([math.log(3.0)])).data[0] == pytest.approx(0.75)
    big = ref.sigmoid(Tensor([1e4, -1e4])).data
    assert np.all(np.isfinite(big))


def test_sigmoid_grad_at_zero():
    _, (g,) = grad_of(ref.sigmoid, np.array([0.0]))
    assert g[0] == pytest.approx(0.25)


def test_softmax_equal_logits_uniform():
    p = ag.softmax_rows(Tensor([[1.0, 1.0]]), tau=0.5).data
    np.testing.assert_allclose(p, [[0.5, 0.5]])


def test_softmax_two_zero():
    # oracle: direct evaluation of e^2 / (e^2 + 1)
    e2 = math.exp(2.0)
    p = ag.softmax_rows(Tensor([[2.0, 0.0]]), tau=1.0).data
    assert p[0, 0] == pytest.approx(e2 / (e2 + 1.0), abs=1e-4)
    assert p[0, 1] == pytest.approx(1.0 / (e2 + 1.0), abs=1e-4)


def test_softmax_low_temperature_one_hot():
    p = ag.softmax_rows(Tensor([[2.0, 0.0]]), tau=0.01).data
    assert p.max() > 1.0 - 1e-8


def test_softmax_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        ag.softmax_rows(Tensor([[1.0, 2.0]]), tau=0.0)
    with pytest.raises(ValueError):
        ag.softmax_rows(Tensor([[1.0, 2.0]]), tau=-1.0)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 7)) * 10.0
    p = ag.softmax_rows(Tensor(x), tau=0.3).data
    np.testing.assert_allclose(p.sum(axis=1), np.ones(40), atol=1e-12)
    shifted = ag.softmax_rows(Tensor(x + 123.456), tau=0.3).data
    np.testing.assert_allclose(p, shifted, atol=1e-12)


def test_cosine_trivial_cases():
    assert ref.cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert ref.cosine_similarity([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)
    assert ref.cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)


def test_cosine_degenerate_returns_zero_no_grad():
    assert ref.cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 2.0], [1.0, 1.0]])
    _, (ga, gb) = grad_of(ref.cosine_rows, a, b)
    np.testing.assert_allclose(ga[0], [0.0, 0.0])
    np.testing.assert_allclose(gb[0], [0.0, 0.0])
    assert np.any(ga[1] != 0.0)


def test_spmm_identity_and_empty_row():
    X = np.arange(6.0).reshape(3, 2)
    eye = sp.identity(3, format="csr")
    np.testing.assert_allclose(ag.spmm(eye, Tensor(X)).data, X)

    A = sp.csr_matrix(([2.0], ([0], [1])), shape=(2, 3))  # row 1 empty
    out = ag.spmm(A, Tensor(X)).data
    np.testing.assert_allclose(out[1], [0.0, 0.0])


def test_spmm_hand_case_matches_dense():
    A = sp.csr_matrix(([1.0, 1.0], ([0, 0], [0, 1])), shape=(2, 2))
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ag.spmm(A, Tensor(X)).data
    np.testing.assert_allclose(out, [[4.0, 6.0], [0.0, 0.0]])
    np.testing.assert_allclose(out, A.toarray() @ X)


def test_spmm_random_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        dense = np.zeros((20, 20))
        for _ in range(60):
            dense[int(rng.integers(20)), int(rng.integers(20))] = float(rng.normal())
        X = rng.normal(size=(20, 4))
        got = ag.spmm(sp.csr_matrix(dense), Tensor(X)).data
        np.testing.assert_allclose(got, dense @ X, atol=1e-12)


def test_spmm_shape_mismatch():
    with pytest.raises(ValueError):
        ag.spmm(sp.identity(3, format="csr"), Tensor(np.zeros((4, 2))))


def reference_adam(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    # textbook update, independent of the Adam class
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return theta


def test_adam_zero_grad_zero_decay_no_move():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude_is_lr():
    p = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = np.array([0.7])
    opt = Adam([p], lr=0.01)
    opt.step()
    delta = abs(3.0 - p.data[0])
    assert delta == pytest.approx(0.01, rel=1e-6)


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(3)
    theta0 = rng.normal(size=5)
    grads = [rng.normal(size=5) for _ in range(10)]
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    np.testing.assert_allclose(p.data, reference_adam(theta0, grads, 0.05), atol=1e-12)


def test_adam_weight_decay_enters_before_moments():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = Adam([p], lr=0.1, weight_decay=0.5)
    opt.step()
    # effective grad 1.0 on first step -> move of ~lr toward zero
    assert p.data[0] == pytest.approx(2.0 - 0.1, rel=1e-6)


def test_adam_deterministic():
    def run():
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([p], lr=0.02, weight_decay=1e-3)
        for i in range(20):
            p.grad = np.array([0.3, -0.1]) * (i + 1)
            opt.step()
        return p.data.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def formula_step(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    # the out-of-place expressions the in-place step must reproduce bit for bit
    g = np.zeros_like(p) if g is None else g
    g = g + wd * p
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_adam_in_place_step_is_bit_identical_to_formula():
    rng = np.random.default_rng(23)
    shapes = [(7, 3), (4,), (2, 5)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [(t.data.copy(), np.zeros(s), np.zeros(s)) for t, s in zip(params, shapes)]
    untouched = params[1].data.copy()
    opt = Adam(params, lr=0.03, weight_decay=1e-2)
    for t in range(1, 7):
        grads = [rng.normal(size=shapes[0]) * t, None, rng.normal(size=shapes[2])]
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        opt.step()
        ref = [formula_step(r[0], g, r[1], r[2], t, 0.03, 1e-2) for r, g in zip(ref, grads)]
        for i, p in enumerate(params):
            assert np.array_equal(p.data, ref[i][0])
            assert np.array_equal(opt.m[i], ref[i][1])
            assert np.array_equal(opt.v[i], ref[i][2])
    assert not np.array_equal(params[1].data, untouched)  # decay alone moved it


@pytest.mark.parametrize("wd", [0.0, 1e-2])
def test_adam_chunked_step_is_bit_identical_to_formula(wd):
    # sizes on both sides of the block edges, a table of whole rows spanning
    # several blocks, a row longer than a block, a parameter without a
    # gradient, Fortran-ordered and transposed parameters and gradients, a 0-d one
    rng = np.random.default_rng(29)
    rows = 3 * CHUNK // 64 + 7
    datas = [rng.normal(size=n) for n in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)]
    datas += [rng.normal(size=(rows, 64)), rng.normal(size=(2, CHUNK + 3)), rng.normal(size=(40, 64)),
              np.asfortranarray(rng.normal(size=(rows, 64))), rng.normal(size=(64, 1100)).T,
              np.array(0.7)]
    params = [Tensor(d, requires_grad=True) for d in datas]
    assert not params[-3].data.flags.c_contiguous and not params[-2].data.flags.c_contiguous
    no_grad = 6
    ref = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    opt = Adam(params, lr=0.03, weight_decay=wd)
    for t in range(1, 5):
        grads = [None if i == no_grad else rng.normal(size=p.shape) * t for i, p in enumerate(params)]
        grads[4] = np.asfortranarray(grads[4])  # a Fortran-ordered gradient for a C-ordered table
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy(order="K")
        assert params[4].grad.flags.f_contiguous and not params[4].grad.flags.c_contiguous
        opt.step()
        ref = [formula_step(r[0], g, r[1], r[2], t, 0.03, wd) for r, g in zip(ref, grads)]
        for i, p in enumerate(params):
            assert np.array_equal(p.data, ref[i][0]), i
            assert np.array_equal(opt.m[i], ref[i][1]), i
            assert np.array_equal(opt.v[i], ref[i][2]), i


def test_adam_checks_every_gradient_before_updating():
    rng = np.random.default_rng(31)
    params = [Tensor(rng.normal(size=(5, 3)), requires_grad=True), Tensor(rng.normal(size=4), requires_grad=True)]
    opt = Adam(params, lr=0.1, weight_decay=1e-2)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    opt.step()
    before = [(p.data.copy(), m.copy(), v.copy()) for p, m, v in zip(params, opt.m, opt.v)]
    params[0].grad = rng.normal(size=(5, 3))
    params[1].grad = rng.normal(size=5)
    with pytest.raises(ValueError, match="gradient shape"):
        opt.step()
    assert opt.t == 1
    for (data, m, v), p, m_now, v_now in zip(before, params, opt.m, opt.v):
        assert np.array_equal(p.data, data)
        assert np.array_equal(m_now, m)
        assert np.array_equal(v_now, v)


@pytest.mark.parametrize("kwargs", [
    {"lr": -0.1}, {"lr": float("inf")}, {"lr": float("nan")},
    {"beta1": -0.1}, {"beta1": 1.0}, {"beta1": float("nan")},
    {"beta2": -1e-3}, {"beta2": 1.5}, {"beta2": float("nan")},
    {"eps": 0.0}, {"eps": -1e-8}, {"eps": float("inf")}, {"eps": float("nan")},
    {"weight_decay": -1e-4}, {"weight_decay": float("inf")}, {"weight_decay": float("nan")},
])
def test_adam_rejects_bad_hyperparameters(kwargs):
    # the moment settings are the module's constants: naming one is refused, whatever its value
    name = next(iter(kwargs))
    error = ValueError if name in ("lr", "weight_decay") else TypeError
    with pytest.raises(error, match=name):
        Adam([Tensor(np.zeros(2), requires_grad=True)], **{"lr": 0.1, **kwargs})


def test_adam_accepts_edge_hyperparameters():
    Adam([Tensor(np.zeros(2), requires_grad=True)], lr=0.0, weight_decay=0.0)


@pytest.mark.parametrize("with_grad", [False, True])
def test_adam_memory_is_moments_and_two_blocks(with_grad):
    # m and v are the only per-parameter state, and a step allocates less than
    # one parameter, with or without a gradient
    n = 8 * CHUNK
    p = Tensor(np.ones(n), requires_grad=True)
    grad = np.full(n, 0.5) if with_grad else None
    tracemalloc.start()
    try:
        opt = Adam([p], lr=0.01, weight_decay=1e-3)
        held, _ = tracemalloc.get_traced_memory()
        p.grad = grad
        tracemalloc.reset_peak()
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * p.data.nbytes + 2 * CHUNK * 8 + 64 * 1024
    assert peak - held < p.data.nbytes


def test_unreachable_param_gets_zero_grad():
    used = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    with Tape() as tape:
        loss = ref.tsum(ref.mul(used, used))
        tape.backward(loss)
    assert unused.grad is None  # optimizer treats None as zeros
    opt = Adam([unused], lr=0.1)
    opt.step()
    np.testing.assert_allclose(unused.data, [5.0])


def test_finite_difference_quadratic():
    x = Tensor(np.array([3.0]), requires_grad=True)

    def loss():
        return ref.tsum(ref.mul(x, x))

    err = ref.finite_difference_check(loss, [x], h=1e-5)
    assert err < 1e-8


def test_finite_difference_constant_loss():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def loss():
        return ref.tsum(ref.mul(Tensor([0.0, 0.0]), x))

    err = ref.finite_difference_check(loss, [x], h=1e-5)
    assert err == 0.0


PRIMITIVE_CASES = {
    "sigmoid": lambda t: ref.tsum(ref.sigmoid(t)),
    "softplus": lambda t: ref.tsum(ref.softplus(t)),
    "relu_like": lambda t: ref.tsum(ref.mul(t, ref.sigmoid(t))),
    "softmax": lambda t: ref.tsum(ref.mul(ag.softmax_rows(t, tau=0.7), Tensor(np.arange(12.0).reshape(3, 4)))),
    "matmul": lambda t: ref.tsum(ref.matmul(t, t)),
    "mean": lambda t: ref.tmean(ref.mul(t, t)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(11)
    shape = (3, 4) if name != "matmul" else (4, 4)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    fn = PRIMITIVE_CASES[name]
    err = ref.finite_difference_check(lambda: fn(x), [x], h=1e-5, rng=rng)
    assert err < 1e-4


def test_gather_and_segment_gradients():
    rng = np.random.default_rng(5)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    idx = np.array([0, 2, 2, 5, 1])
    seg = np.array([0, 0, 1, 1, 1])
    w = Tensor(rng.normal(size=5), requires_grad=True)

    def loss():
        rows = ag.gather_rows(table, idx)
        gamma = ref.segment_softmax(ref.matmul(rows, Tensor(np.array([1.0, -0.5, 2.0]))), seg, 2)
        mixed = ref.segment_sum(ref.mul(ref.reshape(ref.mul(gamma, w), (5, 1)), rows), seg, 2)
        return ref.tsum(ref.mul(mixed, mixed))

    err = ref.finite_difference_check(loss, [table, w], h=1e-5, rng=rng)
    assert err < 1e-4


@pytest.mark.parametrize("idx", [[0, 2, 3, 5], [0, 2, 2, 5, 1], [5, 2, 0]])
@pytest.mark.parametrize("held", [False, True])
def test_gather_rows_backward_adds_the_row_sums_of_add_at(idx, held):
    # sorted distinct rows, repeated rows and unsorted rows all sum through the one-hot scatter
    rng = np.random.default_rng(6)
    idx = np.array(idx)
    table = Tensor(rng.normal(size=(6, 2, 3)), requires_grad=True)
    g = rng.normal(size=(len(idx), 2, 3))
    want = np.zeros_like(table.data)
    np.add.at(want, idx, g)
    if held:  # a gradient already held by the source, as user_emb's is
        table.grad = rng.normal(size=table.data.shape)
        want += table.grad
    with Tape() as tape:
        rows = ag.gather_rows(table, idx)
        np.testing.assert_array_equal(rows.data, table.data[idx])
        tape.backward(ref.tsum(ref.mul(rows, Tensor(g))))
    np.testing.assert_array_equal(table.grad, want)


def test_cosine_and_rowdot_gradients():
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss():
        return ref.tsum(ref.add(ref.cosine_rows(a, b), ref.rowwise_dot(a, b)))

    err = ref.finite_difference_check(loss, [a, b], h=1e-5, rng=rng)
    assert err < 1e-4


def test_spmm_gradient():
    rng = np.random.default_rng(13)
    A = sp.random(5, 4, density=0.5, random_state=1, format="csr")
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss():
        y = ag.spmm(A, x)
        return ref.tsum(ref.mul(y, y))

    err = ref.finite_difference_check(loss, [x], h=1e-5, rng=rng)
    assert err < 1e-4


def test_spmm_through_a_transposed_view_is_bit_equal_to_a_transposed_copy():
    rng = np.random.default_rng(19)
    A = sp.random(60, 40, density=0.2, random_state=2, format="csr")
    # (A.T, a CSC view) against its CSR copy, and A whose backward runs through A.T
    for mat, copy in ((A.T, A.T.tocsr()), (A, A)):
        x = Tensor(rng.normal(size=(mat.shape[1], 8)), requires_grad=True)
        g = rng.normal(size=(mat.shape[0], 8))
        with Tape() as tape:
            y = ag.spmm(mat, x)
            tape.backward(ref.tsum(ref.mul(y, Tensor(g))))
        assert np.array_equal(y.data, copy @ x.data)
        assert np.array_equal(x.grad, copy.T.tocsr() @ g)


def test_stack_gradients():
    rng = np.random.default_rng(17)
    u = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss():
        m = ref.stack([u, v, u])  # (4, 3, 3); u feeds two channels
        assert m.shape == (4, 3, 3)
        return ref.tsum(ref.mul(m, ref.stack([v, u, v])))

    err = ref.finite_difference_check(loss, [u, v], h=1e-5, rng=rng)
    assert err < 1e-4


def test_broadcast_mul_gradient():
    rng = np.random.default_rng(19)
    col = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
    mat = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

    def loss():
        return ref.tsum(ref.mul(col, mat))

    err = ref.finite_difference_check(loss, [col, mat], h=1e-5, rng=rng)
    assert err < 1e-4


def test_weighted_sum_finite_differences():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    col, const = rng.normal(size=(5, 1)), rng.normal(size=(5, 3))

    def loss():
        # x in three terms: a scalar, an (n, 1) column and a unit coefficient; const takes none
        out = ag.weighted_sum((-0.7, x), (col, x), (2.5, y), (1.0, const), (1.0, x))
        return ref.tsum(ref.mul(out, out))

    err = ref.finite_difference_check(loss, [x, y], h=1e-5, max_coords=15)
    assert err < 1e-6


def test_weighted_sum_bits_and_shared_gradient():
    rng = np.random.default_rng(24)
    a, b, c = (rng.normal(size=(4, 3)) for _ in range(3))
    col = rng.normal(size=(4, 1))
    # a product by 1.0 is exact: the bits of a chain of two-operand adds
    np.testing.assert_array_equal(ag.weighted_sum((1.0, a), (1.0, b), (1.0, c)).data, (a + b) + c)
    np.testing.assert_array_equal(ag.weighted_sum((col, a), (0.5, b)).data, a * col + b * 0.5)
    x = Tensor(a, requires_grad=True)
    g = rng.normal(size=(4, 3))
    with Tape() as tape:
        out = ag.weighted_sum((1.0, x), (2.0, x), (1.0, x))
        tape.backward(ref.tsum(ref.mul(out, Tensor(g))))
    np.testing.assert_array_equal(x.grad, (g + g * 2.0) + g)
    assert len(tape.nodes) == 3
    with Tape() as tape:
        ag.weighted_sum((0.5, Tensor(a)), (1.0, b))
    assert not tape.nodes


def test_weighted_sum_adds_a_shared_tensors_gradients_in_term_order():
    g = np.random.default_rng(1).normal(size=(4, 3))
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    with Tape() as tape:
        out = ag.weighted_sum((1.0, x), (2.0, x), (3.0, x))
        out.grad = g.copy()
        tape.backward(out)
    assert x.grad.tobytes() == ((g + g * 2.0) + g * 3.0).tobytes()


def test_straight_through_routes_gradient_to_soft_input():
    x = Tensor(np.array([[0.2, 0.8]]), requires_grad=True)
    hard = np.array([[0.0, 1.0]])
    with Tape() as tape:
        soft = ag.softmax_rows(x, tau=1.0)
        out = ag.straight_through(soft, hard)
        np.testing.assert_array_equal(out.data, hard)
        loss = ref.tsum(ref.mul(out, Tensor(np.array([[3.0, -1.0]]))))
        tape.backward(loss)
    assert x.grad is not None and np.any(x.grad != 0.0)


def test_tape_reverse_order_and_reuse():
    # a value consumed twice must accumulate both contributions
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        y = ref.mul(x, x)          # x^2
        z = ref.add(y, ref.mul(x, Tensor([3.0])))  # x^2 + 3x
        tape.backward(ref.tsum(z))
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_tape_keeps_leaf_gradients_only_and_runs_backward_once():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape() as tape:
        y = ref.mul(x, x)
        z = ref.add(y, y)  # both operands are one tensor: 2 * x^2
        loss = ref.tsum(z)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [4.0, -8.0])
    assert y.grad is None and z.grad is None
    with pytest.raises(RuntimeError, match="backward already ran"):
        tape.backward(loss)


def test_backward_releases_every_node_and_keeps_the_tape_length():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    with Tape() as tape:
        y = ref.mul(x, x)
        ref.scale(x, 3.0)  # recorded, never reached from the loss
        loss = ref.tsum(ag.weighted_sum((1.0, y), (2.0, x)))
        recorded = list(tape.nodes)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data + 2.0)
    assert len(tape.nodes) == len(recorded) == 4
    assert all(slot is None for slot in tape.nodes)
    assert all(slot.backward is None and slot.parents == () for slot in recorded)


def _hook(slot, probe):
    """Run probe() just before the closure on slot, which then runs as it would have."""
    inner = slot.backward

    def hooked(g, *parents):
        probe()
        inner(g, *parents)

    slot.backward = hooked


def _gated_with_refs(rows, w, b):
    """A loss over gated_channels, and weakrefs to that op's output and captured gate."""
    h = ag.gated_channels(rows, w, b)
    fn = h.slot.backward
    captured = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))
    refs = [weakref.ref(h.data), weakref.ref(captured["gate"])]
    return ag.mean_pair_cosine(h, np.arange(rows.data.shape[0]), 0.0), refs


def test_backward_frees_a_passed_op_before_an_earlier_closure_runs():
    rng = np.random.default_rng(31)
    e = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    alive = []
    with Tape() as tape:
        rows = ag.gather_rows(e, np.array([0, 2, 2, 5, 6]))
        loss, refs = _gated_with_refs(rows, w, b)
        _hook(rows.slot, lambda: alive.extend(r() is not None for r in refs))
        tape.backward(loss)
    # the first-recorded op's closure ran after gated_channels' output and gate were gone
    assert alive == [False, False]
    assert e.grad is not None and w.grad is not None and b.grad is not None


def _small_trainer(**config):
    ds, _ = generate_synthetic(300, 200, 40, m_true=3, noise=0.1, seed=4)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=0),
                             group_items=split_holdout(ds.group_items, seed=1))
    return Trainer(ds, TrainConfig(seed=0, batch_user=256, batch_group=64, **config))


def test_trainer_step_frees_forward_buffers_during_backward(monkeypatch):
    trainer = _small_trainer()
    live = {}
    backward = Tape.backward

    def traced(tape, loss):
        live["start"] = tracemalloc.get_traced_memory()[0]
        _hook(tape.nodes[0], lambda: live.update(first=tracemalloc.get_traced_memory()[0]))
        backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", traced)
    tracemalloc.start()
    try:
        trainer._step()
    finally:
        tracemalloc.stop()
    # what the step's forward allocated is mostly gone by the last closure to run
    # (about a third of it on this world, whose forward has already freed what no closure
    # reads; all of it and more when no closure is released)
    assert live["first"] < 0.5 * live["start"]


# the default model (variant Full), variants A-D, the free-table interest generator, and LightGCN alone
STEP_CONFIGS = {
    "Full": {},
    "A": {"variant": "mean_members"},
    "B": {"variant": "uniform_mix"},
    "C": {"variant": "no_interest_reg"},
    "D": {"variant": "hard_select"},
    "table": {"interest_mode": "table"},
    "no_groups": {"use_groups": False},
}


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_trainer_step_frees_unread_forward_outputs_before_the_first_closure(monkeypatch, name):
    trainer = _small_trainer(**STEP_CONFIGS[name])
    pool_csr = getattr(trainer.model, "pool_csr", None)
    refs, seen = {}, {}
    propagate, spmm, mix_interests = ag.propagate, ag.spmm, aggregation.mix_interests

    def traced_propagate(*args):
        seen["at_propagate"] = {key: refs[key]() is not None for key in ("pool", "mixed") if key in refs}
        outs = propagate(*args)
        refs["propagate"] = [weakref.ref(t.data) for t in outs]
        return outs

    def traced_spmm(mat, x):
        out = spmm(mat, x)
        if mat is pool_csr:
            refs["pool"] = weakref.ref(out.data)
        return out

    def traced_mix(omega, pooled):
        out = mix_interests(omega, pooled)
        refs["mixed"] = weakref.ref(out.data)
        return out

    backward = Tape.backward

    def traced(tape, loss):
        assert tape.nodes[-1] is loss.slot  # the loss's weighted_sum, whose closure runs first
        kept = refs["propagate"] + ([refs["pool"]] if "pool" in refs else [])
        _hook(loss.slot, lambda: seen.update(alive=[r() is not None for r in kept]))
        backward(tape, loss)

    monkeypatch.setattr(ag, "propagate", traced_propagate)
    monkeypatch.setattr(ag, "spmm", traced_spmm)
    monkeypatch.setattr(aggregation, "mix_interests", traced_mix)
    monkeypatch.setattr(Tape, "backward", traced)
    trainer._step()
    cfg = trainer.cfg
    built = {"pool": cfg.use_groups, "mixed": cfg.use_groups and cfg.variant != "mean_members"}
    assert set(seen["at_propagate"]) == {key for key, made in built.items() if made}
    # no closure reads propagate's outputs or the pool product, so nothing holds them
    assert seen["alive"] == [False] * (2 + cfg.use_groups)
    # nor the mixed interests, and the forward holds neither once propagation starts
    assert not any(seen["at_propagate"].values())


def test_outputs_the_caller_holds_keep_their_values_through_backward(monkeypatch):
    trainer = _small_trainer()
    held = []
    forward = trainer.model.forward

    def holding(*args, **kwargs):
        state = forward(*args, **kwargs)
        outs = (state.user_final, state.item_final, state.group_fused, state.omega)
        held.extend((t, t.data.copy()) for t in outs)
        return state

    monkeypatch.setattr(trainer.model, "forward", holding)
    backward = Tape.backward

    def traced(tape, loss):
        held.append((loss, loss.data.copy()))
        backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", traced)
    params = [t.data.copy() for t in trainer.model.tensors()]
    total = trainer._step()[-1]
    assert len(held) == 5
    # backward writes no .data: every recorded output keeps the array and bits it was made with
    for t, value in held:
        assert t.grad is None
        np.testing.assert_array_equal(t.data, value)
    loss = held[-1][0]
    # the decay term is taken on the parameters the loss was computed on, before Adam's update
    assert total == loss.item() + trainer.cfg.weight_decay * sum(float(np.vdot(p, p)) for p in params)


def _guarded_ops():
    """name -> (input shapes, op, the inputs whose arrays its backward reads): every tape op, constants fixed."""
    adj = sp.random(5, 4, density=0.5, random_state=3, format="csr")
    rows, segs = np.array([0, 2, 2, 4, 1]), np.array([0, 0, 1, 1, 2])
    pattern = ag.segment_pattern(segs, 3, 2)
    hard = np.eye(4, 3)
    return {
        "weighted_sum": ([(4, 3), (4, 3)],
                         lambda x, y: ag.weighted_sum((0.5, x), (np.arange(4.0)[:, None], y), (1.0, x)), ()),
        "gather_rows": ([(5, 3)], lambda x: ag.gather_rows(x, [4, 0, 4, 2]), ()),
        "gather_rows_distinct": ([(5, 3)], lambda x: ag.gather_rows(x, [0, 2, 4]), ()),
        "softmax_rows": ([(4, 3)], lambda x: ag.softmax_rows(x, 0.5), ()),
        "spmm": ([(4, 3)], lambda x: ag.spmm(adj, x), ()),
        "propagate": ([(5, 3), (4, 3)], lambda u, v: ag.propagate(adj, u, v, 3), ()),
        "straight_through": ([(4, 3)], lambda x: ag.straight_through(x, hard), ()),
        "gated_channels": ([(5, 3), (2, 3, 3), (2, 3)], ag.gated_channels, (0,)),
        "segment_attention": ([(5, 2, 3), (3,)],
                              lambda x, att: ag.segment_attention(x, att, rows, segs, pattern), (0, 1)),
        "contract": ([(4, 3), (4, 2, 3)], lambda a, b: ag.contract("gd,gmd->gm", a, b), (0, 1)),
        "mean_pair_cosine": ([(5, 2, 3)], lambda x: ag.mean_pair_cosine(x, [3, 0, 4], 0.0), (0,)),
        "bpr_pairs": ([(3, 3), (4, 3)], lambda a, i: ag.bpr_pairs(a, i, [0, 2, 2], [1, 3, 0], [2, 3, 1]), ()),
    }


@pytest.mark.parametrize("name", sorted(_guarded_ops()))
def test_op_gradients_are_the_same_when_its_inputs_were_released(name):
    shapes, op, read = _guarded_ops()[name]
    arrays = [np.random.default_rng(43).normal(size=s) for s in shapes]
    grads = []
    for recorded in (False, True):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        up = np.random.default_rng(47)
        with Tape() as tape:
            # a recorded input is a copy made on the tape, which only this frame holds
            inputs = [ag.weighted_sum((1.0, t)) for t in leaves] if recorded else leaves
            outs = op(*inputs)
            outs = outs if isinstance(outs, tuple) else (outs,)
            loss = ag.weighted_sum(*((1.0, ref.tsum(ref.mul(out, Tensor(up.normal(size=out.data.shape)))))
                                     for out in outs))
            refs = [weakref.ref(t.data) for t in inputs]
            del inputs
            alive = [r() is not None for r in refs]
            tape.backward(loss)
        # neither the tape nor a closure holds an input tensor: a dropped input's array is
        # freed before backward unless the op's backward reads it
        assert alive == [not recorded or i in read for i in range(len(arrays))]
        grads.append([t.grad for t in leaves])
    for leaf_grad, recorded_grad in zip(*grads):
        assert leaf_grad is not None
        np.testing.assert_array_equal(recorded_grad, leaf_grad)
