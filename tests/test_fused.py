"""Fused interest and BPR ops: finite differences, references built from
primitive ops, and the one-hot scatter kernel."""

import warnings

import numpy as np
import pytest

from grouprec import aggregation as agg
from grouprec import autodiff as ag
from grouprec import losses
from grouprec.autodiff import Tape, Tensor
from grouprec.gating import make_interest_generator

import reference as ref

# group 0 = users {0, 2, 3}, group 1 = {1} (a single member), group 2 = {4, 0}
UID = np.array([0, 2, 3, 1, 4, 0])
GID = np.array([0, 0, 0, 1, 2, 2])
N_GROUPS = 3


def param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def grads_of(loss_fn, params):
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    return loss.item(), [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


def close(a, b, rel=1e-10):
    """Agreement relative to the reference array's largest magnitude."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= rel * max(np.abs(b).max(initial=0.0), 1e-300)


# ------------------------------------------------------------ finite differences


def test_gated_channels_finite_differences():
    rng = np.random.default_rng(0)
    x = param(rng, 5, 4)
    w = param(rng, 3, 4, 4)
    b = param(rng, 3, 4)
    coef = rng.normal(size=(5, 3, 4))

    def loss():
        out = ag.gated_channels(x, w, b)
        return ref.tsum(ref.mul(ref.mul(out, out), Tensor(coef)))

    assert ag.gated_channels(x, w, b).shape == (5, 3, 4)
    err = ref.finite_difference_check(loss, [x, w, b], h=1e-5, rng=rng, max_coords=48)
    assert err < 1e-4


@pytest.mark.parametrize("rank", [2, 3], ids=["shared_input", "per_channel_input"])
def test_channel_linear_finite_differences(rank):
    rng = np.random.default_rng(8)
    x = param(rng, 5, 4) if rank == 2 else param(rng, 5, 3, 4)
    w = param(rng, 3, 4, 2)
    b = param(rng, 3, 2)
    coef = rng.normal(size=(5, 3, 2))

    def loss():
        out = ag.channel_linear(x, w, b)
        return ref.tsum(ref.mul(ref.mul(out, out), Tensor(coef)))

    out = ag.channel_linear(x, w, b).data
    assert out.shape == (5, 3, 2)
    for n in range(3):
        x_n = x.data if rank == 2 else x.data[:, n]
        np.testing.assert_allclose(out[:, n], x_n @ w.data[n] + b.data[n], rtol=1e-14)
    err = ref.finite_difference_check(loss, [x, w, b], h=1e-5, rng=rng, max_coords=60)
    assert err < 1e-4


def test_segment_attention_finite_differences_and_single_member():
    rng = np.random.default_rng(1)
    x = param(rng, 5, 3, 4)
    att = param(rng, 4)
    coef = rng.normal(size=(N_GROUPS, 3, 4))

    def loss():
        out = ag.segment_attention(x, att, UID, GID, ag.segment_pattern(GID, N_GROUPS, 3))
        return ref.tsum(ref.mul(ref.mul(out, out), Tensor(coef)))

    err = ref.finite_difference_check(loss, [x, att], h=1e-5, rng=rng, max_coords=30)
    assert err < 1e-4
    # the single-member group passes its member's rows through, every channel
    out = ag.segment_attention(x, att, UID, GID, ag.segment_pattern(GID, N_GROUPS, 3))
    np.testing.assert_array_equal(out.data[1], x.data[1])


# compact rows 0..8: rows 0, 2 and 5 sit in two groups each, group 1 has the
# single member 3, group 2 lists its members out of row order, and rows 4, 7
# and 8 are in no group
POOL_ROWS = np.array([0, 2, 5, 3, 5, 1, 0, 6, 2])
POOL_SEGS = np.array([0, 0, 0, 1, 2, 2, 2, 3, 3])


@pytest.mark.parametrize("shuffled", [False, True], ids=["grouped", "shuffled"])
@pytest.mark.parametrize("m", [1, 4])
def test_segment_attention_matches_the_reference_op(m, shuffled):
    rng = np.random.default_rng(20 + m)
    order = rng.permutation(len(POOL_ROWS)) if shuffled else np.arange(len(POOL_ROWS))
    rows, segs = POOL_ROWS[order], POOL_SEGS[order]
    x0, att0 = rng.normal(size=(9, m, 5)), rng.normal(size=5)
    coef = rng.normal(size=(4, m, 5))
    results = []
    # the new op takes the pattern where the reference takes the group count
    pattern = ag.segment_pattern(segs, 4, m)
    for op, layout in ((ag.segment_attention, pattern), (ref.segment_attention, 4)):
        x, att = Tensor(x0.copy(), requires_grad=True), Tensor(att0.copy(), requires_grad=True)
        with Tape() as tape:
            out = op(x, att, rows, segs, layout)
            tape.backward(ref.tsum(ref.mul(out, Tensor(coef))))
        results.append((out.data, x.grad, att.grad))
    (out, dx, datt), (want, want_dx, want_datt) = results
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(out[1], x0[3])  # the single member passes through
    assert close(dx, want_dx, rel=1e-12) and close(datt, want_datt, rel=1e-12)
    assert np.all(dx[[4, 7, 8]] == 0.0)
    assert np.all(np.abs(dx[[0, 1, 2, 3, 5, 6]]).max(axis=(1, 2)) > 0.0)


def test_contract_finite_differences():
    rng = np.random.default_rng(2)
    a = param(rng, 3, 4)
    w = param(rng, 3, 5)
    chans = param(rng, 3, 5, 4)
    proj = Tensor(rng.normal(size=(5, 4)))

    def loss():
        psi = ag.contract("gd,gmd->gm", a, chans)
        mixed = ag.contract("gm,gmd->gd", w, chans)
        return ref.add(ref.tsum(ref.mul(psi, psi)), ref.tsum(ref.mul(mixed, ref.matmul(psi, proj))))

    err = ref.finite_difference_check(loss, [a, w, chans], h=1e-5, rng=rng)
    assert err < 1e-4


@pytest.mark.parametrize("m, d", [(5, 4), (1, 4), (5, 1), (1, 1)])
def test_contract_is_bit_equal_to_the_group_score_and_mix_einsums(m, d):
    # the einsums of the two ops contract replaced: group scores psi = e_g . pooled, and the omega mix
    rng = np.random.default_rng(12)
    a, w, chans = rng.normal(size=(6, d)), rng.normal(size=(6, m)), rng.normal(size=(6, m, d))
    g_psi, g_mix = rng.normal(size=(6, m)), rng.normal(size=(6, d))
    cases = [
        ("gd,gmd->gm", a, g_psi, np.einsum("gd,gmd->gm", a, chans),
         np.einsum("gm,gmd->gd", g_psi, chans), np.einsum("gm,gd->gmd", g_psi, a)),
        ("gm,gmd->gd", w, g_mix, np.einsum("gm,gmd->gd", w, chans),
         np.einsum("gd,gmd->gm", g_mix, chans), np.einsum("gm,gd->gmd", w, g_mix)),
    ]
    for spec, left, g, want, want_left, want_chans in cases:
        x, c = Tensor(left, requires_grad=True), Tensor(chans, requires_grad=True)
        with Tape() as tape:
            out = ag.contract(spec, x, c)
            assert out.data.tobytes() == want.tobytes()
            out.grad = g.copy()
            tape.backward(out)
        assert x.grad.tobytes() == want_left.tobytes()
        assert c.grad.tobytes() == want_chans.tobytes()


def test_mean_pair_cosine_masked_pairs_finite_differences():
    rng = np.random.default_rng(3)
    x = param(rng, 6, 4, 5)
    rows = np.array([0, 2, 3, 5])
    threshold = 0.3
    u = x.data[rows] / np.linalg.norm(x.data[rows], axis=2, keepdims=True)
    p, q = np.triu_indices(4, k=1)
    signed = (u @ u.transpose(0, 2, 1))[:, p, q]
    cos = np.abs(signed)
    # some pairs on each side of the threshold, none close enough for FD to cross it
    assert (cos < threshold).any() and (cos >= threshold).any()
    assert np.abs(cos - threshold).min() > 1e-3

    def loss():
        return ag.mean_pair_cosine(x, rows, threshold)

    err = ref.finite_difference_check(loss, [x], h=1e-6, rng=rng, max_coords=40)
    assert err < 1e-4
    want = np.sum(np.where(cos >= threshold, signed, 0.0))
    assert loss().item() == pytest.approx(want / len(rows), abs=1e-12)


@pytest.mark.parametrize("rows, prior", [
    ([0, 2, 3, 5], True),  # sorted rows into an existing gradient
    ([0, 2, 3, 5], False),  # no gradient yet: it starts from zeros
    ([3, 0, 5, 2], True),  # unsorted distinct rows
    ([0, 2, 2, 5], True),  # a repeated row, whose in-place add would keep one of its gradients: refused
])
def test_mean_pair_cosine_in_place_gradient_bits_equal_the_scatter(monkeypatch, rows, prior):
    rng = np.random.default_rng(6)
    data, earlier = rng.normal(size=(6, 3, 4)), rng.normal(size=(6, 3, 4))
    rows = np.array(rows)

    def grad(op, start):
        x = Tensor(data.copy(), requires_grad=True)
        x.grad = None if start is None else start.copy()
        with Tape() as tape:
            loss = op(x, rows, 0.2)
            tape.backward(loss)
        return x.grad

    calls, scatter = [], ag.scatter_rows

    def counted(*args):
        calls.append(args)
        return scatter(*args)

    monkeypatch.setattr(ag, "scatter_rows", counted)
    if len(set(rows)) < len(rows):
        with pytest.raises(ValueError, match="distinct rows"):
            grad(ag.mean_pair_cosine, earlier)
        return
    # the oracle: the one-block op's scattered gradient alone, plus the earlier one afterwards
    want = grad(ref.mean_pair_cosine, None)
    if prior:
        want = want + earlier
    got = grad(ag.mean_pair_cosine, earlier if prior else None)
    assert not calls
    assert got.tobytes() == want.tobytes()


def test_mean_pair_cosine_zero_norm_row_has_zero_similarity_and_no_gradient():
    rng = np.random.default_rng(4)
    a = param(rng, 3, 4)
    b = param(rng, 3, 4)
    c_vals = rng.normal(size=(3, 4))
    c_vals[1] = 0.0  # user 1's third interest is the zero vector
    c = Tensor(c_vals, requires_grad=True)
    rows = np.arange(3)

    def loss():
        return ag.mean_pair_cosine(ref.stack([a, b, c]), rows, 0.0)

    _, (ga, gb, gc) = grads_of(loss, [a, b, c])
    np.testing.assert_array_equal(gc[1], 0.0)
    # every pair with the zero row counts as 0: user 1 contributes cos(a, b) only
    per_user = []
    for r in rows:
        chans = [a.data[r], b.data[r], c.data[r]]
        per_user.append(sum(ref.cosine_similarity(chans[p], chans[q])
                            for p in range(3) for q in range(p + 1, 3)))
    assert loss().item() == pytest.approx(sum(per_user) / 3, abs=1e-12)
    # a and b are smooth everywhere the zero row is left alone
    err = ref.finite_difference_check(loss, [a, b], h=1e-5, rng=rng)
    assert err < 1e-4


def test_hard_select_gradient_is_the_soft_paths_gradient():
    # straight-through: with a loss linear in omega, the hard path's gradients
    # equal the soft path's, which finite differences confirm
    rng = np.random.default_rng(5)
    group = param(rng, 4, 3)
    pooled = param(rng, 4, 3, 3)
    noise = agg.sample_gumbel(rng, (4, 3))
    coef = Tensor(rng.normal(size=(4, 3)))
    mixed_channels = Tensor(rng.normal(size=(4, 3, 3)))  # constant: the loss is linear in omega

    def loss(hard):
        omega = agg.selection_weights(group, pooled, tau=0.7, noise=noise, hard=hard)
        return ref.tsum(ref.mul(agg.mix_interests(omega, mixed_channels), coef))

    hard_omega = agg.selection_weights(group, pooled, tau=0.7, noise=noise, hard=True).data
    assert np.all(np.isin(hard_omega, [0.0, 1.0]))
    _, hard_grads = grads_of(lambda: loss(True), [group, pooled])
    _, soft_grads = grads_of(lambda: loss(False), [group, pooled])
    for h, s in zip(hard_grads, soft_grads):
        np.testing.assert_allclose(h, s, rtol=1e-12, atol=1e-15)
    assert np.any(hard_grads[0])
    err = ref.finite_difference_check(lambda: loss(False), [group, pooled], h=1e-5, rng=rng)
    assert err < 1e-4


# ------------------------------------------------------------ per-interest reference


def reference_pipeline(e, gen, att, group, noise, hard, reg_users, threshold):
    """The interest pipeline one interest at a time, from primitive ops only."""
    m = gen.w.shape[0]
    ints = [ref.mul(e, ref.sigmoid(ref.add(ref.matmul(e, ref.take(gen.w, n)), ref.take(gen.b, n))))
            for n in range(m)]
    pooled = []
    for t in ints:
        rows = ag.gather_rows(t, UID)
        gamma = ref.segment_softmax(ref.matmul(rows, att), GID, N_GROUPS)
        weighted = ref.mul(ref.reshape(gamma, (len(UID), 1)), rows)
        pooled.append(ref.segment_sum(weighted, GID, N_GROUPS))
    psi = ref.reshape(ref.stack([ref.rowwise_dot(group, p) for p in pooled]), (N_GROUPS, m))
    omega = ag.softmax_rows(ref.add(psi, Tensor(noise)), 0.5)
    if hard:
        onehot = np.eye(m)[omega.data.argmax(axis=1)]
        omega = ag.straight_through(omega, onehot)
    mixed = None
    for n, p in enumerate(pooled):
        term = ref.mul(ref.matmul(omega, Tensor(np.eye(m)[:, n:n + 1])), p)
        mixed = term if mixed is None else ref.add(mixed, term)
    rows = [ag.gather_rows(t, reg_users) for t in ints]
    acc = Tensor(0.0)
    for p in range(m):
        for q in range(p + 1, m):
            sim = ref.cosine_rows(rows[p], rows[q])
            mask = (np.abs(sim.data) >= threshold).astype(np.float64)
            acc = ref.add(acc, ref.tsum(ref.mul(sim, Tensor(mask))))
    reg = ref.scale(acc, 1.0 / len(reg_users))
    return ints, pooled, omega, mixed, reg


def fused_pipeline(e, gen, att, group, noise, hard, reg_users, threshold):
    interests = gen.interests(e, np.arange(e.shape[0]))
    pattern = ag.segment_pattern(GID, N_GROUPS, interests.shape[1])
    pooled = agg.attention_pool(interests, UID, GID, pattern, att)
    omega = agg.selection_weights(group, pooled, 0.5, noise=noise, hard=hard)
    mixed = agg.mix_interests(omega, pooled)
    reg = losses.interest_regularizer(interests, reg_users, threshold)
    return interests, pooled, omega, mixed, reg


@pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard_select"])
def test_fused_pipeline_matches_per_interest_reference(hard):
    rng = np.random.default_rng(6)
    m, d = 3, 4
    e = param(rng, 6, d)
    e.data[5] = 0.0  # every interest of user 5 is zero: the regularizer's zero-norm rule
    gen = make_interest_generator("gate", m, d, rng, n_users=6)
    for _, t in gen.named_params():
        t.data[:] = rng.normal(size=t.shape)
    att = param(rng, d)
    group = param(rng, N_GROUPS, d)
    noise = agg.sample_gumbel(rng, (N_GROUPS, m))
    coef = Tensor(rng.normal(size=(N_GROUPS, d)))
    reg_users = np.array([0, 1, 3, 4, 5])
    threshold = 0.2
    params = [e, att, group] + [t for _, t in gen.named_params()]
    args = (e, gen, att, group, noise, hard, reg_users, threshold)

    def loss(pipeline):
        *_, mixed, reg = pipeline(*args)
        return ref.add(ref.tsum(ref.mul(mixed, coef)), ref.scale(reg, 0.7))

    fused = fused_pipeline(*args)
    expected = reference_pipeline(*args)
    assert close(fused[0].data, np.stack([t.data for t in expected[0]], axis=1))
    assert close(fused[1].data, np.stack([t.data for t in expected[1]], axis=1))
    for f, r in zip(fused[2:], expected[2:]):
        assert close(f.data, r.data)
    assert fused[4].item() != 0.0  # the threshold keeps some pairs

    fused_loss, fused_grads = grads_of(lambda: loss(fused_pipeline), params)
    ref_loss, ref_grads = grads_of(lambda: loss(reference_pipeline), params)
    assert close(fused_loss, ref_loss)
    for (name, _), f, r in zip([("e", 0), ("att", 0), ("group", 0)] + gen.named_params(),
                               fused_grads, ref_grads):
        assert np.any(r), name
        assert close(f, r), name


def test_fused_pipeline_is_fewer_tape_nodes():
    rng = np.random.default_rng(7)
    e = param(rng, 6, 4)
    gen = make_interest_generator("gate", 4, 4, rng, n_users=6)
    att, group = param(rng, 4), param(rng, N_GROUPS, 4)
    noise = agg.sample_gumbel(rng, (N_GROUPS, 4))
    counts = []
    for pipeline in (fused_pipeline, reference_pipeline):
        with Tape() as tape:
            pipeline(e, gen, att, group, noise, False, np.arange(6), 0.1)
        counts.append(len(tape.nodes))
    # gate, attention, score, noise, softmax, mix, regularizer
    assert counts[0] == 7 and counts[1] > 5 * counts[0]


# ------------------------------------------------------------ fused BPR loss

# repeated anchors, an item that is both a positive and a negative, and p == n
BPR_A = np.array([0, 3, 3, 1, 0, 5, 2])
BPR_P = np.array([1, 4, 4, 0, 7, 2, 8])
BPR_N = np.array([6, 1, 2, 0, 3, 7, 4])


def test_bpr_loss_finite_differences():
    rng = np.random.default_rng(12)
    anchors, items = param(rng, 6, 4), param(rng, 9, 4)

    def loss():
        return losses.bpr_loss(anchors, items, BPR_A, BPR_P, BPR_N)

    err = ref.finite_difference_check(loss, [anchors, items], h=1e-5, rng=rng, max_coords=36)
    assert err < 1e-4
    # one table in both roles accumulates both gradients
    err = ref.finite_difference_check(
        lambda: losses.bpr_loss(items, items, BPR_A, BPR_P, BPR_N), [items], h=1e-5, max_coords=36
    )
    assert err < 1e-4


@pytest.mark.parametrize("spread", [0.3, 3.0, 30.0])
def test_bpr_loss_matches_reference_composition(spread):
    rng = np.random.default_rng(13)
    anchors, items = param(rng, 6, 4), param(rng, 9, 4)
    items.data *= spread  # score gaps from well inside to far outside the softplus bend

    def fused():
        return losses.bpr_loss(anchors, items, BPR_A, BPR_P, BPR_N)

    def composed():
        pos = ref.score_pairs(anchors, items, BPR_A, BPR_P)
        neg = ref.score_pairs(anchors, items, BPR_A, BPR_N)
        return ref.bpr_loss(pos, neg)

    (lf, gf), (lr, gr) = grads_of(fused, [anchors, items]), grads_of(composed, [anchors, items])
    assert abs(lf - lr) <= 1e-12 * abs(lr)
    for a, b in zip(gf, gr):
        assert close(a, b, rel=1e-12)
    with Tape() as tape:
        fused()
    assert len(tape.nodes) == 1


def test_sigmoid_saturates_to_exact_zero_and_one_without_warnings():
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    w = Tensor([[[800.0]], [[-800.0]]], requires_grad=True)
    b = Tensor([[0.0], [0.0]], requires_grad=True)
    anchor = Tensor([[1.0]], requires_grad=True)
    items = Tensor([[0.0], [800.0]], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            out = ag.gated_channels(x, w, b)
            tape.backward(ref.tsum(out))
        with Tape() as tape:
            # one triple 800 in favour of the positive, one 800 against it
            bpr = losses.bpr_loss(anchor, items, [0, 0], [1, 0], [0, 1])
            tape.backward(bpr)
    assert out.data.ravel().tolist() == [1.0, 0.0]
    assert bpr.item() == 400.0
    assert items.grad.ravel().tolist() == [-0.5, 0.5]
    assert anchor.grad.ravel().tolist() == [400.0]


# ------------------------------------------------------------ kernels


@pytest.mark.parametrize("tail", [(), (3,), (2, 4)])
def test_scatter_rows_bit_equal_to_add_at(tail):
    rng = np.random.default_rng(8)
    idx = rng.integers(0, 7, size=60)  # heavy repetition; rows 7 and 8 stay empty
    g = rng.normal(size=(60,) + tail) * 10.0 ** rng.integers(-8, 9, size=(60,) + tail)
    g.flat[::7] = -0.0
    want = np.zeros((9,) + tail)
    np.add.at(want, idx, g)
    got = ag.scatter_rows(idx, g, 9)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_scatter_rows_empty_index():
    out = ag.scatter_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4)
    assert np.array_equal(out, np.zeros((4, 3)))


def test_channel_cosines_matches_per_pair_oracle():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(7, 3, 5))
    x[2, 1] = 0.0
    cos, unit, inv, live = ag.channel_cosines(x.copy())
    assert cos.shape == (7, 3, 3) and unit.shape == x.shape
    for u in range(7):
        for p in range(3):
            for q in range(3):
                if (u, p) != (2, 1) and (u, q) != (2, 1):
                    want = 1.0 if p == q else ref.cosine_similarity(x[u, p], x[u, q])
                    assert cos[u, p, q] == pytest.approx(want, abs=1e-12)
    # the zero channel has cosine 0 with every channel, itself included
    np.testing.assert_array_equal(cos[2, 1], 0.0)
    np.testing.assert_array_equal(cos[2, :, 1], 0.0)
    np.testing.assert_array_equal(live, np.arange(21).reshape(7, 3) != 7)
    np.testing.assert_array_equal(unit[2, 1], 0.0)
    assert inv[2, 1] == 0.0
    np.testing.assert_allclose(inv[live], 1.0 / np.linalg.norm(x, axis=2)[live], rtol=1e-15)
    np.testing.assert_array_equal(unit, x * inv[:, :, None])


def test_channel_cosines_zero_norm_rule_is_the_regularizers():
    # both norms pass COSINE_NORM_EPS and their product does not: a zero pair
    # only when a channel's own norm is below the threshold
    x = np.zeros((1, 2, 3))
    x[0, :, 0] = 1e-7, 2e-7
    assert x[0, 0, 0] * x[0, 1, 0] < ag.COSINE_NORM_EPS
    reg = losses.interest_regularizer(Tensor(x), np.array([0]), 0.0).item()
    assert reg == ref.cosine_similarity(x[0, 0], x[0, 1]) == 1.0
    cos, _, _, live = ag.channel_cosines(x.copy())
    np.testing.assert_allclose(cos[0], np.ones((2, 2)), rtol=1e-12)
    assert live.all()
    x[0, 0, 0] = 1e-13
    assert losses.interest_regularizer(Tensor(x), np.array([0]), 0.0).item() == 0.0
    assert ref.cosine_similarity(x[0, 0], x[0, 1]) == 0.0
    cos, _, _, live = ag.channel_cosines(x.copy())
    np.testing.assert_array_equal(cos[0], [[0.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(live, [[False, True]])
