import sys
import threading

import numpy as np
import pytest

from grouprec import autodiff as ag
from grouprec import fusion
from grouprec import graphconv
from grouprec.autodiff import Tensor
from grouprec.datasets import Dataset, Interactions, build_norm_adjacency, membership_matrix

import reference as ref


def dataset_with_members(n_users, memberships, n_items=3, user_edges=((0, 0),)):
    members = membership_matrix(
        len(memberships), n_users,
        [g for g, us in enumerate(memberships) for _ in us],
        [u for us in memberships for u in us],
    )
    return Dataset(
        n_users,
        n_items,
        len(memberships),
        Interactions(n_users, n_items, [e[0] for e in user_edges], [e[1] for e in user_edges]),
        Interactions(len(memberships), n_items),
        members,
    )


def test_fuse_groups_identity_fixed_point():
    e = Tensor([[1.0, 2.0]])
    np.testing.assert_allclose(fusion.fuse_groups(e, e).data, [[1.0, 2.0]])


def test_fuse_groups_zero_embedding():
    out = fusion.fuse_groups(Tensor([[0.0, 0.0]]), Tensor([[3.0, 5.0]]))
    np.testing.assert_allclose(out.data, [[1.5, 2.5]])


def test_fuse_groups_hand_case():
    out = fusion.fuse_groups(Tensor([[2.0, 0.0]]), Tensor([[0.0, 2.0]]))
    np.testing.assert_allclose(out.data, [[1.0, 1.0]])


def test_fuse_users_no_groups_identity():
    ds = dataset_with_members(2, [[1]])
    pool, coef = fusion.build_user_pool(ds)
    user = Tensor([[3.0, 4.0], [1.0, 1.0]])
    fused = fusion.fuse_users(user, Tensor([[10.0, 10.0]]), pool, coef)
    np.testing.assert_allclose(fused.data[0], [3.0, 4.0])  # user 0 joined nothing


def test_fuse_users_matching_group_fixed_point():
    ds = dataset_with_members(1, [[0]])
    pool, coef = fusion.build_user_pool(ds)
    user = Tensor([[2.0, 6.0]])
    fused = fusion.fuse_users(user, Tensor([[2.0, 6.0]]), pool, coef)
    np.testing.assert_allclose(fused.data, [[2.0, 6.0]])


def test_fuse_users_hand_case():
    ds = dataset_with_members(1, [[0]])
    pool, coef = fusion.build_user_pool(ds)
    fused = fusion.fuse_users(Tensor([[4.0, 0.0]]), Tensor([[0.0, 4.0]]), pool, coef)
    np.testing.assert_allclose(fused.data, [[2.0, 2.0]])


def test_fuse_users_mean_over_two_groups():
    ds = dataset_with_members(1, [[0], [0]])
    pool, coef = fusion.build_user_pool(ds)
    groups = Tensor([[2.0, 0.0], [0.0, 2.0]])
    fused = fusion.fuse_users(Tensor([[0.0, 0.0]]), groups, pool, coef)
    np.testing.assert_allclose(fused.data, [[0.5, 0.5]])


def test_fuse_users_linear_in_inputs():
    ds = dataset_with_members(2, [[0, 1], [0]])
    pool, coef = fusion.build_user_pool(ds)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(2, 3))
    g = rng.normal(size=(2, 3))
    base = fusion.fuse_users(Tensor(u), Tensor(g), pool, coef).data
    scaled = fusion.fuse_users(Tensor(3.0 * u), Tensor(3.0 * g), pool, coef).data
    np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)


def test_fuse_users_permutation_invariant():
    ds_a = dataset_with_members(1, [[0], [0]])
    ds_b = dataset_with_members(1, [[0], [0]])
    pool_a, coef_a = fusion.build_user_pool(ds_a)
    pool_b, coef_b = fusion.build_user_pool(ds_b)
    groups = np.array([[2.0, 0.0], [0.0, 6.0]])
    out_a = fusion.fuse_users(Tensor([[1.0, 1.0]]), Tensor(groups), pool_a, coef_a).data
    out_b = fusion.fuse_users(Tensor([[1.0, 1.0]]), Tensor(groups[::-1].copy()), pool_b, coef_b).data
    np.testing.assert_allclose(out_a, out_b)


def test_build_user_pool_matches_dense_oracle():
    memberships = [[0, 2], [2], [0, 2, 3]]  # user 1 joins no group
    ds = dataset_with_members(4, memberships)
    member = np.zeros((4, 3))
    for g, us in enumerate(memberships):
        member[us, g] = 1.0
    counts = member.sum(axis=1)
    pool, coef = fusion.build_user_pool(ds)
    np.testing.assert_array_equal(pool.toarray(), member / np.maximum(counts, 1.0)[:, None])
    np.testing.assert_array_equal(coef, [0.5, 1.0, 0.5, 0.5])


def test_fusion_chain_gradients():
    ds = dataset_with_members(3, [[0, 1], [2]])
    pool, coef = fusion.build_user_pool(ds)
    rng = np.random.default_rng(2)
    user = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    group = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    istar = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    def loss():
        fused_g = fusion.fuse_groups(group, istar)
        fused_u = fusion.fuse_users(user, fused_g, pool, coef)
        return ref.tsum(ref.mul(fused_u, fused_u))

    err = ref.finite_difference_check(loss, [user, group, istar], h=1e-5, rng=rng)
    assert err < 1e-4


def test_fusion_bits_equal_the_old_chains():
    memberships = [[1, 2, 3], [2, 3, 4, 5], [2, 4], [3, 4, 5], [5]]  # user 0 joins no group
    pool, coef = fusion.build_user_pool(dataset_with_members(6, memberships))
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=shape) for shape in ((6, 7), (5, 7), (5, 7))]
    upstream = Tensor(rng.normal(size=(6, 7)))
    runs = []
    for fuse_groups, fuse_users in ((fusion.fuse_groups, fusion.fuse_users),
                                    (ref.chain_fuse_groups, ref.chain_fuse_users)):
        user, group, istar = (Tensor(a, requires_grad=True) for a in arrays)
        with ag.Tape() as tape:
            fused_g = fuse_groups(group, istar)
            fused_u = fuse_users(user, fused_g, pool, coef)
            tape.backward(ref.tsum(ref.mul(fused_u, upstream)))
        runs.append((fused_g.data, fused_u.data, user.grad, group.grad, istar.grad))
    for new, old in zip(*runs):
        np.testing.assert_array_equal(new, old)


# --- propagation ---------------------------------------------------------


def single_edge_graph():
    ds = dataset_with_members(1, [[0]], n_items=1, user_edges=[(0, 0)])
    return build_norm_adjacency(ds)


def test_propagate_single_edge_one_layer():
    adj = single_edge_graph()
    u0 = Tensor([[1.0, 0.0]])
    v0 = Tensor([[0.0, 1.0]])
    uf, vf = graphconv.propagate(adj, u0, v0, 1)
    np.testing.assert_allclose(uf.data, [[1.0, 1.0]])  # u0 + v0
    np.testing.assert_allclose(vf.data, [[1.0, 1.0]])


def test_propagate_isolated_user():
    ds = dataset_with_members(2, [[0]], n_items=1, user_edges=[(0, 0)])
    adj = build_norm_adjacency(ds)
    u0 = Tensor([[1.0, 2.0], [3.0, 4.0]])
    v0 = Tensor([[0.0, 0.0]])
    uf, _ = graphconv.propagate(adj, u0, v0, 1)
    np.testing.assert_allclose(uf.data[1], [3.0, 4.0])  # layer-1 is zero there


def test_propagate_star_graph_weights():
    ds = dataset_with_members(1, [[0]], n_items=2, user_edges=[(0, 0), (0, 1)])
    adj = build_norm_adjacency(ds)
    u0 = Tensor([[0.0, 0.0]])
    v0 = Tensor([[1.0, 0.0], [0.0, 1.0]])
    uf, _ = graphconv.propagate(adj, u0, v0, 1)
    np.testing.assert_allclose(uf.data, [[1 / np.sqrt(2), 1 / np.sqrt(2)]])


def test_propagate_zero_layers_identity():
    adj = single_edge_graph()
    u0 = Tensor([[5.0, 6.0]])
    v0 = Tensor([[7.0, 8.0]])
    uf, vf = graphconv.propagate(adj, u0, v0, 0)
    np.testing.assert_allclose(uf.data, u0.data)
    np.testing.assert_allclose(vf.data, v0.data)


def test_propagate_two_layers_single_edge():
    adj = single_edge_graph()
    u0 = np.array([[1.0, 2.0]])
    v0 = np.array([[10.0, 20.0]])
    uf, vf = graphconv.propagate(adj, Tensor(u0), Tensor(v0), 2)
    np.testing.assert_allclose(uf.data, 2 * u0 + v0)
    np.testing.assert_allclose(vf.data, 2 * v0 + u0)


def test_propagate_linearity():
    rng = np.random.default_rng(3)
    edges = sorted({(int(rng.integers(6)), int(rng.integers(5))) for _ in range(12)})
    ds = dataset_with_members(6, [[0]], n_items=5, user_edges=edges)
    adj = build_norm_adjacency(ds)
    u0 = rng.normal(size=(6, 3))
    v0 = rng.normal(size=(5, 3))
    uf1, _ = graphconv.propagate(adj, Tensor(u0), Tensor(v0), 3)
    uf2, _ = graphconv.propagate(adj, Tensor(2.5 * u0), Tensor(2.5 * v0), 3)
    np.testing.assert_allclose(uf2.data, 2.5 * uf1.data, atol=1e-12)


def test_propagate_matches_dense_oracle():
    rng = np.random.default_rng(4)
    n_u, n_v, d, k = 30, 30, 8, 3
    edges = sorted({(int(rng.integers(n_u)), int(rng.integers(n_v))) for _ in range(150)})
    ds = dataset_with_members(n_u, [[0]], n_items=n_v, user_edges=edges)
    adj = build_norm_adjacency(ds)
    u0 = rng.normal(size=(n_u, d))
    v0 = rng.normal(size=(n_v, d))
    uf, vf = graphconv.propagate(adj, Tensor(u0), Tensor(v0), k)

    dense = adj.toarray()
    du, dv = u0.copy(), v0.copy()
    su, sv = u0.copy(), v0.copy()
    for _ in range(k):
        du, dv = dense @ dv, dense.T @ du
        su += du
        sv += dv
    np.testing.assert_allclose(uf.data, su, atol=1e-10)
    np.testing.assert_allclose(vf.data, sv, atol=1e-10)


def test_propagate_rejects_negative_layers():
    adj = single_edge_graph()
    with pytest.raises(ValueError):
        graphconv.propagate(adj, Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), -1)


@pytest.mark.parametrize("n_layers", [0, 1, 3])
def test_propagate_bits_equal_the_old_chain(n_layers):
    rng = np.random.default_rng(6)
    edges = sorted({(int(rng.integers(8)), int(rng.integers(6))) for _ in range(20)})
    adj = build_norm_adjacency(dataset_with_members(8, [[0]], n_items=6, user_edges=edges))
    arrays = [rng.normal(size=(8, 4)), rng.normal(size=(6, 4))]
    up_u, up_v = Tensor(rng.normal(size=(8, 4))), Tensor(rng.normal(size=(6, 4)))
    runs = []
    for prop in (graphconv.propagate, ref.chain_propagate):
        users0, items0 = (Tensor(a, requires_grad=True) for a in arrays)
        with ag.Tape() as tape:
            uf, vf = prop(adj, users0, items0, n_layers)
            tape.backward(ref.add(ref.tsum(ref.mul(uf, up_u)), ref.tsum(ref.mul(vf, up_v))))
        runs.append((uf.data, vf.data, users0.grad, items0.grad))
        if n_layers == 0:
            assert uf is users0 and vf is items0
    for new, old in zip(*runs):
        np.testing.assert_array_equal(new, old)


def small_graph(seed):
    rng = np.random.default_rng(seed)
    edges = sorted({(int(rng.integers(8)), int(rng.integers(6))) for _ in range(20)})
    adj = build_norm_adjacency(dataset_with_members(8, [[0]], n_items=6, user_edges=edges))
    return adj, rng


@pytest.mark.parametrize("n_layers", [0, 1, 3])
def test_propagate_op_finite_differences(n_layers):
    adj, rng = small_graph(7)
    users0 = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    items0 = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    up_v = Tensor(rng.normal(size=(6, 3)))

    def loss():
        uf, vf = ag.propagate(adj, users0, items0, n_layers)
        return ref.add(ref.tsum(ref.mul(uf, uf)), ref.tsum(ref.mul(vf, up_v)))

    err = ref.finite_difference_check(loss, [users0, items0], h=1e-5, rng=rng)
    assert err < 1e-6


@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("side", [0, 1])
def test_propagate_op_one_read_output_bits_equal_the_old_chain(side, n_layers):
    # the other output gets no gradient: its side of the adjoint starts from zeros
    adj, rng = small_graph(8)
    arrays = [rng.normal(size=(8, 4)), rng.normal(size=(6, 4))]
    up = Tensor(rng.normal(size=arrays[side].shape))
    runs = []
    for prop in (graphconv.propagate, ref.chain_propagate):
        users0, items0 = (Tensor(a, requires_grad=True) for a in arrays)
        with ag.Tape() as tape:
            outs = prop(adj, users0, items0, n_layers)
            tape.backward(ref.tsum(ref.mul(outs[side], up)))
        assert outs[0].grad is None and outs[1].grad is None
        runs.append((outs[0].data, outs[1].data, users0.grad, items0.grad))
    for new, old in zip(*runs):
        np.testing.assert_array_equal(new, old)


def test_propagate_op_records_nothing_without_gradients():
    adj, rng = small_graph(9)
    users0, items0 = Tensor(rng.normal(size=(8, 2))), Tensor(rng.normal(size=(6, 2)))
    with ag.Tape() as tape:
        uf, vf = ag.propagate(adj, users0, items0, 2)
    assert tape.nodes == []
    assert not uf.requires_grad and not vf.requires_grad
    old_u, old_v = ref.chain_propagate(adj, users0, items0, 2)
    np.testing.assert_array_equal(uf.data, old_u.data)
    np.testing.assert_array_equal(vf.data, old_v.data)
    items0.requires_grad = True  # either input needing a gradient records both outputs
    with ag.Tape() as tape:
        uf, vf = ag.propagate(adj, users0, items0, 2)
    assert tape.nodes == [uf.slot, vf.slot]


def test_propagate_op_input_read_again_after_propagation():
    adj, rng = small_graph(10)
    arrays = [rng.normal(size=(8, 4)), rng.normal(size=(6, 4))]
    up_u, up_v, w = (Tensor(rng.normal(size=a.shape)) for a in (arrays[0], arrays[1], arrays[0]))
    runs = []
    for prop in (graphconv.propagate, ref.chain_propagate):
        users0, items0 = (Tensor(a, requires_grad=True) for a in arrays)
        with ag.Tape() as tape:
            uf, vf = prop(adj, users0, items0, 3)
            later = ref.tsum(ref.mul(users0, w))  # recorded after, so its gradient reaches users0 first
            tape.backward(ref.add(ref.add(ref.tsum(ref.mul(uf, up_u)), ref.tsum(ref.mul(vf, up_v))), later))
        runs.append((users0.grad, items0.grad))
    (new_u, new_v), (old_u, old_v) = runs
    np.testing.assert_array_equal(new_v, old_v)
    # users0 sums the same three terms in another order: the chain adds its layer-0 term to the
    # later op's gradient first, the op adds its whole adjoint at once, so rounding may differ
    np.testing.assert_allclose(new_u, old_u, rtol=0, atol=1e-12)


class Products:
    """A sparse operator that files the thread of each product it makes; `.T` shares the file.

    `fail(n)` is asked before product n (counted from 0 across both), so a
    test can make a chosen product raise.
    """

    def __init__(self, mat, threads, fail=lambda n: False):
        self.mat, self.threads, self.fail = mat, threads, fail

    @property
    def T(self):
        return Products(self.mat.T, self.threads, self.fail)

    def __matmul__(self, x):
        if self.fail(len(self.threads)):
            raise ChainFault("product failed")
        self.threads.append(threading.get_ident())
        return self.mat @ x


class ChainFault(RuntimeError):
    pass


LANE_CASES = {"one_lane": (1, "free"), "two_lanes": (2, "free"), "helper_takes_none": (2, "late_helper")}


@pytest.mark.parametrize("lane_case", LANE_CASES)
@pytest.mark.parametrize("read", ["both", "users", "items"])
@pytest.mark.parametrize("n_layers", [1, 2, 3, 4, 5])
def test_propagate_chains_bits_equal_the_old_chain(lanes, lane_case, read, n_layers):
    rng = np.random.default_rng(11)
    edges = sorted({(int(rng.integers(40)), int(rng.integers(30))) for _ in range(200)})
    adj = build_norm_adjacency(dataset_with_members(40, [[0]], n_items=30, user_edges=edges))
    arrays = [rng.normal(size=(40, 5)), rng.normal(size=(30, 5))]
    up_u, up_v = Tensor(rng.normal(size=(40, 5))), Tensor(rng.normal(size=(30, 5)))
    helper = lanes(*LANE_CASES[lane_case])
    threads = []
    runs = []
    for prop, mat in ((ag.propagate, Products(adj, threads)), (ref.chain_propagate, adj)):
        users0, items0 = (Tensor(a, requires_grad=True) for a in arrays)
        with ag.Tape() as tape:
            uf, vf = prop(mat, users0, items0, n_layers)
            terms = [ref.tsum(ref.mul(out, up)) for out, up, side in ((uf, up_u, "users"), (vf, up_v, "items"))
                     if read in (side, "both")]
            tape.backward(ref.add(*terms) if len(terms) == 2 else terms[0])
        runs.append((uf.data, vf.data, users0.grad, items0.grad))
    for new, old in zip(*runs):
        np.testing.assert_array_equal(new, old)
    assert len(threads) == 4 * n_layers  # each chain makes one product a layer, forward and backward
    if lane_case != "two_lanes":  # the caller ran both chains
        assert set(threads) == {threading.get_ident()}
    for thread in getattr(helper, "made", ()):
        assert not thread.is_alive()


@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_an_error_in_the_helpers_chain_reaches_the_caller(lanes, phase):
    adj, rng = small_graph(12)
    users0 = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    items0 = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    n_layers = 3
    first = 0 if phase == "forward" else 2 * n_layers  # the backward's products follow the forward's
    caller = threading.get_ident()
    threads = []
    mat = Products(adj, threads, fail=lambda n: n >= first and threading.get_ident() != caller)
    helper = lanes(2, "eager_helper")  # the helper runs both chains, and the failing product
    before = threading.active_count()
    with pytest.raises(ChainFault, match="product failed"):
        with ag.Tape() as tape:
            uf, vf = ag.propagate(mat, users0, items0, n_layers)
            tape.backward(ref.add(ref.tsum(uf), ref.tsum(vf)))
    assert len(threads) == first and caller not in threads  # no product after the failing one
    assert threading.active_count() == before
    assert len(helper.made) == 1 + (phase == "backward")
    assert not any(thread.is_alive() for thread in helper.made)


def test_layer_sums_add_in_layer_order_from_many_threads():
    # more filing threads than cores and a short switch interval: a layer added out of turn, or
    # lost between the filer and the adder, changes the sum's bits or leaves it held
    rng = np.random.default_rng(13)
    layers = rng.normal(size=(41, 50, 3)) * np.logspace(0, 12, 41)[:, None, None]  # sums that round
    want = layers[0].copy()
    for x in layers[1:]:
        want += x
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            order = rng.permutation(np.arange(1, 41))
            total = ag._LayerSum(layers[0])
            threads = [threading.Thread(target=lambda ks=ks: [total.add(int(k), layers[k]) for k in ks])
                       for ks in np.array_split(order, 8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert total.held == {} and total.next == 41
            np.testing.assert_array_equal(total.total, want)
    finally:
        sys.setswitchinterval(interval)


def test_score_pairs_values():
    finals_a = Tensor([[1.0, 0.0], [1.0, 2.0]])
    finals_v = Tensor([[0.0, 1.0], [3.0, 4.0], [1.0, 0.0]])
    s = ref.score_pairs(finals_a, finals_v, np.array([0, 1, 0]), np.array([0, 1, 2]))
    np.testing.assert_allclose(s.data, [0.0, 11.0, 1.0])


def test_score_ranking_matches_brute_force():
    rng = np.random.default_rng(5)
    group = rng.normal(size=(1, 4))
    items = rng.normal(size=(5, 4))
    s = ref.score_pairs(
        Tensor(group), Tensor(items), np.zeros(5, dtype=int), np.arange(5)
    ).data
    np.testing.assert_allclose(s, (group @ items.T).ravel(), atol=1e-12)
    assert list(np.argsort(-s)) == list(np.argsort(-(group @ items.T).ravel()))
