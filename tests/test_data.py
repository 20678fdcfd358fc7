import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import reference as ref
from grouprec import datasets as d
from grouprec import fusion
from grouprec.datasets import TRAIN, VALID, TEST, Dataset, Interactions, membership_matrix
from grouprec.sampling import TripleSampler
from grouprec.synthetic import generate_synthetic


def make_dataset(n_users, n_items, user_edges, memberships, group_edges=()):
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
        Interactions(
            len(memberships), n_items, [e[0] for e in group_edges], [e[1] for e in group_edges]
        ),
        members,
    )


def test_load_interactions_dedup(tmp_path):
    p = tmp_path / "users.tsv"
    p.write_text("0\t5\n0\t5\n")
    anchors, items = d.load_interactions(p, 1, 6)
    assert anchors.dtype == items.dtype == np.int64
    assert anchors.tolist() == [0] and items.tolist() == [5]


def test_load_interactions_empty(tmp_path):
    p = tmp_path / "users.tsv"
    p.write_text("")
    anchors, items = d.load_interactions(p, 1, 1)
    assert anchors.dtype == items.dtype == np.int64
    assert anchors.tolist() == [] and items.tolist() == []


def test_load_interactions_malformed_line_number(tmp_path):
    p = tmp_path / "users.tsv"
    p.write_text("0\t1\n0\tx\n")
    with pytest.raises(ValueError, match="2"):
        d.load_interactions(p, 1, 2)


def test_load_interactions_out_of_range(tmp_path):
    p = tmp_path / "users.tsv"
    p.write_text("0\t7\n")
    with pytest.raises(ValueError, match="out of range"):
        d.load_interactions(p, 1, 3)


def test_load_group_members_basic(tmp_path):
    p = tmp_path / "group_members.txt"
    p.write_text("0 1,2,3\n")
    m = d.load_group_members(p, 5, 1)
    assert m.toarray().tolist() == [[0, 1, 1, 1, 0]]


def test_load_group_members_dedup(tmp_path):
    p = tmp_path / "group_members.txt"
    p.write_text("0 1,1\n")
    assert d.load_group_members(p, 5, 1).toarray().tolist() == [[0, 1, 0, 0, 0]]


def test_load_group_members_rejects_group_listed_twice(tmp_path):
    p = tmp_path / "group_members.txt"
    p.write_text("0 1,2\n0 3\n")
    with pytest.raises(ValueError, match=r"group_members\.txt:2: group 0 already listed on line 1"):
        d.load_group_members(p, 5, 1)


def test_load_group_members_range_error(tmp_path):
    p = tmp_path / "group_members.txt"
    p.write_text("0 9\n")
    with pytest.raises(ValueError, match="out of range"):
        d.load_group_members(p, 5, 1)


def test_load_group_members_empty_list_error(tmp_path):
    p = tmp_path / "group_members.txt"
    p.write_text("0 \n")
    with pytest.raises(ValueError):
        d.load_group_members(p, 5, 1)


def test_split_ten_edges():
    inter = Interactions(1, 10, [0] * 10, list(range(10)))
    out = d.split_holdout(inter, seed=1)
    counts = np.bincount(out.splits, minlength=3)
    assert list(counts) == [8, 1, 1]


def test_split_two_edges_all_train():
    inter = Interactions(1, 5, [0, 0], [0, 1])
    out = d.split_holdout(inter, seed=1)
    assert np.all(out.splits == TRAIN)


def test_split_three_edges_holds_one_out_each():
    inter = Interactions(1, 5, [0, 0, 0], [0, 1, 2])
    out = d.split_holdout(inter, seed=4)
    counts = np.bincount(out.splits, minlength=3)
    assert list(counts) == [1, 1, 1]


def test_split_deterministic_and_partition():
    rng = np.random.default_rng(0)
    anchors = rng.integers(0, 20, size=300)
    items = rng.integers(0, 50, size=300)
    keep = sorted({(int(a), int(v)) for a, v in zip(anchors, items)})
    inter = Interactions(20, 50, [a for a, _ in keep], [v for _, v in keep])
    s1 = d.split_holdout(inter, seed=9)
    s2 = d.split_holdout(inter, seed=9)
    assert np.array_equal(s1.splits, s2.splits)
    # disjointness and union come from labeling edges in place
    for a in range(20):
        n = sum(1 for x in keep if x[0] == a)
        counts = np.bincount(s1.splits[inter.anchors == a], minlength=3)
        assert counts.sum() == n
        if n >= 3:
            assert counts[VALID] == max(1, n // 10)
            assert counts[TEST] == max(1, n // 10)
        else:
            assert counts[VALID] == counts[TEST] == 0


def split_reference(interactions, seed):
    """The per-anchor loop split_holdout replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    splits = np.zeros(len(interactions), dtype=np.int8)
    by_anchor = [[] for _ in range(interactions.n_anchors)]
    for idx, a in enumerate(interactions.anchors):
        by_anchor[a].append(idx)
    for a in range(interactions.n_anchors):
        idxs = by_anchor[a]
        n = len(idxs)
        if n < 3:
            continue
        idxs = sorted(idxs, key=lambda i: interactions.items[i])
        perm = rng.permutation(n)
        n_hold = max(1, n // 10)
        for j in perm[:n_hold]:
            splits[idxs[j]] = VALID
        for j in perm[n_hold : 2 * n_hold]:
            splits[idxs[j]] = TEST
    return splits


def test_split_matches_per_anchor_reference():
    # unsorted edges, anchors with 0-2 edges and an empty world
    rng = np.random.default_rng(3)
    for n_edges in (0, 5, 400, 3000):
        anchors, items = np.divmod(rng.choice(60 * 100, size=n_edges, replace=False), 100)
        inter = Interactions(61, 100, anchors, items)
        for seed in (0, 7):
            got = d.split_holdout(inter, seed=seed)
            assert np.array_equal(got.splits, split_reference(inter, seed))
            assert np.array_equal(got.anchors, inter.anchors)
            assert np.array_equal(got.items, inter.items)


def test_anchor_index_matches_dict_oracle():
    rng = np.random.default_rng(4)
    n_anchors, n_items = 12, 9
    # 60 of the 99 pairs; the last anchor has no edge
    anchors, items = np.divmod(rng.choice((n_anchors - 1) * n_items, size=60, replace=False), n_items)
    splits = rng.integers(0, 3, size=60)
    inter = Interactions(n_anchors, n_items, anchors, items, splits)
    for wanted in ((TRAIN,), (TEST,), (TRAIN, VALID), (TRAIN, VALID, TEST)):
        rows = {a: [] for a in range(n_anchors)}
        for a, v, s in zip(anchors.tolist(), items.tolist(), splits.tolist()):
            if s in wanted:
                rows[a].append(v)
        indptr, indices = inter.anchor_index(wanted)
        assert indptr.tolist() == np.cumsum([0] + [len(rows[a]) for a in range(n_anchors)]).tolist()
        for a in range(n_anchors):
            assert indices[indptr[a] : indptr[a + 1]].tolist() == sorted(rows[a])
    assert inter.anchor_index((TRAIN,))[0][-2] == inter.anchor_index((TRAIN,))[0][-1]


def test_interactions_are_read_only_and_build_each_index_once():
    inter = Interactions(3, 4, [0, 1, 2, 2], [1, 0, 3, 2], [TRAIN, TEST, TRAIN, VALID])
    for name in ("anchors", "items", "splits"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inter, name)[0] = 1
    first = inter.anchor_index((TRAIN, VALID))
    again = inter.anchor_index((VALID, TRAIN))  # the same split set, in another order
    assert all(x is y for x, y in zip(first, again))
    for array in first:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert first[0].tolist() == [0, 1, 1, 3] and first[1].tolist() == [1, 2, 3]
    copy = inter.relabeled([TRAIN, TRAIN, TEST, TEST])
    own = copy.anchor_index((TRAIN, VALID))
    assert not any(x is y for x, y in zip(first, own))
    assert own[0].tolist() == [0, 1, 2, 2] and own[1].tolist() == [1, 0]
    assert inter.anchor_index((TRAIN, VALID))[1].tolist() == [1, 2, 3]  # the original's, unchanged


def test_interactions_hold_one_order_whatever_the_input_order(tmp_path):
    rng = np.random.default_rng(8)
    n_anchors, n_items = 15, 12
    keys = rng.choice(n_anchors * n_items, size=60, replace=False)
    unique = [(int(k) // n_items, int(k) % n_items, int(rng.integers(0, 3))) for k in keys]
    given = [unique[i] for i in rng.permutation(len(unique))]

    def build(rows):
        return Interactions(n_anchors, n_items, *zip(*rows))

    a, b = build(given), build(sorted(given))
    for name in ("anchors", "items", "splits"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    for wanted in ((TRAIN,), (VALID, TEST), (TRAIN, VALID, TEST)):
        for x, y in zip(a.anchor_index(wanted), b.anchor_index(wanted)):
            assert np.array_equal(x, y)
    members = membership_matrix(1, n_anchors, [0] * n_anchors, range(n_anchors))
    fingerprints = {
        Dataset(n_anchors, n_items, 1, inter, Interactions(1, n_items), members).fingerprint()
        for inter in (a, b)
    }
    assert len(fingerprints) == 1
    for write in (d.write_edges, d.write_splits):
        write(a, tmp_path / "a.tsv")
        write(b, tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert np.array_equal(d.split_holdout(a, seed=3).splits, d.split_holdout(b, seed=3).splits)

    # a splits file may list its edges in any order
    path = tmp_path / "splits_user.tsv"
    path.write_text("".join(f"{x}\t{y}\t{d.SPLIT_NAMES[s]}\n" for x, y, s in unique))
    back = d.read_splits(Interactions(n_anchors, n_items, keys // n_items, keys % n_items), path)
    want = build(sorted(unique))
    for name in ("anchors", "items", "splits"):
        assert np.array_equal(getattr(back, name), getattr(want, name))


def test_sorted_input_is_held_as_a_shuffled_copy_is():
    rng = np.random.default_rng(9)
    n_anchors, n_items = 20, 16
    keys = np.sort(rng.choice(n_anchors * n_items, size=90, replace=False))
    anchors, items = np.divmod(keys, n_items)
    splits = rng.integers(TRAIN, TEST + 1, size=90).astype(np.int8)
    given = [x.copy() for x in (anchors, items, splits)]
    shuffle = rng.permutation(90)
    stored = Interactions(n_anchors, n_items, anchors, items, splits)
    shuffled = Interactions(n_anchors, n_items, anchors[shuffle], items[shuffle], splits[shuffle])
    for name in ("anchors", "items", "splits"):
        assert np.array_equal(getattr(stored, name), getattr(shuffled, name))
    for wanted in ((TRAIN,), (VALID, TEST), (TRAIN, VALID, TEST)):
        for x, y in zip(stored.anchor_index(wanted), shuffled.anchor_index(wanted)):
            assert np.array_equal(x, y)
    for mine, before, held in zip((anchors, items, splits), given, (stored.anchors, stored.items, stored.splits)):
        assert mine.flags.writeable and np.array_equal(mine, before)
        assert not held.flags.writeable and not np.shares_memory(mine, held)
        mine[0] += 1  # the caller's array is still the caller's to write
        assert np.array_equal(held, before)


def test_read_only_input_is_shared_and_a_read_only_view_of_a_writeable_one_is_not():
    inter = Interactions(3, 4, [0, 1, 2], [1, 0, 3], [TRAIN, TEST, VALID])
    copy = inter.relabeled(np.array([TEST, TRAIN, TRAIN], dtype=np.int8))
    assert copy.anchors is inter.anchors and copy.items is inter.items
    base = np.array([0, 1, 2])
    view = base[:]
    view.flags.writeable = False
    held = Interactions(3, 4, view, [1, 0, 3])
    assert not np.shares_memory(held.anchors, base)
    base[0] = 2
    assert held.anchors.tolist() == [0, 1, 2]


def test_a_duplicate_edge_in_sorted_input_is_named():
    with pytest.raises(ValueError, match=r"edge \(1, 2\) appears more than once"):
        Interactions(3, 4, np.array([0, 1, 1, 2]), np.array([3, 2, 2, 0]))
    anchors, items = d._unique_edges(np.array([0, 1, 1, 2]), np.array([3, 2, 2, 0]), 3, 4)
    assert anchors.tolist() == [0, 1, 2] and items.tolist() == [3, 2, 0]


def synthesize_reference(dataset, cap):
    """The dict-counting synthesize_group_items replaced, kept as its oracle."""
    train_items = [[] for _ in range(dataset.n_users)]
    ui = dataset.user_items
    train = ui.splits == TRAIN
    for u, v in zip(ui.anchors[train], ui.items[train]):
        train_items[u].append(int(v))
    anchors, items = [], []
    for g in range(dataset.n_groups):
        counts = {}
        for u in dataset.members_of(g):
            for v in train_items[u]:
                counts[v] = counts.get(v, 0) + 1
        ranked = sorted(counts, key=lambda v: (-counts[v], v))
        for v in ranked[:cap]:
            anchors.append(g)
            items.append(v)
    return anchors, items


def test_synthesize_matches_dict_counting_reference():
    rng = np.random.default_rng(5)
    n_users, n_items = 80, 60
    edges = [divmod(k, n_items) for k in rng.choice(n_users * n_items, 900, replace=False).tolist()]
    groups = [rng.choice(n_users, size=int(rng.integers(1, 6)), replace=False).tolist() for _ in range(25)]
    ds = make_dataset(n_users, n_items, edges, groups)
    ds = dataclasses.replace(ds, user_items=d.split_holdout(ds.user_items, seed=1))
    for cap in (1, 3, 30, 1000):
        got = d.synthesize_group_items(ds, cap=cap)
        anchors, items = synthesize_reference(ds, cap)
        assert list(zip(got.anchors.tolist(), got.items.tolist())) == sorted(zip(anchors, items))


def test_synthesize_rank_by_frequency():
    ds = make_dataset(
        2, 5, [(0, 0), (0, 1), (1, 1), (1, 2)], [[0, 1]]
    )
    rg = d.synthesize_group_items(ds)
    assert list(rg.items) == [0, 1, 2]  # all three fit under the cap; edges are held sorted
    # item 2 twice, then items 0 and 1 once each: the cap keeps 2 and the smaller id
    ds = make_dataset(2, 5, [(0, 0), (0, 2), (1, 1), (1, 2)], [[0, 1]])
    assert list(d.synthesize_group_items(ds, cap=2).items) == [0, 2]


def test_synthesize_tie_break_keeps_smallest_ids():
    edges = [(0, v) for v in range(40)]
    ds = make_dataset(1, 40, edges, [[0]])
    rg = d.synthesize_group_items(ds, cap=30)
    assert list(rg.items) == list(range(30))


def test_synthesize_single_member_and_cap():
    ds = make_dataset(2, 6, [(0, 3), (0, 4), (1, 5)], [[1]])
    rg = d.synthesize_group_items(ds)
    assert list(rg.items) == [5]
    ds2 = make_dataset(1, 50, [(0, v) for v in range(50)], [[0], [0]])
    rg2 = d.synthesize_group_items(ds2, cap=30)
    for g in range(2):
        assert (rg2.anchors == g).sum() <= 30


@pytest.mark.parametrize("cap", [0, -3])
def test_synthesize_refuses_a_cap_below_one(cap):
    ds = make_dataset(2, 3, [(0, 0), (1, 1)], [[0, 1]])
    with pytest.raises(ValueError, match=f"cap must be at least 1, got {cap}"):
        d.synthesize_group_items(ds, cap=cap)


def test_synthesize_uses_train_edges_only():
    ds = make_dataset(1, 5, [(0, 0), (0, 1)], [[0]])
    ds = dataclasses.replace(ds, user_items=ds.user_items.relabeled([TRAIN, TEST]))
    rg = d.synthesize_group_items(ds)
    assert list(rg.items) == [0]


def test_adjacency_single_edge_weight_one():
    ds = make_dataset(1, 1, [(0, 0)], [[0]])
    adj = d.build_norm_adjacency(ds)
    assert adj.toarray().tolist() == [[1.0]]


def test_adjacency_two_items_weight():
    ds = make_dataset(1, 2, [(0, 0), (0, 1)], [[0]])
    adj = d.build_norm_adjacency(ds)
    assert adj.nnz == 2
    for w in adj.data:
        assert w == pytest.approx(1.0 / np.sqrt(2.0))


def test_adjacency_excludes_heldout_edges():
    ds = make_dataset(1, 2, [(0, 0), (0, 1)], [[0]])
    ds = dataclasses.replace(ds, user_items=ds.user_items.relabeled([TRAIN, VALID]))
    adj = d.build_norm_adjacency(ds)
    assert adj.nnz == 1
    assert adj.toarray().tolist() == [[1.0, 0.0]]


def test_adjacency_matches_brute_force_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(3):
        edges = sorted(
            {(int(rng.integers(25)), int(rng.integers(25))) for _ in range(120)}
        )
        ds = make_dataset(25, 25, edges, [[0]])
        adj = d.build_norm_adjacency(ds).toarray()
        deg_u = {u: sum(1 for a, _ in edges if a == u) for u in range(25)}
        deg_v = {v: sum(1 for _, b in edges if b == v) for v in range(25)}
        expect = np.zeros((25, 25))
        for u, v in edges:
            expect[u, v] = 1.0 / np.sqrt(deg_u[u] * deg_v[v])
        np.testing.assert_allclose(adj, expect, atol=1e-12)


def test_adjacency_equals_the_coo_built_oracle(monkeypatch):
    # user 3 and item 5 have no train edge; user 0's edge to item 4 is held out
    edges = [(0, 0), (0, 2), (0, 4), (1, 0), (1, 1), (2, 2), (2, 3), (2, 0), (4, 1), (4, 3)]
    ds = make_dataset(5, 6, edges, [[0, 1]])
    splits = np.full(len(edges), TRAIN, dtype=np.int8)
    splits[2] = VALID  # stored order is by user then item, so edge (0, 4) is third
    ds = dataclasses.replace(ds, user_items=ds.user_items.relabeled(splits))
    want = ref.coo_norm_adjacency(ds)

    def no_coo(*args, **kwargs):
        raise AssertionError("the adjacency was built through a COO matrix")

    monkeypatch.setattr(sp.coo_matrix, "__init__", no_coo)
    got = d.build_norm_adjacency(ds)
    monkeypatch.undo()
    assert got.shape == want.shape == (5, 6)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.has_canonical_format and want.has_canonical_format
    assert got.indptr[4] == got.indptr[3] and got.nnz == 9
    assert 5 not in got.indices and 4 not in got.indices


def test_sampler_negative_from_complement():
    ds = make_dataset(1, 3, [(0, 0)], [[0]])
    sampler = TripleSampler(ds.user_items, np.random.default_rng(0))
    _, pos, neg = sampler.sample(200)
    assert set(pos) == {0}
    assert set(neg) <= {1, 2}


def test_sampler_positive_frequency_uniform():
    ds = make_dataset(1, 50, [(0, 7), (0, 9)], [[0]])
    sampler = TripleSampler(ds.user_items, np.random.default_rng(1))
    _, pos, _ = sampler.sample(10_000)
    freq = np.mean(pos == 7)
    assert abs(freq - 0.5) < 0.05


def test_sampler_reproducible():
    ds = make_dataset(4, 20, [(u, v) for u in range(4) for v in range(u, u + 5)], [[0, 1]])
    a = TripleSampler(ds.user_items, np.random.default_rng(5)).sample(64)
    b = TripleSampler(ds.user_items, np.random.default_rng(5)).sample(64)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_sampler_negative_soundness_bulk():
    # over 1e5 draws no negative may collide with the anchor's train set
    ds, _ = generate_synthetic(30, 40, 6, m_true=3, noise=0.2, seed=0)
    ds = dataclasses.replace(ds, user_items=d.split_holdout(ds.user_items, seed=0))
    ui = ds.user_items
    keep = ui.splits == TRAIN
    train = set(zip(ui.anchors[keep].tolist(), ui.items[keep].tolist()))
    sampler = TripleSampler(ds.user_items, np.random.default_rng(2))
    anchors, _, neg = sampler.sample(100_000)
    collisions = sum(1 for a, j in zip(anchors.tolist(), neg.tolist()) if (a, j) in train)
    assert collisions == 0


def test_sampler_negatives_uniform_over_complement():
    # anchors with 3, 1 and 10 of 12 items; each anchor's negatives must be
    # uniform over its own complement
    owned = {0: [0, 1, 2], 1: [5], 2: list(range(10))}
    ds = make_dataset(3, 12, [(a, v) for a, vs in owned.items() for v in vs], [[0]])
    anchors, _, neg = TripleSampler(ds.user_items, np.random.default_rng(3)).sample(60_000)
    for a, vs in owned.items():
        complement = np.setdiff1d(np.arange(12), vs)
        counts = np.bincount(neg[anchors == a], minlength=12)
        assert counts[vs].sum() == 0
        observed = counts[complement]
        expected = observed.sum() / len(complement)
        chi2 = np.sum((observed - expected) ** 2 / expected)
        # the 1 - 1e-6 quantile of chi-square with len(complement) - 1 degrees of freedom
        assert chi2 < stats.chi2.ppf(1.0 - 1e-6, len(complement) - 1), (a, observed)


def test_sampler_anchor_missing_one_item_always_gets_it():
    ds = make_dataset(2, 7, [(0, v) for v in (0, 1, 2, 4, 5, 6)] + [(1, 3)], [[0]])
    anchors, _, neg = TripleSampler(ds.user_items, np.random.default_rng(4)).sample(5_000)
    assert np.all(neg[anchors == 0] == 3)
    assert not np.any(neg[anchors == 1] == 3)
    assert set(np.unique(anchors)) == {0, 1}


def test_sampler_counts_train_edges_only():
    # both anchors touch all three items, but only anchor 1 has all three in train
    splits = [TRAIN, TRAIN, TEST, TRAIN, TRAIN, TRAIN]
    inter = Interactions(2, 3, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], splits)
    sampler = TripleSampler(inter, np.random.default_rng(0))
    assert sampler.eligible.tolist() == [0]
    _, _, neg = sampler.sample(50)
    assert set(neg) == {2}


def test_sampler_skips_anchor_with_all_items():
    ds = make_dataset(2, 2, [(0, 0), (0, 1), (1, 0)], [[0]])
    sampler = TripleSampler(ds.user_items, np.random.default_rng(0))
    anchors, _, neg = sampler.sample(50)
    assert set(anchors) == {1}
    assert set(neg) == {1}


def test_synthetic_noise_zero_edges_in_blocks():
    ds, labels = generate_synthetic(24, 36, 6, m_true=3, noise=0.0, seed=3)
    for u, v in zip(ds.user_items.anchors, ds.user_items.items):
        assert labels.item_block[v] in labels.user_interests[u]


def test_synthetic_groups_share_planted_interest():
    ds, labels = generate_synthetic(24, 36, 6, m_true=3, noise=0.1, seed=3)
    for g in range(ds.n_groups):
        for u in ds.members_of(g):
            assert labels.group_interest[g] in labels.user_interests[u]


def test_synthetic_seeded_regeneration_identical():
    a, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.2, seed=11)
    b, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.2, seed=11)
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_pinned_across_versions():
    # a changed digest means every prepared directory and checkpoint meta goes stale
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    ds = dataclasses.replace(ds, user_items=d.split_holdout(ds.user_items, seed=1),
                             group_items=d.split_holdout(ds.group_items, seed=2))
    assert ds.fingerprint() == "22279c8528e12e65ecbcc33b594f9597d5820e27c58a0be6591d3e12f4ff29f5"


def test_sparse_structures_are_canonical_csr(tmp_path):
    ds, _ = generate_synthetic(40, 40, 8, m_true=2, noise=0.1, seed=5)
    (tmp_path / "group_members.txt").write_text("1 4,0,4\n0 3,1\n")
    loaded = d.load_group_members(tmp_path / "group_members.txt", 5, 2)
    assert loaded.toarray().tolist() == [[0, 1, 0, 1, 0], [1, 0, 0, 0, 1]]
    structures = [
        loaded,
        ds.group_members,
        d.subsample(ds, 0.5, seed=1).group_members,
        d.build_norm_adjacency(ds),
        fusion.build_user_pool(ds)[0],
    ]
    for m in structures:
        assert m.format == "csr" and m.has_canonical_format


def test_synthetic_infeasible_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(10, 3, 2, m_true=4, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 30, 2, m_true=1, noise=0.0, seed=0)


def test_save_load_round_trip(tmp_path):
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    d.save_dataset(ds, tmp_path)
    back = d.load_dataset(tmp_path)
    assert back.fingerprint() == ds.fingerprint()


def test_split_file_round_trip(tmp_path):
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    split = d.split_holdout(ds.user_items, seed=1)
    path = tmp_path / "splits_user.tsv"
    d.write_splits(split, path)
    back = d.read_splits(ds.user_items, path)
    assert np.array_equal(back.splits, split.splits)


def test_read_splits_non_integer_id_names_file_and_line(tmp_path):
    inter = d.Interactions(2, 2, [0, 1], [1, 0])
    path = tmp_path / "splits_user.tsv"
    path.write_text("0\t1\ttrain\nx\t0\ttest\n")
    with pytest.raises(ValueError, match=r"splits_user\.tsv:2: non-integer id"):
        d.read_splits(inter, path)


def test_read_splits_rejects_edge_labeled_twice(tmp_path):
    inter = d.Interactions(2, 2, [0, 1], [1, 0])
    path = tmp_path / "splits_user.tsv"
    path.write_text("0\t1\ttrain\n1\t0\ttrain\n0\t1\ttest\n")
    with pytest.raises(ValueError, match=r"splits_user\.tsv:3: edge \(0, 1\) already labeled 'train'"):
        d.read_splits(inter, path)


def test_read_splits_names_an_unlabeled_edge(tmp_path):
    inter = d.Interactions(2, 2, [0, 1], [1, 0])
    path = tmp_path / "splits_user.tsv"
    path.write_text("1\t0\ttrain\n")
    with pytest.raises(ValueError, match=r"splits_user\.tsv: no split label for edge \(0, 1\)"):
        d.read_splits(inter, path)


def test_read_splits_counts_labeled_edges_missing_from_the_dataset(tmp_path):
    inter = d.Interactions(2, 2, [0, 1], [1, 0])
    path = tmp_path / "splits_user.tsv"
    path.write_text("0\t1\ttrain\n1\t0\tvalid\n1\t1\ttest\n5\t0\ttrain\n")
    with pytest.raises(ValueError, match=r"splits_user\.tsv: 2 labeled edges missing from the dataset"):
        d.read_splits(inter, path)


# Whole-file parsing against the per-line reader: each input must give both
# the same arrays or the same error message, and no warning may escape.

EDGE_CASES = [  # (file text, outcome) with 3 anchors and 4 items
    ("0\t1\n2\t3\n", "ok"),
    ("0\t1", "ok"),  # no final newline
    ("1.0\t2\n", "error"),
    ("0_1\t2\n", "ok"),  # int() reads the underscore, loadtxt does not
    ("0x1\t2\n", "error"),
    ("#x\t2\n", "error"),
    ("+1\t2\n", "ok"),
    (" 1 \t 2 \n", "ok"),
    ("\xa01\t\x0b2\n", "ok"),
    ("-0\t2\n", "ok"),
    ("\u0661\t2\n", "ok"),  # an Arabic-Indic digit one
    ("1\t2\t\n", "error"),  # trailing tab
    ("1\n", "error"),
    ("1\t2\t3\n", "error"),
    ("0\t1\n \n2\t3\n", "ok"),  # a whitespace-only line is blank
    ("0\t1\n\t\n", "ok"),
    ("0\t1\n\n\n2\t3\n", "ok"),
    ("", "ok"),
    ("\n\n", "ok"),
    ("0\t1\r\n2\t3\r\n", "ok"),
    ("0\t1\r2\t3", "ok"),
    ("0\t1\n0\t1\n2\t0\n0\t1\n", "ok"),  # duplicate edges
    ("-1\t2\n", "error"),
    ("0\t-2\n", "error"),
    ("3\t0\n", "error"),
    ("0\t4\n", "error"),
    ("99999999999999999999\t0\n", "error"),
    ("0\t9223372036854775808\n", "error"),
    ("1\x00\t2\n", "error"),
]

INTER = (3, 4, [0, 0, 1, 2], [1, 3, 0, 2])  # n_anchors, n_items, anchors, items
SPLIT_CASES = [  # (file text, outcome) for Interactions(*INTER)
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n", "ok"),
    ("2\t2\ttest\n1\t0\ttrain\n0\t3\ttrain\n0\t1\tvalid", "ok"),  # any line order
    ("0\t1\ttrain\r\n0\t3\tvalid\r\n\r\n1\t0\ttest\r\n2\t2\ttrain\r\n", "ok"),
    (" 0\t+1\ttrain\n0\t3\tvalid\n1\t-0\ttest\n2\t2\ttrain\n", "ok"),
    ("0\t1\ttrainee\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n", "error"),  # an S5 field reads 'train'
    ("0\t1\tTrain\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n", "error"),
    ("0\t1\ttrain \n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n", "error"),
    ("0\t1\ttest\x00\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n", "error"),  # an S6 field drops the NUL
    ("0\t1\ttrain\n0\t3\tvalid\n0\t1\ttest\n2\t2\ttrain\n", "error"),  # twice, one unlabeled
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n0\t1\ttest\n", "error"),
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n", "error"),
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n2\t1\ttest\n", "error"),
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\n5\t0\ttrain\n", "error"),
    ("0\t1\ttrain\n0\t3\tvalid\n0\t4\ttest\n2\t2\ttrain\n", "error"),  # (0, 4) keys as (1, 0)
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t2\n", "error"),
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t2\ttrain\t\n", "error"),
    ("0\t1\ttrain\n0\tx\tvalid\n1\t0\ttest\n2\t2\ttrain\n", "error"),
    ("0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t99999999999999999999\ttrain\n", "error"),
    ("", "error"),
]

MEMBER_CASES = [  # (file text, outcome) with 12 users and 3 groups
    ("0 1,2\n1 3\n2 4,0\n", "ok"),
    ("2 4,0\n0 1,2\n1 3\n", "ok"),  # any line order
    ("0 011,2\n1 3\n2 4\n", "ok"),  # a leading zero
    ("0 1,1\n1 3\n2 4\n", "ok"),  # a repeated member
    ("0 1,2\n1 3\n2 4", "ok"),  # no final newline
    ("0 1,2\r\n1 3\r\n2 4\r\n", "ok"),
    ("0 1,2\r1 3\r2 4\r", "ok"),
    ("0 1,2\n\n1 3\n2 4\n", "ok"),  # a blank line
    ("0 1,2\n \t\n1 3\n2 4\n", "ok"),  # a whitespace-only line
    ("0\t1,2\n1 3\n2 4\n", "ok"),
    ("0  1,2\n1 3\n2 4\n", "ok"),
    (" 0 1,2 \n1 3\n2 4\n", "ok"),
    ("0 ,1,2\n1 3\n2 4\n", "ok"),  # empty members are skipped
    ("0 1,2,\n1 3\n2 4\n", "ok"),
    ("0 1,,2\n1 3\n2 4\n", "ok"),
    ("0 +3\n1 3\n2 4\n", "ok"),
    ("0 1_0\n1 3\n2 4\n", "ok"),
    ("0 \u0661,2\n1 3\n2 4\n", "ok"),  # an Arabic-Indic digit one
    ("0 0000000000000000001\n1 3\n2 4\n", "ok"),  # 19 digits
    ("0 1\x002\n1 3\n2 4\n", "error"),
    ("0 1, 2\n1 3\n2 4\n", "error"),  # a third field
    ("0 1;2\n1 3\n2 4\n", "error"),
    ("0 1.0\n1 3\n2 4\n", "error"),
    ("0 1,2\n0 3\n2 4\n", "error"),  # group 0 twice, group 1 unlisted
    ("0 1,2\n2 4\n", "error"),
    ("0 1,2\n1 3\n2 4\n3 5\n", "error"),
    ("0 1,12\n1 3\n2 4\n", "error"),
    ("0 1,-1\n1 3\n2 4\n", "error"),
    ("0 99999999999999999999\n1 3\n2 4\n", "error"),
    ("0 \n1 3\n2 4\n", "error"),  # an empty member list
    ("0 ,\n1 3\n2 4\n", "error"),
    ("0\n1 3\n2 4\n", "error"),
    ("", "error"),
    ("\n\n", "error"),
]


def outcome(fn, *args):
    """("ok", dtypes and values) or ("error", message); a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except ValueError as e:
            return "error", str(e)
    if isinstance(out, Interactions):
        out = (out.anchors, out.items, out.splits)
    return "ok", [(a.dtype.str, a.tolist()) for a in out]


def edge_outcomes(path, text):
    path.write_bytes(text.encode())
    return outcome(d.load_interactions, path, 3, 4), outcome(d._load_interactions_lines, path, 3, 4)


def split_outcomes(path, text, inter):
    path.write_bytes(text.encode())
    return outcome(d.read_splits, inter, path), outcome(d._read_splits_lines, inter, path)


def member_arrays(read):
    """read, for 12 users and 3 groups, as a function of the path giving the CSR's arrays."""
    def arrays(path):
        m = read(path, 12, 3)
        return m.indptr, m.indices, m.data

    return arrays


def member_outcomes(path, text):
    path.write_bytes(text.encode())
    return outcome(member_arrays(d.load_group_members), path), outcome(member_arrays(d._load_group_members_lines), path)


@pytest.mark.parametrize("text, kind", EDGE_CASES)
def test_load_interactions_whole_file_matches_per_line(tmp_path, text, kind):
    whole, per_line = edge_outcomes(tmp_path / "users.tsv", text)
    assert whole == per_line
    assert whole[0] == kind


@pytest.mark.parametrize("text, kind", SPLIT_CASES)
def test_read_splits_whole_file_matches_per_line(tmp_path, text, kind):
    whole, per_line = split_outcomes(tmp_path / "splits_user.tsv", text, Interactions(*INTER))
    assert whole == per_line
    assert whole[0] == kind


@pytest.mark.parametrize("space", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_whole_file_parse_rereads_what_int_refuses(tmp_path, space):
    # loadtxt strips these separators around an id as whitespace, and int() refuses them
    whole, per_line = edge_outcomes(tmp_path / "users.tsv", f"0\t1\n{space}2\t3\n")
    assert whole == per_line and whole[0] == "error"
    text = f"0\t1\ttrain\n0\t3\tvalid\n1\t0\ttest\n2\t2{space}\ttrain\n"
    whole, per_line = split_outcomes(tmp_path / "splits_user.tsv", text, Interactions(*INTER))
    assert whole == per_line and whole[0] == "error"


@pytest.mark.parametrize("text, kind", MEMBER_CASES)
def test_load_group_members_whole_file_matches_per_line(tmp_path, text, kind):
    whole, per_line = member_outcomes(tmp_path / "group_members.txt", text)
    assert whole == per_line
    assert whole[0] == kind


ALPHABET = "0123456789+-._xe \t\r\n\x0b\xa0\u0661"
junk = st.text(alphabet=ALPHABET, max_size=5)
labels = st.sampled_from(d.SPLIT_NAMES + ("trainee", "Train"))
any_field = st.one_of(st.integers(-1, 4).map(str), labels, junk)
line_end = st.sampled_from(["\n", "\r\n", "\r", "\n \n", "\n\n"])


def mutated(draw, rows):
    """Rows with up to two fields replaced or added, joined with assorted line ends."""
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            row = draw(st.sampled_from(rows))
            col = draw(st.integers(0, len(row)))
            row[col : col + 1] = [draw(any_field)]
    return "".join("\t".join(row) + draw(line_end) for row in rows)


@st.composite
def edge_files(draw):
    rows = draw(st.lists(st.lists(st.integers(0, 3).map(str), min_size=2, max_size=2), max_size=6))
    return mutated(draw, rows)


@st.composite
def split_files(draw):
    """Labels for INTER's edges in any order, plus up to two lines of any fields."""
    rows = [[str(a), str(v), draw(st.sampled_from(d.SPLIT_NAMES))] for a, v in zip(*INTER[2:])]
    extra = draw(st.lists(st.lists(any_field, min_size=1, max_size=4), max_size=2))
    rows = draw(st.permutations(rows)) + extra
    return mutated(draw, rows)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=st.one_of(edge_files(), st.text(alphabet=ALPHABET, max_size=40)))
def test_load_interactions_paths_agree_on_generated_files(tmp_path_factory, text):
    whole, per_line = edge_outcomes(tmp_path_factory.mktemp("edges") / "users.tsv", text)
    assert whole == per_line


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=split_files())
def test_read_splits_paths_agree_on_generated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("splits") / "splits_user.tsv"
    whole, per_line = split_outcomes(path, text, Interactions(*INTER))
    assert whole == per_line


@st.composite
def member_files(draw):
    """A line for each of 3 groups in any order, then up to two fields replaced by any field,
    and a line dropped or repeated; half the files are laid out canonically, the others
    with assorted separators and line ends."""
    rows = []
    for g in draw(st.permutations(range(3))):
        users = draw(st.lists(st.integers(0, 12).map(str), min_size=1, max_size=3))
        rows.append([str(g), users])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        field = draw(st.one_of(st.integers(-1, 13).map(str), junk))
        if draw(st.booleans()):
            row[0] = field
        else:
            row[1][draw(st.integers(0, len(row[1]) - 1))] = field
    change = draw(st.sampled_from(["none", "none", "none", "drop", "repeat"]))
    if change == "drop":
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    elif change == "repeat":
        rows.append(draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        field_sep, member_sep, end = st.just(" "), st.just(","), st.just("\n")
    else:
        field_sep = st.sampled_from([" ", "\t", "  "])
        member_sep = st.sampled_from([",", ",,", ", "])
        end = st.sampled_from(["\n", "\r\n", "\r", "\n \n", "\n\n"])
    return "".join(g + draw(field_sep) + draw(member_sep).join(users) + draw(end) for g, users in rows)


@given(text=st.one_of(member_files(), st.text(alphabet=ALPHABET + ",", max_size=40)))
@settings(deadline=None, database=None, derandomize=True)  # the example budget is the profile's
def test_load_group_members_paths_agree_on_generated_files(tmp_path_factory, text):
    whole, per_line = member_outcomes(tmp_path_factory.mktemp("members") / "group_members.txt", text)
    assert whole == per_line


def boundary_ids(n):
    """0, n - 1, both sides of every digit-count and uint32 boundary below n."""
    edges = [10**k for k in range(1, 20)] + [2**32]
    return sorted({0, n - 1, *(x + e for x in edges for e in (-1, 0) if x + e < n)})


def any_id(n):
    return st.one_of(st.sampled_from(boundary_ids(n)), st.integers(0, n - 1))


@st.composite
def id_lists(draw, n, size):
    return draw(st.lists(any_id(n), min_size=size, max_size=size))


@st.composite
def interactions(draw, n_anchors=None, n_items=None):
    """Distinct edges over id ranges up to int64's, each with a split label.

    Counts not given are drawn. A drawn item count is cut so that n_anchors *
    n_items stays below 2**63: a 19-digit id range on one side leaves a small
    one on the other."""
    counts = st.one_of(st.integers(1, 120), st.sampled_from([2**32, 10**13, 2**63 - 1]))
    n_anchors = draw(counts) if n_anchors is None else n_anchors
    n_items = min(draw(counts), (2**63 - 1) // n_anchors) if n_items is None else n_items
    edges = draw(st.lists(st.tuples(any_id(n_anchors), any_id(n_items)), unique=True, max_size=12))
    splits = draw(st.lists(st.integers(TRAIN, TEST), min_size=len(edges), max_size=len(edges)))
    return Interactions(n_anchors, n_items, [a for a, _ in edges], [v for _, v in edges], splits)


@st.composite
def writer_datasets(draw):
    """A Dataset as the fingerprint reads it: counts, both edge lists, memberships.

    The ids up to int64's run through the users, their items and the group
    items. The CSR allocates a row per group, so there are at most 120 groups,
    each with a member, and fewer where n_groups * n_items would reach 2**63."""
    users = draw(interactions())
    n_groups = draw(st.integers(1, min(120, (2**63 - 1) // users.n_items)))
    groups = draw(interactions(n_groups, users.n_items))
    gids = [*range(n_groups), *draw(id_lists(n_groups, draw(st.integers(0, 12))))]
    members = membership_matrix(n_groups, users.n_anchors, gids, draw(id_lists(users.n_anchors, len(gids))))
    return Dataset(users.n_anchors, users.n_items, n_groups, users, groups, members)


def boundary_dataset():
    """Both sides of every digit-count boundary up to 19 digits and of uint32's, ids 0
    and 2**63 - 2 and each split label, as users of one item each (so n_anchors * n_items
    stays below 2**63) and as the members of 1000 groups, one each; no group edges."""
    n = 2**63 - 1
    ids = boundary_ids(n)
    users = Interactions(n, 1, ids, [0] * len(ids), [i % 3 for i in ids])
    members = membership_matrix(1000, n, range(1000), [ids[g % len(ids)] for g in range(1000)])
    return Dataset(n, 1, 1000, users, Interactions(1000, 1), members)


def wide_items_dataset():
    """boundary_dataset's ids as the items of one user, one group and one member."""
    n = 2**63 - 1
    ids = boundary_ids(n)
    users = Interactions(1, n, [0] * len(ids), ids, [i % 3 for i in ids])
    groups = Interactions(1, n, [0] * len(ids), ids[::-1], [i % 3 for i in ids])
    return Dataset(1, n, 1, users, groups, membership_matrix(1, 1, [0], [0]))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(ds=writer_datasets())
@example(ds=boundary_dataset())
@example(ds=wide_items_dataset())
def test_array_writers_match_the_per_edge_oracles(tmp_path_factory, ds):
    base = tmp_path_factory.mktemp("writers")
    for inter in (ds.user_items, ds.group_items):
        for write, oracle in ((d.write_edges, ref.write_edges), (d.write_splits, ref.write_splits)):
            write(inter, base / "lib.tsv")
            oracle(inter, base / "ref.tsv")
            assert (base / "lib.tsv").read_bytes() == (base / "ref.tsv").read_bytes()
    assert ds.fingerprint() == ref.fingerprint(ds)


def test_edges_sort_dedup_and_take_labels_up_to_the_largest_key(tmp_path):
    """With n_anchors * n_items = 2**63 - 1 the largest key is 2**63 - 2, which
    must still order, deduplicate and label edges as their (anchor, item) pairs."""
    n, n_items = 7, (2**63 - 1) // 7
    assert n * n_items == 2**63 - 1
    big = [0, 1, 2**32 - 1, 2**32, 10**18 - 1, 10**18, n_items - 1]
    edges = [(a, v, (a + i) % 3) for a in (6, 0, 3) for i, v in enumerate(big[::-1])]
    backwards = Interactions(n, n_items, *np.array(edges).T)
    stored = zip(backwards.anchors.tolist(), backwards.items.tolist(), backwards.splits.tolist())
    assert list(stored) == sorted(edges)
    assert d.edge_keys(backwards.anchors, backwards.items, n, n_items).max() == 2**63 - 2

    unique = sorted(e[:2] for e in edges)
    (tmp_path / "users.tsv").write_text("".join(f"{a}\t{v}\n" for a, v, _ in edges + edges[:5]))
    for load in (d.load_interactions, d._load_interactions_lines):
        anchors, items = load(tmp_path / "users.tsv", n, n_items)
        assert list(zip(anchors.tolist(), items.tolist())) == unique

    labels = [i % 3 for i in range(len(unique))]
    plain = Interactions(n, n_items, *np.array(unique).T)
    lines = [f"{a}\t{v}\t{d.SPLIT_NAMES[s]}\n" for (a, v), s in zip(unique, labels)]
    path = tmp_path / "splits.tsv"
    path.write_text("".join(lines[::-1]))
    whole = d._labels_from_rows(plain, d._load_rows(path, d._SPLIT_ROW))
    for back in (whole, d._read_splits_lines(plain, path)):
        assert back.splits.tolist() == labels and back.anchors.tolist() == plain.anchors.tolist()
    last = rf"\({unique[-1][0]}, {unique[-1][1]}\)"
    path.write_text("".join(lines + lines[-1:]))
    with pytest.raises(ValueError, match=rf"splits.tsv:{len(lines) + 1}: edge {last} already labeled"):
        d._read_splits_lines(plain, path)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match=rf"no split label for edge {last}"):
        d._read_splits_lines(plain, path)


SPLIT_CODES = r"split codes must be TRAIN, VALID or TEST, got "
INVARIANT_CASES = {  # id -> (Interactions arguments, message)
    "duplicate-edge": ((3, 4, [2, 0, 1, 0], [1, 3, 0, 3]), r"edge \(0, 3\) appears more than once"),
    "duplicate-edge-other-label": ((3, 4, [1, 1], [2, 2], [TRAIN, TEST]), r"edge \(1, 2\) appears more than once"),
    "split-minus-one": ((3, 4, [0, 1], [1, 2], [TRAIN, -1]), SPLIT_CODES + r"\[-1, 0\]"),
    "split-three": ((3, 4, [0, 1], [1, 2], [3, TEST]), SPLIT_CODES + r"\[2, 3\]"),
    "split-past-int8": ((3, 4, [0], [1], [256]), SPLIT_CODES + r"\[256\]"),  # not read as 256 % 256 = TRAIN
    "key-bound": ((8, (2**63 - 1) // 7), r"8 anchors \* 1317624576693539401 items reach 2\*\*63"),
    "key-bound-with-edges": ((4, 2**62, [0, 3], [1, 2**62 - 1]), r"reach 2\*\*63"),
}


@pytest.mark.parametrize("args, message", INVARIANT_CASES.values(), ids=INVARIANT_CASES)
def test_interactions_reject_what_breaks_an_invariant(args, message):
    with pytest.raises(ValueError, match=message):
        Interactions(*args)


def test_library_files_take_the_whole_file_path(tmp_path, monkeypatch):
    # a silent fall back to the per-line reader would lose its speed and pass every other test
    ds, _ = generate_synthetic(40, 50, 8, m_true=2, noise=0.1, seed=3)
    ds = dataclasses.replace(ds, user_items=d.split_holdout(ds.user_items, seed=1),
                             group_items=d.split_holdout(ds.group_items, seed=2))
    d.save_dataset(ds, tmp_path)
    d.write_splits(ds.user_items, tmp_path / "splits_user.tsv")
    d.write_splits(ds.group_items, tmp_path / "splits_group.tsv")

    def refuse(*args):
        raise AssertionError("per-line reader called on a file the library wrote")

    monkeypatch.setattr(d, "_load_interactions_lines", refuse)
    monkeypatch.setattr(d, "_read_splits_lines", refuse)
    monkeypatch.setattr(d, "_load_group_members_lines", refuse)
    back = d.load_prepared(tmp_path)
    assert back.fingerprint() == ds.fingerprint()
    for x, y in ((back.user_items, ds.user_items), (back.group_items, ds.group_items)):
        for name in ("anchors", "items", "splits"):
            assert np.array_equal(getattr(x, name), getattr(y, name))
            assert getattr(x, name).dtype == getattr(y, name).dtype


@pytest.fixture(scope="module")
def tiny_prepared(tmp_path_factory):
    """A prepared world's directory and the bytes of its five data files."""
    base = tmp_path_factory.mktemp("tiny-prepared")
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    ds = dataclasses.replace(ds, user_items=d.split_holdout(ds.user_items, seed=1),
                             group_items=d.split_holdout(ds.group_items, seed=2))
    d.save_dataset(ds, base)
    d.write_splits(ds.user_items, base / d.USER_SPLITS_FILE)
    d.write_splits(ds.group_items, base / d.GROUP_SPLITS_FILE)
    names = (d.USER_EDGES_FILE, d.GROUP_EDGES_FILE, d.MEMBERS_FILE, d.USER_SPLITS_FILE, d.GROUP_SPLITS_FILE)
    return base, {name: (base / name).read_bytes() for name in names}


def mutate(data, rng):
    """data with one to three bytes flipped, inserted or deleted at random places."""
    data = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(0, len(data) + 1))
        kind = rng.integers(0, 3)
        if kind == 0 and at < len(data):  # flip one bit
            data[at] ^= 1 << int(rng.integers(0, 8))
        elif kind == 1:
            data[at:at] = bytes([int(rng.integers(0, 256))])
        else:
            del data[at : at + 1]
    return bytes(data)


def prepared_outcome(path):
    """("ok", fingerprint, arrays) of load_prepared, or ("error", message) if it raised ValueError."""
    try:
        ds = d.load_prepared(path)
    except ValueError as e:
        return "error", str(e)
    m = ds.group_members
    edges = [getattr(x, n) for x in (ds.user_items, ds.group_items) for n in ("anchors", "items", "splits")]
    return "ok", ds.fingerprint(), [(a.dtype.str, a.tolist()) for a in (*edges, m.indptr, m.indices, m.data)]


def mutated_outcomes(base, files, seed):
    """load_prepared's outcome, and again with the whole-file parses off, with one file mutated."""
    rng = np.random.default_rng(seed)
    name = list(files)[rng.integers(0, len(files))]
    (base / name).write_bytes(mutate(files[name], rng))
    try:
        whole = prepared_outcome(base)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(d, "_load_rows", lambda *args: None)
            patch.setattr(d, "_members_from_bytes", lambda *args: None)
            per_line = prepared_outcome(base)
    finally:
        (base / name).write_bytes(files[name])
    return whole, per_line


@given(seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, database=None, derandomize=True)  # the example budget is the profile's
def test_load_prepared_agrees_with_the_per_line_readers_on_mutated_files(tiny_prepared, seed):
    # a mutated world either fails with a ValueError or loads, and either way the
    # whole-file parses must give what the per-line readers give; no other exception
    whole, per_line = mutated_outcomes(*tiny_prepared, seed)
    assert whole == per_line


PER_LINE_READERS = {  # file name -> its per-line reader, for 3 anchors, 4 items, 5 users and 3 groups
    "users.tsv": lambda p: d._load_interactions_lines(p, 3, 4),
    "splits_user.tsv": lambda p: d._read_splits_lines(Interactions(*INTER), p),
    "group_members.txt": lambda p: d.load_group_members(p, 5, 3),
}
# each reader's fault after a blank, a whitespace-only, a CRLF and a lone-CR
# line, then a byte that is not UTF-8: id -> (file name, bytes, message after the path)
LINE_NUMBER_CASES = {
    "users-numbering": ("users.tsv", b"\n \t\n0\t1\r\n0\t2\r1\tx\n", r"5: non-integer id in '1\tx\n'"),
    "users-non-utf8": ("users.tsv", b"0\t1\n1\t\xff2\n", r"2: non-integer id in '1\t\udcff2\n'"),
    "splits-numbering": ("splits_user.tsv", b"\n \t\n0\t1\ttrain\r\n0\t3\tvalid\r1\t0\ttest\t\n",
                         "5: expected 'anchor<TAB>item<TAB>split'"),
    "splits-non-utf8": ("splits_user.tsv", b"0\t1\ttrain\n0\t3\tvalid\xff\n",
                        "2: expected 'anchor<TAB>item<TAB>split'"),
    "members-numbering": ("group_members.txt", b"\n \t\n0 1,2\r\n1 3\r0 4\n",
                          "5: group 0 already listed on line 3"),
    "members-non-utf8": ("group_members.txt", b"0 1\n\n1 \xff\n", r"3: non-integer id in '1 \udcff\n'"),
}


@pytest.mark.parametrize("name, data, message", LINE_NUMBER_CASES.values(), ids=LINE_NUMBER_CASES)
def test_per_line_readers_name_the_line_at_fault(tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ValueError) as e:
        PER_LINE_READERS[name](path)
    assert str(e.value) == f"{path}:{message}"


META_CASES = {  # id -> (meta.json bytes, start of the message after the path)
    "truncated": (b'{"n_users": 2, "n_items": 2', ": not valid JSON: "),
    "non-utf8": (b'{"n_users": 2\xff}', ": not valid JSON: "),
    "list": (b"[2, 2, 1]", ": expected a JSON object, got list"),
    "missing-key": (b'{"n_items": 2, "n_groups": 1}', ": missing key 'n_users'"),
    "string": (b'{"n_users": "x", "n_items": 2, "n_groups": 1}', ": n_users must be an integer >= 0, got 'x'"),
    "float": (b'{"n_users": 2, "n_items": 2.7, "n_groups": 1}', ": n_items must be an integer >= 0, got 2.7"),
    "bool": (b'{"n_users": 2, "n_items": 2, "n_groups": true}', ": n_groups must be an integer >= 0, got True"),
    "negative": (b'{"n_users": -2, "n_items": 2, "n_groups": 1}', ": n_users must be an integer >= 0, got -2"),
    # edge keys anchor * n_items + item must fit in int64
    "user-key-bound": (b'{"n_users": 4, "n_items": 2305843009213693952, "n_groups": 1}',
                       ": n_users * n_items must be below 2**63, got 4 and 2305843009213693952"),
    "group-key-bound": (b'{"n_users": 1, "n_items": 4611686018427387904, "n_groups": 2}',
                        ": n_groups * n_items must be below 2**63, got 2 and 4611686018427387904"),
    "count-2**63": (b'{"n_users": 9223372036854775808, "n_items": 0, "n_groups": 1}',
                    ": n_users * n_items must be below 2**63, got 9223372036854775808 and 0"),
}


@pytest.mark.parametrize("data, message", META_CASES.values(), ids=META_CASES)
def test_load_dataset_names_meta_json_at_fault(tmp_path, data, message):
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    d.save_dataset(ds, tmp_path)
    (tmp_path / "meta.json").write_bytes(data)
    with pytest.raises(ValueError) as e:
        d.load_dataset(tmp_path)
    assert str(e.value).startswith(f"{tmp_path / 'meta.json'}{message}")


def test_load_dataset_names_a_missing_meta_json(tmp_path):
    with pytest.raises(FileNotFoundError) as e:
        d.load_dataset(tmp_path)
    assert str(e.value) == f"missing {tmp_path / 'meta.json'}"


def test_load_prepared_requires_splits(tmp_path):
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    d.save_dataset(ds, tmp_path)
    with pytest.raises(FileNotFoundError, match="splits_user"):
        d.load_prepared(tmp_path)


def test_subsample_compacts_ids():
    ds, _ = generate_synthetic(40, 40, 8, m_true=2, noise=0.1, seed=5)
    small = d.subsample(ds, 0.25, seed=0)
    assert small.n_users == 10
    assert small.n_items <= ds.n_items
    assert len(small.user_items) > 0


def test_subsample_rejects_bad_fraction():
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    with pytest.raises(ValueError):
        d.subsample(ds, 0.0, seed=0)


def test_group_with_no_members_rejected():
    with pytest.raises(ValueError, match="no members"):
        make_dataset(2, 2, [(0, 0)], [[0], []])


def checked_dataset():
    """3 users, 4 items and 2 groups, each check met."""
    return make_dataset(3, 4, [(0, 1), (2, 3)], [[0, 1], [2]], [(1, 2)])


DATASET_CHECKS = {  # id -> (fields that break one check of checked_dataset, message)
    "membership-shape": ({"group_members": membership_matrix(2, 4, [0, 1], [0, 3])},
                         "membership matrix shape does not match counts"),
    "empty-group": ({"group_members": membership_matrix(2, 3, [0, 0], [0, 2])}, "group 1 has no members"),
    "user-edge-counts": ({"user_items": Interactions(3, 5)}, "user interactions do not match counts"),
    "group-edge-counts": ({"group_items": Interactions(3, 4)}, "group interactions do not match counts"),
}


@pytest.mark.parametrize("fields, message", DATASET_CHECKS.values(), ids=DATASET_CHECKS)
def test_a_dataset_is_checked_when_made_and_when_replaced(fields, message):
    ds = checked_dataset()
    given = {f.name: getattr(ds, f.name) for f in dataclasses.fields(Dataset)}
    for make in (lambda: Dataset(**{**given, **fields}), lambda: dataclasses.replace(ds, **fields)):
        with pytest.raises(ValueError) as e:
            make()
        assert str(e.value) == message
    assert not hasattr(ds, "validate")


def test_a_dataset_holds_int_counts_and_a_read_only_membership():
    ds = checked_dataset()
    again = Dataset(np.int64(3), np.int32(4), 2.0, ds.user_items, ds.group_items, ds.group_members)
    assert [type(n) for n in (again.n_users, again.n_items, again.n_groups)] == [int] * 3
    assert again.fingerprint() == ds.fingerprint()
    relabeled = dataclasses.replace(ds, user_items=ds.user_items.relabeled([TRAIN, TEST]))
    for m in (ds.group_members, relabeled.group_members):
        for array in (m.data, m.indices, m.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    assert ds.group_members.toarray().tolist() == [[1, 1, 0], [0, 0, 1]]


def test_load_dataset_names_the_file_of_an_unlisted_group(tmp_path):
    ds, _ = generate_synthetic(20, 30, 5, m_true=2, noise=0.1, seed=7)
    d.save_dataset(ds, tmp_path)
    path = tmp_path / "group_members.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + lines[4:]))  # drops group 3's line
    with pytest.raises(ValueError) as e:
        d.load_dataset(tmp_path)
    assert str(e.value) == f"{path}: group 3 is not listed"
    path.write_text("")
    with pytest.raises(ValueError) as e:
        d.load_group_members(path, 20, 5)
    assert str(e.value) == f"{path}: group 0 is not listed"
