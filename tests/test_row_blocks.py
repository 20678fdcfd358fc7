"""The row-block ops on two lanes: `lanes.row_blocks`' layout, and
`gated_channels`, `mean_pair_cosine` and `Adam.step` bit-equal to their
one-block references in tests/reference.py under every helper schedule,
plus property tests of the two tape ops and whole trainings per schedule."""

import csv
import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grouprec import autodiff as ag
from grouprec import lanes as lane_runner
from grouprec.autodiff import COSINE_NORM_EPS, Tape, Tensor
from grouprec.config import TrainConfig
from grouprec.datasets import split_holdout
from grouprec.lanes import ALIGN, BLOCK_ROWS, row_blocks
from grouprec.optim import Adam
from grouprec.synthetic import generate_synthetic
from grouprec.trainer import Trainer

import reference as ref

# (usable CPUs, helper schedule) of the `lanes` fixture
SCHEDULES = {
    "one_cpu": (1, "free"),
    "two_cpus": (2, "free"),
    "late_helper": (2, "late_helper"),
    "eager_helper": (2, "eager_helper"),
}
TAILS = (0, 1, 15, 16, 63)
# (rows per block, rows): below ALIGN, and ALIGN * k + a tail, which joins the last block when
# shorter than ALIGN; in blocks of ALIGN rows, and in two blocks of the default size
BLOCKS_AND_ROWS = (
    [(ALIGN, n) for n in (1, 5, 63)]
    + [(ALIGN, ALIGN * k + t) for k in (1, 3) for t in TAILS]
    + [(BLOCK_ROWS, BLOCK_ROWS + ALIGN + t) for t in TAILS]
)


# ------------------------------------------------------------ layout


@pytest.mark.parametrize("size", [ALIGN, 3 * ALIGN, BLOCK_ROWS])
def test_row_blocks_keep_the_layout_rule(size):
    for n in range(0, 4 * size + 2 * ALIGN):
        blocks = row_blocks(n, size)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.start % ALIGN == 0 for b in blocks)
        if n < ALIGN:
            assert blocks == [slice(0, n)]
        else:
            assert all(size <= b.stop - b.start < size + ALIGN for b in blocks[:-1])
            assert all(ALIGN <= b.stop - b.start < size + ALIGN for b in blocks)


def test_row_blocks_default_and_bad_sizes():
    assert row_blocks(2 * BLOCK_ROWS + 1) == [slice(0, BLOCK_ROWS), slice(BLOCK_ROWS, 2 * BLOCK_ROWS + 1)]
    assert row_blocks(BLOCK_ROWS + ALIGN) == [slice(0, BLOCK_ROWS), slice(BLOCK_ROWS, BLOCK_ROWS + ALIGN)]
    for size in (0, -ALIGN, ALIGN - 1, ALIGN + 1):
        with pytest.raises(ValueError, match="multiple of"):
            row_blocks(10, size)


# ------------------------------------------------------------ bit-equality with one block


def run_op(op, make_inputs, prior_grads):
    """The op's value and every input's gradient, after a backward from a fixed cotangent."""
    inputs = make_inputs()
    for t, prior in zip(inputs, prior_grads):
        t.grad = None if prior is None else prior.copy()
    with Tape() as tape:
        out = op(*inputs)
        out.grad = np.random.default_rng(99).normal(size=out.data.shape)  # the cotangent backward starts from
        tape.backward(out)
    return out.data.copy(), [t.grad for t in inputs]


def assert_same_bits(got, want):
    (v_got, g_got), (v_want, g_want) = got, want
    assert v_got.tobytes() == v_want.tobytes()
    for a, b in zip(g_got, g_want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("block_rows, n", BLOCKS_AND_ROWS)
@pytest.mark.parametrize("x_prior", [False, True])
def test_gated_channels_bits_equal_one_block(lanes, monkeypatch, schedule, block_rows, n, x_prior):
    monkeypatch.setattr(lane_runner, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(n)
    m, d = 4, 64
    x, w, b = rng.normal(size=(n, d)), rng.normal(size=(m, d, d)) * 0.2, rng.normal(size=(m, d))
    priors = [rng.normal(size=(n, d)) if x_prior else None, None, None]

    def make():
        return [Tensor(a, requires_grad=True) for a in (x, w, b)]

    with ref.blas_threads(1):  # two threads split the oracle's whole products otherwise, rounding apart on Haswell
        want = run_op(ref.gated_channels, make, priors)
        helper = lanes(*SCHEDULES[schedule])
        assert_same_bits(run_op(ag.gated_channels, make, priors), want)
    if schedule == "eager_helper" and n >= 2 * block_rows:
        assert helper.made  # the helper ran, and took every block


def test_blas_threads_sets_the_count_and_restores_it(monkeypatch, caplog):
    lib, _ = ref._bundled_openblas()
    if lib is not None:
        before = lib.scipy_openblas_get_num_threads64_()
        with ref.blas_threads(1):
            assert lib.scipy_openblas_get_num_threads64_() == 1
        assert lib.scipy_openblas_get_num_threads64_() == before
    monkeypatch.setattr(ref, "_bundled_openblas", lambda: (None, "no library to set"))
    ran = []
    with caplog.at_level(logging.WARNING), ref.blas_threads(1):
        ran.append(True)
    assert ran and "BLAS thread count left as it is: no library to set" in caplog.text


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("block_rows, n", BLOCKS_AND_ROWS)
def test_gated_channels_without_an_input_gradient_bits_equal_one_block(lanes, monkeypatch, schedule, block_rows, n):
    monkeypatch.setattr(lane_runner, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(n + 1)
    x, w, b = rng.normal(size=(n, 8)), rng.normal(size=(3, 8, 8)), rng.normal(size=(3, 8))

    def make():
        return [Tensor(x), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)]

    want = run_op(ref.gated_channels, make, [None] * 3)
    lanes(*SCHEDULES[schedule])
    assert_same_bits(run_op(ag.gated_channels, make, [None] * 3), want)


# distinct rows, sorted into an existing gradient or none, or unsorted
ROW_ORDERS = ["sorted_into_a_gradient", "sorted_no_gradient", "unsorted_distinct"]


def cosine_case(n, order, rng):
    """An (n + 9)-row table with one zero channel and rows for mean_pair_cosine."""
    table = rng.normal(size=(n + 9, 4, 16))
    table[n // 2, 1] = 0.0  # a channel below COSINE_NORM_EPS
    if order == "unsorted_repeated":
        rows = rng.integers(0, n + 9, size=n)
        rows = np.append(rows, rows[0])
    else:
        rows = rng.choice(n + 9, size=n, replace=False)
        if order != "unsorted_distinct":
            rows = np.sort(rows)
    prior = rng.normal(size=table.shape) if order == "sorted_into_a_gradient" else None
    return table, rows, prior


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("block_rows, n", BLOCKS_AND_ROWS)
@pytest.mark.parametrize("order", ROW_ORDERS + ["unsorted_repeated"])
def test_mean_pair_cosine_bits_equal_one_block(lanes, monkeypatch, schedule, block_rows, n, order):
    monkeypatch.setattr(lane_runner, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(n)
    table, rows, prior = cosine_case(n, order, rng)

    def make():
        return [Tensor(table, requires_grad=True)]

    def op(ref_op):
        return lambda x: ref_op(x, rows, 0.2)

    lanes(*SCHEDULES[schedule])
    if order == "unsorted_repeated":  # refused on every layout and schedule, as its in-place add would lose sums
        with pytest.raises(ValueError, match="distinct rows"):
            run_op(op(ag.mean_pair_cosine), make, [prior])
        return
    want = run_op(op(ref.mean_pair_cosine), make, [prior])
    assert_same_bits(run_op(op(ag.mean_pair_cosine), make, [prior]), want)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_bits_equal_one_block(lanes, schedule, weight_decay):
    rng = np.random.default_rng(5)
    shapes = [(n, 64) for _, n in BLOCKS_AND_ROWS] + [(BLOCK_ROWS * 3 + 17, 64), (70000,), (4, 64, 64), (4, 64), (64,), ()]
    init = [np.asarray(rng.normal(size=s)) for s in shapes]
    grads = [[None if i == 3 else np.asarray(rng.normal(size=s)) for i, s in enumerate(shapes)] for _ in range(3)]

    def run(step):
        params = [Tensor(a.copy(), requires_grad=True) for a in init]
        opt = Adam(params, lr=0.01, weight_decay=weight_decay)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g
            step(opt)
        return [p.data for p in params] + opt.m + opt.v

    want = run(ref.adam_step)
    lanes(*SCHEDULES[schedule])
    got = run(Adam.step)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ------------------------------------------------------------ properties of the two tape ops


@pytest.fixture
def blocks_of_64(lanes, monkeypatch):
    """Two lanes and blocks of ALIGN rows, so that rows around 64 and 128 split."""
    lanes(2)
    monkeypatch.setattr(lane_runner, "BLOCK_ROWS", ALIGN)


# M = 1 and d = 1 included; rows from one to three, or around 64 and 128
SHAPES = st.tuples(
    st.one_of(st.integers(1, 3), st.integers(ALIGN - 2, ALIGN + 2), st.integers(2 * ALIGN - 2, 2 * ALIGN + 1)),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 2 ** 32 - 1),
)
PROPERTY = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@PROPERTY
@given(shape=SHAPES, prior=st.booleans())
def test_gated_channels_property(blocks_of_64, shape, prior):
    n, m, d, seed = shape
    rng = np.random.default_rng(seed)
    x0, w0, b0 = rng.normal(size=(n, d)), rng.normal(size=(m, d, d)), rng.normal(size=(m, d))
    priors = [rng.normal(size=(n, d)) if prior else None, None, None]

    def make():
        return [Tensor(a, requires_grad=True) for a in (x0, w0, b0)]

    assert_same_bits(run_op(ag.gated_channels, make, priors), run_op(ref.gated_channels, make, priors))
    x, w, b = make()
    coef = Tensor(rng.normal(size=(n, m, d)))
    err = ref.finite_difference_check(
        lambda: ref.tsum(ref.mul(ag.gated_channels(x, w, b), coef)), [x, w, b], max_coords=12, rng=rng)
    assert err < 1e-4


@PROPERTY
@given(shape=SHAPES, rows_order=st.sampled_from(ROW_ORDERS), dead_share=st.sampled_from([0.0, 0.3]))
def test_mean_pair_cosine_property(blocks_of_64, shape, rows_order, dead_share):
    n, m, d, seed = shape
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(n, m, d))
    dead = rng.random((n, m)) < dead_share
    # channels with norm COSINE_NORM_EPS / 2, below the guard
    table[dead] *= COSINE_NORM_EPS / 2 / np.linalg.norm(table[dead], axis=-1, keepdims=True)
    rows = rng.permutation(n) if rows_order == "unsorted_distinct" else np.arange(n)
    priors = [rng.normal(size=table.shape) if rows_order == "sorted_into_a_gradient" else None]

    def make():
        return [Tensor(table, requires_grad=True)]

    def op(any_op):
        return lambda x: any_op(x, rows, -1.0)  # every live pair passes, so the loss is smooth

    got = run_op(op(ag.mean_pair_cosine), make, priors)
    assert_same_bits(got, run_op(op(ref.mean_pair_cosine), make, priors))
    # a channel below the norm guard passes no gradient
    grad = got[1][0] - (0.0 if priors[0] is None else priors[0])
    assert not grad[dead].any()
    if d == 1:  # one-wide channels have cosines of +-1 only, so the loss is flat
        assert np.abs(grad * table).max() <= 1e-12
    elif not dead.any():  # a nudge would lift a dead channel over the guard
        x = make()[0]
        err = ref.finite_difference_check(lambda: op(ag.mean_pair_cosine)(x), [x], h=1e-6, max_coords=12, rng=rng)
        assert err < 1e-4


# ------------------------------------------------------------ whole trainings


def block_world():
    """A world with several blocks of interest rows and of embedding rows per step."""
    ds, _ = generate_synthetic(700, 160, 120, m_true=3, noise=0.1, seed=2)
    ds = dataclasses.replace(ds, user_items=split_holdout(ds.user_items, seed=2),
                             group_items=split_holdout(ds.group_items, seed=3))
    return ds


def train_once(ds, path):
    cfg = TrainConfig(embed_dim=16, n_interests=3, n_layers=1, batch_user=256, batch_group=32,
                      epochs=2, seed=4, lr=0.05)
    trainer = Trainer(ds, cfg)
    trainer.train(log_path=path)
    with open(path, newline="") as f:
        log = [row[:-1] for row in csv.reader(f)]  # all but the seconds column
    assert log[0][-1] == "val_metric"
    return [t.data for _, t in trainer.model.named_params()], log


def test_training_bits_equal_under_every_schedule(lanes, tmp_path, monkeypatch):
    ds = block_world()
    monkeypatch.setattr(lane_runner, "BLOCK_ROWS", ALIGN)  # many blocks at this size
    runs = {}
    for name, (cpus, schedule) in SCHEDULES.items():
        helper = lanes(cpus, schedule)
        runs[name] = train_once(ds, tmp_path / f"{name}.csv")
        if helper is not None:
            assert helper.made  # a helper was started
    (want_params, want_log) = runs.pop("one_cpu")
    assert len(want_log) == 3
    for name, (params, log) in runs.items():
        assert log == want_log, name
        assert [p.tobytes() for p in params] == [p.tobytes() for p in want_params], name
