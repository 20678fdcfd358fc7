import numpy as np
import pytest

from grouprec import autodiff as ag
from grouprec.autodiff import Tape, Tensor
from grouprec.gating import make_interest_generator, param_count

import reference as ref

SIGMOID_1 = 0.7310585786300049


def zeroed(gen):
    for _, t in gen.named_params():
        t.data[:] = 0.0
    return gen


def test_zero_gate_halves_embedding():
    gen = zeroed(make_interest_generator("gate", 2, 3, np.random.default_rng(0), n_users=1))
    e = Tensor([[2.0, -4.0, 6.0]])
    out = gen.interests(e, np.arange(1))
    for n in range(2):
        np.testing.assert_allclose(out.data[:, n], [[1.0, -2.0, 3.0]])


def test_zero_embedding_gives_zero_interest():
    gen = make_interest_generator("gate", 3, 4, np.random.default_rng(1), n_users=2)
    out = gen.interests(Tensor(np.zeros((2, 4))), np.arange(2))
    for n in range(3):
        np.testing.assert_allclose(out.data[:, n], np.zeros((2, 4)))


def test_identity_gate_hand_value():
    gen = make_interest_generator("gate", 1, 2, np.random.default_rng(0), n_users=1)
    gen.w.data[0] = np.eye(2)
    gen.b.data[0] = 0.0
    out = gen.interests(Tensor([[1.0, 1.0]]), np.arange(1))
    np.testing.assert_allclose(out.data[:, 0], [[SIGMOID_1, SIGMOID_1]], atol=1e-12)


def test_identical_users_identical_interests():
    gen = make_interest_generator("gate", 2, 3, np.random.default_rng(2), n_users=2)
    e = Tensor(np.array([[0.3, -0.1, 0.5], [0.3, -0.1, 0.5]]))
    out = gen.interests(e, np.arange(2))
    for n in range(2):
        np.testing.assert_allclose(out.data[0, n], out.data[1, n])


def test_output_shape_all_modes():
    rng = np.random.default_rng(3)
    e = Tensor(rng.normal(size=(5, 4)))
    for mode in ("gate", "fc1", "fc2", "table"):
        gen = make_interest_generator(mode, 3, 4, rng, n_users=5)
        out = gen.interests(e, np.arange(5))
        assert out.shape == (5, 3, 4)


def test_gate_outputs_bounded_by_embedding():
    rng = np.random.default_rng(4)
    gen = make_interest_generator("gate", 4, 6, rng, n_users=20)
    e = rng.normal(size=(20, 6)) * 3.0
    out = gen.interests(Tensor(e), np.arange(20))
    for n in range(4):
        assert np.all(np.abs(out.data[:, n]) <= np.abs(e) + 1e-15)


def test_param_counts_exact():
    rng = np.random.default_rng(5)
    m, d, n_users = 4, 16, 50
    counts = {
        "gate": m * (d + 1) * d,
        "fc1": m * (d + 1) * d,
        "fc2": 2 * m * (d + 1) * d,
        "table": m * n_users * d,
    }
    for mode, want in counts.items():
        gen = make_interest_generator(mode, m, d, rng, n_users=n_users)
        assert param_count(gen.named_params()) == want
        actual = sum(t.data.size for _, t in gen.named_params())
        assert actual == want


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown interest mode"):
        make_interest_generator("capsule", 2, 4, np.random.default_rng(0), n_users=1)


@pytest.mark.parametrize("mode", ["gate", "fc1", "fc2", "table"])
def test_gradients_reach_all_parameters(mode):
    rng = np.random.default_rng(6)
    gen = make_interest_generator(mode, 2, 3, rng, n_users=4)
    e = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    params = [e] + [t for _, t in gen.named_params()]

    def loss():
        out = gen.interests(e, np.arange(4))  # (4, 2, 3): both channels enter the sum of squares
        return ref.tsum(ref.mul(out, out))

    every = max(t.data.size for t in params)
    err = ref.finite_difference_check(loss, params, h=1e-5, rng=rng, max_coords=every)
    assert err < 1e-4
    if mode == "table":
        # the free tables ignore the embedding entirely
        with Tape() as tape:
            tape.backward(loss())
        assert e.grad is None or not np.any(e.grad)
