import math

import numpy as np
import pytest

from came_opt.factored_moment import (
    FactoredEMA,
    FullEMA,
    factored_reconstruct,
    factored_update,
    full_reconstruct,
    full_update,
    generalized_kl,
    nmf_rank1,
)
from came_opt.tensor import row_sums, col_sums


def rand_nonneg(rng, n, m, scale=2.0):
    return rng.uniform(0.0, scale, size=(n, m))


# ---------------------------------------------------------------------------
# nmf_rank1
# ---------------------------------------------------------------------------


def test_nmf_rank1_reproduces_rank1_input():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(20):
        w = rng.uniform(0.1, 2.0, size=(rng.integers(1, 9), 1))
        h = rng.uniform(0.1, 2.0, size=(1, rng.integers(1, 9)))
        v = w @ h
        w_out, h_out = nmf_rank1(v)
        np.testing.assert_allclose(w_out @ h_out, v, rtol=1e-14, atol=0)


def test_nmf_rank1_hand_case():
    w, h = nmf_rank1(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(w, np.array([[3.0], [7.0]]), rtol=1e-15)
    np.testing.assert_allclose(h, np.array([[0.4, 0.6]]), rtol=1e-15)
    np.testing.assert_allclose(w @ h, np.array([[1.2, 1.8], [2.8, 4.2]]), rtol=1e-14)


def test_nmf_rank1_scalar():
    w, h = nmf_rank1(np.array([[4.0]]))
    assert w[0, 0] == 4.0 and h[0, 0] == 1.0
    np.testing.assert_array_equal(w @ h, np.array([[4.0]]))


def test_nmf_rank1_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        nmf_rank1(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive total"):
        nmf_rank1(np.array([[0.0, 0.0]]))


# ---------------------------------------------------------------------------
# generalized_kl
# ---------------------------------------------------------------------------


def test_kl_of_identical_matrices_is_zero():
    rng = np.random.Generator(np.random.PCG64(2))
    v = rand_nonneg(rng, 4, 3) + 0.1
    assert generalized_kl(v, v) == pytest.approx(0.0, abs=1e-15)


def test_kl_hand_case():
    assert generalized_kl(np.array([[1.0]]), np.array([[math.e]])) == pytest.approx(
        math.e - 2.0, rel=1e-14
    )


def test_kl_zero_entry_convention():
    assert generalized_kl(np.array([[0.0]]), np.array([[1.0]])) == 1.0


def test_kl_rejects_shape_mismatch_and_domain():
    with pytest.raises(ValueError, match="shape mismatch"):
        generalized_kl(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        generalized_kl(-np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError):
        generalized_kl(np.ones((1, 1)), np.zeros((1, 1)))


def test_nmf_rank1_is_kl_optimal_under_perturbation():
    # multiplicative +/-1% wiggles of the factors never beat the closed form
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        v = rand_nonneg(rng, 16, 16, scale=3.0)
        w, h = nmf_rank1(v)
        base = generalized_kl(v, w @ h)
        for _ in range(50):
            w_p = w * (1.0 + rng.uniform(-0.01, 0.01, size=w.shape))
            h_p = h * (1.0 + rng.uniform(-0.01, 0.01, size=h.shape))
            assert generalized_kl(v, w_p @ h_p) >= base - 1e-9


# ---------------------------------------------------------------------------
# factored accumulator
# ---------------------------------------------------------------------------


def test_factored_update_fresh_state_by_hand():
    state = FactoredEMA.fresh(2, 2, decay=0.999, epsilon=0.0)
    state = factored_update(state, np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(state.row_acc, np.array([[0.003], [0.007]]), rtol=1e-12)
    np.testing.assert_allclose(state.col_acc, np.array([[0.004, 0.006]]), rtol=1e-12)
    assert state.step_count == 1


def test_factored_update_epsilon_floor():
    state = FactoredEMA.fresh(3, 4, decay=0.9999, epsilon=1e-16)
    state = factored_update(state, np.zeros((3, 4)))
    np.testing.assert_allclose(state.row_acc, np.full((3, 1), (1 - 0.9999) * 1e-16 * 4), rtol=1e-12)
    np.testing.assert_allclose(state.col_acc, np.full((1, 4), (1 - 0.9999) * 1e-16 * 3), rtol=1e-12)
    assert np.all(state.row_acc > 0) and np.all(state.col_acc > 0)


def test_factored_update_twice_geometric():
    rng = np.random.Generator(np.random.PCG64(4))
    x = rand_nonneg(rng, 3, 5)
    beta, eps = 0.9, 1e-8
    state = FactoredEMA.fresh(3, 5, decay=beta, epsilon=eps)
    state = factored_update(factored_update(state, x), x)
    np.testing.assert_allclose(state.row_acc, (1 - beta**2) * row_sums(x + eps), rtol=1e-12)
    np.testing.assert_allclose(state.col_acc, (1 - beta**2) * col_sums(x + eps), rtol=1e-12)


def test_factored_update_validates():
    state = FactoredEMA.fresh(2, 2, decay=0.9, epsilon=0.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        factored_update(state, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        factored_update(state, np.array([[1.0, -1.0], [0.0, 0.0]]))


def test_reconstruct_scalar_equals_col_acc():
    state = FactoredEMA.fresh(1, 1, decay=0.99, epsilon=1e-12)
    state = factored_update(state, np.array([[2.0]]))
    np.testing.assert_array_equal(factored_reconstruct(state), state.col_acc)


def test_reconstruct_single_rank1_update_exact():
    # with epsilon 0 the smoothed matrix stays rank 1, so reconstruction is exact
    rng = np.random.Generator(np.random.PCG64(5))
    w = rng.uniform(0.2, 1.5, size=(4, 1))
    h = rng.uniform(0.2, 1.5, size=(1, 6))
    x = w @ h
    state = factored_update(FactoredEMA.fresh(4, 6, decay=0.99, epsilon=0.0), x)
    np.testing.assert_allclose(factored_reconstruct(state), (1 - 0.99) * x, rtol=1e-13)

    # constant matrices stay rank 1 even with the epsilon shift
    const = np.full((3, 2), 0.7)
    eps = 1e-3
    state2 = factored_update(FactoredEMA.fresh(3, 2, decay=0.9, epsilon=eps), const)
    np.testing.assert_allclose(factored_reconstruct(state2), 0.1 * (const + eps), rtol=1e-13)


def test_reconstruct_hand_case():
    state = FactoredEMA(
        row_acc=np.array([[3.0], [7.0]]),
        col_acc=np.array([[4.0, 6.0]]),
        decay=0.9,
        epsilon=0.0,
        step_count=1,
    )
    np.testing.assert_allclose(
        factored_reconstruct(state), np.array([[1.2, 1.8], [2.8, 4.2]]), rtol=1e-14
    )


def test_reconstruct_refuses_unupdated_state():
    with pytest.raises(ValueError, match="no updates"):
        factored_reconstruct(FactoredEMA.fresh(2, 2, decay=0.9, epsilon=1e-8))
    with pytest.raises(ValueError, match="no updates"):
        full_reconstruct(FullEMA.fresh(2, 1, decay=0.9, epsilon=1e-8))


def test_smoothing_parameter_validation():
    for decay in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            FactoredEMA.fresh(2, 2, decay=decay, epsilon=0.0)
    with pytest.raises(ValueError):
        FullEMA.fresh(2, 1, decay=0.9, epsilon=-1e-3)


# ---------------------------------------------------------------------------
# full accumulator
# ---------------------------------------------------------------------------


def test_full_update_by_hand():
    state = FullEMA.fresh(2, 1, decay=0.9, epsilon=0.0)
    state = full_update(state, np.array([[1.0], [4.0]]))
    np.testing.assert_allclose(state.acc, np.array([[0.1], [0.4]]), rtol=1e-14)


def test_full_epsilon_floor():
    state = full_update(FullEMA.fresh(3, 1, decay=0.9, epsilon=1e-16), np.zeros((3, 1)))
    assert np.all(state.acc > 0)


def test_full_update_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        full_update(FullEMA.fresh(2, 1, decay=0.9, epsilon=0.0), np.zeros((3, 1)))


def test_full_matches_factored_on_scalars():
    rng = np.random.Generator(np.random.PCG64(6))
    fact = FactoredEMA.fresh(1, 1, decay=0.99, epsilon=1e-10)
    full = FullEMA.fresh(1, 1, decay=0.99, epsilon=1e-10)
    for _ in range(50):
        x = np.array([[float(rng.uniform(0, 3))]])
        fact = factored_update(fact, x)
        full = full_update(full, x)
        assert abs(fact.col_acc[0, 0] - full.acc[0, 0]) <= 1e-15
        assert abs(factored_reconstruct(fact)[0, 0] - full_reconstruct(full)[0, 0]) <= 1e-15


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_row_and_col_sum_preservation_random():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        n, m = rng.integers(1, 33), rng.integers(1, 33)
        v = rand_nonneg(rng, n, m)
        if v.sum() == 0.0:
            continue
        w, h = nmf_rank1(v)
        approx = w @ h
        np.testing.assert_allclose(row_sums(approx), row_sums(v), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(col_sums(approx), col_sums(v), rtol=1e-12, atol=1e-12)


def test_accumulator_totals_agree():
    # sum(row_acc) == sum(col_acc) at every point of any update sequence
    rng = np.random.Generator(np.random.PCG64(8))
    state = FactoredEMA.fresh(5, 7, decay=0.95, epsilon=1e-10)
    for _ in range(30):
        state = factored_update(state, rand_nonneg(rng, 5, 7))
        assert state.row_acc.sum() == pytest.approx(state.col_acc.sum(), rel=1e-12)
        assert np.all(state.row_acc >= 0) and np.all(state.col_acc >= 0)


def test_reconstruction_consistency():
    rng = np.random.Generator(np.random.PCG64(9))
    state = FactoredEMA.fresh(6, 4, decay=0.9, epsilon=1e-12)
    for _ in range(10):
        state = factored_update(state, rand_nonneg(rng, 6, 4))
    approx = factored_reconstruct(state)
    assert np.all(approx > 0)
    np.testing.assert_allclose(row_sums(approx), state.row_acc, rtol=1e-12)
    np.testing.assert_allclose(col_sums(approx), state.col_acc, rtol=1e-12)


def test_update_is_functional_and_input_untouched():
    state = FactoredEMA.fresh(2, 2, decay=0.9, epsilon=0.0)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    snapshot = x.copy()
    new_state = factored_update(state, x)
    assert new_state is not state
    assert state.step_count == 0 and new_state.step_count == 1
    np.testing.assert_array_equal(x, snapshot)
    assert np.all(state.row_acc == 0.0)
