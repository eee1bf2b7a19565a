import math

import numpy as np
import pytest

from came_opt.tensor import col_sums, outer_quotient, rms, row_sums


def test_row_sums_by_hand():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(row_sums(m), np.array([[3.0], [7.0]]))


def test_row_sums_scalar_identity():
    np.testing.assert_array_equal(row_sums(np.array([[5.0]])), np.array([[5.0]]))


def test_row_sums_zeros():
    np.testing.assert_array_equal(row_sums(np.zeros((3, 4))), np.zeros((3, 1)))


def test_col_sums_by_hand():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(col_sums(m), np.array([[4.0, 6.0]]))


def test_col_sums_scalar_identity():
    np.testing.assert_array_equal(col_sums(np.array([[5.0]])), np.array([[5.0]]))


def test_col_sums_ones_counts_rows():
    np.testing.assert_array_equal(col_sums(np.ones((2, 3))), np.array([[2.0, 2.0, 2.0]]))


def test_rms_by_hand():
    assert rms(np.array([[3.0, 4.0]])) == pytest.approx(math.sqrt((9 + 16) / 2), rel=1e-15)


def test_rms_zero_and_single_entry():
    assert rms(np.zeros((4, 5))) == 0.0
    assert rms(np.array([[-2.5]])) == 2.5


def test_outer_quotient_by_hand():
    out = outer_quotient(np.array([[3.0], [7.0]]), np.array([[4.0, 6.0]]))
    np.testing.assert_allclose(out, np.array([[1.2, 1.8], [2.8, 4.2]]), rtol=1e-15)


def test_outer_quotient_scalar_exact():
    out = outer_quotient(np.array([[1.0]]), np.array([[5.0]]))
    np.testing.assert_array_equal(out, np.array([[5.0]]))


def test_outer_quotient_uniform():
    out = outer_quotient(np.array([[2.0], [2.0]]), np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out, 0.5 * np.ones((2, 2)), rtol=0, atol=0)


def test_outer_quotient_rejects_bad_factors():
    with pytest.raises(ValueError):
        outer_quotient(np.array([[1.0], [0.0]]), np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        outer_quotient(np.array([[1.0], [-1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        outer_quotient(np.array([[1.0, 2.0]]), np.array([[1.0]]))


def test_sum_consistency_random():
    # total of row sums == total of col sums == total of entries
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        n, m = rng.integers(1, 65), rng.integers(1, 65)
        mat = rng.standard_normal((n, m))
        t = float(mat.sum())
        for reduced in (row_sums(mat), col_sums(mat)):
            assert float(reduced.sum()) == pytest.approx(t, rel=1e-12, abs=1e-12)


def test_rms_scaling_random():
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(25):
        mat = rng.standard_normal((rng.integers(1, 20), rng.integers(1, 20)))
        lam = float(rng.uniform(-5, 5))
        assert rms(mat * lam) == pytest.approx(abs(lam) * rms(mat), rel=1e-12)


def test_outer_quotient_row_sums_identity():
    # row_sums(outer_quotient(r, c)) == r * (sum(c) / sum(r)); equals r when totals match
    rng = np.random.Generator(np.random.PCG64(13))
    r = rng.uniform(0.1, 2.0, size=(6, 1))
    c = rng.uniform(0.1, 2.0, size=(1, 4))
    got = row_sums(outer_quotient(r, c))
    np.testing.assert_allclose(got, r * (c.sum() / r.sum()), rtol=1e-12)

    c_matched = rng.uniform(0.1, 2.0, size=(1, 4))
    c_matched *= r.sum() / c_matched.sum()
    np.testing.assert_allclose(row_sums(outer_quotient(r, c_matched)), r, rtol=1e-12)


def test_operations_are_pure_and_deterministic():
    rng = np.random.Generator(np.random.PCG64(14))
    a = rng.standard_normal((5, 7))
    b = rng.uniform(0.5, 2.0, size=(5, 7))
    snapshots = (a.copy(), b.copy())
    first = (row_sums(a), col_sums(a), rms(a), outer_quotient(row_sums(b), col_sums(b)))
    second = (row_sums(a), col_sums(a), rms(a), outer_quotient(row_sums(b), col_sums(b)))
    np.testing.assert_array_equal(a, snapshots[0])
    np.testing.assert_array_equal(b, snapshots[1])
    for x, y in zip(first, second):
        if isinstance(x, float):
            assert x == y
        else:
            assert np.array_equal(x, y)
