"""Array helpers: `rms` (optimizers), which the step's RMS clip calls; and, in
factored_moment, the outer product `outer_quotient`, which `factored_reconstruct`
calls, and the row and column sums, which only `nmf_rank1` calls: `factored_update`
sums its squares with einsum."""

import math

import numpy as np
import pytest

from came_opt.factored_moment import col_sums, outer_quotient, row_sums
from came_opt.optimizers import rms


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
    np.testing.assert_array_equal(out, np.array([[12.0, 18.0], [28.0, 42.0]]))


def test_outer_quotient_scalar_exact():
    out = outer_quotient(np.array([[1.0]]), np.array([[5.0]]))
    np.testing.assert_array_equal(out, np.array([[5.0]]))


def test_outer_quotient_uniform():
    # a quotient 2 / 4 reaches it as the numerator 2 and the reciprocal 1 / 4
    out = outer_quotient(np.array([[2.0], [2.0]]), np.array([[0.25, 0.25]]))
    np.testing.assert_allclose(out, 0.5 * np.ones((2, 2)), rtol=0, atol=0)


def test_outer_quotient_rejects_bad_factors():
    # the value checks belong to the caller (factored_reconstruct checks its
    # factors); outer_quotient rejects factors of the wrong shape
    with pytest.raises(ValueError):
        outer_quotient(np.array([[1.0, 2.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        outer_quotient(np.array([[1.0]]), np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        outer_quotient(np.array([1.0, 2.0]), np.array([[1.0]]))


@pytest.mark.parametrize(
    "special", [0.0, -0.0, -1e-300, 1e-300, -np.inf, np.inf, np.nan, "nan-and-negative", "empty"]
)
def test_outer_quotient_rejects_exactly_what_the_mask_rejected(special):
    # no value mask any more: outer_quotient rejects no entry, and every
    # special value propagates as in the broadcast product r * c
    r = np.array([[0.5], [1.5], [2.0]])
    if special == "nan-and-negative":
        r[0, 0], r[2, 0] = np.nan, -1.0
    elif special == "empty":
        r = np.zeros((0, 1))
    else:
        r[1, 0] = special
    c = np.array([[1.0, -3.0, np.inf]])
    with np.errstate(invalid="ignore"):
        out = outer_quotient(r, c)
        expected = r * c
    np.testing.assert_array_equal(out, expected)


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
    for i in range(26):
        shape = (512, 640) if i == 25 else (rng.integers(1, 20), rng.integers(1, 20))
        mat = rng.standard_normal(shape)
        lam = float(rng.uniform(-5, 5))
        assert rms(mat * lam) == pytest.approx(abs(lam) * rms(mat), rel=1e-12)
        # the sum of squares is one einsum pass, bit for bit, also past 512 x 640 ...
        assert rms(mat) == math.sqrt(np.einsum("ij,ij->", mat, mat) / mat.size)
        # ... within 2 ulp of np.mean's pairwise sum of the written squares
        plain = math.sqrt(float(np.mean(np.square(mat))))
        assert abs(rms(mat) - plain) <= 2 * math.ulp(plain)


def test_outer_quotient_row_sums_identity():
    # row_sums(outer_quotient(r, c)) == r * sum(c); equals r when sum(c) is 1
    rng = np.random.Generator(np.random.PCG64(13))
    r = rng.uniform(0.1, 2.0, size=(6, 1))
    c = rng.uniform(0.1, 2.0, size=(1, 4))
    got = row_sums(outer_quotient(r, c))
    np.testing.assert_allclose(got, r * c.sum(), rtol=1e-12)

    c_matched = rng.uniform(0.1, 2.0, size=(1, 4))
    c_matched /= c_matched.sum()
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


def test_out_arrays_receive_bitwise_results():
    # rms only reads its input and takes no out; outer_quotient writes its
    # product into out, the values of the allocating call
    rng = np.random.Generator(np.random.PCG64(15))
    a = rng.standard_normal((9, 11))
    before = a.copy()
    out = np.empty((9, 11))
    assert rms(a) == rms(before)
    assert a.tobytes() == before.tobytes()
    r = rng.uniform(0.1, 2.0, size=(9, 1))
    c = rng.uniform(0.1, 2.0, size=(1, 11))
    assert outer_quotient(r, c, out) is out
    np.testing.assert_array_equal(out, outer_quotient(r, c))
