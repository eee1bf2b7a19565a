import math

import numpy as np
import pytest

from came_opt.factored_moment import (
    col_sums,
    factored_reconstruct,
    factored_update,
    full_update,
    generalized_kl,
    nmf_rank1,
    row_sums,
)
from came_opt.optimizers import (
    InvalidConfig,
    OptimizerConfig,
    _require_finite,
    _require_positive,
    make_state,
)


def rand_nonneg(rng, n, m, scale=2.0):
    return rng.uniform(0.0, scale, size=(n, m))


def zero_factors(n, m):
    return np.zeros((n, 1)), np.zeros((1, m))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nmf_rank1_and_kl_reject_non_finite_input(bad):
    # np.any(v < 0.0) is False for NaN: only the finiteness check stops a NaN result
    with_bad = np.array([[1.0, bad], [2.0, 3.0]])
    with pytest.raises(ValueError, match="finite v"):
        nmf_rank1(with_bad)
    with pytest.raises(ValueError, match="finite v"):
        generalized_kl(with_bad, np.ones((2, 2)))
    with pytest.raises(ValueError, match="finite a"):
        generalized_kl(np.ones((2, 2)), with_bad)


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
    # x is folded as its square [[1, 4], [9, 16]]
    row, col = factored_update(*zero_factors(2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]), 0.999, 0.0)
    np.testing.assert_allclose(row, np.array([[0.005], [0.025]]), rtol=1e-12)
    np.testing.assert_allclose(col, np.array([[0.010, 0.020]]), rtol=1e-12)


def test_factored_update_epsilon_floor():
    row, col = factored_update(*zero_factors(3, 4), np.zeros((3, 4)), 0.9999, 1e-16)
    np.testing.assert_allclose(row, np.full((3, 1), (1 - 0.9999) * 1e-16 * 4), rtol=1e-12)
    np.testing.assert_allclose(col, np.full((1, 4), (1 - 0.9999) * 1e-16 * 3), rtol=1e-12)
    assert np.all(row > 0) and np.all(col > 0)


def test_factored_update_twice_geometric():
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.standard_normal((3, 5))
    beta, eps = 0.9, 1e-8
    once = factored_update(*zero_factors(3, 5), x, beta, eps)
    row, col = factored_update(*once, x, beta, eps)
    np.testing.assert_allclose(row, (1 - beta**2) * row_sums(x * x + eps), rtol=1e-12)
    np.testing.assert_allclose(col, (1 - beta**2) * col_sums(x * x + eps), rtol=1e-12)


def test_factored_update_validates():
    factors = zero_factors(2, 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        factored_update(*factors, np.zeros((2, 3)), 0.9, 0.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        factored_update(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 2)), 0.9, 0.0)
    # any real input is valid: a negative entry is folded as its square
    x = np.array([[1.0, -1.0], [0.0, -3.0]])
    for got, want in zip(factored_update(*factors, x, 0.9, 0.0),
                         factored_update(*factors, np.abs(x), 0.9, 0.0)):
        assert got.tobytes() == want.tobytes()


# each nonnegativity check must reject exactly the inputs np.any(x < 0.0) flags
def check_inputs():
    """3 x 4 positive matrices with special entries planted, plus edge cases."""
    base = np.random.Generator(np.random.PCG64(21)).uniform(0.5, 2.0, size=(3, 4))
    cases = {}
    for value in (0.0, -0.0, -1e-300, 1e-300, -5e-324, 5e-324, -np.inf, np.inf, np.nan):
        x = base.copy()
        x[1, 2] = value
        cases[repr(value)] = x
    for first, second in ((np.nan, -1.0), (-1.0, np.nan), (np.nan, -0.0), (np.nan, np.inf)):
        x = base.copy()
        x[0, 0], x[2, 3] = first, second
        cases[f"{first!r}+{second!r}"] = x
    cases.update(
        all_nan=np.full((3, 4), np.nan),
        all_negative_zero=np.full((3, 4), -0.0),
        all_negative=-base,
        empty=np.zeros((0, 4)),
    )
    return cases


CHECK_INPUTS = check_inputs()


def rejects(fn, *args, match):
    try:
        fn(*args)
    except ValueError as exc:
        if match in str(exc):
            return True
        raise
    return False


def same_bits_or_both_nan(a, b):
    # a NaN keeps its operand's sign bit through x * x, so NaNs compare by position
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("case", sorted(CHECK_INPUTS))
def test_nonnegativity_checks_reject_exactly_what_the_mask_rejected(case):
    # full_update takes squares and checks them; factored_update squares its
    # own input, so it has no check: x and -x fold alike, and a NaN or +-inf
    # entry reaches the factors, where the step's finiteness check rejects it
    x = CHECK_INPUTS[case]
    n, m = x.shape
    with np.errstate(invalid="ignore"):
        got_full = rejects(full_update, np.zeros((n, m)), x, 0.9, 0.0, match="nonnegative")
        factors = factored_update(*zero_factors(n, m), x, 0.9, 0.0)
        negated = factored_update(*zero_factors(n, m), -x, 0.9, 0.0)
    assert got_full == bool(np.any(x < 0.0))
    for got, want in zip(factors, negated):
        assert same_bits_or_both_nan(got, want)
    finite = bool(np.all(np.isfinite(x)))
    assert all(bool(np.all(np.isfinite(f))) == finite for f in factors)
    if x.size:  # a parameter has at least one entry; an empty row factor has no max
        assert (outcome(lambda: _require_finite(*factors)) is None) == finite


def outcome(check):
    """None when check() passes, "rejected" for its own error, else the error text."""
    try:
        check()
    except ValueError as exc:
        return "rejected" if "entries" in str(exc) else str(exc)
    return None


@pytest.mark.parametrize("case", sorted(CHECK_INPUTS))
def test_step_checks_reject_exactly_what_min_and_max_rejected(case):
    # the step's positivity and finiteness checks reduce with np.minimum/np.maximum
    # directly; they must agree with x.min() > 0 and isfinite(x.max()), which
    # propagate NaN and raise on an empty x
    x = CHECK_INPUTS[case]

    def old_positive():
        if not x.min() > 0.0:
            raise ValueError("nonpositive entries")

    def old_finite():
        if not math.isfinite(x.max()):
            raise ValueError("non-finite entries")

    assert outcome(lambda: _require_positive(x, "d")) == outcome(old_positive)
    assert outcome(lambda: _require_finite(x)) == outcome(old_finite)


def test_reconstruct_scalar_equals_col_acc():
    # 1 x 1: row == col, so sqrt(sum) / sqrt(row) is exactly 1 and the inverse
    # root is the correctly rounded 1 / sqrt(col)
    row, col = factored_update(*zero_factors(1, 1), np.array([[2.0]]), 0.99, 1e-12)
    np.testing.assert_array_equal(factored_reconstruct(row, col), 1.0 / np.sqrt(col))


def test_reconstruct_single_rank1_update_exact():
    # with epsilon 0 the smoothed matrix stays rank 1, so the inverse root is exact
    rng = np.random.Generator(np.random.PCG64(5))
    w = rng.uniform(0.2, 1.5, size=(4, 1))
    h = rng.uniform(0.2, 1.5, size=(1, 6))
    x = w @ h  # its square, the folded matrix, has rank 1 too
    factors = factored_update(*zero_factors(4, 6), x, 0.99, 0.0)
    np.testing.assert_allclose(
        factored_reconstruct(*factors), 1.0 / np.sqrt((1 - 0.99) * (x * x)), rtol=1e-13
    )

    # constant matrices stay rank 1 even with the epsilon shift
    const = np.full((3, 2), 0.7)
    eps = 1e-3
    factors = factored_update(*zero_factors(3, 2), const, 0.9, eps)
    np.testing.assert_allclose(
        factored_reconstruct(*factors), 1.0 / np.sqrt(0.1 * (const * const + eps)), rtol=1e-13
    )


def test_reconstruct_hand_case():
    # the surrogate is [[1.2, 1.8], [2.8, 4.2]]; the reconstruction is its inverse root
    np.testing.assert_allclose(
        factored_reconstruct(np.array([[3.0], [7.0]]), np.array([[4.0, 6.0]])),
        1.0 / np.sqrt(np.array([[1.2, 1.8], [2.8, 4.2]])),
        rtol=1e-14,
    )


def test_reconstruct_refuses_unupdated_state():
    # zero factors, as make_state allocates them, fail the positivity check
    with pytest.raises(ValueError, match="strictly positive"):
        factored_reconstruct(*zero_factors(2, 2))


# Special values planted in one entry of the row or the column factor of a
# positive 3 x 1, 1 x 2 pair; 1e-310 is subnormal and 5e-324 the smallest one.
RECONSTRUCT_SPECIALS = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e-310, 5e-324)
RECONSTRUCT_CASES = [
    (side, value) for side in ("row", "col") for value in RECONSTRUCT_SPECIALS
] + [("row", "sum-overflows")]


def reconstruct_inputs(side, value):
    row, col = np.array([[0.5], [1.5], [2.0]]), np.array([[1.0, 3.0]])
    if value == "sum-overflows":
        row[:] = 1e308
    elif side == "row":
        row[1, 0] = value
    else:
        col[0, 1] = value
    return row, col


def surrogate_check_rejects(row, col):
    """The check on the formed surrogate that the factor checks replace:
    strictly positive row entries (NaN skipped), a positive total, and a
    surrogate row_i * col_j / sum(row) whose NaN-propagating min is positive."""
    with np.errstate(invalid="ignore", over="ignore"):
        if np.any(row <= 0.0) or not float(row.sum()) > 0.0:
            return True
        surrogate = (row @ col) / float(row.sum())
    return not np.minimum.reduce(surrogate, axis=None) > 0.0


@pytest.mark.parametrize(
    "side,value", RECONSTRUCT_CASES, ids=[f"{s}-{v}" for s, v in RECONSTRUCT_CASES]
)
def test_reconstruct_rejects_what_the_surrogate_check_rejected(side, value):
    # the checks moved from the n x m surrogate to its factors and the scalars
    # built from them; the answer is the same in every case but one: a
    # product row_i * col_j that underflows to 0 was rejected, and its inverse
    # root is now finite (here the smallest subnormal, 5e-324, in either factor)
    row, col = reconstruct_inputs(side, value)
    try:
        with np.errstate(over="ignore"):  # the sum-overflows case warns in the sum
            inv_root = factored_reconstruct(row, col)
        rejected = False
    except ValueError as exc:
        assert "factored_reconstruct" in str(exc)
        rejected = True
    if value == 5e-324:
        assert surrogate_check_rejects(row, col) and not rejected
    else:
        assert rejected == surrogate_check_rejects(row, col)
    if not rejected:
        # every entry finite and nonnegative: an infinite col_j gives 1 / sqrt(inf) = 0,
        # as g / sqrt(inf) did
        assert np.all(np.isfinite(inv_root)) and np.all(inv_root >= 0.0)


def test_smoothing_parameter_validation():
    # decay and epsilon come from the config, which checks them when it is built
    for decay in (0.0, 1.0, -0.1, 1.5):
        for field in ("beta2", "beta3"):
            with pytest.raises(InvalidConfig) as err:
                make_state("came", (2, 2), OptimizerConfig(**{field: decay}))
            assert err.value.field == field
    for field in ("eps1", "eps2"):
        with pytest.raises(InvalidConfig) as err:
            make_state("came", (2,), OptimizerConfig(**{field: -1e-3}))
        assert err.value.field == field


# ---------------------------------------------------------------------------
# full accumulator
# ---------------------------------------------------------------------------


def test_full_update_by_hand():
    acc = full_update(np.zeros((2, 1)), np.array([[1.0], [4.0]]), 0.9, 0.0)
    np.testing.assert_allclose(acc, np.array([[0.1], [0.4]]), rtol=1e-14)


def test_full_epsilon_floor():
    assert np.all(full_update(np.zeros((3, 1)), np.zeros((3, 1)), 0.9, 1e-16) > 0)


def test_full_update_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        full_update(np.zeros((2, 1)), np.zeros((3, 1)), 0.9, 0.0)


def test_full_matches_factored_on_scalars():
    rng = np.random.Generator(np.random.PCG64(6))
    factors = zero_factors(1, 1)
    full = np.zeros((1, 1))
    for _ in range(50):
        x = np.array([[float(rng.uniform(-2, 2))]])
        # the factored fold squares x; the full one takes the square as scratch
        factors = factored_update(*factors, x, 0.99, 1e-10)
        full = full_update(full, np.square(x), 0.99, 1e-10)
        assert abs(factors[1][0, 0] - full[0, 0]) <= 1e-15
        inv_root = factored_reconstruct(*factors)[0, 0]
        assert inv_root == 1.0 / math.sqrt(factors[1][0, 0])
        assert inv_root == pytest.approx(1.0 / math.sqrt(full[0, 0]), rel=1e-12)


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
    # sum(row) == sum(col) at every point of any update sequence
    rng = np.random.Generator(np.random.PCG64(8))
    row, col = zero_factors(5, 7)
    for _ in range(30):
        row, col = factored_update(row, col, rand_nonneg(rng, 5, 7), 0.95, 1e-10)
        assert row.sum() == pytest.approx(col.sum(), rel=1e-12)
        assert np.all(row >= 0) and np.all(col >= 0)


def test_reconstruction_consistency():
    rng = np.random.Generator(np.random.PCG64(9))
    row, col = zero_factors(6, 4)
    for _ in range(10):
        row, col = factored_update(row, col, rand_nonneg(rng, 6, 4), 0.9, 1e-12)
    inv_root = factored_reconstruct(row, col)
    assert np.all(inv_root > 0) and np.all(np.isfinite(inv_root))
    approx = 1.0 / np.square(inv_root)  # the surrogate, back from its inverse root
    np.testing.assert_allclose(row_sums(approx), row, rtol=1e-12)
    np.testing.assert_allclose(col_sums(approx), col, rtol=1e-12)


def test_update_is_functional_and_input_untouched():
    # the accumulators are never written; factored_update only reads x, and
    # full_update takes it as scratch holding (1 - decay) * (x + eps) on return
    row, col = zero_factors(2, 2)
    full = np.zeros((2, 2))
    snapshot = np.array([[1.0, -2.0], [3.0, 4.0]])
    x = snapshot.copy()
    new_row, new_col = factored_update(row, col, x, 0.9, 0.5)
    assert x.tobytes() == snapshot.tobytes()
    x = np.abs(snapshot)
    new_full = full_update(full, x, 0.9, 0.5)
    np.testing.assert_array_equal(x, (1.0 - 0.9) * (np.abs(snapshot) + 0.5))
    assert new_row is not row and new_col is not col and new_full is not full
    assert np.all(row == 0.0) and np.all(col == 0.0) and np.all(full == 0.0)


def test_scale_of_one_is_bitwise_the_unscaled_call():
    rng = np.random.Generator(np.random.PCG64(11))
    row, col = factored_update(*zero_factors(5, 7), rand_nonneg(rng, 5, 7), 0.9, 1e-12)
    x = rng.standard_normal((5, 7))
    for got, want in zip(
        factored_update(row, col, x, 0.99, 1e-16, 1.0), factored_update(row, col, x, 0.99, 1e-16)
    ):
        assert got.tobytes() == want.tobytes()
    assert factored_reconstruct(row, col, 1.0).tobytes() == factored_reconstruct(row, col).tobytes()


def test_scale_folds_the_squares_of_the_scaled_input():
    # scale s folds s^2 times the sums of x^2: bitwise that written by hand, and
    # within 4 ulp of folding the squares of the rounded s x; lr in the inverse
    # root's scalar is within 4 ulp of multiplying the inverse root by lr
    rng = np.random.Generator(np.random.PCG64(12))
    for n, m in ((5, 7), (1, 9), (33, 2)):
        row, col = factored_update(*zero_factors(n, m), rand_nonneg(rng, n, m), 0.9, 1e-12)
        x = rng.standard_normal((n, m)) * rng.uniform(0.01, 10.0)
        scaled = factored_update(row, col, x, 0.999, 1e-16, scale=0.9)
        row_sq = np.einsum("ij,ij->i", x, x).reshape(n, 1) * (0.9 * 0.9) + m * 1e-16
        col_sq = np.einsum("ij,ij->j", x, x).reshape(1, m) * (0.9 * 0.9) + n * 1e-16
        by_hand = (0.999 * row + (1.0 - 0.999) * row_sq, 0.999 * col + (1.0 - 0.999) * col_sq)
        unscaled = factored_update(row, col, 0.9 * x, 0.999, 1e-16)
        for got, hand, want in zip(scaled, by_hand, unscaled):
            assert got.tobytes() == hand.tobytes()
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        np.testing.assert_array_max_ulp(
            factored_reconstruct(*scaled, 1e-3), 1e-3 * factored_reconstruct(*scaled), maxulp=4
        )


def test_reconstruct_rejects_a_scale_that_overflows():
    # the overflow check of the largest inverse-root entry includes the scale
    row, col = np.array([[1.0], [4.0]]), np.array([[1e-20, 3.0]])
    assert np.all(np.isfinite(factored_reconstruct(row, col, 1e290)))
    for scale in (1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            factored_reconstruct(row, col, scale)


def test_out_receives_the_result_bitwise():
    rng = np.random.Generator(np.random.PCG64(10))
    row, col = factored_update(*zero_factors(5, 7), rand_nonneg(rng, 5, 7), 0.9, 1e-12)
    out = np.empty((5, 7))
    assert factored_reconstruct(row, col, out=out) is out
    np.testing.assert_array_equal(out, factored_reconstruct(row, col))
    acc = rand_nonneg(rng, 5, 7)
    x = rand_nonneg(rng, 5, 7)
    out = np.empty((5, 7))
    assert full_update(acc, x.copy(), 0.9, 1e-3, out=out) is out
    np.testing.assert_array_equal(out, full_update(acc, x.copy(), 0.9, 1e-3))
