import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, strategies as st

from syntaxprobe import stats
from syntaxprobe.errors import InputError, RankError, SeparationError
from syntaxprobe.stats import (
    _Z95,
    accuracy_curve,
    binom_test_above,
    fit_logistic,
    wilson_ci,
)


def sigmoid(x):
    """Logistic sigmoid for generating test data, independent of stats."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_z_bits():
    assert _Z95.hex() == "0x1.f5c0331eeff84p+0"
    assert _Z95 == pytest.approx(NormalDist().inv_cdf(0.975), abs=1e-15)


def wilson_by_root_finding(k, n, level=0.95):
    """Independent oracle: solve the score equation by bisection.

    The interval endpoints are the p where (phat - p)^2 = z^2 p(1-p)/n.
    """
    z = NormalDist().inv_cdf(0.5 + level / 2)
    phat = k / n

    def g(p):
        return (phat - p) ** 2 - z * z * p * (1 - p) / n

    def bisect(lo, hi):
        for _ in range(200):
            mid = (lo + hi) / 2
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    center = (phat + z * z / (2 * n)) / (1 + z * z / n)
    lo = bisect(0.0, center) if g(0.0) > 0 else 0.0
    hi = bisect(center, 1.0) if g(1.0) > 0 else 1.0
    return lo, hi


def test_wilson_boundary():
    lo, hi = wilson_ci(0, 10)
    assert lo == 0.0 and hi > 0.0


def test_wilson_symmetry():
    lo, hi = wilson_ci(5, 10)
    assert lo == pytest.approx(1 - hi, abs=1e-12)


def test_wilson_against_root_finding_oracle():
    for k, n in ((8, 10), (1, 7), (13, 40), (0, 5), (5, 5)):
        got = wilson_ci(k, n)
        want = wilson_by_root_finding(k, n)
        assert got[0] == pytest.approx(want[0], abs=1e-6)
        assert got[1] == pytest.approx(want[1], abs=1e-6)
    assert wilson_ci(8, 10)[0] == pytest.approx(0.490, abs=0.002)
    assert wilson_ci(8, 10)[1] == pytest.approx(0.943, abs=0.002)


def test_wilson_contains_point_estimate_and_shrinks():
    for k, n in ((3, 7), (10, 100), (0, 4), (9, 9)):
        lo, hi = wilson_ci(k, n)
        assert lo <= k / n <= hi
    w_small = wilson_ci(8, 10)
    w_big = wilson_ci(80, 100)
    assert (w_big[1] - w_big[0]) < (w_small[1] - w_small[0])


def test_wilson_input_validation():
    with pytest.raises(InputError):
        wilson_ci(1, 0)
    with pytest.raises(InputError):
        wilson_ci(5, 4)


# ---------------------------------------------------------------------------
# Exact binomial test


def test_binom_single_term():
    assert binom_test_above(10, 10) == 2.0 ** -10


def test_binom_brute_force_oracle():
    # Sum pmf terms directly for k=5, n=10.
    brute = sum(math.comb(10, i) for i in range(5, 11)) / 2 ** 10
    assert binom_test_above(5, 10) == pytest.approx(brute, abs=1e-15)
    assert binom_test_above(5, 10) == pytest.approx(0.623, abs=1e-3)


def test_binom_whole_distribution():
    assert binom_test_above(0, 10) == 1.0


def _binom_tail_reference(k, n):
    """The former formula: one ``comb`` per term, then an exact fraction."""
    return float(Fraction(sum(math.comb(n, i) for i in range(k, n + 1)), 2 ** n))


def test_binom_bits_match_comb_fraction_formula():
    # Every k <= n <= 400, the tail built once per n from its top term down.
    for n in range(1, 401):
        tail = 0
        for k in range(n, -1, -1):
            tail += math.comb(n, k)
            assert binom_test_above(k, n).hex() == float(Fraction(tail, 2 ** n)).hex()
    # Far tails that round into the subnormal range or to zero.
    for n in (1074, 1080, 1100, 12800):
        for k in range(n - 3, n + 1):
            assert binom_test_above(k, n).hex() == _binom_tail_reference(k, n).hex()
    # Around the middle of n = 12800, where the tail has ~6400 terms: the
    # terms above n/2 sum to half of 2^n less the middle term.
    n, h = 12800, 6400
    above = (2 ** n - math.comb(n, h)) // 2  # sum of comb(n, i) for i > h
    tail = above
    for k in range(h, h - 4, -1):
        tail += math.comb(n, k)
        assert binom_test_above(k, n).hex() == float(Fraction(tail, 2 ** n)).hex()
    tail = above
    for k in range(h + 1, h + 5):
        assert binom_test_above(k, n).hex() == float(Fraction(tail, 2 ** n)).hex()
        tail -= math.comb(n, k)


@given(st.integers(1, 50), st.data())
def test_binom_complementarity_exact(n, data):
    # Under p = 1/2, P(X <= k - 1) = P(X >= n - k + 1) by symmetry.
    k = data.draw(st.integers(1, n))
    assert binom_test_above(k, n) + binom_test_above(n - k + 1, n) == 1.0


# ---------------------------------------------------------------------------
# Logistic regression


def test_intercept_only_closed_form():
    y = np.array([1] * 75 + [0] * 25)
    fit = fit_logistic(np.zeros((100, 0)), y)
    assert fit.coef[0] == pytest.approx(math.log(3), abs=1e-6)
    assert fit.converged


def test_two_by_two_slope_is_log_odds_ratio():
    X = np.array([[0.0]] * 20 + [[1.0]] * 20)
    y = np.array([1] * 10 + [0] * 10 + [1] * 15 + [0] * 5)
    fit = fit_logistic(X, y, labels=["treated"])
    assert fit.labels == ["intercept", "treated"]
    assert fit.coef[1] == pytest.approx(math.log(3), abs=1e-6)


def test_separation_raises():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    with pytest.raises(SeparationError):
        fit_logistic(X, np.array([0, 0, 1, 1]))
    with pytest.raises(SeparationError):
        fit_logistic(X, np.array([1, 1, 1, 1]))


def test_singular_design_raises():
    # An all-ones column duplicates the intercept.
    X = np.ones((40, 1))
    y = np.array([0, 1] * 20)
    with pytest.raises(RankError):
        fit_logistic(X, y)


def test_score_equations_at_convergence():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 2))
    p = sigmoid(0.3 + X @ np.array([0.8, -0.4]))
    y = (rng.random(500) < p).astype(int)
    fit = fit_logistic(X, y)
    design = np.hstack([np.ones((500, 1)), X])
    score = design.T @ (y - sigmoid(design @ fit.coef))
    assert np.max(np.abs(score)) < 1e-8
    assert fit.converged


def test_rescaling_predictor_rescales_coefficient():
    rng = np.random.default_rng(11)
    x = rng.normal(size=400)
    y = (rng.random(400) < sigmoid(0.5 + 1.2 * x)).astype(int)
    fit1 = fit_logistic(x[:, None], y)
    fit10 = fit_logistic((10 * x)[:, None], y)
    assert fit10.coef[1] == pytest.approx(fit1.coef[1] / 10, abs=1e-7)
    p1 = sigmoid(fit1.coef[0] + fit1.coef[1] * x)
    p10 = sigmoid(fit10.coef[0] + fit10.coef[1] * 10 * x)
    assert np.max(np.abs(p1 - p10)) < 1e-8


def test_cluster_robust_changes_se_only():
    rng = np.random.default_rng(4)
    x = rng.normal(size=200)
    y = (rng.random(200) < sigmoid(x)).astype(int)
    clusters = [i // 10 for i in range(200)]
    plain = fit_logistic(x[:, None], y)
    robust = fit_logistic(x[:, None], y, clusters=clusters)
    assert robust.cluster_robust
    assert np.allclose(plain.coef, robust.coef)
    assert not np.allclose(plain.se, robust.se)


def test_cov_diagonal_gives_se():
    rng = np.random.default_rng(4)
    x = rng.normal(size=200)
    y = (rng.random(200) < sigmoid(x)).astype(int)
    for clusters in (None, [i // 10 for i in range(200)]):
        fit = fit_logistic(x[:, None], y, clusters=clusters)
        cov = np.asarray(fit.cov)
        assert cov.shape == (2, 2)
        assert np.allclose(cov, cov.T)
        assert np.array_equal(np.sqrt(np.diag(cov)), np.asarray(fit.se))


# ---------------------------------------------------------------------------
# Accuracy curves


def _newton_logistic_oracle(X, y, iterations=60):
    """Plain Newton iteration, written independently of fit_logistic."""
    X = np.hstack([np.ones((len(y), 1)), X])
    beta = np.zeros(X.shape[1])
    for _ in range(iterations):
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - p)
        hess = (X * (p * (1 - p))[:, None]).T @ X
        beta = beta + np.linalg.solve(hess, grad)
    return beta


def test_curve_recovers_known_coefficients():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=2000)
    y = (rng.random(2000) < sigmoid(-1.0 + 2.0 * x)).astype(int)
    fit = fit_logistic(x[:, None], y)
    oracle = _newton_logistic_oracle(x[:, None], y)
    assert np.allclose(fit.coef, oracle, atol=1e-6)
    assert fit.coef[0] == pytest.approx(-1.0, abs=0.15)
    assert fit.coef[1] == pytest.approx(2.0, abs=0.15)


def test_accuracy_curve_samples_and_bands():
    rng = np.random.default_rng(9)
    counts = rng.choice([2, 3, 5, 10, 20, 50, 100], size=400)
    p = sigmoid(-0.5 + 1.0 * np.log10(counts))
    correct = (rng.random(400) < p).astype(int)
    curve = accuracy_curve(list(zip(counts, correct)))
    samples = np.asarray(curve.samples)
    assert not curve.separated
    assert samples.shape == (100, 4)
    assert np.all(samples[:, 2] <= samples[:, 1])
    assert np.all(samples[:, 1] <= samples[:, 3])


def test_accuracy_curve_all_correct_falls_back_flat():
    curve = accuracy_curve([(2, 1), (10, 1), (100, 1)])
    assert curve.separated
    assert curve.fit is None
    samples = np.asarray(curve.samples)
    assert np.allclose(samples[:, 1], samples[0, 1])


def test_accuracy_curve_needs_two_exposures():
    with pytest.raises(InputError):
        accuracy_curve([(5, 1), (5, 0)])


def test_stars():
    assert stats.stars(0.0001) == "***"
    assert stats.stars(0.005) == "**"
    assert stats.stars(0.04) == "*"
    assert stats.stars(0.2) == ""
