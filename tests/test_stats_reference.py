"""The standard-library statistics against their former numpy implementation.

``_reference_fit_logistic`` and ``_reference_accuracy_curve`` are the numpy
code ``stats`` used before its fits moved to sufficient statistics and
``math.fsum``.  They stay here as oracles: on random designs, repeated rows
or not, clustered or not, the fit must give the same coefficients, standard
errors, covariance, z and p to 1e-9 relative, and raise SeparationError and
RankError in the same cases; the flat curve a separated fit falls back to
must be the same floats.

One line differs from the former code: the reference curve takes its logs
with ``math.log10``, as ``stats`` and ``analysis`` do.  numpy's SIMD
``log10`` differs from libm's in the last bit on about 2% of integer counts
on some builds, so the grid the old code drew depended on the machine.
"""

import decimal
import math

import numpy as np
import pytest

from syntaxprobe import stats
from syntaxprobe.errors import InputError, RankError, SeparationError


def _reference_expit(x):
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(stats.expit, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _exact_expit(x: float) -> float:
    """1 / (1 + e^-x) to 50 significant digits, rounded once to a float."""
    ctx = decimal.Context(prec=50)
    e = ctx.exp(decimal.Decimal(x).copy_negate())
    return float(ctx.divide(1, ctx.add(1, e)))


def _reference_loglik(y, eta):
    # log L = sum y*eta - log(1 + e^eta), stable via logaddexp
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def _reference_fit_logistic(X, y, labels=None, clusters=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise InputError("X and y disagree on the number of rows")
    if not np.all((y == 0) | (y == 1)):
        raise InputError("outcomes must be binary 0/1")
    if np.all(y == y[0]):
        raise SeparationError("all outcomes identical; intercept diverges")
    X = np.hstack([np.ones((X.shape[0], 1)), X])
    if labels is None:
        labels = [f"x{j}" for j in range(1, X.shape[1])]
    labels = ["intercept"] + list(labels)
    if len(labels) != X.shape[1]:
        raise InputError("labels do not match design columns")

    beta = np.zeros(X.shape[1])
    ll_prev = _reference_loglik(y, X @ beta)
    for _ in range(100):
        eta = X @ beta
        p = _reference_expit(eta)
        w = p * (1.0 - p)
        score = X.T @ (y - p)
        if np.max(np.abs(score)) < 1e-10:
            break
        H = (X * w[:, None]).T @ X
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError as exc:
            raise RankError("singular information matrix") from exc
        beta = beta + step
        ll = _reference_loglik(y, X @ beta)
        if np.max(np.abs(beta)) > 30.0 and ll > ll_prev + 1e-12:
            raise SeparationError("complete separation detected")
        ll_prev = ll

    eta = X @ beta
    p = _reference_expit(eta)
    w = p * (1.0 - p)
    score = X.T @ (y - p)
    converged = bool(np.max(np.abs(score)) < 1e-8)
    H = (X * w[:, None]).T @ X
    try:
        bread = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise RankError("singular information matrix") from exc

    cluster_robust = clusters is not None
    if cluster_robust:
        clusters = np.asarray(clusters)
        if clusters.shape[0] != X.shape[0]:
            raise InputError("clusters do not match design rows")
        groups = {}
        for i, c in enumerate(clusters):
            groups.setdefault(c, []).append(i)
        G = len(groups)
        if G < 2:
            raise InputError("cluster-robust errors need >= 2 clusters")
        meat = np.zeros_like(H)
        resid = y - p
        for idx in groups.values():
            s_g = X[idx].T @ resid[idx]
            meat += np.outer(s_g, s_g)
        cov = bread @ meat @ bread * (G / (G - 1))
    else:
        cov = bread
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        zval = np.where(se > 0, beta / se, np.inf)
    pval = np.array([math.erfc(abs(zi) / math.sqrt(2.0)) for zi in zval])
    return stats.LogisticFit(list(labels), beta, se, zval, pval, converged, cov,
                             cluster_robust)


def _reference_accuracy_curve(points):
    pts = [(float(c), int(o)) for c, o in points]
    if not pts:
        raise InputError("no points")
    counts = np.array([c for c, _ in pts])
    outcomes = np.array([o for _, o in pts])
    if np.any(counts <= 0):
        raise InputError("exposure counts must be positive")
    xs = np.array([math.log10(c) for c in counts.tolist()])  # was np.log10(counts)
    if np.unique(xs).size < 2:
        raise InputError("need >= 2 distinct exposure values")
    grid = np.linspace(xs.min(), xs.max(), stats.CURVE_SAMPLES)
    mean_acc = float(outcomes.mean())
    try:
        fit = _reference_fit_logistic(xs[:, None], outcomes, labels=["log10_exposure"])
    except SeparationError:
        eps = 1.0 / (2.0 * len(pts))
        flat = min(1.0 - eps, max(eps, mean_acc))
        band = np.full_like(grid, flat)
        samples = np.column_stack([grid, band, band, band])
        return stats.CurveFit(None, True, samples, mean_acc)
    eta = fit.coef[0] + fit.coef[1] * grid
    design = np.column_stack([np.ones_like(grid), grid])
    se_eta = np.sqrt(np.einsum("ij,jk,ik->i", design, fit.cov, design))
    samples = np.column_stack([grid, _reference_expit(eta), _reference_expit(eta - se_eta),
                               _reference_expit(eta + se_eta)])
    return stats.CurveFit(fit, False, samples, mean_acc)


# ---------------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """The function's result, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (InputError, RankError, SeparationError) as exc:
        return type(exc)


def _close(got, want):
    got, want = np.asarray(got, dtype=float).ravel(), np.asarray(want, dtype=float).ravel()
    assert got.shape == want.shape
    for a, b in zip(got.tolist(), want.tolist()):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0), (a, b)


def _assert_same_fit(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.labels == want.labels
    assert got.converged == want.converged
    assert got.cluster_robust == want.cluster_robust
    for field in ("coef", "se", "cov", "z", "p"):
        _close(getattr(got, field), getattr(want, field))


def _random_design(rng):
    """(X, y, clusters) with 0-3 columns whose distinct rows have full rank.

    Some designs repeat a few distinct rows (small integers or normals);
    others have a row per observation.  Rank deficiency is tested apart, on
    designs where it is exact: on an inexactly singular information matrix
    both implementations act on rounding noise."""
    k = int(rng.integers(0, 4))
    n = int(rng.integers(8, 300))
    kind = int(rng.integers(0, 3))
    while True:
        if kind == 2:
            X = rng.normal(size=(n, k))
        else:
            m = int(rng.integers(k + 1, k + 12))
            base = (rng.integers(-3, 4, size=(m, k)).astype(float) if kind == 0
                    else rng.normal(size=(m, k)))
            X = base[rng.integers(0, m, size=n)]
        distinct = np.hstack([np.ones((n, 1)), X])
        if np.linalg.matrix_rank(distinct) == k + 1 and np.linalg.cond(distinct) < 1e6:
            break
    beta = rng.normal(scale=0.8, size=k + 1)
    p = 1.0 / (1.0 + np.exp(-(beta[0] + X @ beta[1:])))
    y = (rng.random(n) < p).astype(int)
    clusters = None
    if rng.random() < 0.5:
        clusters = rng.integers(0, int(rng.integers(2, 40)), size=n).tolist()
    return X, y, clusters


def _fitted(X, coef):
    """The fitted probability of each row of X."""
    design = np.hstack([np.ones((len(X), 1)), np.asarray(X, dtype=float)])
    return 1.0 / (1.0 + np.exp(-(design @ np.asarray(coef, dtype=float))))


def test_fit_matches_reference_on_random_designs():
    # A quasi-separated design (some rows' outcomes all alike and split off
    # by a hyperplane) has no MLE: the coefficients run off until the score
    # falls below the tolerance, with fitted probabilities within 1e-11 of
    # 0 or 1, and where they stop is rounding noise.  There only the fitted
    # probabilities are determined, and they must agree.
    outcomes = {"fit": 0, "quasi-separated": 0, SeparationError: 0}
    for seed in range(400):
        X, y, clusters = _random_design(np.random.default_rng(seed))
        got = _outcome(stats.fit_logistic, X.tolist(), y.tolist(), clusters=clusters)
        want = _outcome(_reference_fit_logistic, X, y, clusters=clusters)
        if isinstance(want, type):
            assert got is want, seed
            outcomes[want] += 1
            continue
        fitted = _fitted(X, want.coef)
        if np.min(np.minimum(fitted, 1.0 - fitted)) < 1e-8:
            assert not isinstance(got, type) and got.converged == want.converged, seed
            assert np.max(np.abs(_fitted(X, got.coef) - fitted)) < 1e-9, seed
            outcomes["quasi-separated"] += 1
            continue
        _assert_same_fit(got, want)
        outcomes["fit"] += 1
    assert outcomes["fit"] > 300 and outcomes["quasi-separated"] > 5, outcomes
    assert outcomes[SeparationError] > 2, outcomes


def test_fit_matches_reference_on_separation_and_rank():
    rng = np.random.default_rng(0)
    x = rng.normal(size=60)
    designs = [
        # Complete separation along a column, and constant outcomes.
        (x[:, None], (x > 0.1).astype(int)),
        (np.zeros((10, 0)), np.ones(10, dtype=int)),
        (np.ones((10, 1)), np.zeros(10, dtype=int)),
        # Exactly singular: a column of ones, of zeros, a repeated column.
        (np.ones((40, 1)), np.array([0, 1] * 20)),
        (np.column_stack([x, np.zeros(60)]), (rng.random(60) < 0.5).astype(int)),
        (np.column_stack([x, x]), (rng.random(60) < 0.5).astype(int)),
        (np.column_stack([x, 2.0 * x, x]), (rng.random(60) < 0.5).astype(int)),
    ]
    raised = []
    for X, y in designs:
        for clusters in (None, [i % 7 for i in range(len(y))]):
            got = _outcome(stats.fit_logistic, X.tolist(), y.tolist(), clusters=clusters)
            want = _outcome(_reference_fit_logistic, X, y, clusters=clusters)
            _assert_same_fit(got, want)
            raised.append(want)
    assert raised == [SeparationError] * 6 + [RankError] * 8


def test_curve_matches_reference():
    flat = fitted = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 200))
        counts = rng.integers(1, 120, size=n)
        if seed % 4 == 0:
            correct = np.full(n, seed % 8 // 4)  # all 0 or all 1: the flat fallback
        else:
            p = 1.0 / (1.0 + np.exp(-(rng.normal() + rng.normal() * np.log10(counts))))
            correct = (rng.random(n) < p).astype(int)
        points = list(zip(counts.tolist(), correct.tolist()))
        got = _outcome(stats.accuracy_curve, points)
        want = _outcome(_reference_accuracy_curve, points)
        if isinstance(want, type):
            assert got is want
            continue
        assert got.separated == want.separated
        assert got.mean_accuracy == want.mean_accuracy
        if want.separated:
            assert got.fit is None
            assert got.samples == [tuple(row) for row in want.samples.tolist()]
            flat += 1
        else:
            _assert_same_fit(got.fit, want.fit)
            _close(got.samples, want.samples)
            fitted += 1
    assert flat > 40 and fitted > 100, (flat, fitted)


def test_solve_matches_numpy():
    # Information matrices are symmetric, but the solver pivots like LAPACK
    # on any matrix: a zero leading entry swaps rows, a singular one raises.
    rng = np.random.default_rng(6)
    for _ in range(500):
        k = int(rng.integers(2, 6))
        A = rng.normal(size=(k, k))
        A[0, 0] = 0.0
        B = rng.normal(size=(k, int(rng.integers(1, 4))))
        got = np.asarray(stats._solve(A.tolist(), B.tolist()))
        want = np.linalg.solve(A, B)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
    assert stats._solve([[0.0, 2.0], [4.0, 0.0]], [[2.0], [8.0]]) == [[2.0], [1.0]]
    with pytest.raises(RankError):
        stats._solve([[1.0, 2.0], [2.0, 4.0]], [[1.0], [0.0]])


def test_linspace_matches_numpy_bits():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        lo, hi = sorted(rng.normal(scale=10.0 ** rng.integers(-3, 4), size=2).tolist())
        n = int(rng.integers(2, 200))
        assert stats._linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


def test_expit_matches_reference():
    rng = np.random.default_rng(8)
    # expit against the correctly rounded sigmoid: libm's exp and the two
    # roundings after it stay within 2 ulp of the exact value.
    for v in rng.normal(0.0, 20.0, size=5000).tolist():
        want = _exact_expit(v)
        assert abs(stats.expit(v) - want) <= 2 * math.ulp(want), v
    assert stats.expit(-800.0) == 0.0 and stats.expit(800.0) == 1.0


@pytest.mark.parametrize("bad, match", [
    (([[0.0], [1.0]], [0, 1, 1]), "disagree on the number of rows"),
    (([[0.0], [1.0]], [0, 2]), "binary"),
    (([[0.0], [1.0, 2.0]], [0, 1]), "differ in length"),
    (([], []), "no observations"),
])
def test_fit_rejects_malformed_input(bad, match):
    with pytest.raises(InputError, match=match):
        stats.fit_logistic(*bad)
