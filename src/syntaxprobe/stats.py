"""Binomial intervals and tests, logistic regression by IRLS, Pearson r.

The accuracy analyses need exactly four tools: a Wilson score interval for
per-bucket accuracies, an exact one-sided binomial test against chance,
logistic fits of accuracy against exposure (optionally with cluster-robust
standard errors standing in for by-item random intercepts), and a Pearson
correlation test.  Nothing here aims to be a general stats library.

The two special functions these need, the logistic sigmoid and the
Student t tail, are implemented here on numpy and the standard library; the
Wilson interval's normal quantile is the constant ``_Z95``.  numpy is
imported inside the functions that use it, so importing this module (and
the CLI stages that never fit) does not load it.  ``expit`` returns the same
bits as the usual C implementation (``1/(1+exp(-x))`` with libm ``exp``), so
written curves do not move by an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InputError, RankError, SeparationError

if TYPE_CHECKING:
    import numpy as np

SIGNIFICANCE_TIERS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


def stars(p: float) -> str:
    for cutoff, mark in SIGNIFICANCE_TIERS:
        if p < cutoff:
            return mark
    return ""


# ---------------------------------------------------------------------------
# Special functions


def _expit1(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def expit(x) -> np.ndarray:
    """Logistic sigmoid, element-wise.

    Evaluated one element at a time with libm ``exp``: numpy's vectorised
    ``exp`` differs from it in the last bit on a few percent of inputs.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_expit1, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), modified Lentz evaluation.

    Called on the side of the mean where it converges, in O(sqrt(max(a, b)))
    terms."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_001):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b); ``y`` is 1 - x, passed in
    unrounded so the tails keep their relative accuracy."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if a + b < 171.0:  # math.gamma is accurate to a few ulps below overflow
        log_norm = math.log(math.gamma(a + b) / (math.gamma(a) * math.gamma(b)))
    else:
        log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = math.exp(log_norm + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def t_sf(t: float, df: float) -> float:
    """Student t survival function P(T > t) with ``df`` degrees of freedom.

    Relative error is ~2e-13 up to df = 340; beyond, the lgamma difference
    cancels, and at df = 1e7 the error is ~2e-9."""
    tt = t * t
    tail = 0.5 * _betainc(df / 2.0, 0.5, df / (df + tt), tt / (df + tt))
    return tail if t >= 0 else 1.0 - tail


# ---------------------------------------------------------------------------
# Binomial


#: The two-sided 95% normal quantile Phi^-1(0.975) as Cephes ``ndtri`` and
#: scipy give it (0x1.f5c0331eeff84p+0, one ulp below the nearest double);
#: another ulp would move the written intervals.
_Z95 = 1.959963984540054


def wilson_ci(k: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n <= 0:
        raise InputError("wilson_ci requires n > 0")
    if not 0 <= k <= n:
        raise InputError(f"k={k} outside [0, {n}]")
    z = _Z95
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - margin), min(1.0, center + margin))


def binom_test_above(k: int, n: int) -> float:
    """Exact one-sided tail P(X >= k) for X ~ Binomial(n, 1/2), the test
    against chance.  The tail is summed in integer arithmetic, from a
    running binomial coefficient, and divided by ``2 ** n`` with one
    correct rounding, so P(X >= k) + P(X >= n - k + 1) = 1 holds exactly."""
    if n <= 0:
        raise InputError("binom_test_above requires n > 0")
    if not 0 <= k <= n:
        raise InputError(f"k={k} outside [0, {n}]")
    numer, c = 0, 1
    for i in range(n - k + 1):  # c = comb(n, i) = comb(n, n - i)
        numer += c
        c = c * (n - i) // (i + 1)
    return numer / 2 ** n


@dataclass(frozen=True)
class BinomialSummary:
    k: int
    n: int
    accuracy: float
    ci_lo: float
    ci_hi: float
    p_above_chance: float

    @classmethod
    def from_counts(cls, k: int, n: int):
        """Accuracy, Wilson 95% interval and the one-sided test against chance."""
        lo, hi = wilson_ci(k, n)
        return cls(k, n, k / n, lo, hi, binom_test_above(k, n))


# ---------------------------------------------------------------------------
# Logistic regression (IRLS)


@dataclass
class LogisticFit:
    labels: list[str]
    coef: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    converged: bool
    cov: np.ndarray  # covariance of coef (CR1 when clustered)
    cluster_robust: bool = False


def _loglik(y, eta):
    import numpy as np

    # log L = sum y*eta - log(1 + e^eta), stable via logaddexp
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def fit_logistic(
    X,
    y,
    labels: list[str] | None = None,
    clusters=None,
) -> LogisticFit:
    """Maximum-likelihood logistic regression via iteratively reweighted
    least squares (Newton steps on the log-likelihood).

    An intercept column is prepended to ``X``; ``labels`` name the columns
    of ``X`` (default ``x1``, ``x2``, ...) and the fit's labels start with
    ``intercept``.

    ``clusters`` switches the standard errors to the CR1 cluster-robust
    sandwich, the stand-in for by-item random intercepts in the exposure
    models.  Complete separation (a coefficient running away while the
    likelihood still improves) and singular information matrices raise.
    """
    import numpy as np

    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise InputError("X and y disagree on the number of rows")
    if not np.all((y == 0) | (y == 1)):
        raise InputError("outcomes must be binary 0/1")
    if np.all(y == y[0]):
        # Constant outcomes have no finite MLE: degenerate complete separation.
        raise SeparationError("all outcomes identical; intercept diverges")
    X = np.hstack([np.ones((X.shape[0], 1)), X])
    if labels is None:
        labels = [f"x{j}" for j in range(1, X.shape[1])]
    labels = ["intercept"] + list(labels)
    if len(labels) != X.shape[1]:
        raise InputError("labels do not match design columns")

    beta = np.zeros(X.shape[1])
    ll_prev = _loglik(y, X @ beta)
    for _ in range(100):
        eta = X @ beta
        p = expit(eta)
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
        ll = _loglik(y, X @ beta)
        if np.max(np.abs(beta)) > 30.0 and ll > ll_prev + 1e-12:
            raise SeparationError(
                "complete separation detected (coefficient magnitude > 30 "
                "with improving likelihood)"
            )
        ll_prev = ll

    eta = X @ beta
    p = expit(eta)
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
    return LogisticFit(list(labels), beta, se, zval, pval, converged, cov,
                       cluster_robust)


# ---------------------------------------------------------------------------
# Correlation


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int
    t: float
    p: float


def pearson_test(x, y) -> CorrelationResult:
    """Pearson r with the t-test two-sided p-value (n - 2 df)."""
    import numpy as np

    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise InputError("x and y must have equal length")
    n = x.shape[0]
    if n < 3:
        raise InputError("pearson_test requires n >= 3")
    dx, dy = x - x.mean(), y - y.mean()
    sxx, syy = float(dx @ dx), float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise InputError("correlation undefined for constant input")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return CorrelationResult(r, n, math.inf, 0.0)
    tval = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * t_sf(abs(tval), n - 2)
    return CorrelationResult(r, n, tval, min(1.0, p))


# ---------------------------------------------------------------------------
# Accuracy-vs-exposure curves


@dataclass
class CurveFit:
    """Logistic accuracy curve over log10 exposure, with sample points.

    ``samples`` rows are (log10_exposure, p_hat, band_lo, band_hi) where the
    band is +/- one standard error on the linear predictor, mapped through
    the logistic.  ``separated`` flags the flat-curve fallback used when the
    outcomes are all identical (complete separation).
    """

    fit: LogisticFit | None
    separated: bool
    samples: np.ndarray
    mean_accuracy: float


def accuracy_curve(points, n_samples: int = 100, clusters=None) -> CurveFit:
    """Fit accuracy ~ log10(exposure count) on raw (count, correct) pairs.

    With ``clusters`` the bands use the cluster-robust covariance.
    """
    import numpy as np

    pts = [(float(c), int(o)) for c, o in points]
    if not pts:
        raise InputError("no points")
    counts = np.array([c for c, _ in pts])
    outcomes = np.array([o for _, o in pts])
    if np.any(counts <= 0):
        raise InputError("exposure counts must be positive")
    xs = np.log10(counts)
    if np.unique(xs).size < 2:
        raise InputError("need >= 2 distinct exposure values")
    grid = np.linspace(xs.min(), xs.max(), n_samples)
    mean_acc = float(outcomes.mean())
    try:
        fit = fit_logistic(xs[:, None], outcomes, labels=["log10_exposure"],
                           clusters=clusters)
    except SeparationError:
        eps = 1.0 / (2.0 * len(pts))
        flat = min(1.0 - eps, max(eps, mean_acc))
        band = np.full_like(grid, flat)
        samples = np.column_stack([grid, band, band, band])
        return CurveFit(None, True, samples, mean_acc)
    eta = fit.coef[0] + fit.coef[1] * grid
    design = np.column_stack([np.ones_like(grid), grid])
    se_eta = np.sqrt(np.einsum("ij,jk,ik->i", design, fit.cov, design))
    samples = np.column_stack([grid, expit(eta), expit(eta - se_eta),
                               expit(eta + se_eta)])
    return CurveFit(fit, False, samples, mean_acc)
