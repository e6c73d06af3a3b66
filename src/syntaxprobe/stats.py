"""Binomial intervals and tests, logistic regression by IRLS, accuracy curves.

The accuracy analyses need exactly three tools: a Wilson score interval for
per-bucket accuracies, an exact one-sided binomial test against chance, and
logistic fits of accuracy against exposure (optionally with cluster-robust
standard errors standing in for by-item random intercepts), which also give
the sampled accuracy curves.  Nothing here aims to be a general stats
library.

Everything is standard library.  The logistic fits run on sufficient
statistics: the design collapses to its distinct rows, each with its trials
and successes, so an IRLS iteration costs O(distinct rows x k^2) however
many observations there are.  Every sum over rows is ``math.fsum``, which
rounds once and so does not depend on the order of the rows or on the
Python version.  The one special function, the logistic sigmoid, is
implemented here; the Wilson interval's normal quantile is the constant
``_Z95``.  ``expit`` returns the same bits as the usual C implementation
(``1/(1+exp(-x))`` with libm ``exp``).
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .errors import InputError, RankError, SeparationError

SIGNIFICANCE_TIERS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


def stars(p: float) -> str:
    for cutoff, mark in SIGNIFICANCE_TIERS:
        if p < cutoff:
            return mark
    return ""


# ---------------------------------------------------------------------------
# Special functions


def expit(x: float) -> float:
    """Logistic sigmoid ``1 / (1 + e^-x)``; 0.0 where ``e^-x`` overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


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


class BinomialSummary(NamedTuple):
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


class LogisticFit(NamedTuple):
    labels: list[str]
    coef: list[float]
    se: list[float]
    z: list[float]  # nan where the se is zero (see fit_logistic)
    p: list[float]
    converged: bool
    cov: list[list[float]]  # covariance of coef (CR1 when clustered)
    cluster_robust: bool = False


def _log1pexp(v: float) -> float:
    """log(1 + e^v) without overflow."""
    if v > 0.0:
        return v + math.log1p(math.exp(-v))
    return math.log1p(math.exp(v))


def _solve(A, B) -> list[list[float]]:
    """The k x m matrix X with A X = B, by Gaussian elimination with partial
    pivoting (A is k x k; matrices are lists of rows).  A zero pivot, where
    LAPACK reports a singular matrix, raises RankError."""
    k = len(A)
    M = [[*a, *b] for a, b in zip(A, B)]
    for c in range(k):
        pivot = max(range(c, k), key=lambda r: abs(M[r][c]))
        if M[pivot][c] == 0.0:
            raise RankError("singular information matrix")
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(c + 1, k):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    X: list = [None] * k
    for c in reversed(range(k)):
        X[c] = [(M[c][k + j] - math.fsum(M[c][i] * X[i][j] for i in range(c + 1, k)))
                / M[c][c] for j in range(len(B[0]))]
    return X


def _matmul(A, B) -> list[list[float]]:
    return [[math.fsum(map(mul, a, b)) for b in zip(*B)] for a in A]


def fit_logistic(
    X,
    y,
    labels: list[str] | None = None,
    clusters=None,
) -> LogisticFit:
    """Maximum-likelihood logistic regression via iteratively reweighted
    least squares (Newton steps on the log-likelihood).

    ``X`` is a sequence of rows.  An intercept column is prepended to it;
    ``labels`` name the columns of ``X`` (default ``x1``, ``x2``, ...) and
    the fit's labels start with ``intercept``.  The fit runs on the
    design's distinct rows with their trials and successes, the binomial
    form of the same likelihood.

    ``clusters`` switches the standard errors to the CR1 cluster-robust
    sandwich, the stand-in for by-item random intercepts in the exposure
    models.  A term whose robust se is at most 1e-8 of its model-based se
    (a contrast on which every cluster's score cancels, such as two models
    that agree on every item) has no test: its z and p are nan.  Complete
    separation (a coefficient running away while the likelihood still
    improves) and singular information matrices raise.
    """
    ys = [float(v) for v in y]
    if len(X) != len(ys):
        raise InputError("X and y disagree on the number of rows")
    if not ys:
        raise InputError("no observations")
    if not all(v == 0.0 or v == 1.0 for v in ys):
        raise InputError("outcomes must be binary 0/1")
    if all(v == ys[0] for v in ys):
        # Constant outcomes have no finite MLE: degenerate complete separation.
        raise SeparationError("all outcomes identical; intercept diverges")
    rows = [tuple(map(float, row)) for row in X]
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise InputError("rows of X differ in length")
    if labels is None:
        labels = [f"x{j}" for j in range(1, width + 1)]
    labels = ["intercept", *labels]
    k = width + 1
    if len(labels) != k:
        raise InputError("labels do not match design columns")

    # Sufficient statistics: each distinct row with its trials and successes.
    index: dict = {}
    row_of = [index.setdefault(row, len(index)) for row in rows]
    design = [(1.0, *row) for row in index]
    trials = [0] * len(design)
    successes = [0] * len(design)
    for r, v in zip(row_of, ys):
        trials[r] += 1
        successes[r] += int(v)
    columns = list(zip(*design))

    def linear(beta):
        return [math.fsum(map(mul, row, beta)) for row in design]

    def loglik(eta):
        # log p = -log(1 + e^-eta) and log(1 - p) = -log(1 + e^eta)
        return -math.fsum(s * _log1pexp(-e) + (n - s) * _log1pexp(e)
                          for n, s, e in zip(trials, successes, eta))

    def irls_terms(beta):
        p = [expit(e) for e in linear(beta)]
        # s(1 - p) - (n - s)p, not s - np: near p = 1, np would round away
        # the residual that the successes leave.
        resid = [s * (1.0 - q) - (n - s) * q for n, s, q in zip(trials, successes, p)]
        w = [n * (q * (1.0 - q)) for n, q in zip(trials, p)]
        score = [math.fsum(map(mul, col, resid)) for col in columns]
        H = _matmul([list(map(mul, col, w)) for col in columns], design)
        return p, score, H

    beta = [0.0] * k
    ll_prev = loglik(linear(beta))
    for _ in range(100):
        p, score, H = irls_terms(beta)
        if max(map(abs, score)) < 1e-10:
            break
        step = _solve(H, [[s] for s in score])
        beta = [b + s for b, (s,) in zip(beta, step)]
        ll = loglik(linear(beta))
        if max(map(abs, beta)) > 30.0 and ll > ll_prev + 1e-12:
            raise SeparationError(
                "complete separation detected (coefficient magnitude > 30 "
                "with improving likelihood)"
            )
        ll_prev = ll
    else:
        p, score, H = irls_terms(beta)
    converged = max(map(abs, score)) < 1e-8
    bread = _solve(H, [[float(i == j) for j in range(k)] for i in range(k)])

    cluster_robust = clusters is not None
    if cluster_robust:
        clusters = list(clusters)
        if len(clusters) != len(rows):
            raise InputError("clusters do not match design rows")
        groups: dict = {}  # cluster -> {distinct row: [trials, successes]}
        for g, r, v in zip(clusters, row_of, ys):
            counts = groups.setdefault(g, {}).setdefault(r, [0, 0])
            counts[0] += 1
            counts[1] += int(v)
        G = len(groups)
        if G < 2:
            raise InputError("cluster-robust errors need >= 2 clusters")
        # Each cluster's score: its cells' residuals times their rows.
        cluster_scores = [
            [math.fsum(terms) for terms in zip(*(
                [x * (s * (1.0 - p[r]) - (n - s) * p[r]) for x in design[r]]
                for r, (n, s) in cells.items()))]
            for cells in groups.values()]
        meat = _matmul(list(zip(*cluster_scores)), cluster_scores)
        scale = G / (G - 1)
        cov = [[v * scale for v in row] for row in _matmul(_matmul(bread, meat), bread)]
    else:
        cov = bread
    # A robust se that is rounding noise beside the model-based one (a
    # negative variance included) gives no test; erfc(nan) is nan.
    se = [math.sqrt(max(cov[j][j], 0.0)) for j in range(k)]
    zval = [beta[j] / se[j] if se[j] > 1e-8 * math.sqrt(max(bread[j][j], 0.0))
            else math.nan for j in range(k)]
    pval = [math.erfc(abs(z) / math.sqrt(2.0)) for z in zval]
    return LogisticFit(labels, beta, se, zval, pval, converged, cov, cluster_robust)


# ---------------------------------------------------------------------------
# Accuracy-vs-exposure curves


class CurveFit(NamedTuple):
    """Logistic accuracy curve over log10 exposure, with sample points.

    ``samples`` rows are (log10_exposure, p_hat, band_lo, band_hi) tuples
    where the band is +/- one standard error on the linear predictor, mapped
    through the logistic.  ``separated`` flags the flat-curve fallback used
    when the outcomes are all identical (complete separation).
    """

    fit: LogisticFit | None
    separated: bool
    samples: list[tuple[float, float, float, float]]
    mean_accuracy: float


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced points from ``lo`` to ``hi``: ``i * step + lo``,
    and the last point exactly ``hi``, the bits of the usual linspace."""
    step = (hi - lo) / (n - 1)
    grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


#: Points of a curve's sample grid.
CURVE_SAMPLES = 100


def accuracy_curve(points) -> CurveFit:
    """Fit accuracy ~ log10(exposure count) on raw (count, correct) pairs,
    sampled at :data:`CURVE_SAMPLES` evenly spaced exposures."""
    pts = [(float(c), int(o)) for c, o in points]
    if not pts:
        raise InputError("no points")
    if any(c <= 0 for c, _ in pts):
        raise InputError("exposure counts must be positive")
    xs = [math.log10(c) for c, _ in pts]
    if len(set(xs)) < 2:
        raise InputError("need >= 2 distinct exposure values")
    grid = _linspace(min(xs), max(xs), CURVE_SAMPLES)
    mean_acc = sum(o for _, o in pts) / len(pts)
    try:
        fit = fit_logistic([(x,) for x in xs], [o for _, o in pts],
                           labels=["log10_exposure"])
    except SeparationError:
        eps = 1.0 / (2.0 * len(pts))
        flat = min(1.0 - eps, max(eps, mean_acc))
        return CurveFit(None, True, [(x, flat, flat, flat) for x in grid], mean_acc)
    (b0, b1), ((c00, c01), (c10, c11)) = fit.coef, fit.cov
    samples = []
    for x in grid:
        eta = b0 + b1 * x
        se_eta = math.sqrt(max(0.0, c00 + x * c10 + x * (c01 + x * c11)))
        samples.append((x, expit(eta), expit(eta - se_eta), expit(eta + se_eta)))
    return CurveFit(fit, False, samples, mean_acc)
