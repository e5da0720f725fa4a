"""Stationarity testing, multiple-testing correction and rank comparison.

The ADF test uses the constant-only regression (signals are differenced
and normalized before testing, so deterministic trends are gone), lag
selection by AIC up to Schwert's bound, and MacKinnon's (1994) response
surface for approximate p-values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyGroup,
    EmptySurvivorSet,
    InvalidP,
    NotTwoClasses,
    SingularDesign,
    TooShort,
    VarianceOverflow,
    ZeroVariance,
)
from .signal import Signal, SignalSet, difference, normalize

__all__ = [
    "AdfResult",
    "ComparisonResult",
    "adf_test",
    "holm_sidak",
    "mann_whitney_u",
    "StationarityRecord",
    "StationarityReport",
    "stationarity_pipeline",
]

# MacKinnon (1994) response-surface coefficients, constant-only case (N=1):
# p = Phi(c0 + c1*tau + c2*tau^2 [+ c3*tau^3]); the small-p polynomial
# applies for tau <= tau_star, the large-p polynomial above it. Outside
# [tau_min, tau_max] the surface is invalid and the p-value is clipped to
# 0.001 / 0.999. Values as tabulated in MacKinnon (1994, 2010).
_TAU_MAX_C = 2.74
_TAU_MIN_C = -18.83
_TAU_STAR_C = -1.61
_TAU_C_SMALLP = (2.1659, 1.4412, 0.038269)
_TAU_C_LARGEP = (1.7339, 0.93202, -0.12745, -0.010368)


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    p_value: float
    lags: int


@dataclass(frozen=True)
class ComparisonResult:
    """Mann-Whitney U of the first group, its p-value, and group medians."""

    u_statistic: float
    p_value: float
    alternative: str
    medians: tuple[float, float]


def _mackinnon_p(stat: float) -> float:
    from scipy.special import ndtr  # here, not at import: synth and estimate never load scipy

    if stat > _TAU_MAX_C:
        return 0.999
    if stat < _TAU_MIN_C:
        return 0.001
    coefs = _TAU_C_SMALLP if stat <= _TAU_STAR_C else _TAU_C_LARGEP
    poly = sum(c * stat**k for k, c in enumerate(coefs))
    return float(ndtr(poly))


def _fit(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients and RSS; raises on rank loss."""
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise SingularDesign("regression design matrix is rank deficient")
    resid = y - x @ coef
    return coef, float(resid @ resid)


def _ols(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Coefficients, RSS and coefficient standard errors; raises on rank loss."""
    n, k = x.shape
    coef, rss = _fit(y, x)
    return coef, rss, np.sqrt(rss / (n - k) * np.diag(np.linalg.inv(x.T @ x)))


def adf_test(x: Signal) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test, constant-only regression.

    Regresses dx_t on (1, x_{t-1}, dx_{t-1}, ..., dx_{t-k}); k is chosen by
    AIC over 0..floor(12 (N/100)^{1/4}) on the common sample, then the
    statistic comes from a refit on the longest sample for that k. Small
    p-values reject the unit root, i.e. indicate (weak) stationarity.
    """
    n = x.n
    if n < 15:
        raise TooShort(f"signal {x.id!r}: ADF needs N >= 15, got {n}")
    v = x.values
    dv = np.diff(v)
    maxlag = int(math.floor(12.0 * (n / 100.0) ** 0.25))
    # keep enough rows for the largest candidate regression
    maxlag = min(maxlag, (n - 1) // 2 - 2)
    maxlag = max(maxlag, 0)

    def design(k: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
        # rows t = offset..len(dv)-1 of dv_t on (1, v_{t-1}, dv_{t-1..t-k})
        y = dv[offset:]
        cols = [np.ones(y.size), v[offset : n - 1]]
        cols.extend(dv[offset - j : len(dv) - j] for j in range(1, k + 1))
        return y, np.column_stack(cols)

    best_k, best_aic = 0, math.inf
    for k in range(0, maxlag + 1):
        y, xk = design(k, maxlag)
        _, rss = _fit(y, xk)
        nobs = y.size
        aic = nobs * math.log(max(rss, 1e-300) / nobs) + 2 * (k + 2)
        if aic < best_aic:
            best_k, best_aic = k, aic
    y, xk = design(best_k, best_k)
    coef, _, se = _ols(y, xk)
    stat = float(coef[1] / se[1])
    return AdfResult(statistic=stat, p_value=_mackinnon_p(stat), lags=best_k)


def holm_sidak(pvals) -> list[float]:
    """Step-down Holm-Sidak adjusted p-values, returned in input order.

    On the ascending p-values: p~_(i) = max_{j<=i} 1 - (1 - p_(j))^(n-j+1),
    clipped to 1.
    """
    p = np.asarray(list(pvals), dtype=np.float64)
    if p.size == 0:
        return []
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise InvalidP("p-values must lie in [0, 1]")
    n = p.size
    order = np.argsort(p, kind="stable")
    adj = np.empty(n)
    running = 0.0
    for rank, idx in enumerate(order):
        step = 1.0 - (1.0 - p[idx]) ** (n - rank)
        running = max(running, step)
        adj[idx] = min(running, 1.0)
    return adj.tolist()


def _exact_u_pvalues(u_obs: float, n_a: int, n_b: int) -> tuple[float, float]:
    """P(U <= u_obs) and P(U >= u_obs) by enumerating rank arrangements."""
    n = n_a + n_b
    base = n_a * (n_a - 1) // 2
    total = 0
    le = 0
    ge = 0
    for positions in itertools.combinations(range(n), n_a):
        u = sum(positions) - base
        total += 1
        if u <= u_obs:
            le += 1
        if u >= u_obs:
            ge += 1
    return le / total, ge / total


def mann_whitney_u(a, b, alternative: str = "two-sided") -> ComparisonResult:
    """Mann-Whitney U test; exact when n_a + n_b <= 16 and tie-free.

    The U statistic counts (with half-credit for ties) pairs where an
    a-value exceeds a b-value; 'less' tests a stochastically smaller than
    b. The large-sample path applies the tie-corrected normal approximation
    with a 0.5 continuity correction.
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise EmptyGroup("both groups must be non-empty")
    if alternative not in ("two-sided", "less", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    n_a, n_b = a.size, b.size
    combined = np.concatenate([a, b])
    u_a = float(np.sum(a[:, None] > b[None, :]) + 0.5 * np.sum(a[:, None] == b[None, :]))
    no_ties = np.unique(combined).size == combined.size
    if n_a + n_b <= 16 and no_ties:
        p_le, p_ge = _exact_u_pvalues(u_a, n_a, n_b)
        if alternative == "less":
            p = p_le
        elif alternative == "greater":
            p = p_ge
        else:
            p = min(1.0, 2.0 * min(p_le, p_ge))
    else:
        mu = n_a * n_b / 2.0
        n = n_a + n_b
        _, counts = np.unique(combined, return_counts=True)
        tie_term = float(np.sum(counts**3 - counts)) / (n * (n - 1))
        sigma2 = n_a * n_b / 12.0 * ((n + 1) - tie_term)
        if sigma2 <= 0:
            p = 1.0
        else:
            from scipy.special import ndtr

            sd = math.sqrt(sigma2)
            if alternative == "less":
                p = float(ndtr((u_a - mu + 0.5) / sd))
            elif alternative == "greater":
                p = float(1.0 - ndtr((u_a - mu - 0.5) / sd))
            else:
                z = (abs(u_a - mu) - 0.5) / sd
                p = float(min(1.0, 2.0 * (1.0 - ndtr(max(z, 0.0)))))
    return ComparisonResult(
        u_statistic=u_a,
        p_value=p,
        alternative=alternative,
        medians=(float(np.median(a)), float(np.median(b))),
    )


@dataclass(frozen=True)
class StationarityRecord:
    signal_id: str
    p_value: float | None
    adjusted_p: float | None
    retained: bool
    reason: str | None  # set when dropped


@dataclass(frozen=True)
class StationarityReport:
    retained: SignalSet | None
    records: tuple[StationarityRecord, ...]

    def retained_or_raise(self) -> SignalSet:
        if self.retained is None:
            raise EmptySurvivorSet("no signal passed the stationarity screen")
        return self.retained


def _require_alpha(alpha: float) -> None:
    """stationarity_pipeline's rule on the ADF screen level."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")


def stationarity_pipeline(s: SignalSet, alpha: float) -> StationarityReport:
    """Difference, normalize and ADF-screen a signal set.

    Each signal is first-differenced and normalized; signals that become
    constant under differencing, whose spread overflows float64, or that are
    too short or rank deficient for the ADF regression, are dropped with a
    recorded reason rather than failing the set. ADF p-values are
    Holm-Sidak adjusted across the tested signals and anything with
    adjusted p > alpha is dropped. The surviving signals come back
    differenced and normalized.
    """
    _require_alpha(alpha)
    prepared: list[tuple[int, Signal, float]] = []
    records: list[StationarityRecord | None] = [None] * s.n
    for i, x in enumerate(s):
        try:
            y = normalize(difference(x))
            res = adf_test(y)
        except (ZeroVariance, VarianceOverflow, TooShort, SingularDesign) as exc:
            records[i] = StationarityRecord(x.id, None, None, False, type(exc).__name__)
            continue
        prepared.append((i, y, res.p_value))
    adjusted = holm_sidak([p for _, _, p in prepared])
    survivors = []
    for (i, y, p), adj in zip(prepared, adjusted):
        keep = adj <= alpha
        records[i] = StationarityRecord(y.id, p, adj, keep, None if keep else "adjusted_p_above_alpha")
        if keep:
            survivors.append(y)
    report = StationarityReport(
        retained=SignalSet(tuple(survivors)) if survivors else None,
        records=tuple(records),
    )
    return report


def two_class_split(s: SignalSet) -> tuple[str, str]:
    """The two class labels of a labeled set, sorted; NotTwoClasses unless every signal has one of exactly two."""
    if any(x.label is None for x in s):
        raise NotTwoClasses("every signal needs a class label for comparison")
    labels = sorted({x.label for x in s})
    if len(labels) != 2:
        raise NotTwoClasses(f"need exactly two labels, found {labels!r}")
    return labels[0], labels[1]
