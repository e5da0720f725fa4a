"""Competing hyperparameter selection strategies and their scoring.

Implements the efficiency-criterion radius search (Lake et al. 2002), the
convergence ("elbow") selection over the radius-versus-variance curve with
Kneedle knee detection (Satopaa et al. 2011), the standard-parameter
baseline (m = 2, r = 0.20), the AR-order/BIC heuristic for the embedding
dimension, and the Gaussian approximation of the regularized MSE used to
score methods that carry no native uncertainty estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import SampEnParams, counting_se, cp_sigma, fuzzen, sampen
from .errors import NoFeasibleRadius, NoKnee, TooShort, UndefinedEntropy
from .signal import SignalSet

__all__ = [
    "RadiusGrid",
    "BaselineResult",
    "sampeneff",
    "sampeneff_select",
    "convergence_select",
    "knee_point",
    "ar_order_m",
    "gaussian_mse_approx",
    "standard_params_eval",
]


class RadiusGrid:
    """Coarse radius grid {0.10, 0.15, ..., 1.00} refined to 0.01 steps.

    The criterion is evaluated on the coarse points and linearly
    interpolated onto the fine grid before the selection.
    """

    coarse: tuple[float, ...] = tuple(np.round(np.arange(0.10, 1.0001, 0.05), 10))
    fine_step = 0.01

    def fine(self, lo: float, hi: float) -> np.ndarray:
        n = int(round((hi - lo) / self.fine_step))
        return np.round(lo + self.fine_step * np.arange(n + 1), 10)


@dataclass(frozen=True)
class BaselineResult:
    """Selected (m*, r*), the criterion value there, and per-signal outputs.

    curve holds the (radius, aggregated criterion) pairs actually used for
    the selection (fine grid for the search-based methods). entropies and
    ses are per-signal at (m*, r*); an entropy is None where it is not
    finite, a counting SE where it is undefined.
    """

    method: str
    m_star: int
    r_star: float
    criterion: float | None
    entropies: tuple[float | None, ...]
    ses: tuple[float | None, ...]
    curve: tuple[tuple[float, float], ...] = ()


def efficiency_criterion(cp: float, sigma: float) -> float:
    """max(sigma/cp, sigma/(-log(cp) * cp)) for 0 < cp < 1; zero when sigma is."""
    if sigma == 0.0:
        return 0.0
    return max(sigma / cp, sigma / (-math.log(cp) * cp))


def sampeneff(x, m: int, r: float) -> float:
    """Efficiency criterion max(sigma_CP/CP, sigma_CP/(-log(CP) * CP)).

    Undefined when CP is undefined, zero, or exactly one (the log term
    vanishes).
    """
    cp, sigma = cp_sigma(x, SampEnParams(m=m, r=r))
    if cp >= 1.0:
        raise UndefinedEntropy(f"signal {x.id!r}: CP = 1 at (m={m}, r={r}); criterion singular")
    return efficiency_criterion(cp, sigma)


def _interp_fine(grid: RadiusGrid, radii: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of (radii, values) onto the fine grid between them."""
    fine_r = grid.fine(float(radii[0]), float(radii[-1]))
    return fine_r, np.interp(fine_r, radii, values)


def _median_curve(s: SignalSet, m: int, per_signal) -> tuple[np.ndarray, np.ndarray]:
    """Median of per_signal(x, r) across the set at each usable coarse radius.

    A coarse point is dropped when the quantity is undefined for any signal
    there; fewer than 3 usable points is NoFeasibleRadius.
    """
    radii, meds = [], []
    for r in RadiusGrid.coarse:
        vals = []
        for x in s:
            try:
                vals.append(per_signal(x, m, r))
            except UndefinedEntropy:
                vals = None
                break
        if vals is not None:
            radii.append(r)
            meds.append(float(np.median(vals)))
    if len(radii) < 3:
        raise NoFeasibleRadius(f"only {len(radii)} usable grid points at m={m}")
    return np.asarray(radii), np.asarray(meds)


def _finite_sampens(s: SignalSet, p: SampEnParams) -> tuple[float | None, ...]:
    """Each signal's SampEn at p, or None where it is not finite."""
    return tuple(res.value if res.finite else None for res in (sampen(x, p) for x in s))


def _per_signal_outputs(s: SignalSet, m: int, r: float) -> tuple[tuple, tuple]:
    p = SampEnParams(m=m, r=r)
    entropies = _finite_sampens(s, p)
    # the counting SE is defined exactly where the entropy is finite: A > 0 and B > 0
    return entropies, tuple(None if e is None else counting_se(x, p) for x, e in zip(s, entropies))


def _grid_select(method: str, s: SignalSet, m: int, per_signal, pick) -> BaselineResult:
    """Radius picked by pick(fine radii, fine values) on the interpolated median curve."""
    radii, meds = _median_curve(s, m, per_signal)
    fine_r, fine_v = _interp_fine(RadiusGrid(), radii, meds)
    idx = int(pick(fine_r, fine_v))
    r_star = float(fine_r[idx])
    entropies, ses = _per_signal_outputs(s, m, r_star)
    return BaselineResult(
        method=method,
        m_star=m,
        r_star=r_star,
        criterion=float(fine_v[idx]),
        entropies=entropies,
        ses=ses,
        curve=tuple(zip(fine_r.tolist(), fine_v.tolist())),
    )


def sampeneff_select(s: SignalSet, m: int) -> BaselineResult:
    """Radius minimizing the median efficiency criterion on the fine grid."""
    return _grid_select("sampeneff", s, m, sampeneff, lambda radii, values: np.argmin(values))


def _counting_variance(x, m: int, r: float) -> float:
    return counting_se(x, SampEnParams(m=m, r=r)) ** 2


def convergence_select(s: SignalSet, m: int) -> BaselineResult:
    """Radius at the knee of the median counting-variance-versus-radius curve."""
    return _grid_select("convergence", s, m, _counting_variance, knee_point)


def knee_point(xs, ys) -> int:
    """Kneedle knee index for a decreasing-convex curve.

    Min-max normalizes both axes, maps the curve to concave-increasing
    shape via y -> max(y) - y, forms the difference d = y_t - x_n, and
    returns the first local maximum of d that the curve subsequently drops
    below its threshold d_max_local - S * mean(dx), with Kneedle's
    sensitivity S = 1. Raises NoKnee for flat/linear difference curves or when no local
    maximum clears its threshold.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 3:
        raise NoKnee("need at least 3 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    if np.ptp(ys) == 0:
        raise NoKnee("flat curve")
    xn = (xs - xs.min()) / np.ptp(xs)
    yn = (ys - ys.min()) / np.ptp(ys)
    d = (1.0 - yn) - xn
    # interior local maxima: strictly above the left neighbor, not below the right
    lm = [i for i in range(1, d.size - 1) if d[i] > d[i - 1] and d[i] >= d[i + 1]]
    if not lm:
        raise NoKnee("difference curve has no local maximum")
    mean_dx = float(np.mean(np.diff(xn)))
    for k, i in enumerate(lm):
        threshold = d[i] - mean_dx
        stop = lm[k + 1] if k + 1 < len(lm) else d.size
        if np.any(d[i + 1 : stop] < threshold):
            return i
    raise NoKnee("no local maximum cleared the sensitivity threshold")


def _require_p_max(p_max: int) -> None:
    """ar_order_m's rule on the largest AR order it fits."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")


def ar_order_m(s: SignalSet, p_max: int) -> int:
    """Median best AR order across the set, as a proxy embedding dimension.

    Each signal is fit by least squares for orders p = 1..p_max on the
    common sample conditioned on p_max (so BIC values are comparable), with
    BIC = n log(RSS/n) + p log(n). Signals are assumed normalized, so the
    lagged design carries no intercept. The median is rounded half-up and
    floored at 1.
    """
    _require_p_max(p_max)
    orders = []
    for x in s:
        v = x.values
        if x.n <= p_max + 2:
            raise TooShort(f"signal {x.id!r}: need length > p_max + 2 = {p_max + 2}")
        n_rows = x.n - p_max
        y = v[p_max:]
        design = np.column_stack([v[p_max - k : x.n - k] for k in range(1, p_max + 1)])
        best_p, best_bic = 1, math.inf
        for p in range(1, p_max + 1):
            xp = design[:, :p]
            coef, *_ = np.linalg.lstsq(xp, y, rcond=None)
            rss = float(np.sum((y - xp @ coef) ** 2))
            rss = max(rss, 1e-300)
            bic = n_rows * math.log(rss / n_rows) + p * math.log(n_rows)
            if bic < best_bic:
                best_p, best_bic = p, bic
        orders.append(best_p)
    med = float(np.median(orders))
    return max(1, int(math.floor(med + 0.5)))


def gaussian_mse_approx(s: SignalSet, m: int, r: float, d: int, lam: float, rng: np.random.Generator) -> float:
    """Regularized MSE via the Gaussian uncertainty approximation.

    Per signal, draws d values from N(theta_hat, s_i) with s_i the counting
    standard error and averages the squared deviations from theta_hat; the
    set mean plus lambda*sqrt(r) comes back. Requires a finite entropy (and
    defined counting SE) for every signal.
    """
    if d < 1:
        raise ValueError("draw count D must be >= 1")
    return _gaussian_mse(s, m, r, *_per_signal_outputs(s, m, r), d, lam, rng)


def _gaussian_mse(s: SignalSet, m: int, r: float, entropies, ses, d: int, lam: float, rng) -> float:
    """gaussian_mse_approx from the per-signal entropies and counting SEs already computed at (m, r)."""
    eps = []
    for x, e, se in zip(s, entropies, ses):
        if e is None:
            raise UndefinedEntropy(f"signal {x.id!r}: entropy not finite at (m={m}, r={r})")
        eps.append(float(np.mean((se * rng.standard_normal(d)) ** 2)))
    return float(np.mean(eps)) + lam * math.sqrt(r)


_STANDARD_M, _STANDARD_R = 2, 0.20  # the standard parameters (m = 2, r = 0.20)


def standard_params_eval(s: SignalSet, fuzzy: bool = False, eta: float = 2.0) -> BaselineResult:
    """Per-signal entropy at the standard parameters (m = 2, r = 0.20).

    With fuzzy=True, fuzzy entropy at (2, 0.20, eta) is reported instead;
    fuzzy entropy is always finite, and no counting SE is attached to it.
    """
    m, r = _STANDARD_M, _STANDARD_R
    if fuzzy:
        entropies = tuple(fuzzen(x, m, r, eta) for x in s)
        ses: tuple = (None,) * s.n
        return BaselineResult(
            method="fuzzen", m_star=m, r_star=r, criterion=None, entropies=entropies, ses=ses
        )
    entropies, ses = _per_signal_outputs(s, m, r)
    return BaselineResult(
        method="standard", m_star=m, r_star=r, criterion=None, entropies=entropies, ses=ses
    )
