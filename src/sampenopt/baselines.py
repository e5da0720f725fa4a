"""Competing hyperparameter selection strategies and their scoring.

Implements the efficiency-criterion radius search (Lake et al. 2002), the
convergence ("elbow") selection over the radius-versus-variance curve with
Kneedle knee detection (Satopaa et al. 2011), the standard-parameter
baseline (m = 2, r = 0.20), the AR-order/BIC heuristic for the embedding
dimension, and the closed-form Gaussian approximation of the regularized MSE
used to score methods that carry no native uncertainty estimate.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .entropy import SampEnParams, _cp_sigma_grid, _require_length, cp_sigma, fuzzen
from .errors import NoFeasibleRadius, NoKnee, TooShort, UndefinedEntropy
from .signal import SignalSet

__all__ = [
    "RadiusGrid",
    "BaselineResult",
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
    finite, a counting SE where it is undefined. The counting selectors
    read them from their radius-grid table's (CP, sigma) at r*, and count
    again only for an r* that is not a table radius.
    """

    method: str
    m_star: int
    r_star: float
    criterion: float | None
    entropies: tuple[float | None, ...]
    ses: tuple[float | None, ...]
    curve: tuple[tuple[float, float], ...] = ()


def efficiency_criterion(cp: float, sigma: float) -> float:
    """max(sigma/cp, sigma/(-log(cp) * cp)) for 0 < cp < 1, zero when sigma is; UndefinedEntropy at CP = 1."""
    if cp >= 1.0:
        raise UndefinedEntropy(f"CP = 1, so -log(CP) = 0: efficiency criterion singular (sigma = {sigma})")
    if sigma == 0.0:
        return 0.0
    return max(sigma / cp, sigma / (-math.log(cp) * cp))


def _interp_fine(grid: RadiusGrid, radii: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of (radii, values) onto the fine grid between them."""
    fine_r = grid.fine(float(radii[0]), float(radii[-1]))
    return fine_r, np.interp(fine_r, radii, values)


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


def _counting_grid(s: SignalSet, m: int) -> dict[float, list[tuple[float, float]]]:
    """{r: each signal's cp_sigma at (m, r)} at every RadiusGrid.coarse radius: the counting selectors' table.

    m is checked first by SampEnParams' rule (ValueError below 1), then every length, so a too-short signal
    raises SignalTooShort wherever it stands. Then each signal takes one _cp_sigma_grid pass over the radii left;
    a radius leaves at its first undefined or zero CP. The dict is returned as built, so a selector reads r*'s
    (CP, sigma) from it by key.
    """
    SampEnParams(m=m, r=RadiusGrid.coarse[0])
    for x in s:
        _require_length(x, m)
    table = {r: [] for r in RadiusGrid.coarse}
    for x in s:
        for r, result in zip(list(table), _cp_sigma_grid(x, m, list(table))):
            if isinstance(result, UndefinedEntropy):
                del table[r]
            else:
                table[r].append(result)
    return table


# method: (per-signal criterion of (cp, sigma), pick(fine radii, fine values) -> index)
_COUNTING_METHODS = {
    "sampeneff": (efficiency_criterion, lambda radii, values: np.argmin(values)),
    "convergence": (lambda cp, sigma: (sigma / cp) ** 2, knee_point),
}


def _outputs(pairs) -> tuple[tuple, tuple]:
    """Each signal's SampEn -log(CP) and counting SE sigma/CP from its (CP, sigma); both None where that is None."""
    return tuple(zip(*[(None, None) if pair is None else (-math.log(pair[0]), pair[1] / pair[0]) for pair in pairs]))


def _per_signal_outputs(s: SignalSet, m: int, r: float) -> tuple[tuple, tuple]:
    """Each signal's SampEn -log(CP) and counting SE sigma/CP from one cp_sigma at (m, r).

    Both are None where cp_sigma raises, i.e. where the entropy is undefined
    or infinite. They equal sampen(...).value and counting_se bit for bit:
    CP = A/B of the unordered counts rounds as the doubled ordered ones do.
    The counting selectors call it only when r* is not a radius of their
    _counting_grid table; at a table radius they read the same (CP, sigma).
    """
    p = SampEnParams(m=m, r=r)
    pairs = []
    for x in s:
        try:
            pairs.append(cp_sigma(x, p))
        except UndefinedEntropy:
            pairs.append(None)
    return _outputs(pairs)


def _counting_select(method: str, s: SignalSet, m: int, grid: dict) -> BaselineResult:
    """Radius picked on the fine-grid median curve of method's criterion over a _counting_grid table.

    A radius is also dropped where the criterion raises UndefinedEntropy; fewer than 3 left is NoFeasibleRadius.
    The medians over the signals are taken in one pass over the (radii x signals) criterion array. The per-signal
    outputs at r* come from the table's (CP, sigma) at r*, which are cp_sigma's own, bit for bit; interpolation
    puts both picks on a coarse knot. Only an r* between knots, which rounding can leave where two adjacent
    criteria are a few ulp apart, is counted again by _per_signal_outputs.
    """
    criterion, pick = _COUNTING_METHODS[method]
    radii, rows = [], []
    for r, pairs in grid.items():
        with contextlib.suppress(UndefinedEntropy):
            rows.append([criterion(cp, sigma) for cp, sigma in pairs])
            radii.append(r)
    if len(radii) < 3:
        raise NoFeasibleRadius(f"only {len(radii)} usable grid points at m={m}")
    fine_r, fine_v = _interp_fine(RadiusGrid(), np.array(radii), np.median(rows, axis=1))
    idx = int(pick(fine_r, fine_v))
    r_star = float(fine_r[idx])
    pairs = grid.get(r_star)
    entropies, ses = _per_signal_outputs(s, m, r_star) if pairs is None else _outputs(pairs)
    return BaselineResult(method=method, m_star=m, r_star=r_star, criterion=float(fine_v[idx]), entropies=entropies,
                          ses=ses, curve=tuple(zip(fine_r.tolist(), fine_v.tolist())))


def sampeneff_select(s: SignalSet, m: int) -> BaselineResult:
    """Radius minimizing the median efficiency criterion on the fine grid."""
    return _counting_select("sampeneff", s, m, _counting_grid(s, m))


def convergence_select(s: SignalSet, m: int) -> BaselineResult:
    """Radius at the knee of the median counting-variance-versus-radius curve."""
    return _counting_select("convergence", s, m, _counting_grid(s, m))


def ar_order_m(s: SignalSet, p_max: int = 5) -> int:
    """Median best AR order across the set, as a proxy embedding dimension.

    Each signal is fit by least squares for orders p = 1..p_max on the
    common sample conditioned on p_max (so BIC values are comparable), with
    BIC = n log(RSS/n) + p log(n). Signals are assumed normalized, so the
    lagged design carries no intercept. The median is rounded half-up and
    floored at 1.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
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


def gaussian_mse_approx(s: SignalSet, m: int, r: float, lam: float) -> float:
    """Regularized MSE via the Gaussian uncertainty approximation, in closed form.

    With theta_i ~ N(theta_hat_i, s_i^2), s_i = sigma_CP / CP the counting
    standard error, the expected squared deviation from theta_hat_i is
    s_i^2, so the value is mean(s_i^2) + lambda*sqrt(r), exactly and with no
    draws. Requires a finite entropy (and defined counting SE) for every
    signal.
    """
    return _gaussian_mse(s, m, r, *_per_signal_outputs(s, m, r), lam)


def _gaussian_mse(s: SignalSet, m: int, r: float, entropies, ses, lam: float) -> float:
    """gaussian_mse_approx from the per-signal entropies and counting SEs already computed at (m, r)."""
    for x, e in zip(s, entropies):
        if e is None:
            raise UndefinedEntropy(f"signal {x.id!r}: entropy not finite at (m={m}, r={r})")
    return float(np.mean(np.square(ses))) + lam * math.sqrt(r)


_STANDARD_M, _STANDARD_R = 2, 0.20  # the standard parameters (m = 2, r = 0.20)


def standard_params_eval(s: SignalSet, fuzzy: bool = False, eta: float = 2.0) -> BaselineResult:
    """Per-signal entropy at the standard parameters (m = 2, r = 0.20).

    With fuzzy=True, fuzzy entropy at (2, 0.20, eta) is reported instead,
    finite where defined (fuzzen raises otherwise), with no counting SE.
    """
    m, r = _STANDARD_M, _STANDARD_R
    if fuzzy:
        entropies, ses = tuple(fuzzen(x, m, r, eta) for x in s), (None,) * s.n
    else:
        entropies, ses = _per_signal_outputs(s, m, r)
    return BaselineResult(
        method="fuzzen" if fuzzy else "standard", m_star=m, r_star=r, criterion=None, entropies=entropies, ses=ses
    )
