"""Tree-structured Parzen Estimator surrogate and acquisition.

propose reads the history as arrays, which the optimizer owns and fills
once per trial: y, and one array of values per searched dimension of
ParamDomain.dims, entry i being trial i + 1; it builds no Trial objects.
The trials are split into better/worse sets by the top-quantile rule
T_l = min(ceil(gamma * T), 25). Each set gets a per-dimension kernel
mixture: one truncated Gaussian (continuous dims) or interval-discretized
Gaussian (the embedding dimension) per trial, plus a non-informative prior
component, with shared mixture weights per group.
The next evaluation point is the best of S candidates drawn from the
better-group density, scored by the log density ratio.

Both groups share the prior and each dimension's Scott bandwidth, so a
proposal builds one kernel table per searched dimension over [prior, trial
1..T], and a group is an array of columns into it. The table holds every
component's normal CDF at lo and hi for r and q, read by the sampler's
inverse CDF and by the kernels' truncation mass, and at the cell edges
0.5, 1.5, ..., U + 0.5 for m. For an integer m, m +- 0.5 is exact, so edge
m minus edge m - 1 is ndtr((m + 0.5 - c) / b) - ndtr((m - 0.5 - c) / b) bit for bit.

The S candidates are drawn and scored as one batch. propose makes a single
rng.random(2 * d * S) draw, viewed as (S, d, 2): entry [s, j, 0] picks the
mixture component of candidate s in dimension j and [s, j, 1] places the
value inside it. Drawing one candidate at a time, dimension by dimension,
consumes the stream in exactly this order, so the batch proposes the same
point, bit for bit, from the same generator state and leaves the generator
in the same state. Each elementwise step sees the operands of the scalar
formulas, each sum runs along contiguous rows (numpy's pairwise sum
depends on the layout), and the row sums of each log-sum-exp go through
math.log, because numpy's vector log need not match libm's in the last bit.

Constants (gamma = 0.10, cap 25, S = 24 candidates, Scott bandwidths with
magic clipping, old-decay weights) follow the defaults popularized by
Bergstra et al.'s TPE work and the Optuna framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyHistory

__all__ = ["ParamDomain", "ParamVector", "Trial", "scott_bandwidth", "decay_weights", "propose"]

_TINY = 1e-300
_GAMMA = 0.10  # better-set quantile
_BETTER_MAX = 25  # cap on the better-set size T_l
_N_CANDIDATES = 24  # S, the candidates scored per proposal


@dataclass(frozen=True)
class ParamDomain:
    """Search domain: m in {1..u}, r and q in open unit subintervals.

    dims is the one table of searched dimensions, which random draws, the
    surrogate densities and contains all read; fixed_q pins the bootstrap
    success probability and leaves q out of it. point turns one drawn
    value per searched dimension into a ParamVector.
    """

    u: int = 3
    r_bounds: tuple[float, float] = (0.01, 1.0)
    q_bounds: tuple[float, float] = (0.01, 0.99)
    fixed_q: float | None = None

    def __post_init__(self):
        if self.u < 1:
            raise ValueError("m upper bound U must be >= 1")
        for name, (lo, hi) in (("r", self.r_bounds), ("q", self.q_bounds)):
            if not (0.0 < lo < hi <= 1.0):
                raise ValueError(f"{name} bounds must satisfy 0 < lo < hi <= 1")
        if self.fixed_q is not None and not (0.0 < self.fixed_q < 1.0):
            raise ValueError("fixed q must lie in (0, 1)")

    @property
    def dims(self) -> dict[str, tuple[float, float]]:
        """The searched dimensions in draw order, name -> (lo, hi): m, r, then q unless fixed_q pins it."""
        dims = {"m": (1.0, float(self.u)), "r": self.r_bounds}
        if self.fixed_q is None:
            dims["q"] = self.q_bounds
        return dims

    def point(self, values: dict) -> "ParamVector":
        """The decision point of one value per searched dimension; a pinned q is fixed_q."""
        q = float(values["q"]) if self.fixed_q is None else self.fixed_q
        return ParamVector(m=int(values["m"]), r=float(values["r"]), q=q)

    def contains(self, psi: "ParamVector") -> bool:
        """psi lies within the bounds of every searched dimension, and a pinned q is fixed_q."""
        inside = all(lo <= getattr(psi, name) <= hi for name, (lo, hi) in self.dims.items())
        return inside and self.point(vars(psi)).q == psi.q


@dataclass(frozen=True)
class ParamVector:
    """One decision point: embedding dimension m, radius r, bootstrap q."""

    m: int
    r: float
    q: float


@dataclass(frozen=True)
class Trial:
    """A scored decision point plus its mean entropy/variance/bias diagnostics.

    y is math.inf for infeasible evaluations. The mean diagnostics cover
    signals with feasible bootstrap sets; they are None for infeasible
    trials.
    """

    psi: ParamVector
    y: float
    entropy: float | None = None
    variance: float | None = None
    bias: float | None = None

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.y)


def _split_indices(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices into y of the (better, worse) trials by the top-quantile rule, each in y order.

    T_l = min(ceil(gamma * T), cap), restricted to feasible trials:
    infeasible trials always land in the worse set, so the better set may
    be smaller than T_l (possibly empty when every trial is infeasible).
    """
    t = y.size
    if t < 1:
        raise EmptyHistory("need at least one trial to split")
    order = np.argsort(y, kind="stable")  # ties keep insertion order
    t_l = min(math.ceil(_GAMMA * t), _BETTER_MAX, int(np.isfinite(y).sum()))
    return order[:t_l], order[t_l:]


def scott_bandwidth(t_group: int, d: int, lo: float, hi: float, t_total: int) -> float:
    """Scott's rule T^(-1/(d+4)) with the magic-clipping floor (hi-lo)/min(T, 100)."""
    if t_group < 1:
        raise ValueError("bandwidth needs at least one observation")
    b = t_group ** (-1.0 / (d + 4))
    b_min = (hi - lo) / min(t_total, 100)
    return max(b, b_min)


def _clamp_open(v, lo: float, hi: float):
    """v clamped to 1e-9 of the span inside (lo, hi), so draws stay in the open domain."""
    eps = 1e-9 * (hi - lo)
    return np.minimum(np.maximum(v, lo + eps), hi - eps)


def decay_weights(t_l: int, t_g: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixture weights for both groups; index 0 of each vector is the prior.

    Better group: uniform over its t_l kernels plus the prior. Worse group:
    old-decay: the 25 most recent components keep raw weight 1, older ones
    ramp down via tau(i) = (i - 1)/(t_g - 25) as w' = tau + (1 - tau)/(t_g + 1);
    the prior takes the oldest position (i = 1); weights are then normalized.
    When t_g <= 25 every component is "recent" and the group is uniform.
    """
    better = np.full(t_l + 1, 1.0 / (t_l + 1))
    if t_g <= 25:
        worse = np.ones(t_g + 1)
    else:
        order = np.arange(1, t_g + 2, dtype=np.float64)
        tau = (order - 1.0) / (t_g - 25)
        worse = np.where(order > t_g + 1 - 25, 1.0, tau + (1.0 - tau) / (t_g + 1))
    return better, worse / worse.sum()


@dataclass(frozen=True)
class _DimMixture:
    """One searched dimension's kernel table: component 0 is the prior, 1.. the trials."""

    kind: str  # "discrete" | "continuous"
    lo: float
    hi: float
    centers: np.ndarray
    bandwidths: np.ndarray

    @cached_property
    def cdf(self) -> np.ndarray:
        """Each component's normal CDF at lo and hi, (2, K), or at the cell edges 0.5, ..., U + 0.5, (U + 1, K)."""
        from scipy.special import ndtr
        edges = np.arange(int(self.hi) + 1) + 0.5 if self.kind == "discrete" else np.array([self.lo, self.hi])
        return ndtr((edges[:, None] - self.centers) / self.bandwidths)

    def log_components(self, v, cols=slice(None)) -> np.ndarray:
        """Log kernel of components cols at v: shape (K,) for a scalar, (S, K) for S values.

        Continuous: the Gaussian density renormalized by its mass on [lo, hi].
        Discrete: the Gaussian mass on [v - 1/2, v + 1/2] over the mass on
        [1/2, U + 1/2]: row v - 1 of a (U, K) table, so v must be an integer in 1..U.
        """
        cdf = self.cdf[:, cols]
        if self.kind == "discrete":
            v = np.asarray(v)
            m = v.astype(np.intp)
            if not np.all((m == v) & (m >= 1) & (m <= int(self.hi))):
                raise ValueError(f"m must be an integer in 1..{int(self.hi)}, got {v}")
            table = np.log(np.maximum(cdf[1:] - cdf[:-1], _TINY)) - np.log(np.maximum(cdf[-1] - cdf[0], _TINY))
            return table[m - 1]
        c, b = self.centers[cols], self.bandwidths[cols]
        z = (np.asarray(v, dtype=np.float64)[..., None] - c) / b
        log_norm = -0.5 * z * z - np.log(b) - 0.5 * math.log(2.0 * math.pi)
        return log_norm - np.log(np.maximum(cdf[1] - cdf[0], _TINY))

    def sample(self, comp: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One draw from each component comp[s] by inverse CDF at uniforms[s]."""
        if self.kind == "discrete":
            edges = self.cdf.T[comp]  # (S, U + 1): each chosen component's CDF at the cell edges
            cells = np.maximum(edges[:, 1:] - edges[:, :-1], 0.0)
            cdf = np.cumsum(cells / np.maximum(cells.sum(axis=1, keepdims=True), _TINY), axis=1)
            # per row, the count of cdf values below the draw is searchsorted(side="left")
            return np.minimum((cdf < uniforms[:, None]).sum(axis=1), cells.shape[1] - 1) + 1.0
        from scipy.special import ndtri
        # inverse-CDF truncated normal draw, clamped inside the open domain
        c, b, a, z = self.centers[comp], self.bandwidths[comp], self.cdf[0, comp], self.cdf[1, comp]
        return _clamp_open(c + b * ndtri(a + (z - a) * uniforms), self.lo, self.hi)


def _kernel_tables(points: dict[str, np.ndarray], domain: ParamDomain) -> dict[str, _DimMixture]:
    """One kernel table per searched dimension over [prior, trial 1..T], shared by both groups.

    points maps each searched dimension to its T trial values, in trial order.
    """
    u, searched = domain.u, domain.dims
    tables = {}
    for name, (lo, hi) in searched.items():
        # non-informative prior: mean (U-1)/2 and std U-1 for m, whose std degenerates
        # at U = 1 where any positive value gives mass 1; mean 1/2 and std 1 for r and q
        prior_c, prior_b = ((u - 1) / 2.0, float(u - 1) if u > 1 else 1.0) if name == "m" else (0.5, 1.0)
        t, centers = points[name].size, np.concatenate(([prior_c], points[name]))
        # Scott term uses the full evaluation count T: bandwidths then shrink as the
        # search proceeds, which is what moves the sampler from exploration into exploitation
        bandwidths = np.full(t + 1, scott_bandwidth(t, len(searched), lo, hi, t))
        bandwidths[0] = prior_b
        tables[name] = _DimMixture("discrete" if name == "m" else "continuous", lo, hi, centers, bandwidths)
    return tables


def _groups(y: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(columns, weights) of the better and worse groups: column 0 the prior, i + 1 trial i, the worse oldest first."""
    better, worse = _split_indices(y)
    w_l, w_g = decay_weights(better.size, worse.size)
    return (np.concatenate(([0], better + 1)), w_l), (np.concatenate(([0], np.sort(worse) + 1)), w_g)


def _draw(tables: dict, cols: np.ndarray, weights: np.ndarray, uniforms: np.ndarray) -> dict:
    """One point per row of uniforms, (n, d, 2): per dimension j, [:, j, 0] picks a component, [:, j, 1] its value."""
    # a pick past the weight CDF's last value, which rounding can leave below 1, takes the last component
    picks = cols[np.minimum(np.searchsorted(np.cumsum(weights), uniforms[..., 0], side="left"), cols.size - 1)]
    return {name: mix.sample(picks[:, j], uniforms[:, j, 1]) for j, (name, mix) in enumerate(tables.items())}


def _log_kernels(tables: dict, cols: np.ndarray, weights: np.ndarray, values: dict) -> np.ndarray:
    """(d, S, K): log weight plus log kernel of component cols[k] in dimension j at point s."""
    logw = np.log(weights)
    return np.stack([logw + mix.log_components(values[name], cols) for name, mix in tables.items()])


def _log_mixture(log_kernels: np.ndarray) -> np.ndarray:
    """Log density at S points from one group's (d, S, K) log kernels: per dimension a log-sum-exp, summed over d."""
    peak = log_kernels.max(axis=2)
    shifted = log_kernels - peak[..., None]
    sums = np.exp(shifted, out=shifted).sum(axis=2)
    # math.log, not np.log: numpy's vector log can differ from libm's in the last bit, which would move winners
    rows = peak + np.fromiter(map(math.log, sums.ravel()), np.float64, sums.size).reshape(sums.shape)
    return sum(rows, 0.0)  # ((0 + dimension 1) + dimension 2) + ..., the order the scores were always added in


def propose(y: np.ndarray, points: dict[str, np.ndarray], domain: ParamDomain,
            rng: np.random.Generator) -> ParamVector:
    """Next evaluation point: argmax of the density ratio over S candidates.

    y holds the T trials' objectives (inf where infeasible) and points maps
    each searched dimension of domain.dims to the T trials' values, all
    float64 in trial order. All S candidates are drawn from the
    better-group density in one batch and scored in the log domain.
    Deterministic given the rng state.
    """
    (cols_l, w_l), (cols_g, w_g) = _groups(y)
    tables = _kernel_tables(points, domain)
    cands = _draw(tables, cols_l, w_l, rng.random(2 * len(tables) * _N_CANDIDATES).reshape(_N_CANDIDATES, -1, 2))
    # both groups' columns side by side, so one log-kernel pass per dimension scores both
    log_kernels = _log_kernels(tables, np.concatenate((cols_l, cols_g)), np.concatenate((w_l, w_g)), cands)
    score = _log_mixture(log_kernels[..., :cols_l.size]) - _log_mixture(log_kernels[..., cols_l.size:])
    # argmax takes the first maximum: ties go to the earliest candidate
    best = int(np.argmax(score))
    return domain.point({name: values[best] for name, values in cands.items()})
