"""Tree-structured Parzen Estimator surrogate and acquisition.

The history of (psi, y) trials is split into better/worse sets by the
top-quantile rule T_l = min(ceil(gamma * T), 25). Each set gets a
per-dimension kernel mixture: one truncated Gaussian (continuous dims) or
interval-discretized Gaussian (the embedding dimension) per trial, plus a
non-informative prior component, with shared mixture weights per group.
The next evaluation point is the best of S candidates drawn from the
better-group density, scored by the log density ratio.

The S candidates are drawn and scored as one batch. propose makes a single
rng.random(2 * d * S) draw, viewed as (S, d, 2): entry [s, j, 0] picks the
mixture component of candidate s in dimension j and [s, j, 1] places the
value inside it. Drawing one candidate at a time, dimension by dimension,
consumes the stream in exactly this order, so the batch proposes the same
point, bit for bit, from the same generator state and leaves the generator
in the same state. The row sums of each log-sum-exp go through math.log,
because numpy's vector log need not match libm's in the last bit.

Constants (gamma = 0.10, cap 25, S = 24 candidates, Scott bandwidths with
magic clipping, old-decay weights) follow the defaults popularized by
Bergstra et al.'s TPE work and the Optuna framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import EmptyHistory

__all__ = [
    "ParamDomain", "ParamVector", "Trial", "SurrogateDensity", "scott_bandwidth", "decay_weights",
    "build_density", "propose",
]

_TINY = 1e-300
_GAMMA = 0.10  # better-set quantile
_BETTER_MAX = 25  # cap on the better-set size T_l
_N_CANDIDATES = 24  # S, the candidates scored per proposal


@dataclass(frozen=True)
class ParamDomain:
    """Search domain: m in {1..u}, r and q in open unit subintervals.

    fixed_q pins the bootstrap success probability and removes q from the
    sampled/kernelized dimensions.
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

    def contains(self, psi: "ParamVector") -> bool:
        ok = 1 <= psi.m <= self.u and self.r_bounds[0] <= psi.r <= self.r_bounds[1]
        if self.fixed_q is None:
            ok = ok and self.q_bounds[0] <= psi.q <= self.q_bounds[1]
        else:
            ok = ok and psi.q == self.fixed_q
        return ok


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


def _split_indices(history: list[Trial]) -> tuple[list[int], list[int]]:
    """Indices of the (better, worse) trials by the top-quantile rule.

    T_l = min(ceil(gamma * T), cap), restricted to feasible trials:
    infeasible trials always land in the worse set, so the better set may
    be smaller than T_l (possibly empty when every trial is infeasible).
    """
    t = len(history)
    if t < 1:
        raise EmptyHistory("need at least one trial to split")
    order = sorted(range(t), key=lambda i: history[i].y)  # stable: ties keep insertion order
    t_l = min(math.ceil(_GAMMA * t), _BETTER_MAX)
    n_feasible = sum(1 for tr in history if tr.feasible)
    t_l = min(t_l, n_feasible)
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
    """One dimension of the surrogate: kernel centers and bandwidths.

    Component 0 is the prior; components 1.. are per-trial kernels (worse
    group: in query order, matching the weight vector).
    """

    kind: str  # "discrete" | "continuous"
    lo: float
    hi: float
    centers: np.ndarray
    bandwidths: np.ndarray

    def log_components(self, v) -> np.ndarray:
        """Log kernel of every component at v: shape (K,) for a scalar, (S, K) for S values.

        Continuous: the Gaussian density renormalized by its mass on [lo, hi].
        Discrete: the Gaussian mass on [v - 1/2, v + 1/2] over the mass on [1/2, U + 1/2].
        """
        c, b = self.centers, self.bandwidths
        v = np.asarray(v, dtype=np.float64)[..., None]
        if self.kind == "discrete":
            u = int(self.hi)
            cell = ndtr((v + 0.5 - c) / b) - ndtr((v - 0.5 - c) / b)
            total = ndtr((u + 0.5 - c) / b) - ndtr((0.5 - c) / b)
            return np.log(np.maximum(cell, _TINY)) - np.log(np.maximum(total, _TINY))
        z = (v - c) / b
        log_norm = -0.5 * z * z - np.log(b) - 0.5 * math.log(2.0 * math.pi)
        mass = ndtr((self.hi - c) / b) - ndtr((self.lo - c) / b)
        return log_norm - np.log(np.maximum(mass, _TINY))

    def sample_components(self, idx: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One draw from each component idx[s] by inverse CDF at uniforms[s]."""
        c, b = self.centers[idx], self.bandwidths[idx]
        if self.kind == "discrete":
            # (S, U) table of the chosen components' cell masses over m = 1..U
            grid = np.arange(1, int(self.hi) + 1)
            c, b = c[:, None], b[:, None]
            cells = np.maximum(ndtr((grid + 0.5 - c) / b) - ndtr((grid - 0.5 - c) / b), 0.0)
            cdf = np.cumsum(cells / np.maximum(cells.sum(axis=1, keepdims=True), _TINY), axis=1)
            # per row, the count of cdf values below the draw is searchsorted(side="left")
            return grid[np.minimum((cdf < uniforms[:, None]).sum(axis=1), grid.size - 1)].astype(np.float64)
        # inverse-CDF truncated normal draw, clamped inside the open domain
        a = ndtr((self.lo - c) / b)
        z = ndtr((self.hi - c) / b)
        return _clamp_open(c + b * ndtri(a + (z - a) * uniforms), self.lo, self.hi)


@dataclass(frozen=True)
class SurrogateDensity:
    """Per-dimension kernel mixtures with shared weights; S points are a dict of (S,) arrays."""

    dims: dict  # name -> _DimMixture
    weights: np.ndarray

    def logpdf_batch(self, values: dict) -> np.ndarray:
        """Log density at each of the S points in values."""
        logw = np.log(self.weights)
        total = 0.0
        for name, mix in self.dims.items():
            comp = logw + mix.log_components(values[name])
            peak = comp.max(axis=1)
            sums = np.exp(comp - peak[:, None]).sum(axis=1)
            # math.log, not np.log: numpy's vector log can differ from libm's in the
            # last bit, which would change scores, winners and so every later trial
            total = total + (peak + np.fromiter(map(math.log, sums), np.float64, sums.size))
        return total

    def sample_batch(self, rng: np.random.Generator, n: int) -> dict:
        """n points; per point and dimension, a component draw then a value draw."""
        u = rng.random(2 * len(self.dims) * n).reshape(n, len(self.dims), 2)
        cdf = np.cumsum(self.weights)
        out = {}
        for j, (name, mix) in enumerate(self.dims.items()):
            idx = np.searchsorted(cdf, u[:, j, 0], side="left").clip(0, len(self.weights) - 1)
            out[name] = mix.sample_components(idx, u[:, j, 1])
        return out


def _param_vector(values: dict, i: int, fixed_q: float | None) -> ParamVector:
    q = fixed_q if fixed_q is not None else float(values["q"][i])
    return ParamVector(m=int(values["m"][i]), r=float(values["r"][i]), q=q)


def _prior_params(domain: ParamDomain) -> dict:
    # non-informative prior: mean ((U-1)/2, 1/2, 1/2), stds (U-1, 1, 1);
    # the m std degenerates at U = 1 where any positive value gives mass 1
    u = domain.u
    return {"m": ((u - 1) / 2.0, float(u - 1) if u > 1 else 1.0), "r": (0.5, 1.0), "q": (0.5, 1.0)}


def build_density(group: list[Trial], role: str, domain: ParamDomain, t_total: int) -> SurrogateDensity:
    """Kernel density for one partition group ("better" or "worse").

    An empty group yields the prior alone. Weights index components in the
    order given, with the prior at position 0; for the worse group the
    caller must pass trials oldest-first so old-decay lines up with query
    order (the better group's weights are uniform, so order is moot).
    """
    if role not in ("better", "worse"):
        raise ValueError("role must be 'better' or 'worse'")
    k = len(group)
    weights = decay_weights(k, 0)[0] if role == "better" else decay_weights(0, k)[1]
    prior = _prior_params(domain)
    bounds = {"m": (1.0, float(domain.u)), "r": domain.r_bounds, "q": domain.q_bounds}
    dims = {}
    names = ["m", "r"] + ([] if domain.fixed_q is not None else ["q"])
    for name in names:
        lo, hi = bounds[name]
        pc, pb = prior[name]
        centers, bws = [pc], [pb]
        if k > 0:
            # Scott term uses the full evaluation count T: bandwidths then
            # shrink as the search proceeds, which is what moves the
            # sampler from exploration into exploitation
            b = scott_bandwidth(t_total, len(names), lo, hi, t_total)
            centers.extend(float(getattr(tr.psi, name)) for tr in group)
            bws.extend([b] * k)
        dims[name] = _DimMixture(kind="discrete" if name == "m" else "continuous", lo=lo, hi=hi,
                                 centers=np.asarray(centers), bandwidths=np.asarray(bws))
    return SurrogateDensity(dims=dims, weights=weights)


def propose(history: list[Trial], domain: ParamDomain, rng: np.random.Generator) -> ParamVector:
    """Next evaluation point: argmax of the density ratio over S candidates.

    All S candidates are drawn from the better-group density in one batch
    and scored in the log domain. Deterministic given the rng state.
    """
    better_idx, worse_idx = _split_indices(history)
    t_total = len(history)
    p_l = build_density([history[i] for i in better_idx], "better", domain, t_total)
    # old-decay weights index worse-group components by query order, oldest first
    p_g = build_density([history[i] for i in sorted(worse_idx)], "worse", domain, t_total)
    cands = p_l.sample_batch(rng, _N_CANDIDATES)
    score = p_l.logpdf_batch(cands) - p_g.logpdf_batch(cands)
    # argmax takes the first maximum: ties go to the earliest candidate
    return _param_vector(cands, int(np.argmax(score)), domain.fixed_q)
