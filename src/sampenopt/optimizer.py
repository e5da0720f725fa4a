"""Regularized MSE objectives and the Bayesian-optimization drivers.

A trial evaluates the bootstrap-MSE objective f(psi) = MSE + lambda*sqrt(r)
for a decision point psi = (m, r, q); signal sets average the per-signal
MSE before adding the penalty. Infeasible evaluations (undefined entropy
or too many non-finite bootstrap replicates) score +inf and are never
selected. The driver runs T_init uniform random trials, then TPE proposals
until the trial budget is exhausted.

A trial scores each signal with bootstrap_sampen and reads mse, variance
and bias off the estimate set, as every other caller of the bootstrap does.

RNG streams: signal i of trial t draws all B of its replicates from the
one stream generator(child_seed(seed, 0, t, i)); the TPE proposal (and
random-init draw) for trial t uses (seed, 1, t). Signals are evaluated in
order, and a trial stops at its first infeasible signal. Trials are
numbered from 1, so records[k] is trial k + 1. OptResult.estimates keeps
the estimate sets that scored best_y, which optimize's summary reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BootstrapConfig, BootstrapEstimates, bias, bootstrap_sampen, mse, variance
from .entropy import SampEnParams
from .errors import AllTrialsInfeasible, SignalTooShort
from .rng import child_seed, generator
from .signal import Signal, SignalSet
from .tpe import ParamDomain, ParamVector, Trial, _clamp_open, propose

__all__ = [
    "OptimizerConfig",
    "OptResult",
    "objective_single",
    "objective_set",
    "optimize_single",
    "optimize_set",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Budgets, regularization and domains for the optimization drivers."""

    lam: float = 1.0 / 3.0
    b: int = 100
    t_tilde: int = 100
    t_init: int = 10
    domain: ParamDomain = field(default_factory=ParamDomain)
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.lam < math.inf):
            raise ValueError("lambda must be finite and nonnegative")
        if self.t_init < 1 or self.t_tilde < self.t_init:
            raise ValueError("need 1 <= T_init <= T_tilde")
        if self.b < 1:
            raise ValueError("replicate count B must be >= 1")


@dataclass(frozen=True)
class OptResult:
    """Best point, best objective and every trial in evaluation order.

    estimates holds one BootstrapEstimates per signal, in signal order: the
    sets that scored best_y, those of the first trial with the lowest y.
    """

    best_psi: ParamVector
    best_y: float
    records: tuple[Trial, ...]
    estimates: tuple[BootstrapEstimates, ...] = field(repr=False, compare=False)

    def best_so_far(self) -> list[float]:
        out = []
        cur = math.inf
        for tr in self.records:
            cur = min(cur, tr.y)
            out.append(cur)
        return out


def _objective(
    signals: tuple[Signal, ...],
    psi: ParamVector,
    lam: float,
    b: int,
    seed: int,
    trial_index: int,
) -> tuple[Trial, tuple[BootstrapEstimates, ...]]:
    """Mean bootstrap MSE + lambda*sqrt(r) and the per-signal estimates; (+inf, ()) at the first infeasible signal."""
    params = SampEnParams(m=psi.m, r=psi.r)
    estimates = []
    for i, x in enumerate(signals):
        cfg = BootstrapConfig(q=psi.q, b=b, seed=child_seed(seed, 0, trial_index, i))
        try:
            est = bootstrap_sampen(x, params, cfg)
        except SignalTooShort:
            return Trial(psi=psi, y=math.inf), ()
        if not est.feasible:
            return Trial(psi=psi, y=math.inf), ()
        estimates.append(est)
    scored = [(est.original.value, mse(est), variance(est), bias(est)) for est in estimates]
    entropy, mean_mse, mean_variance, mean_bias = (float(np.mean(col)) for col in zip(*scored))
    return Trial(psi, mean_mse + lam * math.sqrt(psi.r), entropy, mean_variance, mean_bias), tuple(estimates)


def objective_single(
    x: Signal, psi: ParamVector, lam: float, b: int, seed: int, trial_index: int = 0
) -> float:
    """Bootstrap-MSE objective for one signal; +inf when infeasible."""
    return _objective((x,), psi, lam, b, seed, trial_index)[0].y


def objective_set(
    s: SignalSet, psi: ParamVector, lam: float, b: int, seed: int, trial_index: int = 0
) -> float:
    """Mean per-signal bootstrap MSE + lambda*sqrt(r); +inf if any signal fails."""
    return _objective(s.signals, psi, lam, b, seed, trial_index)[0].y


def _random_psi(domain: ParamDomain, rng: np.random.Generator) -> ParamVector:
    """A uniform draw in each searched dimension, in the domain's order: m in {1..U}, r and q in the open bounds."""
    values = {name: rng.integers(1, domain.u + 1) if name == "m" else _clamp_open(rng.uniform(lo, hi), lo, hi)
              for name, (lo, hi) in domain.dims.items()}
    return domain.point(values)


def _require_searchable(signals: tuple[Signal, ...]) -> None:
    """AllTrialsInfeasible, before any trial, when a signal is too short for every m >= 1 (N < m + 2 = 3)."""
    shortest = min(signals, key=lambda x: x.n)
    if shortest.n < 3:
        raise AllTrialsInfeasible(f"signal {shortest.id!r} has N={shortest.n}; every m needs N >= m + 2 >= 3")


def _optimize(signals: tuple[Signal, ...], cfg: OptimizerConfig) -> OptResult:
    _require_searchable(signals)
    history: list[Trial] = []
    for t in range(1, cfg.t_tilde + 1):
        rng = generator(cfg.seed, 1, t)
        psi = _random_psi(cfg.domain, rng) if t <= cfg.t_init else propose(history, cfg.domain, rng)
        trial, estimates = _objective(signals, psi, cfg.lam, cfg.b, cfg.seed, t)
        if not history or trial.y < best.y:  # strict, so ties keep the first of the lowest
            best, best_estimates = trial, estimates
        history.append(trial)
    if not best.feasible:
        raise AllTrialsInfeasible("every trial scored +inf; widen the domain or shrink m/r demands")
    return OptResult(best_psi=best.psi, best_y=best.y, records=tuple(history), estimates=best_estimates)


def optimize_single(x: Signal, cfg: OptimizerConfig) -> OptResult:
    """Select (m, r, q) for one signal by TPE Bayesian optimization."""
    return _optimize((x,), cfg)


def optimize_set(s: SignalSet, cfg: OptimizerConfig) -> OptResult:
    """Select one (m, r, q) for a whole signal set (mean-MSE objective)."""
    return _optimize(s.signals, cfg)
