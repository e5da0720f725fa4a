"""Regularized MSE objectives and the Bayesian-optimization drivers.

A trial evaluates the bootstrap-MSE objective f(psi) = MSE + lambda*sqrt(r)
for a decision point psi = (m, r, q); signal sets average the per-signal
MSE before adding the penalty. Infeasible evaluations (undefined entropy
or too many non-finite bootstrap replicates) score +inf and are never
selected. The driver runs T_init uniform random trials, then TPE proposals
until the trial budget is exhausted.

A trial scores each signal with bootstrap_sampen, reads mse, variance and
bias off the estimate set's summary, computed once per set, and averages
them over the signals, bit for bit as np.mean of each column would.

_optimize owns the search history as arrays: one float64 array for y and
one per searched dimension of ParamDomain.dims, preallocated for the whole
budget and filled once per trial. propose reads the first t - 1 entries of
each; OptResult.records keeps the Trial objects.

RNG streams: before the first trial, signal i's bootstrap table ((B, n)
block starts and (B, n) exponentials) is drawn once from
generator(child_seed(seed, 0, i)), the stream estimate and compare use for
signal i, with its rank plan (8 N (N + 1) bytes; evaluate_s includes
both). Every trial resamples signal i from that table, turning the
exponentials into Geom(q) lengths at its own q, so two trials differ only
through psi: common random numbers, which make their y a paired
comparison. The TPE proposal (and random-init draw) for trial t uses
(seed, 1, t). Signals are evaluated in order, and a trial stops at its
first infeasible signal. Trials are numbered from 1, so records[k] is
trial k + 1. OptResult.estimates keeps the estimate sets that scored
best_y, which optimize's summary reads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BlockDraws, BootstrapConfig, BootstrapEstimates, _draw_blocks, bootstrap_sampen
from .entropy import SampEnParams, _RankPlan
from .errors import AllTrialsInfeasible, Infeasible, SignalTooShort
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
    timings holds the seconds spent choosing points (propose_s: random draws
    and TPE proposals) and scoring them (evaluate_s, which includes drawing
    the signals' bootstrap tables and plans), summed over trials.
    """

    best_psi: ParamVector
    best_y: float
    records: tuple[Trial, ...]
    estimates: tuple[BootstrapEstimates, ...] = field(repr=False, compare=False)
    timings: dict[str, float] = field(repr=False, compare=False)

    def best_so_far(self) -> list[float]:
        out = []
        cur = math.inf
        for tr in self.records:
            cur = min(cur, tr.y)
            out.append(cur)
        return out


def _signal_blocks(signals: tuple[Signal, ...], b: int, seed: int) -> tuple[tuple[int, BlockDraws], ...]:
    """Per signal i: its bootstrap seed child_seed(seed, 0, i), and that seed's (B, n) table with x's rank plan."""
    seeds = [child_seed(seed, 0, i) for i in range(len(signals))]
    return tuple((s, _draw_blocks(x.n, b, generator(s))._replace(plan=_RankPlan(x.values)))
                 for s, x in zip(seeds, signals))


def _objective(
    signals: tuple[Signal, ...],
    psi: ParamVector,
    lam: float,
    b: int,
    blocks: tuple[tuple[int, BlockDraws], ...],
) -> tuple[Trial, tuple[BootstrapEstimates, ...]]:
    """Mean bootstrap MSE + lambda*sqrt(r) and the per-signal estimates; (+inf, ()) at the first infeasible signal.

    blocks[i] is signal i's (seed, table and rank plan) from _signal_blocks.
    """
    params = SampEnParams(m=psi.m, r=psi.r)
    estimates, scored = [], []
    for x, (seed, draws) in zip(signals, blocks):
        cfg = BootstrapConfig(q=psi.q, b=b, seed=seed)
        try:
            est = bootstrap_sampen(x, params, cfg, draws)
            s = est.summary  # raises Infeasible for an infeasible estimate set
        except (SignalTooShort, Infeasible):
            return Trial(psi=psi, y=math.inf), ()
        estimates.append(est)
        scored.append((est.original.value, s.mse, s.variance, s.bias))
    # np.mean's sum starts at +0.0, so the mean of one value v is 0.0 + v (-0.0 becomes 0.0); several
    # signals' columns are the rows of a C-order (4, k) array, summed in the order np.mean of a column sums
    means = [0.0 + v for v in scored[0]] if len(scored) == 1 else np.array(list(zip(*scored))).mean(axis=1).tolist()
    entropy, mean_mse, mean_variance, mean_bias = means
    return Trial(psi, mean_mse + lam * math.sqrt(psi.r), entropy, mean_variance, mean_bias), tuple(estimates)


def objective_single(
    x: Signal, psi: ParamVector, lam: float, b: int, seed: int, trial_index: int = 0
) -> float:
    """Bootstrap-MSE objective for one signal; +inf when infeasible.

    Every trial of a search shares the signal's table, so this is the y of
    any trial at psi; trial_index is accepted and ignored.
    """
    return _objective((x,), psi, lam, b, _signal_blocks((x,), b, seed))[0].y


def objective_set(
    s: SignalSet, psi: ParamVector, lam: float, b: int, seed: int, trial_index: int = 0
) -> float:
    """Mean per-signal bootstrap MSE + lambda*sqrt(r); +inf if any signal fails.

    As objective_single: the y of any trial at psi; trial_index is ignored.
    """
    return _objective(s.signals, psi, lam, b, _signal_blocks(s.signals, b, seed))[0].y


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
    if cfg.t_tilde > cfg.t_init:
        # the TPE kernels' ndtr and ndtri, imported once before the timed loop, so propose_s times proposals only
        import scipy.special  # noqa: F401
    start = time.perf_counter()
    blocks = _signal_blocks(signals, cfg.b, cfg.seed)
    propose_s, evaluate_s = 0.0, time.perf_counter() - start
    history: list[Trial] = []
    # trial t fills entry t - 1 of y and of each searched dimension's points; propose reads the filled prefix
    y = np.empty(cfg.t_tilde)
    points = {name: np.empty(cfg.t_tilde) for name in cfg.domain.dims}
    for t in range(1, cfg.t_tilde + 1):
        start = time.perf_counter()
        rng = generator(cfg.seed, 1, t)
        if t <= cfg.t_init:
            psi = _random_psi(cfg.domain, rng)
        else:
            psi = propose(y[:t - 1], {name: v[:t - 1] for name, v in points.items()}, cfg.domain, rng)
        chosen = time.perf_counter()
        trial, estimates = _objective(signals, psi, cfg.lam, cfg.b, blocks)
        propose_s += chosen - start
        evaluate_s += time.perf_counter() - chosen
        if not history or trial.y < best.y:  # strict, so ties keep the first of the lowest
            best, best_estimates = trial, estimates
        history.append(trial)
        y[t - 1] = trial.y
        for name, v in points.items():
            v[t - 1] = getattr(psi, name)
    if not best.feasible:
        raise AllTrialsInfeasible("every trial scored +inf; widen the domain or shrink m/r demands")
    return OptResult(best_psi=best.psi, best_y=best.y, records=tuple(history), estimates=best_estimates,
                     timings={"propose_s": propose_s, "evaluate_s": evaluate_s})


def optimize_single(x: Signal, cfg: OptimizerConfig) -> OptResult:
    """Select (m, r, q) for one signal by TPE Bayesian optimization."""
    return _optimize((x,), cfg)


def optimize_set(s: SignalSet, cfg: OptimizerConfig) -> OptResult:
    """Select one (m, r, q) for a whole signal set (mean-MSE objective)."""
    return _optimize(s.signals, cfg)
