"""Desk-scale reproduction harnesses for the synthetic studies.

Two experiments: the variance-estimator error benchmark (counting versus
bootstrap variance estimates scored against a large-population "true"
cross-signal variance) and the four-way method comparison (TPE-optimized
selection versus the efficiency-criterion, convergence and standard
baselines on a common generated signal set).

Defaults are desk-scale (population 2,000, 5 repeats) to bound runtime;
both are configurable up to the full scale (10,000 / 20).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baselines import _counting_grid, _counting_select, _gaussian_mse, standard_params_eval
from .bootstrap import BootstrapConfig, bootstrap_sampen, variance
from .entropy import SampEnParams, counting_se, sampen
from .errors import Infeasible, InsufficientDefined, UndefinedEntropy
from .optimizer import OptimizerConfig, _require_searchable, optimize_set
from .rng import child_seed, generator
from .signal import SignalSet, gen_signal_set
from .tpe import ParamDomain

__all__ = [
    "VarBenchConfig",
    "VarBenchResult",
    "true_variance",
    "estimator_error",
    "MethodComparisonConfig",
    "MethodRow",
    "method_comparison",
]


@dataclass(frozen=True)
class VarBenchConfig:
    """Variance-estimator benchmark settings.

    Defaults follow the benchmark protocol with desk-scale population and
    repeats: m = 1, q = 0.9 for white noise / 0.5 for AR(1), B = 100.
    """

    signal_type: str = "white_noise"
    n: int = 100
    r: float = 0.20
    m: int = 1
    q: float | None = None
    b: int = 100
    n_population: int = 2000
    n_subsample: int = 100
    repeats: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.signal_type not in ("white_noise", "ar1"):
            raise ValueError(f"unknown signal type {self.signal_type!r}")
        if not (1 <= self.n_subsample <= self.n_population and self.n_population >= 2):
            raise ValueError("need 1 <= subsample size <= population size and population size >= 2")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        SampEnParams(m=self.m, r=self.r)
        if self.n < self.m + 2:
            raise ValueError(f"signal length N = {self.n} is too short for m = {self.m}; need N >= m + 2")
        BootstrapConfig(q=self.q_value, b=self.b, seed=self.seed)

    @property
    def q_value(self) -> float:
        if self.q is not None:
            return self.q
        return 0.9 if self.signal_type == "white_noise" else 0.5


@dataclass(frozen=True)
class VarBenchResult:
    """True variance, per-repeat estimator errors, and relative reduction."""

    true_var: float
    eps_counting: tuple[float, ...]
    eps_bootstrap: tuple[float, ...]
    reductions: tuple[float, ...]
    mean_reduction: float
    reduction_interval: tuple[float, float]


def true_variance(s_pop: SignalSet, m: int, r: float) -> float:
    """(n-1)-divisor cross-signal variance of the defined SampEn estimates."""
    p = SampEnParams(m=m, r=r)
    vals = [res.value for res in (sampen(x, p) for x in s_pop) if res.finite]
    if len(vals) < 2:
        raise InsufficientDefined("need at least two defined SampEn estimates")
    return float(np.var(vals, ddof=1))


def estimator_error(cfg: VarBenchConfig, counting=None, bootstrap=None) -> VarBenchResult:
    """Score both SampEn variance estimators against the population truth.

    Builds the population, computes the true cross-signal variance, then
    for each repeat subsamples n_subsample signals and scores each
    estimator's mean squared error against the truth. Signals where either
    estimator is undefined or infeasible (too few finite bootstrap
    replicates) are excluded from both averages (keeps the comparison
    like-to-like). Reports per-repeat errors plus the relative
    reduction 100 * (eps_counting - eps_bootstrap) / eps_counting; a
    repeat whose eps_counting is 0 (as where every template matches)
    raises InsufficientDefined.

    The counting/bootstrap callables are injectable for harness tests.
    """
    p = SampEnParams(m=cfg.m, r=cfg.r)
    pop = gen_signal_set(cfg.signal_type, cfg.n_population, cfg.n, seed=child_seed(cfg.seed, 0))
    sigma2 = true_variance(pop, cfg.m, cfg.r)
    counting = counting or (lambda x, seed: counting_se(x, p) ** 2)
    bootstrap = bootstrap or (
        lambda x, seed: variance(bootstrap_sampen(x, p, BootstrapConfig(q=cfg.q_value, b=cfg.b, seed=seed)))
    )
    eps_c, eps_b, reductions = [], [], []
    for rep in range(cfg.repeats):
        rng = generator(cfg.seed, 1, rep)
        idx = rng.choice(cfg.n_population, size=cfg.n_subsample, replace=False)
        sq_c, sq_b = [], []
        for j, i in enumerate(sorted(int(v) for v in idx)):
            x = pop[i]
            seed_ij = child_seed(cfg.seed, 2, rep, j)
            try:
                vc = counting(x, seed_ij)
                vb = bootstrap(x, seed_ij)
            except (UndefinedEntropy, Infeasible):
                continue
            sq_c.append((sigma2 - vc) ** 2)
            sq_b.append((sigma2 - vb) ** 2)
        if not sq_c:
            raise InsufficientDefined(f"repeat {rep}: no usable subsampled signals")
        ec, eb = float(np.mean(sq_c)), float(np.mean(sq_b))
        if ec == 0.0:
            raise InsufficientDefined(f"repeat {rep}: the counting error is 0, so the relative reduction is undefined")
        eps_c.append(ec)
        eps_b.append(eb)
        reductions.append(100.0 * (ec - eb) / ec)
    lo, hi = np.percentile(reductions, [2.5, 97.5])
    return VarBenchResult(
        true_var=sigma2,
        eps_counting=tuple(eps_c),
        eps_bootstrap=tuple(eps_b),
        reductions=tuple(reductions),
        mean_reduction=float(np.mean(reductions)),
        reduction_interval=(float(lo), float(hi)),
    )


_BASELINE_M = 1  # the counting baselines' m: the protocol m, as VarBenchConfig.m


@dataclass(frozen=True)
class MethodComparisonConfig:
    """Four-way method comparison settings (Table-2-style protocol); the counting baselines run at m = _BASELINE_M."""

    signal_type: str = "white_noise"
    n_signals: int = 100
    n: int = 100
    lam: float | None = None
    b: int = 100
    t_tilde: int = 100
    t_init: int = 10
    u: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.signal_type not in ("white_noise", "ar1"):
            raise ValueError(f"unknown signal type {self.signal_type!r}")
        self.optimizer_config()

    @property
    def lam_value(self) -> float:
        if self.lam is not None:
            return self.lam
        return 1.0 / 3.0 if self.signal_type == "white_noise" else 1.0 / 10.0

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            lam=self.lam_value,
            b=self.b,
            t_tilde=self.t_tilde,
            t_init=self.t_init,
            domain=ParamDomain(u=self.u),
            seed=child_seed(self.seed, 1),
        )


@dataclass(frozen=True)
class MethodRow:
    method: str
    m_star: int
    r_star: float
    q_star: float | None
    objective: float
    entropy_mean: float | None
    entropy_std: float | None
    seconds: float


def _entropy_stats(entropies) -> tuple[float | None, float | None]:
    """Mean and (n-1)-divisor std of the defined per-signal entropies."""
    vals = [e for e in entropies if e is not None]
    if not vals:
        return None, None
    return float(np.mean(vals)), float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0


def method_comparison(cfg: MethodComparisonConfig) -> list[MethodRow]:
    """Run all four selection strategies on a common generated signal set.

    The TPE-optimized method is scored by its native bootstrap objective,
    and its entropy mean and std read the estimate sets that scored best_y;
    the baselines by the Gaussian-approximation regularized MSE in closed
    form, mean(s_i^2) + lambda*sqrt(r*), from the counting SEs s_i each
    selection already holds at its (m*, r*). Both counting baselines run
    at m = _BASELINE_M = 1 and read one (CP, sigma) radius-grid table, and
    each of their rows' seconds includes its build time. The baselines
    draw no random numbers and are scored first, so one that cannot be
    scored fails before the first trial. Wall-clock per method is
    reported, not asserted.
    """
    s = gen_signal_set(cfg.signal_type, cfg.n_signals, cfg.n, seed=child_seed(cfg.seed, 0))
    _require_searchable(s.signals)  # too-short signals fail as the search's AllTrialsInfeasible, not SignalTooShort
    t0 = time.perf_counter()
    grid = _counting_grid(s, _BASELINE_M)
    grid_seconds = time.perf_counter() - t0
    selectors = [
        (lambda: _counting_select("sampeneff", s, _BASELINE_M, grid), grid_seconds),
        (lambda: _counting_select("convergence", s, _BASELINE_M, grid), grid_seconds),
        (lambda: standard_params_eval(s), 0.0),
    ]
    baseline_rows = []
    for select, seconds in selectors:
        t0 = time.perf_counter()
        res = select()
        seconds += time.perf_counter() - t0
        mean_e, std_e = _entropy_stats(res.entropies)
        baseline_rows.append(
            MethodRow(
                method=res.method,
                m_star=res.m_star,
                r_star=res.r_star,
                q_star=None,
                objective=_gaussian_mse(s, res.m_star, res.r_star, res.entropies, res.ses, cfg.lam_value),
                entropy_mean=mean_e,
                entropy_std=std_e,
                seconds=seconds,
            )
        )

    t0 = time.perf_counter()
    opt = optimize_set(s, cfg.optimizer_config())
    psi = opt.best_psi
    mean_e, std_e = _entropy_stats([est.original.value for est in opt.estimates])
    ours = MethodRow(method="ours", m_star=psi.m, r_star=psi.r, q_star=psi.q, objective=opt.best_y,
                     entropy_mean=mean_e, entropy_std=std_e, seconds=time.perf_counter() - t0)
    return [ours, *baseline_rows]
