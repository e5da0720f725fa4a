"""Signal containers, normalization, differencing and synthetic generators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonStationaryConfig, TooShort, VarianceOverflow, ZeroVariance
from .rng import child_seed, generator


@dataclass(frozen=True)
class Signal:
    """One finite real-valued time series with an identity and optional label."""

    id: str
    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError(f"signal {self.id!r}: values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"signal {self.id!r}: values must be finite")

    @property
    def n(self) -> int:
        return int(self.values.size)

    def with_values(self, values: np.ndarray) -> "Signal":
        return Signal(id=self.id, values=values, label=self.label)


@dataclass(frozen=True)
class SignalSet:
    """An ordered collection of signals with unique ids."""

    signals: tuple[Signal, ...]

    def __post_init__(self):
        sigs = tuple(self.signals)
        object.__setattr__(self, "signals", sigs)
        if len(sigs) < 1:
            raise ValueError("signal set must contain at least one signal")
        ids = [s.id for s in sigs]
        if len(set(ids)) != len(ids):
            raise ValueError("signal ids must be unique within a set")

    @property
    def n(self) -> int:
        return len(self.signals)

    def __iter__(self):
        return iter(self.signals)

    def __getitem__(self, i: int) -> Signal:
        return self.signals[i]


@dataclass(frozen=True)
class Ar1Config:
    """AR(1) generator settings: x_t = phi * x_{t-1} + eps_t, eps ~ N(0, sigma^2)."""

    phi: float
    sigma: float
    n: int
    seed: int
    burn_in: int = 500

    def __post_init__(self):
        if abs(self.phi) >= 1.0:
            raise NonStationaryConfig(f"|phi| must be < 1 for a stationary AR(1); got {self.phi}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")


def normalize(x: Signal) -> Signal:
    """Rescale to zero sample mean and unit sample (n-1) standard deviation.

    Raises ZeroVariance for constant signals and VarianceOverflow when the
    sample SD is not finite in float64 (values past about 1e154 in size; an
    overflowing mean makes the SD non-finite too). Idempotent to within 1e-12.
    """
    if x.n < 2:
        raise TooShort(f"signal {x.id!r}: need at least 2 samples to normalize")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        sd = float(np.std(x.values, ddof=1))
    if sd == 0.0:
        raise ZeroVariance(f"signal {x.id!r}: constant signal cannot be normalized")
    if not math.isfinite(sd):
        raise VarianceOverflow(f"signal {x.id!r}: sample standard deviation overflows float64, cannot normalize")
    return x.with_values((x.values - np.mean(x.values)) / sd)


def difference(x: Signal) -> Signal:
    """First difference: out[t] = x[t+1] - x[t]; length drops by one.

    Raises VarianceOverflow when a difference overflows float64 (two values
    of opposite sign past about 9e307 in size).
    """
    if x.n < 3:
        raise TooShort(f"signal {x.id!r}: need at least 3 samples to difference")
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        d = np.diff(x.values)
    if not np.all(np.isfinite(d)):
        raise VarianceOverflow(f"signal {x.id!r}: first difference overflows float64")
    return x.with_values(d)


def gen_white_noise(n: int, sigma: float, seed: int, id: str = "wn", label: str | None = None) -> Signal:
    """n i.i.d. N(0, sigma^2) draws; bit-reproducible under the seed."""
    if n < 1:
        raise ValueError("n must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = generator(seed)
    return Signal(id=id, values=sigma * rng.standard_normal(n), label=label)


def _ar1_paths(phi: float, eps: np.ndarray) -> np.ndarray:
    """x_t = phi * x_{t-1} + eps_t from x_{-1} = 0 along the last axis of eps.

    eps is (total,) for one path or (k, total) for k paths; every path
    advances by one numpy step per time index.
    """
    x = eps.T.copy()
    for t in range(1, x.shape[0]):
        x[t] += phi * x[t - 1]
    return x.T


def gen_ar1(cfg: Ar1Config, id: str = "ar1", label: str | None = None) -> Signal:
    """Simulate burn_in + n AR(1) steps from x_0 = 0 and discard the burn-in."""
    eps = cfg.sigma * generator(cfg.seed).standard_normal(cfg.burn_in + cfg.n)
    return Signal(id=id, values=_ar1_paths(cfg.phi, eps)[cfg.burn_in:], label=label)


def gen_signal_set(
    kind: str,
    n_signals: int,
    n: int,
    seed: int,
    sigma: float = 1.0,
    phi: float = 0.9,
    burn_in: int = 500,
    normalize_signals: bool = True,
    label: str | None = None,
) -> SignalSet:
    """Generate a set of white-noise or AR(1) signals with indexed child seeds.

    Signal i uses the child stream (seed, i), so any subset is reproducible
    independently of set size. Every setting is range-checked for both
    kinds, phi and burn_in included, before any signal is drawn.
    """
    if kind not in ("white_noise", "ar1"):
        raise ValueError(f"unknown signal kind {kind!r}")
    # Ar1Config checks every setting for both kinds, so white noise rejects what AR(1) would
    cfg = Ar1Config(phi=phi, sigma=sigma, n=n, seed=seed, burn_in=burn_in)
    if normalize_signals and n < 2:
        raise ValueError("normalized signals need n >= 2")
    sids = [f"{kind}_{i:05d}" for i in range(n_signals)]
    if kind == "white_noise":
        raw = [gen_white_noise(n, sigma, child_seed(seed, i), id=sid, label=label) for i, sid in enumerate(sids)]
    else:
        # each signal draws eps from its own stream; the recurrence runs across all of them at once
        eps = np.empty((n_signals, cfg.burn_in + cfg.n))
        for i in range(n_signals):
            eps[i] = cfg.sigma * generator(child_seed(seed, i)).standard_normal(eps.shape[1])
        paths = np.ascontiguousarray(_ar1_paths(cfg.phi, eps)[:, cfg.burn_in:])
        raw = [Signal(id=sid, values=path, label=label) for sid, path in zip(sids, paths)]
    return SignalSet(tuple(normalize(s) if normalize_signals else s for s in raw))
