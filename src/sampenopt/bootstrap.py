"""Stationary bootstrap replicates and the bootstrap variance/bias/MSE.

Replicates follow Politis & Romano's stationary bootstrap: blocks start at
a uniformly random index, have Geom(q) lengths (support {1, 2, ...},
expected length 1/q), wrap around the end of the signal, and the final
block is truncated so the replicate has exactly the original length.

One private core, _bootstrap_counts, draws and counts for every caller:
it scores the original with sampen, draws all B replicates' blocks from
generator(cfg.seed) and returns their (B, 2) match counts. It has two
readers. bootstrap_sampen turns the counts into SampEnResult objects (the
public path of estimate, compare, varbench and the CLI's per-signal
records). _trial_moments, which scores one signal of an optimizer trial,
reads the same counts as arrays: the sorted finite replicate values, the
90% feasibility rule and the MSE/variance/bias helpers that the public
mse/variance/bias also call, so both paths give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import SampEnParams, SampEnResult, _replicate_counts, _sampen_from_counts, sampen
from .errors import Infeasible, SignalTooShort
from .rng import generator
from .signal import Signal

__all__ = [
    "BootstrapConfig",
    "BootstrapEstimates",
    "stationary_bootstrap",
    "bootstrap_sampen",
    "variance",
    "bias",
    "mse",
    "bootstrap_se",
]


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count B, geometric success probability q and master seed."""

    q: float
    b: int
    seed: int

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if self.b < 1:
            raise ValueError("replicate count B must be >= 1")


@dataclass(frozen=True)
class BootstrapEstimates:
    """Original estimate plus B replicate estimates and the feasibility flag.

    feasible is true iff the original value is finite and at least 90% of
    replicate values are finite.
    """

    original: SampEnResult
    replicates: tuple[SampEnResult, ...]

    @cached_property
    def _sorted_finite(self) -> np.ndarray:
        # read once per estimate set; sorting makes every moment exactly
        # invariant to replicate order
        vals = np.sort(self.finite_values())
        vals.setflags(write=False)
        return vals

    @property
    def feasible(self) -> bool:
        return _feasible(self.original, self._sorted_finite.size, len(self.replicates))

    def finite_values(self) -> np.ndarray:
        return np.array([r.value for r in self.replicates if r.finite], dtype=np.float64)


def _draw_block_lengths(q: float, size: int | tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Geom(q) block lengths with support {1, 2, ...} (P(b=1) = q, E[b] = 1/q)."""
    return rng.geometric(q, size=size)


def _block_indices(starts: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """Source indices for concatenated blocks, wrapped mod n, truncated to n.

    starts and lengths are (k,) for one replicate or (B, k) for B of them;
    starts are 0-based, lengths are >= 1 and each row sums to at least n.
    Each row's final block is shortened so exactly n indices come back,
    in an array of shape (n,) or (B, n).
    """
    shape = np.shape(starts)
    starts = np.reshape(starts, (-1, shape[-1]))
    lengths = np.reshape(lengths, starts.shape)
    begin = np.cumsum(lengths, axis=1) - lengths
    # the blocks beginning before n, the last one cut at n, fill each row
    # with exactly n positions; position i of a block is start - begin + i
    used = begin < n
    idx = np.repeat((starts - begin)[used], np.minimum(lengths, n - begin)[used]).reshape(-1, n)
    idx += np.arange(n)
    # start < n and i - begin < n, so one subtraction wraps every index
    np.subtract(idx, n, out=idx, where=idx >= n)
    return idx.reshape(shape[:-1] + (n,))


def _draw_blocks(
    n: int, q: float, rng: np.random.Generator, size: int | tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Start indices in [0, n), then Geom(q) lengths, each of shape n or (B, n)."""
    return rng.integers(0, n, size=size), _draw_block_lengths(q, size, rng)


def stationary_bootstrap(x: Signal, q: float, rng: np.random.Generator) -> Signal:
    """One stationary-bootstrap replicate of x, same length as x.

    Draws n blocks up front (enough, since lengths are >= 1) and assembles
    only as many as needed, wrapping blocks that run past the end.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    n = x.n
    return x.with_values(x.values[_block_indices(*_draw_blocks(n, q, rng, n), n)])


def _bootstrap_counts(x: Signal, p: SampEnParams, cfg: BootstrapConfig) -> tuple[SampEnResult, np.ndarray]:
    """The original sampen of x and the ordered (B, A) counts of its B replicates, as a (B, 2) array.

    All B replicates come from one stream, generator(cfg.seed): (B, n)
    starts, then (B, n) Geom(q) lengths, row b being replicate b. The draws
    depend only on (x.n, cfg), not on (m, r) or on execution order.

    A replicate's point gaps are gaps of x, so all B replicates are counted
    in one batched pass (entropy._replicate_counts) from x's point-match
    matrix, thresholded once. That matrix, read in x's sorted order, gives
    each point the rank interval of the points within r of it, so a point
    pair of a replicate matches when the partner's rank falls in the
    interval. Only half of the ordered pairs are tested: the partners at
    circular offsets d = 1..n//2, each unordered template pair once, and
    every count is doubled. The counts equal those of sampen on each
    replicate exactly.
    """
    original = sampen(x, p)
    n = x.n
    starts, lengths = _draw_blocks(n, cfg.q, generator(cfg.seed), (cfg.b, n))
    return original, _replicate_counts(x.values, _block_indices(starts, lengths, n), p.m, p.r)


def bootstrap_sampen(x: Signal, p: SampEnParams, cfg: BootstrapConfig) -> BootstrapEstimates:
    """Score B stationary-bootstrap replicates of x with sampen (see _bootstrap_counts)."""
    original, counts = _bootstrap_counts(x, p, cfg)
    z = (x.n - p.m) * (x.n - p.m - 1)
    reps = tuple(_sampen_from_counts(b_count, a_count, z) for b_count, a_count in counts.tolist())
    return BootstrapEstimates(original=original, replicates=reps)


def _sorted_finite_values(counts: np.ndarray) -> np.ndarray:
    """Sorted finite replicate values of (B, A) count rows, bit for bit as _sampen_from_counts gives them."""
    finite = counts[:, 1] > 0  # A <= B, so B > 0 too
    # int64 counts below 2**53 divide exactly as Python ints do; math.log, not
    # np.log, whose vector loop can differ from libm in the last bit
    cp = (counts[finite, 1] / counts[finite, 0]).tolist()
    return np.sort(np.array([-math.log(c) for c in cp], dtype=np.float64))


def _feasible(original: SampEnResult, n_finite: int, b: int) -> bool:
    """A finite original and at least 90% of the B replicate values finite."""
    return original.finite and 10 * n_finite >= 9 * b


def _trial_moments(x: Signal, p: SampEnParams, cfg: BootstrapConfig) -> tuple[float, float, float, float] | None:
    """(original, MSE, variance, bias) of x as mse/variance/bias of bootstrap_sampen give them, bit for bit.

    None when x cannot be scored: m too large for it, an undefined or
    infinite original, or fewer than 90% finite replicates. No
    per-replicate object is built.
    """
    try:
        original, counts = _bootstrap_counts(x, p, cfg)
    except SignalTooShort:
        return None
    vals = _sorted_finite_values(counts)
    if not _feasible(original, vals.size, cfg.b):
        return None
    return original.value, _mse(vals, original.value), _variance(vals), _bias(vals, original.value)


def _require_feasible(est: BootstrapEstimates) -> np.ndarray:
    if not est.feasible:
        raise Infeasible("bootstrap estimate set is infeasible (too many non-finite values)")
    return est._sorted_finite


def _variance(vals: np.ndarray) -> float:
    return float(np.mean((vals - vals.mean()) ** 2))


def _bias(vals: np.ndarray, original: float) -> float:
    return float(vals.mean() - original)


def _mse(vals: np.ndarray, original: float) -> float:
    return float(np.mean((original - vals) ** 2))


def variance(est: BootstrapEstimates) -> float:
    """Mean squared deviation of finite replicate values around their mean."""
    return _variance(_require_feasible(est))


def bias(est: BootstrapEstimates) -> float:
    """Mean of finite replicate values minus the original estimate."""
    return _bias(_require_feasible(est), est.original.value)


def mse(est: BootstrapEstimates) -> float:
    """Mean squared deviation of finite replicates from the original estimate.

    Equals bias(est)**2 + variance(est) exactly (same finite subset and
    divisor on both sides of the identity).
    """
    return _mse(_require_feasible(est), est.original.value)


def bootstrap_se(est: BootstrapEstimates) -> float:
    """Bootstrap standard error: sqrt of the replicate variance."""
    return math.sqrt(variance(est))
