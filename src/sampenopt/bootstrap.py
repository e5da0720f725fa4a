"""Stationary bootstrap replicates and the bootstrap variance/bias/MSE.

Replicates follow Politis & Romano's stationary bootstrap: blocks start at
a uniformly random index, have Geom(q) lengths (support {1, 2, ...},
expected length 1/q), wrap around the end of the signal, and the final
block is truncated so the replicate has exactly the original length.

bootstrap_sampen is the one bootstrap path: estimate, compare, varbench,
the CLI's per-signal records and every optimizer trial call it. It
thresholds the signal's point gaps once, scores the original from that
matrix as sampen does, draws all B replicates' blocks from
generator(cfg.seed) and scores them from the same matrix in one batched
pass (entropy._replicate_values). BootstrapEstimates holds the replicate
values as a float array and computes their finite-replicate summary (mean,
variance, MSE and bias) once per estimate set; mse, variance and bias read it.

A Geom(q) length can be as large as INT64_MAX when q is tiny; lengths are
clipped at n before they are summed, which moves no index, so as q -> 0
each replicate becomes one circular shift of the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .entropy import SampEnParams, SampEnResult, _counts_and_matches, _replicate_values, _sampen_from_counts
from .errors import Infeasible
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


class Summary(NamedTuple):
    """Moments of an estimate set's finite replicate values (see variance, bias and mse)."""

    mean: float
    variance: float
    mse: float
    bias: float


@dataclass(frozen=True, eq=False)
class BootstrapEstimates:
    """Original estimate plus the B replicate values and the feasibility flag.

    replicates is a float64 (B,) array of replicate SampEn values: inf
    where a replicate's entropy is infinite, nan where it is undefined.
    feasible is true iff the original value is finite and at least 90% of
    replicate values are finite. (eq=False: the array has no truth value,
    and nan never equals itself.)
    """

    original: SampEnResult
    replicates: np.ndarray

    @cached_property
    def _sorted_finite(self) -> np.ndarray:
        # read once per estimate set; sorting makes every moment exactly
        # invariant to replicate order
        vals = np.sort(self.finite_values())
        vals.setflags(write=False)
        return vals

    @property
    def feasible(self) -> bool:
        return self.original.finite and 10 * self._sorted_finite.size >= 9 * self.replicates.size

    @cached_property
    def summary(self) -> Summary:
        """The finite replicates' mean, variance, MSE and bias, computed once; Infeasible if not feasible."""
        if not self.feasible:
            raise Infeasible("bootstrap estimate set is infeasible (too many non-finite values)")
        vals, theta = self._sorted_finite, self.original.value
        mean = vals.mean()
        return Summary(float(mean), float(np.mean((vals - mean) ** 2)), float(np.mean((theta - vals) ** 2)),
                       float(mean - theta))

    def finite_values(self) -> np.ndarray:
        return self.replicates[np.isfinite(self.replicates)]


def _draw_block_lengths(q: float, size: int | tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Geom(q) block lengths with support {1, 2, ...} (P(b=1) = q, E[b] = 1/q)."""
    return rng.geometric(q, size=size)


def _block_indices(starts: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """Source indices for concatenated blocks, wrapped mod n, truncated to n.

    starts and lengths are (B, k), row b being replicate b; starts are
    0-based, lengths are >= 1 and each row sums to at least n. Each row's
    final block is shortened so exactly n indices come back, as (B, n).
    lengths is clipped at n in place: a block of n or more fills the rest of
    its row either way, and a tiny q's lengths near INT64_MAX would
    overflow the sum.
    """
    np.minimum(lengths, n, out=lengths)
    begin = np.cumsum(lengths, axis=1) - lengths
    # the blocks beginning before n, the last one cut at n, fill each row
    # with exactly n positions; position i of a block is start - begin + i
    used = begin < n
    idx = np.repeat((starts - begin)[used], np.minimum(lengths, n - begin)[used]).reshape(-1, n)
    idx += np.arange(n)
    # start < n and i - begin < n, so one subtraction wraps every index
    np.subtract(idx, n, out=idx, where=idx >= n)
    return idx


def _draw_blocks(n: int, q: float, rng: np.random.Generator, size: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Start indices in [0, n), then Geom(q) lengths, each of shape size = (B, n)."""
    return rng.integers(0, n, size=size), _draw_block_lengths(q, size, rng)


def stationary_bootstrap(x: Signal, q: float, rng: np.random.Generator) -> Signal:
    """One stationary-bootstrap replicate of x, same length as x.

    Draws n blocks up front (enough, since lengths are >= 1) and assembles
    only as many as needed, wrapping blocks that run past the end.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    n = x.n
    return x.with_values(x.values[_block_indices(*_draw_blocks(n, q, rng, (1, n)), n)[0]])


def bootstrap_sampen(x: Signal, p: SampEnParams, cfg: BootstrapConfig) -> BootstrapEstimates:
    """The original sampen of x and the sampen values of its B stationary-bootstrap replicates.

    All B replicates come from one stream, generator(cfg.seed): (B, n)
    starts, then (B, n) Geom(q) lengths, row b being replicate b. The draws
    depend only on (x.n, cfg), not on (m, r) or on execution order.

    A replicate's point gaps are gaps of x, so the original and all B
    replicates are counted from x's point-match matrix, thresholded once:
    the original as sampen counts it, the replicates in one batched pass
    (entropy._replicate_counts). That matrix, read in x's sorted order,
    gives each point the rank interval of the points within r of it, so a
    point pair of a replicate matches when the partner's rank falls in the
    interval. Only half of the ordered pairs are tested: the partners at
    circular offsets d = 1..n//2, each unordered template pair once, and
    every count is doubled. The point tests are packed into 64-bit words,
    and the m- and (m+1)-template matches come from shifting and ANDing
    those words. Each replicate value equals sampen's on that replicate
    exactly.
    """
    counts, g = _counts_and_matches(x, p)
    n = x.n
    starts, lengths = _draw_blocks(n, cfg.q, generator(cfg.seed), (cfg.b, n))
    replicates = _replicate_values(x.values, g, _block_indices(starts, lengths, n), p.m)
    return BootstrapEstimates(_sampen_from_counts(counts), replicates)


def variance(est: BootstrapEstimates) -> float:
    """Mean squared deviation of finite replicate values around their mean."""
    return est.summary.variance


def bias(est: BootstrapEstimates) -> float:
    """Mean of finite replicate values minus the original estimate."""
    return est.summary.bias


def mse(est: BootstrapEstimates) -> float:
    """Mean squared deviation of finite replicates from the original estimate.

    Equals bias(est)**2 + variance(est) exactly (same finite subset and
    divisor on both sides of the identity).
    """
    return est.summary.mse


def bootstrap_se(est: BootstrapEstimates) -> float:
    """Bootstrap standard error: sqrt of the replicate variance."""
    return math.sqrt(variance(est))
