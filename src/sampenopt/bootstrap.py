"""Stationary bootstrap replicates and the bootstrap variance/bias/MSE.

Replicates follow Politis & Romano's stationary bootstrap: blocks start at
a uniformly random index, have Geom(q) lengths (support {1, 2, ...},
expected length 1/q), wrap around the end of the signal, and the final
block is truncated so the replicate has exactly the original length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import SampEnParams, SampEnResult, _replicate_counts, _sampen_from_counts, sampen
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
        return self.original.finite and 10 * self._sorted_finite.size >= 9 * len(self.replicates)

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
    # mark the output position where each block begins (blocks beginning
    # past the end all land in the dropped column n); the running count of
    # marks is then the block each output position belongs to
    marks = np.zeros((starts.shape[0], n + 1), dtype=np.intp)
    marks[np.arange(starts.shape[0])[:, None], np.minimum(begin, n)] = 1
    block = np.cumsum(marks[:, :n], axis=1) - 1
    idx = (np.take_along_axis(starts - begin, block, axis=1) + np.arange(n)) % n
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


def bootstrap_sampen(x: Signal, p: SampEnParams, cfg: BootstrapConfig) -> BootstrapEstimates:
    """Score B stationary-bootstrap replicates of x with sampen.

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
    z = (n - p.m) * (n - p.m - 1)
    starts, lengths = _draw_blocks(n, cfg.q, generator(cfg.seed), (cfg.b, n))
    counts = _replicate_counts(x.values, _block_indices(starts, lengths, n), p.m, p.r)
    reps = tuple(_sampen_from_counts(b_count, a_count, z) for b_count, a_count in counts.tolist())
    return BootstrapEstimates(original=original, replicates=reps)


def _require_feasible(est: BootstrapEstimates) -> np.ndarray:
    if not est.feasible:
        raise Infeasible("bootstrap estimate set is infeasible (too many non-finite values)")
    return est._sorted_finite


def variance(est: BootstrapEstimates) -> float:
    """Mean squared deviation of finite replicate values around their mean."""
    vals = _require_feasible(est)
    return float(np.mean((vals - vals.mean()) ** 2))


def bias(est: BootstrapEstimates) -> float:
    """Mean of finite replicate values minus the original estimate."""
    vals = _require_feasible(est)
    return float(vals.mean() - est.original.value)


def mse(est: BootstrapEstimates) -> float:
    """Mean squared deviation of finite replicates from the original estimate.

    Equals bias(est)**2 + variance(est) exactly (same finite subset and
    divisor on both sides of the identity).
    """
    vals = _require_feasible(est)
    return float(np.mean((est.original.value - vals) ** 2))


def bootstrap_se(est: BootstrapEstimates) -> float:
    """Bootstrap standard error: sqrt of the replicate variance."""
    return math.sqrt(variance(est))
