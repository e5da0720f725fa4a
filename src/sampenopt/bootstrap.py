"""Stationary bootstrap replicates and the bootstrap variance/bias/MSE.

Replicates follow Politis & Romano's stationary bootstrap: blocks start at
a uniformly random index, have Geom(q) lengths (support {1, 2, ...},
expected length 1/q), wrap around the end of the signal, and the final
block is truncated so the replicate has exactly the original length.

A bootstrap's draws are one BlockDraws table: (B, n) start indices, then
(B, n) standard-exponential draws E. The Geom(q) lengths come from E by
inversion, ceil(E / c) with c = -log1p(-q), so one table serves every q
and a larger q never lengthens a block. An optimizer search draws each
signal's table once and every trial reuses it (common random numbers).

bootstrap_sampen is the one bootstrap path: estimate, compare, varbench,
the CLI's per-signal records and every optimizer trial call it. It takes
all B replicates' blocks from one table (drawn from generator(cfg.seed),
or passed in), and scores the original, as the identity row 0, and the B
replicates in one batched pass over the signal's rank plan, built once per
search or per call, with no (N, N) match matrix (entropy._replicate_values).
BootstrapEstimates holds the replicate values as a float array and
computes their finite-replicate summary (mean, variance, MSE and bias) once
per estimate set; callers read the moments from it.

As q -> 0 the inverted lengths grow without bound; E is clipped at n*c
before the division, so a length is at most n, and each replicate becomes
one circular shift of the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .entropy import SampEnParams, SampEnResult, _RankPlan, _replicate_values, _require_length
from .errors import Infeasible
from .rng import generator
from .signal import Signal

__all__ = [
    "BootstrapConfig",
    "BootstrapEstimates",
    "stationary_bootstrap",
    "bootstrap_sampen",
]


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count B, geometric success probability q and master seed.

    The seed names the stream of the blocks' draws, generator(seed); q only
    turns the drawn exponentials into lengths, so configs that differ only in
    q resample with the same starts and nested block lengths.
    """

    q: float
    b: int
    seed: int

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if self.b < 1:
            raise ValueError("replicate count B must be >= 1")


class Summary(NamedTuple):
    """Moments of an estimate set's finite replicate values v around the original estimate theta.

    variance is mean((v - mean)**2), mse is mean((theta - v)**2) and bias is
    mean - theta, each over the same finite subset and divisor, so
    mse = bias**2 + variance in exact arithmetic. The bootstrap SE is
    sqrt(variance).
    """

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
        # sum() / size is np.mean's arithmetic, without its dispatch
        mean = vals.sum() / vals.size
        return Summary(float(mean), float(((vals - mean) ** 2).sum() / vals.size),
                       float(((theta - vals) ** 2).sum() / vals.size), float(mean - theta))

    def finite_values(self) -> np.ndarray:
        return self.replicates[np.isfinite(self.replicates)]


def _block_indices(starts: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """Source indices for concatenated blocks, wrapped mod n, truncated to n.

    starts and lengths are (B, k), row b being replicate b; starts are
    0-based, lengths are >= 1 and each row sums to at least n, without
    overflowing int64 (_block_lengths keeps every length <= n). Each row's
    final block is shortened so exactly n indices come back, as (B, n).
    """
    begin = np.cumsum(lengths, axis=1) - lengths
    # the blocks beginning before n, the last one cut at n, fill each row
    # with exactly n positions; position i of a block is start - begin + i
    used = begin < n
    idx = np.repeat((starts - begin)[used], np.minimum(lengths, n - begin)[used]).reshape(-1, n)
    idx += np.arange(n)
    # start < n and i - begin < n, so one subtraction wraps every index
    np.subtract(idx, n, out=idx, where=idx >= n)
    return idx


class BlockDraws(NamedTuple):
    """One bootstrap's draws, row b being replicate b: (B, n) int64 starts in [0, n), then (B, n) Exp(1) draws.

    Both arrays are read-only, so one table can serve many bootstrap_sampen
    calls. plan, when set, is the signal's rank plan (entropy._RankPlan),
    built with the table once per search.
    """

    starts: np.ndarray
    exponentials: np.ndarray
    plan: _RankPlan | None = None


def _draw_blocks(n: int, b: int, rng: np.random.Generator) -> BlockDraws:
    """(b, n) start indices in [0, n), then (b, n) standard-exponential draws, from rng in that order."""
    draws = BlockDraws(rng.integers(0, n, size=(b, n)), rng.standard_exponential((b, n)))
    for a in (draws.starts, draws.exponentials):
        a.setflags(write=False)
    return draws


def _block_lengths(exponentials: np.ndarray, q: float, n: int) -> np.ndarray:
    """Geom(q) block lengths in [1, n] from Exp(1) draws E by inversion.

    With c = -log1p(-q), ceil(E / c) is Geom(q) on {1, 2, ...}:
    P(ceil(E / c) > k) = P(E > k c) = (1 - q)**k. E is clipped at n*c
    before dividing, since at a tiny q (c down to 5e-324) E / c would
    overflow; a length of n or more fills the rest of its row either way.
    The lengths are non-increasing in q, draw by draw.
    """
    c = -math.log1p(-q)
    lengths = np.minimum(exponentials, n * c)
    lengths /= c
    np.ceil(lengths, out=lengths)
    # E = 0 gives 0, and n*c / c can round past n
    np.clip(lengths, 1, n, out=lengths)
    return lengths.astype(np.int64)


def stationary_bootstrap(x: Signal, q: float, rng: np.random.Generator) -> Signal:
    """One stationary-bootstrap replicate of x, same length as x.

    Draws n blocks up front (enough, since lengths are >= 1) as a one-row
    table, as bootstrap_sampen draws B rows, and assembles only as many as
    needed, wrapping blocks that run past the end.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    n = x.n
    draws = _draw_blocks(n, 1, rng)
    return x.with_values(x.values[_block_indices(draws.starts, _block_lengths(draws.exponentials, q, n), n)[0]])


def bootstrap_sampen(
    x: Signal, p: SampEnParams, cfg: BootstrapConfig, blocks: BlockDraws | None = None
) -> BootstrapEstimates:
    """The original sampen of x and the sampen values of its B stationary-bootstrap replicates.

    All B replicates come from one table, _draw_blocks(x.n, cfg.b,
    generator(cfg.seed)): (B, n) starts, then (B, n) exponentials that
    become Geom(cfg.q) lengths by inversion, row b being replicate b. The
    draws depend only on (x.n, cfg.b, cfg.seed), not on (m, r, q) or on
    execution order. blocks, when given, must be that table, drawn earlier:
    an optimizer search draws it once per signal and passes it, with x's
    rank plan as its plan, to every trial, which then makes no draw and
    builds no plan. The estimates are the same either way.

    A replicate's point gaps are gaps of x, so x and all B replicates are
    counted in one batched pass over x's rank plan (entropy._RankPlan), x
    as its identity row 0 (entropy._replicate_counts), and a call without a
    plan builds one; no call thresholds an (N, N) match matrix. The original
    equals sampen(x, p), and each replicate value sampen's on that
    replicate, exactly.
    """
    _require_length(x, p.m)
    n = x.n
    if blocks is None:
        blocks = _draw_blocks(n, cfg.b, generator(cfg.seed))
    elif blocks.starts.shape != (cfg.b, n):
        raise ValueError(f"block draws have shape {blocks.starts.shape}, need (B, n) = {(cfg.b, n)}")
    plan = _RankPlan(x.values) if blocks.plan is None else blocks.plan
    lengths = _block_lengths(blocks.exponentials, cfg.q, n)
    return BootstrapEstimates(*_replicate_values(plan, p, _block_indices(blocks.starts, lengths, n)))

