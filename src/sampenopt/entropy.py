"""Sample entropy, fuzzy entropy and the counting-based standard error.

Template matching follows the Richman & Moorman (2000) construction with
delay fixed at 1. Matches at template lengths m and m+1 are counted over
the common start-index range {0, ..., N-m-1} (0-based), so both counts
share the normalizer Z = (N-m)(N-m-1) over ordered pairs, the conditional
probability CP = A/B is a like-to-like ratio, and an (m+1)-match always
implies an m-match. Distances are Chebyshev (L-inf); a match is d <= r
(closed ball). Self-matches are never counted.

The radius r is interpreted in units of the normalized signal's standard
deviation, i.e. r = 0.20 means 0.20 sigma on a unit-variance signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SignalTooShort, UndefinedEntropy
from .signal import Signal

__all__ = [
    "SampEnParams",
    "MatchCounts",
    "SampEnResult",
    "count_matches",
    "sampen",
    "fuzzen",
    "counting_se",
    "cp_sigma",
]


@dataclass(frozen=True)
class SampEnParams:
    """Embedding dimension m >= 1 and finite similarity radius r > 0 (delay is 1)."""

    m: int
    r: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("embedding dimension m must be >= 1")
        if not (0 < self.r < math.inf):
            raise ValueError("similarity radius r must be positive and finite")


@dataclass(frozen=True)
class MatchCounts:
    """Ordered-pair match counts at lengths m (b_count) and m+1 (a_count).

    z = (N-m)(N-m-1) is the number of ordered index pairs, shared by both
    counts. Each unordered match is counted twice, so both counts are even.
    """

    b_count: int
    a_count: int
    z: int

    def __post_init__(self):
        if self.a_count > self.b_count:
            raise ValueError("a_count cannot exceed b_count")


@dataclass(frozen=True)
class SampEnResult:
    """SampEn estimate with its match probabilities.

    value is -log(am/bm) when defined, math.inf when bm > 0 but am = 0,
    and None (undefined) when bm = 0. cp is None exactly when bm = 0.
    """

    bm: float
    am: float
    cp: float | None
    value: float | None

    @property
    def defined(self) -> bool:
        return self.value is not None

    @property
    def finite(self) -> bool:
        return self.value is not None and math.isfinite(self.value)


def _point_matches(x: np.ndarray, r: float) -> np.ndarray:
    """Boolean (N, N) matrix of point gaps within the radius, |x_i - x_j| <= r."""
    d = x[:, None] - x[None, :]
    # in place: one float (N, N) temporary, not two
    return np.abs(d, out=d) <= r


def _match_matrices(g: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean match incidence of m- and (m+1)-templates from point matches g.

    g is _point_matches of an N-point signal. Both matrices are restricted
    to the common start range 0..N-m-1 and have shape (N-m, N-m); entry
    (i, j) is true when the templates at i and j lie within r in Chebyshev
    distance (the diagonal is always true). ANDing the diagonal shifts of
    g equals thresholding the running maximum of the point gaps, because
    max(gaps) <= r holds iff every gap <= r. At m = 1 the m-match matrix
    is a view of g.
    """
    nt = g.shape[0] - m
    match_m = g[:nt, :nt]
    for k in range(1, m):
        match_m = match_m & g[k:k + nt, k:k + nt]
    return match_m, match_m & g[m:, m:]


def _ordered_counts(g: np.ndarray, m: int) -> tuple[int, int]:
    """Ordered template-pair matches (B, A) at lengths m and m+1, self-matches excluded."""
    nt = g.shape[0] - m
    match_m, match_m1 = _match_matrices(g, m)
    return int(np.count_nonzero(match_m)) - nt, int(np.count_nonzero(match_m1)) - nt


_CHUNK_PAIRS = 2**17  # point pairs tested per chunk of replicates, about 1 MB of temporaries
_NARROW_RANKS_BELOW = 2**15  # signals shorter than this rank in int16 (faster than int32)


def _replicate_counts(x: np.ndarray, idx: np.ndarray, m: int, r: float) -> np.ndarray:
    """Ordered (B, A) match counts of every resampled signal x[idx[b]], as a (B, 2) array.

    Row b equals _ordered_counts(_point_matches(x, r)[i][:, i], m) for
    i = idx[b], without gathering any (N, N) block. The float gap test
    rounds monotonically, so the points within r of x_i form one
    contiguous run of x's stable sort order: ranks lo_i .. lo_i + width_i,
    both read from _point_matches (ties included). A point pair (s, t) of
    a resample then matches iff rank[t] - lo[s], viewed as unsigned, is
    <= width[s].

    Pairs (s, (s + d) mod N) for d = 1..N//2 cover every unordered pair
    once (row d = N/2 of an even N twice, so its wrapped half is masked),
    and the partner ranks of row d are a window of the doubled rank row.
    A template at start s is compared with the one at (s + d) mod N when
    both lie in 0..nt-1 (nt = N - m): forward s <= nt-1-d, or wrapped
    N-d <= s <= nt-1. ANDing m (then m+1) shifted point tests gives the
    template matches; each unordered match is counted once and doubled.
    """
    n, b = x.size, idx.shape[0]
    nt, half = n - m, n // 2
    rank_t, width_t = (np.int16, np.uint16) if n < _NARROW_RANKS_BELOW else (np.int32, np.uint32)
    order = np.argsort(x, kind="stable")
    rank = np.empty(n, dtype=rank_t)
    rank[order] = np.arange(n, dtype=rank_t)
    g = _point_matches(x, r)[:, order]
    lo = np.argmax(g, axis=1).astype(rank_t)[idx][:, None, :]
    width = (np.count_nonzero(g, axis=1) - 1).astype(width_t)[idx][:, None, :]
    ranks = rank[idx]
    partners = np.lib.stride_tricks.sliding_window_view(np.concatenate((ranks, ranks), axis=1), n, axis=1)
    d = np.arange(1, half + 1)[:, None]
    s = np.arange(nt)
    packed_valid = np.packbits((s <= nt - 1 - d) | ((s >= n - d) & (2 * d < n)))
    step = max(1, _CHUNK_PAIRS // (half * n))
    gaps = np.empty((min(step, b), half, n), dtype=rank_t)
    point = np.empty(gaps.shape, dtype=bool)
    template = np.empty((gaps.shape[0], half, nt), dtype=bool)
    counts = np.empty((b, 2), dtype=np.int64)
    for c in range(0, b, step):
        k = min(step, b - c)
        rows = slice(c, c + k)
        np.subtract(partners[rows, 1:half + 1], lo[rows], out=gaps[:k])
        np.less_equal(gaps[:k].view(width_t), width[rows], out=point[:k])
        tm = template[:k]
        if m == 1:
            np.copyto(tm, point[:k, :, :nt])
        else:
            np.logical_and(point[:k, :, :nt], point[:k, :, 1:1 + nt], out=tm)
        for j in range(2, m):
            tm &= point[:k, :, j:j + nt]
        flat = tm.reshape(k, -1)  # a view: it also sees the (m+1)-th AND below
        # the valid mask is applied to the packed bits, 8 pairs per byte
        counts[rows, 0] = np.bitwise_count(np.packbits(flat, axis=1) & packed_valid).sum(axis=1)
        tm &= point[:k, :, m:m + nt]
        counts[rows, 1] = np.bitwise_count(np.packbits(flat, axis=1) & packed_valid).sum(axis=1)
    return 2 * counts


def _require_length(x: Signal, m: int) -> None:
    """Raise SignalTooShort unless N >= m + 2, so the common index range is non-degenerate."""
    if x.n < m + 2:
        raise SignalTooShort(f"signal {x.id!r}: need N >= m + 2 = {m + 2}, got N = {x.n}")


def count_matches(x: Signal, p: SampEnParams) -> MatchCounts:
    """Count ordered template-pair matches at lengths m and m+1 (needs N >= m + 2)."""
    _require_length(x, p.m)
    nt = x.n - p.m
    b_count, a_count = _ordered_counts(_point_matches(x.values, p.r), p.m)
    return MatchCounts(b_count=b_count, a_count=a_count, z=nt * (nt - 1))


def _sampen_value(b_count: int, a_count: int) -> float:
    """-log(A/B) from ordered match counts: math.inf when A = 0, nan (undefined) when B = 0.

    The one value rule: sampen's results and the bootstrap replicate
    values (_replicate_values) both come from it.
    """
    if b_count == 0:
        return math.nan
    if a_count == 0:
        return math.inf
    return -math.log(a_count / b_count)


def _sampen_from_counts(b_count: int, a_count: int, z: int) -> SampEnResult:
    """SampEn result from ordered match counts and the shared normalizer z."""
    bm = b_count / z
    am = a_count / z
    if b_count == 0:
        return SampEnResult(bm=bm, am=am, cp=None, value=None)
    return SampEnResult(bm=bm, am=am, cp=a_count / b_count, value=_sampen_value(b_count, a_count))


def _replicate_values(x: np.ndarray, idx: np.ndarray, m: int, r: float) -> np.ndarray:
    """SampEn of every resampled signal x[idx[b]], as a read-only float64 (B,) array.

    Entry b is sampen's value on x[idx[b]] bit for bit, with nan where it is
    undefined: the counts of _replicate_counts go through _sampen_value as
    Python ints, so each value takes math.log, not np.log, whose vector loop
    can differ from libm in the last bit.
    """
    b_counts, a_counts = _replicate_counts(x, idx, m, r).T.tolist()
    vals = np.array(list(map(_sampen_value, b_counts, a_counts)), dtype=np.float64)
    vals.setflags(write=False)
    return vals


def sampen(x: Signal, p: SampEnParams) -> SampEnResult:
    """Sample entropy estimate -log(A/B) with explicit undefined/infinite states."""
    c = count_matches(x, p)
    return _sampen_from_counts(c.b_count, c.a_count, c.z)


def _fuzzy_log_phi(x: np.ndarray, k: int, nt: int, r: float, eta: float) -> float:
    """log of the mean fuzzy membership over ordered baseline-removed k-template pairs.

    Works in the log domain so tiny memberships (large (d/r)^eta) never
    underflow the average to zero; self-pairs are excluded by masking.
    """
    t = np.lib.stride_tricks.sliding_window_view(x, k)[:nt].astype(np.float64)
    t = t - t.mean(axis=1, keepdims=True)
    d = np.abs(t[:, None, :] - t[None, :, :]).max(axis=2)
    with np.errstate(over="ignore"):
        u = -np.power(d / r, eta)
    # clamp so an overflowed exponent cannot poison the max-shift with -inf
    u = np.maximum(u, -1e300)
    np.fill_diagonal(u, -np.inf)
    top = u.max()
    return float(top + np.log(np.exp(u - top).sum()) - math.log(nt * (nt - 1)))


def _fuzzen_params(m: int, r: float, eta: float) -> SampEnParams:
    """fuzzen's settings: SampEnParams' rules on m and r, and a positive, finite eta."""
    params = SampEnParams(m=m, r=r)
    if not (0 < eta < math.inf):
        raise ValueError("fuzzy exponent eta must be positive and finite")
    return params


def fuzzen(x: Signal, m: int, r: float, eta: float = 2.0) -> float:
    """Fuzzy entropy: -log(phi_{m+1}/phi_m) with membership exp(-(d/r)^eta).

    Templates are baseline-removed (each minus its own mean) following
    Chen et al.'s fuzzy entropy convention, and both phi terms average over
    the same ordered index range as sampen. Always finite for finite input.
    """
    _fuzzen_params(m, r, eta)
    _require_length(x, m)
    nt = x.n - m
    return _fuzzy_log_phi(x.values, m, nt, r, eta) - _fuzzy_log_phi(x.values, m + 1, nt, r, eta)


def _overlap_counts(match_b: np.ndarray, match_a: np.ndarray, m: int) -> tuple[int, int]:
    """Ordered counts of overlapping distinct pairs-of-pairs (K_B, K_A).

    match_b: boolean (nt, nt) strictly upper-triangular incidence of the
    unordered matching m-template pairs (i < j); match_a: its subset that
    also matches at length m+1. Two pairs p = (i, j) and q = (k, l)
    overlap when any of their four (m+1)-point template windows [s, s+m]
    intersect, i.e. when k or l lies in U = W(i) | W(j) with
    W(c) = [c-m, c+m] clipped to [0, nt-1]. For each p, inclusion-exclusion
    gives the overlapping q != p as rows(U) + cols(U) - M(U x U) - 1, with
    U split into the disjoint intervals [a1, b1) = W(i) and
    [a2, b2) = W(j) minus W(i). Row and column sums come from 1-D prefix
    sums and M(U x U) from rectangle sums over one 2-D prefix sum, so each
    count costs O(nt^2 + K) integer operations and equals the all-pairs
    O(K^2) comparison exactly.
    """
    nt = match_b.shape[0]
    counts = []
    for match in (match_b, match_a):
        ps = np.zeros((nt + 1, nt + 1), dtype=np.int64)
        np.cumsum(np.cumsum(match, axis=0, dtype=np.int64), axis=1, out=ps[1:, 1:])
        i, j = np.nonzero(match)
        a1 = np.maximum(i - m, 0)
        b1 = np.minimum(i + m + 1, nt)
        b2 = np.minimum(j + m + 1, nt)
        a2 = np.minimum(np.maximum(j - m, b1), b2)
        # matches with a row in U, plus those with a column in U (row and
        # column prefix sums are the last column and row of ps)
        touching = sum(pre[b1] - pre[a1] + pre[b2] - pre[a2] for pre in (ps[:, nt], ps[nt, :]))
        # M(U x U): M is strictly upper-triangular and every row of [a2, b2)
        # lies past every column of [a1, b1), so that fourth block is 0
        inside = sum(
            ps[r1, c1] - ps[r0, c1] - ps[r1, c0] + ps[r0, c0]
            for r0, r1, c0, c1 in ((a1, b1, a1, b1), (a1, b1, a2, b2), (a2, b2, a2, b2))
        )
        counts.append(int((touching - inside - 1).sum()))
    return counts[0], counts[1]


def cp_sigma(x: Signal, p: SampEnParams) -> tuple[float, float]:
    """Conditional probability CP and its counting-based standard deviation.

    Follows Lake et al. (2002): treat each of the B unordered matching
    m-template pairs as a Bernoulli trial for extension to an (m+1)-match,
    and correct for correlation between overlapping pairs:

        var(CP) = CP(1 - CP)/B + (K_A - K_B CP^2)/B^2

    where K_B counts ordered distinct overlapping pairs of matching
    m-pairs and K_A the same among pairs that also match at length m+1
    (E[X_p X_q] for overlapping pairs is estimated by K_A/K_B). Negative
    corrected variance is clamped to zero. K_B and K_A are exact integer
    counts from the window-union identity in _overlap_counts, at
    O(N^2 + K) cost for K matching pairs, so no pair of pairs is
    enumerated.

    Raises UndefinedEntropy when CP is undefined (B = 0) or zero (A = 0).
    """
    _require_length(x, p.m)
    match_m, match_m1 = _match_matrices(_point_matches(x.values, p.r), p.m)
    match_b = np.triu(match_m, 1)
    b_un = int(np.count_nonzero(match_b))
    if b_un == 0:
        raise UndefinedEntropy(f"signal {x.id!r}: no template matches at (m={p.m}, r={p.r})")
    match_a = match_b & match_m1
    a_un = int(np.count_nonzero(match_a))
    cp = a_un / b_un
    if a_un == 0:
        raise UndefinedEntropy(f"signal {x.id!r}: CP = 0 at (m={p.m}, r={p.r}); entropy infinite")
    kb, ka = _overlap_counts(match_b, match_a, p.m)
    var_cp = cp * (1.0 - cp) / b_un + (ka - kb * cp * cp) / (b_un * b_un)
    return cp, math.sqrt(max(var_cp, 0.0))


def counting_se(x: Signal, p: SampEnParams) -> float:
    """Counting-based standard error of the SampEn estimate: sigma_CP / CP.

    The corresponding SampEn variance estimate is this value squared
    (delta method through -log). Requires a finite entropy estimate.
    """
    cp, sigma = cp_sigma(x, p)
    return sigma / cp
