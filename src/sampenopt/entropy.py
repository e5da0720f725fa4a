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

import functools
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


def _matrix_counts(match_m: np.ndarray, match_m1: np.ndarray) -> tuple[int, int]:
    """Ordered matches (B, A) on the match matrices of _match_matrices, self-matches (the diagonal) excluded."""
    nt = match_m.shape[0]
    return int(np.count_nonzero(match_m)) - nt, int(np.count_nonzero(match_m1)) - nt


def _ordered_counts(g: np.ndarray, m: int) -> tuple[int, int]:
    """Ordered template-pair matches (B, A) at lengths m and m+1, self-matches excluded."""
    return _matrix_counts(*_match_matrices(g, m))


_CHUNK_PAIRS = 2**17  # point pairs tested per chunk of replicates, a few hundred KB of temporaries at uint8 ranks
# (largest N, rank dtype): a signal ranks in the first tier that holds N
_RANK_TIERS = ((2**8, np.uint8), (2**16, np.uint16), (2**32, np.uint32))


@functools.lru_cache(maxsize=16)
def _valid_words(n: int, m: int) -> np.ndarray:
    """The template pairs _replicate_counts compares, packed as (n // 2, words) little-endian 64-bit rows.

    Bit s of row d - 1 is set when the templates at s and (s + d) mod n
    both start in 0..nt-1 (nt = n - m): forward s <= nt-1-d, or wrapped
    n-d <= s <= nt-1, the wrapped half of d = n/2 at even n excluded
    (it repeats the forward half). Read-only, as it is shared.
    """
    nt, half, words = n - m, n // 2, -(-n // 64)
    d = np.arange(1, half + 1)[:, None]
    s = np.arange(64 * words)
    valid = (s <= nt - 1 - d) | ((s >= n - d) & (s < nt) & (2 * d < n))
    packed = np.packbits(valid, bitorder="little").view("<u8").reshape(half, words)
    packed.setflags(write=False)
    return packed


def _shifted(words: np.ndarray, j: int) -> np.ndarray:
    """A flat stream of little-endian 64-bit words shifted right by j bits, j // 64 words shorter.

    Bit p of the result is bit p + j of words: the word j // 64 further
    on, shifted right by j % 64 and filled from the one after it.
    """
    q, j = divmod(j, 64)
    out = words[q:]
    if j:
        out = out >> j
        out[:-1] |= words[q + 1:] << (64 - j)
    return out


def _replicate_counts(x: np.ndarray, g: np.ndarray, idx: np.ndarray, m: int) -> np.ndarray:
    """Ordered (B, A) match counts of every resampled signal x[idx[b]], as a (B, 2) array.

    g is x's point-match matrix _point_matches(x, r). Row b equals
    _ordered_counts(g[i][:, i], m) for i = idx[b], without gathering any
    (N, N) block. The float gap test rounds monotonically, so the points
    within r of x_i form one contiguous run of x's stable sort order:
    ranks lo_i .. lo_i + width_i, the first and last true entries of g's
    row i in sorted order (ties included). A point pair (s, t) of a
    resample then matches iff rank[t] - lo[s] <= width[s] in unsigned
    arithmetic. Ranks take the first unsigned dtype of _RANK_TIERS that
    holds N (uint8 up to N = 256, then uint16, then uint32), 2**w values
    wide: a partner below the run, rank[t] < lo[s], wraps to
    2**w - (lo[s] - rank[t]) >= 2**w - lo[s] > N - 1 - lo[s] >= width[s],
    so one compare tests the run.

    Pairs (s, (s + d) mod N) for d = 1..N//2 cover every unordered pair
    once, and the partner ranks of row d are a window of the doubled rank
    row. Each chunk of replicates tests its (k, N//2, N) point pairs in one
    subtract and one compare, into bool rows padded to whole 64-bit words,
    and packs them once, flat and little-endian: bit s of row (b, d) is
    the test of (s, (s + d) mod N), read as '<u8' words on any host. The
    template at start s matches its partner at length m iff bits s..s+m-1
    of its row are set, so the m-matches are the row ANDed with itself
    shifted right by 1..m-1 bits (_shifted), and the (m+1)-matches one
    shift by m more. A shift runs over the chunk's flat word stream: a
    shift by j >= 64 skips whole words, and bits that cross into the row
    before land at s >= 64 * row_words - j >= nt. Those and every other pair
    outside the comparisons are cleared by the packed validity mask
    _valid_words(N, m), ANDed in before the first shift; the set bits are
    counted with bitwise_count on the words, each unordered match once,
    and doubled.
    """
    n, b = x.size, idx.shape[0]
    half, row_words = n // 2, -(-n // 64)
    rank_t = next(rank_t for most, rank_t in _RANK_TIERS if n <= most)
    order = np.argsort(x, kind="stable")
    rank = np.empty(n, dtype=rank_t)
    rank[order] = np.arange(n, dtype=rank_t)
    g = g[:, order]
    first = np.argmax(g, axis=1)
    last = n - 1 - np.argmax(g[:, ::-1], axis=1)
    lo = np.take(first.astype(rank_t), idx)[:, None, :]
    width = np.take((last - first).astype(rank_t), idx)[:, None, :]
    ranks = np.take(rank, idx)
    partners = np.lib.stride_tricks.sliding_window_view(np.concatenate((ranks, ranks), axis=1), n, axis=1)
    valid = _valid_words(n, m).reshape(-1)
    step = max(1, _CHUNK_PAIRS // (half * n))
    gaps = np.empty((min(step, b), half, n), dtype=rank_t)
    point = np.zeros((gaps.shape[0], half, 64 * row_words), dtype=bool)  # bits past N are never counted
    # the m- and (m+1)-template matches of a chunk, word for word
    both = np.empty((2, gaps.shape[0] * valid.size), dtype="<u8")
    counts = np.empty((b, 2), dtype=np.int64)
    for c in range(0, b, step):
        k = min(step, b - c)
        rows = slice(c, c + k)
        np.subtract(partners[rows, 1:half + 1], lo[rows], out=gaps[:k])
        np.less_equal(gaps[:k], width[rows], out=point[:k, :, :n])
        packed = np.packbits(point[:k], bitorder="little").view("<u8")
        tm, tm1 = both[:, :packed.size]
        np.bitwise_and(packed.reshape(k, -1), valid, out=tm.reshape(k, -1))
        for j in range(1, m):
            shifted = _shifted(packed, j)
            tm[:shifted.size] &= shifted
        shifted = _shifted(packed, m)
        np.bitwise_and(tm[:shifted.size], shifted, out=tm1[:shifted.size])
        tm1[shifted.size:] = 0  # the last m // 64 words hold no template start below nt
        counts[rows] = np.bitwise_count(both[:, :packed.size]).reshape(2, k, -1).sum(axis=2).T
    return 2 * counts


def _require_length(x: Signal, m: int) -> None:
    """Raise SignalTooShort unless N >= m + 2, so the common index range is non-degenerate."""
    if x.n < m + 2:
        raise SignalTooShort(f"signal {x.id!r}: need N >= m + 2 = {m + 2}, got N = {x.n}")


def _counts_and_matches(x: Signal, p: SampEnParams) -> tuple[MatchCounts, np.ndarray]:
    """count_matches(x, p) and the point-match matrix it counted on, for a caller that reuses it."""
    _require_length(x, p.m)
    g = _point_matches(x.values, p.r)
    nt = x.n - p.m
    b_count, a_count = _ordered_counts(g, p.m)
    return MatchCounts(b_count=b_count, a_count=a_count, z=nt * (nt - 1)), g


def count_matches(x: Signal, p: SampEnParams) -> MatchCounts:
    """Count ordered template-pair matches at lengths m and m+1 (needs N >= m + 2)."""
    return _counts_and_matches(x, p)[0]


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


def _sampen_from_counts(c: MatchCounts) -> SampEnResult:
    """SampEn result from ordered match counts and their shared normalizer z."""
    bm = c.b_count / c.z
    am = c.a_count / c.z
    if c.b_count == 0:
        return SampEnResult(bm=bm, am=am, cp=None, value=None)
    return SampEnResult(bm=bm, am=am, cp=c.a_count / c.b_count, value=_sampen_value(c.b_count, c.a_count))


def _replicate_values(x: np.ndarray, g: np.ndarray, idx: np.ndarray, m: int) -> np.ndarray:
    """SampEn of every resampled signal x[idx[b]], as a read-only float64 (B,) array.

    Entry b is sampen's value on x[idx[b]] bit for bit, with nan where it is
    undefined: the counts of _replicate_counts go through _sampen_value as
    Python ints, so each value takes math.log, not np.log, whose vector loop
    can differ from libm in the last bit.
    """
    b_counts, a_counts = _replicate_counts(x, g, idx, m).T.tolist()
    vals = np.array(list(map(_sampen_value, b_counts, a_counts)), dtype=np.float64)
    vals.setflags(write=False)
    return vals


def sampen(x: Signal, p: SampEnParams) -> SampEnResult:
    """Sample entropy estimate -log(A/B) with explicit undefined/infinite states."""
    return _sampen_from_counts(count_matches(x, p))


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


# every int32 value in _pair_counts counts matching pairs, at most
# nt (nt - 1) / 2 < (N + 1)**2, so the counts are exact while (N + 1)**2 < 2**31
_INT32_PREFIX_MAX_N = math.isqrt(2**31 - 1) - 1


def _pair_counts(match_m: np.ndarray, match_m1: np.ndarray, m: int) -> tuple[int, int]:
    """Ordered counts of overlapping distinct pairs-of-pairs (K_B, K_A).

    match_m, match_m1: the symmetric (nt, nt) match matrices of
    _match_matrices (diagonal true, match_m1 within match_m). Each one's M,
    its strict upper triangle, holds the unordered matching pairs (i < j).
    K_B and K_A count, in M of match_m and of match_m1, the ordered pairs
    p != q of matching pairs that overlap, i.e. some (m+1)-point windows
    [s, s+m] of p = (i, j) and q = (k, l) intersect: k or l lies in
    U = W(i) | W(j), with W(c) = [c-m, c+m] clipped to [0, nt).

    Both M go into one stacked int32 2-D prefix sum, padded with m zero
    rows and columns on each side so that every W(c) is a plain slice and
    every count below a box sum. Let deg[c] be the number of matching pairs
    containing c, S[c] the sum of deg over W(c) and X[i, j] the matches
    with row in W(i) and column in W(j), all dense. When the windows of p
    are disjoint (j - i > 2m), inclusion-exclusion gives p

        S[i] + S[j] - X[i, i] - X[j, j] - X[i, j] - X[j, i] - 1

    overlapping pairs (X[j, i] = 0 there). Summed over M, with G the
    symmetric match matrix, that is sum(deg (S - diag X)) -
    sum_{i != j} G X - |M|. A pair with j - i <= 2m overlaps
    M(I x I) - M(I x (j+m, nt)) - M([0, i-m) x I) pairs more, with
    I = W(i) & W(j) (the rest of I x ~U and ~U x I lies below the
    diagonal). These ten prefix sums are read for every near cell
    (i, i + d), 1 <= d <= 2m, from strided views that slide along the
    diagonal, and masked by M. The cost is O(nt^2 + m nt) whatever the
    number of matches, and the counts equal the all-pairs comparison
    exactly.
    """
    nt = match_m.shape[0]
    w, side = 2 * m + 1, nt + 2 * m + 1
    # both padded layers, then 2m slack cells that the views below reach
    flat = np.zeros(2 * side * side + 2 * m, dtype=np.int32)
    prefix = flat[:2 * side * side].reshape(2, side, side)
    lower = np.tri(nt, dtype=bool)
    for layer, match in zip(prefix, (match_m, match_m1)):
        # match & ~lower, as 0/1
        np.greater(match, lower, out=layer[m + 1:m + 1 + nt, m + 1:m + 1 + nt])
    del lower
    # on[s, i, u, v] is layer s at (i + u, i + v), and on_last[s, i, u] at
    # (i + u, side - 1). A near cell past the matrix end (i + d >= nt)
    # reads the padding, the next layer or the slack (numpy checks that
    # the views fit in flat), but its M entry lands in zero padding, so
    # its correction drops out.
    item = flat.itemsize
    layer_bytes = side * side * item
    on = np.ndarray((2, nt, w + 1, 2 * w), np.int32, flat, 0, (layer_bytes, (side + 1) * item, side * item, item))
    on_last = np.ndarray((2, nt, w + 1), np.int32, flat, (side - 1) * item, (layer_bytes, side * item, side * item))
    # M[i, i + d] sits at padded (i + m + 1, i + m + 1 + d); copied before the prefix sums overwrite it
    hit = on[:, :, m + 1, m + 2:m + 1 + w].copy()
    np.cumsum(prefix, axis=1, out=prefix)
    np.cumsum(prefix, axis=2, out=prefix)
    # the near cells' corrections, column d - 1 for (i, i + d), from padded
    # corners a = i + d, b = i + w, u0 = i, u1 = i + d + w and e = side - 1:
    # M(I x I) = (b, b) - (a, b) - (b, a) + (a, a) with I = [a, b),
    # M(I x [u1, e)) = (b, e) - (a, e) - (b, u1) + (a, u1) and
    # M([0, u0) x I) = (u0, b) - (u0, a)
    corr = np.add(on[:, :, 0, 1:w], on[:, :, w, w + 1:], dtype=np.int64)  # (u0, a) + (b, u1)
    corr -= on[:, :, 1:w, w]  # (a, b)
    corr -= on[:, :, w, 1:w]  # (b, a)
    corr += on.diagonal(0, 2, 3)[:, :, 1:w]  # (a, a)
    corr -= on.diagonal(w, 2, 3)[:, :, 1:w]  # (a, u1)
    corr += on_last[:, :, 1:w]  # (a, e)
    corr += (on[:, :, w, w] - on[:, :, 0, w] - on_last[:, :, w])[:, :, None]  # (b, b) - (u0, b) - (b, e)
    near = np.einsum("sid,sid->s", corr, hit)
    # G X: the box sums of every window pair W(i) x W(j) where G is true;
    # the diagonal X[c, c] stays whole, G's diagonal being true
    box = np.empty((2, nt, nt), dtype=np.int32)
    cols = np.empty((side, nt), dtype=np.int32)
    for layer, match, out in zip(prefix, (match_m, match_m1), box):
        np.subtract(layer[:, w:], layer[:, :nt], out=cols)
        np.subtract(cols[w:], cols[:nt], out=out)
        out *= match
    x_diag = box.diagonal(axis1=1, axis2=2).astype(np.int64)
    # deg summed over [0, c): row sums plus column sums, from the last column and row
    deg_before = prefix[:, :, -1].astype(np.int64) + prefix[:, -1, :]
    deg = np.diff(deg_before[:, m:m + nt + 1])
    spread = deg_before[:, w:w + nt] - deg_before[:, :nt] - x_diag
    total = prefix[:, -1, -1].astype(np.int64)
    k = np.einsum("sc,sc->s", deg, spread) - (box.sum(axis=(1, 2), dtype=np.int64) - x_diag.sum(axis=1))
    k += near - total
    return int(k[0]), int(k[1])


def cp_sigma(x: Signal, p: SampEnParams) -> tuple[float, float]:
    """Conditional probability CP and its counting-based standard deviation.

    Follows Lake et al. (2002): treat each of the B unordered matching
    m-template pairs as a Bernoulli trial for extension to an (m+1)-match,
    and correct for correlation between overlapping pairs:

        var(CP) = CP(1 - CP)/B + (K_A - K_B CP^2)/B^2

    where K_B counts ordered distinct overlapping pairs of matching
    m-pairs and K_A the same among pairs that also match at length m+1
    (E[X_p X_q] for overlapping pairs is estimated by K_A/K_B). Negative
    corrected variance is clamped to zero. B and A are counted on the
    match matrices, so an undefined or zero CP raises before any overlap
    is counted. K_B and K_A are exact integer counts read from one int32
    prefix sum by _pair_counts, at O(N^2) cost whatever the number of
    matches, so neither a pair of pairs nor a matching pair is enumerated.

    Raises UndefinedEntropy when CP is undefined (B = 0) or zero (A = 0),
    and MemoryError when (N + 1)^2 >= 2^31, past the int32 prefix sums.
    """
    _require_length(x, p.m)
    if x.n > _INT32_PREFIX_MAX_N:
        raise MemoryError(f"signal {x.id!r}: cp_sigma needs N <= {_INT32_PREFIX_MAX_N}, got N = {x.n}")
    match_m, match_m1 = _match_matrices(_point_matches(x.values, p.r), p.m)
    # unordered counts: both matrices are symmetric, so each match is counted twice
    b_un, a_un = (count // 2 for count in _matrix_counts(match_m, match_m1))
    if b_un == 0:
        raise UndefinedEntropy(f"signal {x.id!r}: no template matches at (m={p.m}, r={p.r})")
    cp = a_un / b_un
    if a_un == 0:
        raise UndefinedEntropy(f"signal {x.id!r}: CP = 0 at (m={p.m}, r={p.r}); entropy infinite")
    kb, ka = _pair_counts(match_m, match_m1, p.m)
    var_cp = cp * (1.0 - cp) / b_un + (ka - kb * cp * cp) / (b_un * b_un)
    return cp, math.sqrt(max(var_cp, 0.0))


def counting_se(x: Signal, p: SampEnParams) -> float:
    """Counting-based standard error of the SampEn estimate: sigma_CP / CP.

    The corresponding SampEn variance estimate is this value squared
    (delta method through -log). Requires a finite entropy estimate.
    """
    cp, sigma = cp_sigma(x, p)
    return sigma / cp
