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

from .errors import SignalTooShort, UndefinedEntropy, VarianceOverflow
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


def _point_matches(x: np.ndarray, r) -> np.ndarray:
    """Point gaps within the radius, |x_i - x_j| <= r, as a boolean (N, N) matrix; (k, N, N) for k radii (k, 1, 1)."""
    with np.errstate(over="ignore"):  # an infinite gap is not within r
        d = x[:, None] - x[None, :]
    # in place: one float (N, N) temporary, not two
    return np.abs(d, out=d) <= r


def _match_matrices(g: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean match incidence of m- and (m+1)-templates from point matches g.

    g is _point_matches of an N-point signal, or a stack of them (..., N, N).
    Both matrices are restricted to the common start range 0..N-m-1 and
    have shape (..., N-m, N-m); entry (i, j) is true when the templates at
    i and j lie within r in Chebyshev distance (the diagonal is always
    true). ANDing the diagonal shifts of g equals thresholding the running
    maximum of the point gaps, because max(gaps) <= r holds iff every gap
    <= r. At m = 1 the m-match matrix is a view of g.
    """
    nt = g.shape[-1] - m
    match_m = g[..., :nt, :nt]
    for k in range(1, m):
        match_m = match_m & g[..., k:k + nt, k:k + nt]
    return match_m, match_m & g[..., m:, m:]


def _ordered_counts(g: np.ndarray, m: int) -> tuple[int, int]:
    """Ordered template-pair matches (B, A) at lengths m and m+1, self-matches (the diagonal) excluded."""
    match_m, match_m1 = _match_matrices(g, m)
    nt = match_m.shape[0]
    return int(np.count_nonzero(match_m)) - nt, int(np.count_nonzero(match_m1)) - nt


_CHUNK_PAIRS = 2**17  # point pairs tested per chunk of replicates, a few hundred KB of temporaries at uint8 ranks
# (largest N, rank dtype): a signal ranks in the first tier that holds N
_RANK_TIERS = ((2**8, np.uint8), (2**16, np.uint16), (2**32, np.uint32))


@functools.cache
def _valid_words(n: int, m: int) -> np.ndarray:
    """The template pairs _replicate_counts compares, packed flat as n // 2 rows of little-endian 64-bit words.

    Bit s of row d - 1 is set when the templates at s and (s + d) mod n
    both start in 0..nt-1 (nt = n - m): forward s <= nt-1-d, or wrapped
    n-d <= s <= nt-1, the wrapped half of d = n/2 at even n excluded
    (it repeats the forward half). Cached per (n, m) without a bound, at
    about n^2 / 16 bytes a mask, 1/128 of a rank plan's gaps; read-only,
    as it is shared.
    """
    nt, half, words = n - m, n // 2, -(-n // 64)
    d = np.arange(1, half + 1)[:, None]
    s = np.arange(64 * words)
    valid = (s <= nt - 1 - d) | ((s >= n - d) & (s < nt) & (2 * d < n))
    packed = np.packbits(valid, bitorder="little").view("<u8")
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


class _RankPlan:
    """A signal x's rank plan, built once and read by _replicate_counts at any (m, r); its gaps take 8 N (N + 1) bytes.

    rank: x's stable-sort ranks, in the first _RANK_TIERS dtype that holds N.
    gaps: the (N, N + 1) float64 matrix x_i - xs_j against x's sorted points xs, its last column -inf.
    """

    def __init__(self, x: np.ndarray):
        n = x.size
        rank_t = next(rank_t for most, rank_t in _RANK_TIERS if n <= most)
        order = np.argsort(x, kind="stable")
        self.rank = np.empty(n, dtype=rank_t)
        self.rank[order] = np.arange(n, dtype=rank_t)
        self.gaps = np.empty((n, n + 1))
        with np.errstate(over="ignore"):  # an infinite gap lies outside every run
            np.subtract(x[:, None], x[order], out=self.gaps[:, :n])
        self.gaps[:, n] = -np.inf

    def runs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Per point i, the sorted positions first_i .. first_i + width_i of the points within r of x_i.

        |d| <= r iff -r <= d <= r (abs and negation are exact), and rounding is
        monotone, so a row of gaps is non-increasing and its points within r
        run from its first gap <= r to before its first gap < -r.
        """
        first = np.argmax(self.gaps <= r, axis=1)
        return first, np.argmax(self.gaps < -r, axis=1) - 1 - first


def _replicate_counts(plan: _RankPlan, r: float, idx: np.ndarray, m: int) -> np.ndarray:
    """Ordered (B, A) match counts of x and of every resampled signal x[idx[b]], as a (B + 1, 2) array.

    plan is _RankPlan(x). With g = _point_matches(x, r), row 0, the
    identity resample, equals _ordered_counts(g, m), and row b + 1
    _ordered_counts(g[i][:, i], m) for i = idx[b], without building g: the
    points within r of x_i are ranks lo_i .. lo_i + width_i of x's stable
    sort order (plan.runs(r)). A point pair (s, t) of a resample then matches
    iff rank[t] - lo[s] <= width[s] in unsigned arithmetic. Ranks take the
    first unsigned dtype of _RANK_TIERS that holds N (uint8 up to N = 256,
    then uint16, then uint32), 2**w values wide: a partner below the run,
    rank[t] < lo[s], wraps to 2**w - (lo[s] - rank[t]) >= 2**w - lo[s] >
    N - 1 - lo[s] >= width[s], so one compare tests the run.

    Pairs (s, (s + d) mod N) for d = 1..N//2 cover every unordered pair
    once, and the partner ranks of row d are a window of the doubled rank
    row, read through one strided view. Each chunk of resamples tests its
    (k, N//2, N) point pairs in one subtract and one compare, into bool rows
    padded to whole 64-bit words, and packs them once, flat and
    little-endian: bit s of row (b, d) is the test of (s, (s + d) mod N),
    read as '<u8' words on any host. The template at start s matches its
    partner at length m iff bits s..s+m-1 of its row are set, so the
    m-matches are the row ANDed with itself shifted right by 1..m-1 bits
    (_shifted), and the (m+1)-matches one shift by m more. A shift runs over
    the chunk's flat word stream: a shift by j >= 64 skips whole words, and
    bits that cross into the row before land at s >= 64 * row_words - j >=
    nt. Those and every other pair outside the comparisons are cleared by
    the packed validity mask _valid_words(N, m), cached per (N, m), ANDed
    in before the first shift; the set bits are counted with
    bitwise_count on the words, each unordered match once, and doubled.
    """
    rank = plan.rank
    n, b = rank.size, idx.shape[0] + 1
    half, row_words = n // 2, -(-n // 64)
    lo, width = np.empty((2, b, 1, n), dtype=rank.dtype)
    lo[0, 0], width[0, 0] = plan.runs(r)
    ranks = np.empty((b, 2 * n), dtype=rank.dtype)
    ranks[0, :n] = rank
    # a fancy-index assignment beats np.take into these buffers
    lo[1:, 0], width[1:, 0], ranks[1:, :n] = lo[0, 0][idx], width[0, 0][idx], rank[idx]
    ranks[:, n:] = ranks[:, :n]
    # partners[b, d - 1, s] = ranks[b, s + d], the rank of point (s + d) mod N of resample b
    size = ranks.itemsize
    partners = np.ndarray((b, half, n), ranks.dtype, ranks, size, (2 * n * size, size, size))
    valid = _valid_words(n, m)
    step = max(1, _CHUNK_PAIRS // (half * n))
    offsets = np.empty((min(step, b), half, n), dtype=rank.dtype)
    point = np.zeros((offsets.shape[0], half, 64 * row_words), dtype=bool)  # bits past N are never counted
    # the m- and (m+1)-template matches of a chunk, word for word
    both = np.empty((2, offsets.shape[0] * valid.size), dtype="<u8")
    counts = np.empty((b, 2), dtype=np.int64)
    for c in range(0, b, step):
        k = min(step, b - c)
        rows = slice(c, c + k)
        np.subtract(partners[rows], lo[rows], out=offsets[:k])
        np.less_equal(offsets[:k], width[rows], out=point[:k, :, :n])
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


def _sampen_from_counts(c: MatchCounts) -> SampEnResult:
    """SampEn result from ordered match counts and their shared normalizer z."""
    bm = c.b_count / c.z
    am = c.a_count / c.z
    if c.b_count == 0:
        return SampEnResult(bm=bm, am=am, cp=None, value=None)
    return SampEnResult(bm=bm, am=am, cp=c.a_count / c.b_count, value=_sampen_value(c.b_count, c.a_count))


def _replicate_values(plan: _RankPlan, p: SampEnParams, idx: np.ndarray) -> tuple[SampEnResult, np.ndarray]:
    """sampen of x, and of every resampled signal x[idx[b]] as a read-only float64 (B,) array.

    plan is _RankPlan(x), and x is counted as the identity row 0 of
    _replicate_counts. Entry b is sampen's value on x[idx[b]] bit for bit,
    with nan where it is undefined: the counts go through _sampen_value as
    Python ints, so each value takes math.log, not np.log, whose vector loop
    can differ from libm in the last bit.
    """
    b_counts, a_counts = _replicate_counts(plan, p.r, idx, p.m).T.tolist()
    nt = plan.rank.size - p.m
    vals = np.array(list(map(_sampen_value, b_counts[1:], a_counts[1:])), dtype=np.float64)
    vals.setflags(write=False)
    return _sampen_from_counts(MatchCounts(b_counts[0], a_counts[0], nt * (nt - 1))), vals


def sampen(x: Signal, p: SampEnParams) -> SampEnResult:
    """Sample entropy estimate -log(A/B) with explicit undefined/infinite states."""
    return _sampen_from_counts(count_matches(x, p))


_EXPONENT_FLOOR = -1e300  # where an overflowed membership exponent is clamped


def _fuzzy_log_phi(x: Signal, k: int, nt: int, r: float, eta: float) -> float:
    """log of the mean fuzzy membership over ordered baseline-removed k-template pairs.

    Works in the log domain so tiny memberships (large (d/r)^eta) never
    underflow the average to zero; self-pairs are excluded by masking. The
    Chebyshev distances are a running maximum over the template columns,
    and the membership chain runs in place on them: two float (nt, nt)
    buffers, no (nt, nt, k) tensor, and, a maximum being exact, the tensor
    form's result to the last bit. An overflowed gap or exponent is a zero
    membership, clamped at _EXPONENT_FLOOR, which is the result exactly when
    every off-diagonal exponent is clamped. Raises VarianceOverflow when a
    baseline-removed template is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        t = np.lib.stride_tricks.sliding_window_view(x.values, k)[:nt].astype(np.float64)
        t = t - t.mean(axis=1, keepdims=True)
    if not np.isfinite(t).all():
        raise VarianceOverflow(f"signal {x.id!r}: a baseline-removed {k}-point template overflows float64")
    u, gap = np.zeros((nt, nt)), np.empty((nt, nt))
    with np.errstate(over="ignore"):
        for col in np.ascontiguousarray(t.T):
            np.maximum(u, np.abs(np.subtract(col[:, None], col, out=gap), out=gap), out=u)
        np.power(np.divide(u, r, out=u), eta, out=u)
    # clamp so an overflowed exponent cannot poison the max-shift with -inf
    np.maximum(np.negative(u, out=u), _EXPONENT_FLOOR, out=u)
    np.fill_diagonal(u, -np.inf)
    top = u.max()
    return float(top + np.log(np.exp(np.subtract(u, top, out=u), out=u).sum()) - math.log(nt * (nt - 1)))


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
    the same ordered index range as sampen. Finite where defined: raises
    VarianceOverflow when a baseline-removed template overflows float64, and
    UndefinedEntropy when every membership of a phi term is below exp(-1e300).
    """
    _fuzzen_params(m, r, eta)
    _require_length(x, m)
    nt = x.n - m
    # a one-point template minus its mean is 0, every membership 1: log phi_1 is +0.0 without the (nt, nt) pass
    log_phi = (0.0 if m == 1 else _fuzzy_log_phi(x, m, nt, r, eta)), _fuzzy_log_phi(x, m + 1, nt, r, eta)
    if _EXPONENT_FLOOR in log_phi:
        raise UndefinedEntropy(f"signal {x.id!r}: every fuzzy membership underflows at (m={m}, r={r}, eta={eta})")
    return log_phi[0] - log_phi[1]


def _band_sum(band: np.ndarray, width: int) -> np.ndarray:
    """The sum of band[..., e] over e < width, as int64, by width - 1 slice adds (no reduction over a short axis)."""
    total = band[..., 0].astype(np.int64)
    for e in range(1, width):
        total += band[..., e]
    return total


def _pair_counts(stack: np.ndarray, m: int) -> np.ndarray:
    """Ordered counts K of overlapping distinct pairs-of-pairs, one int64 per layer of stack.

    stack: (L, nt, nt) symmetric boolean match matrices G with a true
    diagonal, e.g. the m- and (m+1)-matrices of _match_matrices at several
    radii. A layer's M, its strict upper triangle, holds the unordered
    matching pairs (i < j). K counts the ordered pairs p != q in M that
    overlap: some (m+1)-point windows [s, s+m] of p = (i, j) and q = (k, l)
    intersect, i.e. k or l lies in U = W(i) | W(j), W(c) = [c-m, c+m]
    clipped to [0, nt).

    With deg[c] = (G's row count at c) - 1, S[c] the sum of deg over W(c)
    and Y[i, j] = G(W(i) x W(j)), and as M(U x U) = (G(U x U) - |U|) / 2, a
    pair whose windows are disjoint (j - i > 2m) overlaps half of
    2 S[i] + 2 S[j] - Y[i, i] - Y[j, j] - 2 Y[i, j] + |W(i)| + |W(j)| - 2
    pairs. Summed over M: 2K = sum(deg (2S - diag Y + |W| - 1)) - sum(G Y)
    + sum(diag Y). A near pair (i, i + d), 1 <= d <= 2m, whose windows share
    I = W(i) & W(j), adds 2 G(I x W(i)) + 2 G(I x W(j)) - G(I x I) - |I|
    - 2 sum(deg over I) to 2K. G(I x W(c)) is a run of column window sums
    and G(I x I) of diagonal bands G(r, r + e), e <= 2m, so these terms
    accumulate as d falls from 2m to 1.

    The layers sit in one flat buffer, each with m zero rows and columns
    before it and 3m after, so a (2m+1)-wide window sum is 2m shifted adds
    of the flat buffer, in the narrowest unsigned type that holds (2m+1)^2
    (uint8 up to m = 7), and a band is a strided view summed by _band_sum.
    The counts are exact, at O(L m (nt + 4m)^2) whatever the number of matches.
    """
    n_layers, nt = stack.shape[:2]
    w, side = 2 * m + 1, nt + 4 * m
    cells = n_layers * side * side
    flat = np.zeros(cells + 2 * m * side + 2 * m, dtype=np.min_scalar_type(w * w))  # holds box sums up to w^2
    flat[:cells].reshape(n_layers, side, side)[:, m:m + nt, m:m + nt] = stack
    # at flat cell k (padded row u, column v), cols sums rows u..u+2m and box sums cols over columns v..v+2m
    cols = flat[:cells + 2 * m] + flat[side:cells + 2 * m + side]
    for s in range(2, w):
        cols += flat[s * side:cells + 2 * m + s * side]
    box = cols[:cells] + cols[1:cells + 1]
    for t in range(2, w):
        box += cols[t:cells + t]
    # rows 0, w, 2w, ... below nt + m of cols sum every padded row once; G is symmetric
    deg = cols[:cells].reshape(n_layers, side, side)[:, :nt + m:w, m:m + nt].sum(axis=1, dtype=np.uint32) - 1
    y_diag = box.reshape(n_layers, side, side).diagonal(axis1=1, axis2=2)[:, :nt].astype(np.int64)
    box *= flat[m * side + m:m * side + m + cells]  # G at (i, j) lies m rows and columns after Y; zero elsewhere
    # a layer sums to less than side^2 w^2, and uint32 sums uint8 twice as fast as int64
    gy = box.reshape(n_layers, -1).sum(axis=1, dtype=np.uint32 if side * w < 2**16 else np.int64).astype(np.int64)
    deg_pad = np.zeros((n_layers, nt + 4 * m), dtype=np.int64)
    deg_pad[:, m:m + nt] = deg
    width = np.minimum(np.arange(nt) + m, nt - 1) - np.maximum(np.arange(nt) - m, 0) + 1  # |W(c)|
    s_win = sum(deg_pad[:, t:t + nt] for t in range(w))
    k2 = np.einsum("lc,lc->l", deg, 2 * s_win - y_diag + width - 1) - gy + y_diag.sum(axis=1)
    # the bands: g_band[l, r, e] is the padded layer at (r, r + e), c_band the same cell of cols
    g_band, c_band = (np.lib.stride_tricks.as_strided(a, (n_layers, nt + 2 * m, w),
                                                      [a.itemsize * k for k in (side * side, side + 1, 1)])
                      for a in (flat, cols))
    own = np.zeros((n_layers, nt), dtype=np.int64)  # G(I x W(i)) - sum(deg over I) - (G(I x I) + |I|) / 2
    for d in range(2 * m, 0, -1):
        own += c_band[:, :nt, d] - deg_pad[:, d:d + nt] - _band_sum(g_band[:, d:d + nt], w - d)
        near = own + _band_sum(c_band[:, d:d + nt], w - d)  # + G(I x W(i + d))
        k2 += 2 * np.einsum("li,li->l", g_band[:, m:m + nt, d], near)  # G at (i, i + d), zero past nt
    return k2 // 2


_GRID_CELLS = 2**18  # match-matrix cells per chunk of radii in _cp_sigma_grid: a few hundred KB of temporaries


def _cp_sigma_grid(x: Signal, m: int, radii) -> list[tuple[float, float] | UndefinedEntropy]:
    """cp_sigma(x, SampEnParams(m, r)) for every r in radii: its (CP, sigma), or the UndefinedEntropy it raises.

    Raises SignalTooShort unless N >= m + 2. Each chunk of radii, as many
    as fill _GRID_CELLS cells, thresholds the point gaps once for all its
    radii, stacks their m- and (m+1)-match matrices and counts B and A on
    them, as Python ints. When any radius of the chunk has a defined,
    nonzero CP, one _pair_counts counts every layer, read by position: the
    counts grow with r, so only the chunk that holds an ascending grid's
    undefined prefix counts layers it does not read.
    """
    _require_length(x, m)
    nt = x.n - m
    results = []
    n_chunks = max(1, min(len(radii), -(-2 * len(radii) * nt * nt // _GRID_CELLS)))  # one, empty, for no radii
    for chunk in np.array_split(np.arange(len(radii)), n_chunks):
        r = np.array([radii[i] for i in chunk], dtype=np.float64)[:, None, None]
        layers = np.stack(_match_matrices(_point_matches(x.values, r), m))
        # unordered counts: the matrices are symmetric with a true diagonal
        b_un, a_un = ([(int(np.count_nonzero(layer)) - nt) // 2 for layer in half] for half in layers)
        if any(a_un):  # A <= B, so A > 0 means a defined, nonzero CP
            k_b, k_a = _pair_counts(layers.reshape(-1, nt, nt), m).reshape(2, -1).tolist()
        for j, (i, b, a) in enumerate(zip(chunk, b_un, a_un)):
            if a:
                kb, ka = k_b[j], k_a[j]
                cp = a / b
                var_cp = cp * (1.0 - cp) / b + (ka - kb * cp * cp) / (b * b)
                results.append((cp, math.sqrt(max(var_cp, 0.0))))
            else:
                why = "no template matches" if b == 0 else "CP = 0"
                results.append(UndefinedEntropy(f"signal {x.id!r}: {why} at (m={m}, r={radii[i]})"
                                                + ("; entropy infinite" if b else "")))
    return results


def cp_sigma(x: Signal, p: SampEnParams) -> tuple[float, float]:
    """Conditional probability CP and its counting-based standard deviation.

    Follows Lake et al. (2002): treat each of the B unordered matching
    m-template pairs as a Bernoulli trial for extension to an (m+1)-match,
    and correct for correlation between overlapping pairs:

        var(CP) = CP(1 - CP)/B + (K_A - K_B CP^2)/B^2

    where K_B counts ordered distinct overlapping pairs of matching
    m-pairs and K_A the same among pairs that also match at length m+1
    (E[X_p X_q] for overlapping pairs is estimated by K_A/K_B). Negative
    corrected variance is clamped to zero. This is the one-radius case of
    _cp_sigma_grid: an undefined or zero CP raises before any overlap is
    counted, and K_B and K_A are exact counts from the window sums of
    _pair_counts, at O(m N^2) cost whatever the number of matches.

    Raises UndefinedEntropy when CP is undefined (B = 0) or zero (A = 0).
    """
    result = _cp_sigma_grid(x, p.m, (p.r,))[0]
    if isinstance(result, UndefinedEntropy):
        raise result
    return result


def counting_se(x: Signal, p: SampEnParams) -> float:
    """Counting-based standard error of the SampEn estimate: sigma_CP / CP.

    The corresponding SampEn variance estimate is this value squared
    (delta method through -log). Requires a finite entropy estimate.
    """
    cp, sigma = cp_sigma(x, p)
    return sigma / cp
