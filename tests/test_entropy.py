import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sampenopt.entropy import (
    _GRID_CELLS,
    _RANK_TIERS,
    MatchCounts,
    SampEnParams,
    _RankPlan,
    _cp_sigma_grid,
    _fuzzy_log_phi,
    _match_matrices,
    _ordered_counts,
    _pair_counts,
    _point_matches,
    _replicate_counts,
    _valid_words,
    count_matches,
    counting_se,
    cp_sigma,
    fuzzen,
    sampen,
)
from sampenopt.bootstrap import BootstrapConfig, bootstrap_sampen
from sampenopt.errors import SignalTooShort, UndefinedEntropy, VarianceOverflow
from sampenopt.signal import Signal, gen_white_noise, normalize

# ---------------------------------------------------------------------------
# independent oracles: plain double loops over template start indices
# ---------------------------------------------------------------------------


def naive_counts(x, m, r):
    n = len(x)
    nt = n - m
    b = a = 0
    for i in range(nt):
        for j in range(nt):
            if i == j:
                continue
            if max(abs(x[i + k] - x[j + k]) for k in range(m)) <= r:
                b += 1
            if max(abs(x[i + k] - x[j + k]) for k in range(m + 1)) <= r:
                a += 1
    return b, a


def naive_fuzzen(x, m, r, eta):
    # log-domain double loop: collect exponents, then max-shifted sum, so
    # the reference stays exact even when memberships underflow linearly
    def log_phi(k):
        n = len(x)
        nt = n - m
        exponents = []
        for i in range(nt):
            ti = [x[i + o] for o in range(k)]
            mi = sum(ti) / k
            ti = [v - mi for v in ti]
            for j in range(nt):
                if i == j:
                    continue
                tj = [x[j + o] for o in range(k)]
                mj = sum(tj) / k
                tj = [v - mj for v in tj]
                d = max(abs(u - v) for u, v in zip(ti, tj))
                exponents.append(-((d / r) ** eta))
        top = max(exponents)
        return top + math.log(math.fsum(math.exp(u - top) for u in exponents)) - math.log(len(exponents))

    return log_phi(m) - log_phi(m + 1)


def fuzzy_log_phi_tensor(x, k, nt, r, eta):
    """_fuzzy_log_phi's tensor form: the (nt, nt, k) template gaps reduced over their last axis."""
    t = np.lib.stride_tricks.sliding_window_view(x, k)[:nt].astype(np.float64)
    t = t - t.mean(axis=1, keepdims=True)
    d = np.abs(t[:, None, :] - t[None, :, :]).max(axis=2)
    with np.errstate(over="ignore"):
        u = -np.power(d / r, eta)
    u = np.maximum(u, -1e300)
    np.fill_diagonal(u, -np.inf)
    top = u.max()
    return float(top + np.log(np.exp(u - top).sum()) - math.log(nt * (nt - 1)))


def naive_cp_sigma(x, m, r):
    """Exhaustive pair-of-pairs covariance enumeration for sigma_CP."""
    n = len(x)
    nt = n - m

    def cheb(i, j, k):
        return max(abs(x[i + o] - x[j + o]) for o in range(k))

    pairs = [(i, j) for i in range(nt) for j in range(i + 1, nt) if cheb(i, j, m) <= r]
    if not pairs:
        raise UndefinedEntropy("no matches")
    ext = {p: cheb(p[0], p[1], m + 1) <= r for p in pairs}
    b = len(pairs)
    a = sum(ext.values())
    if a == 0:
        raise UndefinedEntropy("CP = 0")
    cp = a / b

    def overlap(p, q):
        return min(abs(p[0] - q[0]), abs(p[0] - q[1]), abs(p[1] - q[0]), abs(p[1] - q[1])) <= m

    kb = ka = 0
    for p in pairs:
        for q in pairs:
            if p == q or not overlap(p, q):
                continue
            kb += 1
            if ext[p] and ext[q]:
                ka += 1
    var = cp * (1 - cp) / b + (ka - kb * cp * cp) / (b * b)
    return cp, math.sqrt(max(var, 0.0))


def _overlap_counts_oracle(starts: np.ndarray, ext_match: np.ndarray, m: int) -> tuple[int, int]:
    """Ordered counts of overlapping distinct pairs-of-pairs (K_B, K_A).

    starts: (K, 2) start indices (i < j) of the K unordered matching
    m-template pairs. ext_match: boolean (K,) marking pairs that also match
    at length m+1. Two pairs overlap when any of their four (m+1)-point
    template windows [s, s+m] intersect, i.e. when
    min(|i-k|, |i-l|, |j-k|, |j-l|) <= m.
    """
    i = starts[:, 0].astype(np.int32)
    j = starts[:, 1].astype(np.int32)
    kb = 0
    ka = 0
    chunk = max(1, int(2_000_000 // max(len(i), 1)))
    for lo in range(0, len(i), chunk):
        hi = lo + chunk
        ic, jc = i[lo:hi, None], j[lo:hi, None]
        gap = np.abs(ic - i[None, :])
        np.minimum(gap, np.abs(ic - j[None, :]), out=gap)
        np.minimum(gap, np.abs(jc - i[None, :]), out=gap)
        np.minimum(gap, np.abs(jc - j[None, :]), out=gap)
        ov = gap <= m
        # drop the self-pairs on the global diagonal
        rows = np.arange(lo, min(hi, len(i)))
        ov[rows - lo, rows] = False
        kb += int(np.count_nonzero(ov))
        ka += int(np.count_nonzero(ov[ext_match[lo:hi]][:, ext_match]))
    return kb, ka


def replicate_counts_oracle(x, idx, m, r):
    """The per-replicate loop: each resample counted on its rows and columns of x's point-match matrix."""
    g = _point_matches(x, r)
    return np.array([_ordered_counts(g[i][:, i], m) for i in idx], dtype=np.int64).reshape(-1, 2)


def overlap_counts_both(x, m, r):
    """(K_B, K_A) from the window-sum counter and from the O(K^2) oracle on the same matches."""
    match_m, match_m1 = _match_matrices(_point_matches(np.asarray(x, dtype=np.float64), r), m)
    match_b = np.triu(match_m, 1)
    match_a = match_b & match_m1
    i, j = np.nonzero(match_b)
    got = tuple(_pair_counts(np.stack((match_m, match_m1)), m).tolist())
    want = _overlap_counts_oracle(np.column_stack((i, j)), match_a[i, j], m)
    return got, want, j


def layer_overlaps_oracle(match, m):
    """K of one symmetric match matrix by the O(K^2) oracle."""
    i, j = np.nonzero(np.triu(match, 1))
    return _overlap_counts_oracle(np.column_stack((i, j)), np.zeros(i.size, dtype=bool), m)[0]


def mixed_layers(x, m, radii):
    """The m- and (m+1)-match matrices of x at each radius, interleaved, then an all-true and an identity layer."""
    layers = [match for r in radii for match in _match_matrices(_point_matches(x, r), m)]
    nt = layers[0].shape[0]
    return np.stack(layers + [np.ones((nt, nt), dtype=bool), np.eye(nt, dtype=bool)])


# ---------------------------------------------------------------------------
# count_matches / sampen
# ---------------------------------------------------------------------------


class TestCountMatches:
    def test_constant_all_match(self, constant):
        for m in (1, 2, 3):
            c = count_matches(constant, SampEnParams(m, 0.1))
            assert c.b_count == c.a_count == c.z

    def test_alternating_brute_force(self, alternating):
        c = count_matches(alternating, SampEnParams(1, 0.5))
        nb, na = naive_counts(alternating.values, 1, 0.5)
        assert (c.b_count, c.a_count) == (nb, na)
        # N=5, m=1: 4 templates, gaps are 0 or 1; r=0.5 matches only gap 0
        assert c.z == 12

    def test_radius_below_min_gap(self):
        x = Signal("g", [0.0, 10.0, 20.0, 30.0, 40.0])
        c = count_matches(x, SampEnParams(1, 0.5))
        assert c.b_count == 0 and c.a_count == 0

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            count_matches(Signal("s", [1.0, 2.0, 3.0]), SampEnParams(2, 0.2))

    def test_counts_against_oracle_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(6, 48))
            m = int(rng.integers(1, 4))
            r = float(rng.uniform(0.05, 1.2))
            x = rng.standard_normal(n)
            c = count_matches(Signal("t", x), SampEnParams(m, r))
            assert (c.b_count, c.a_count) == naive_counts(x, m, r)

    def test_counts_are_even(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = Signal("t", rng.standard_normal(40))
            c = count_matches(x, SampEnParams(2, 0.3))
            assert c.b_count % 2 == 0 and c.a_count % 2 == 0

    def test_monotone_in_r(self):
        x = Signal("t", np.random.default_rng(6).standard_normal(60))
        prev_b = prev_a = -1
        for r in np.linspace(0.05, 2.0, 12):
            c = count_matches(x, SampEnParams(2, float(r)))
            assert c.b_count >= prev_b and c.a_count >= prev_a
            prev_b, prev_a = c.b_count, c.a_count

    def test_b_nonincreasing_in_m(self):
        x = Signal("t", np.random.default_rng(7).standard_normal(60))
        for r in (0.2, 0.5, 1.0):
            bs = [count_matches(x, SampEnParams(m, r)).b_count for m in (1, 2, 3)]
            assert bs[0] >= bs[1] >= bs[2]

    @settings(max_examples=80, deadline=None)
    @given(
        x=st.lists(st.one_of(st.integers(-3, 3).map(lambda v: v / 2), st.floats(-2.0, 2.0)), min_size=6, max_size=40),
        m=st.integers(1, 4),
        data=st.data(),
    )
    def test_counts_equal_oracle_property(self, x, m, data):
        # tied values, and r equal to an exact gap: the closed ball must count it
        r = data.draw(st.sampled_from(sorted({abs(u - v) for u in x for v in x} - {0.0}) or [0.5]))
        c = count_matches(Signal("t", x), SampEnParams(m, r))
        assert (c.b_count, c.a_count) == naive_counts(x, m, r)

    def test_invalid_matchcounts(self):
        with pytest.raises(ValueError):
            MatchCounts(b_count=2, a_count=4, z=12)

    @pytest.mark.parametrize("r", [0.0, -0.1, math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, r):
        with pytest.raises(ValueError):
            SampEnParams(1, r)


class TestPointMatches:
    def test_one_float_temporary(self):
        # the (N, N) float64 gaps (8N^2 bytes) and the boolean result (N^2);
        # a second float temporary for the absolute value would add 8N^2
        n = 1000
        x = np.random.default_rng(8).standard_normal(n)
        tracemalloc.start()
        try:
            g = _point_matches(x, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * n
        assert np.array_equal(g, np.abs(x[:, None] - x[None, :]) <= 0.2)


class TestReplicateCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 4),
        extra=st.integers(0, 58),
        tied=st.booleans(),
        rows=st.sampled_from(["random", "constant", "identity"]),
        b=st.integers(1, 200),
        chunk_pairs=st.sampled_from([1, 40, 2**17]),
        tier=st.integers(0, len(_RANK_TIERS) - 1),
        seed=st.integers(0, 2**32 - 1),
        r_pick=st.integers(0, 2**16),
    )
    # m = 1 at even and odd N (the wrapped half of d = N/2 is masked only at
    # even N), and larger m at both parities
    @example(m=1, extra=1, tied=False, rows="random", b=30, chunk_pairs=2**17, tier=0, seed=1, r_pick=3)
    @example(m=1, extra=2, tied=False, rows="random", b=30, chunk_pairs=2**17, tier=0, seed=2, r_pick=3)
    @example(m=1, extra=57, tied=True, rows="random", b=100, chunk_pairs=2**17, tier=0, seed=3, r_pick=4)
    @example(m=1, extra=56, tied=False, rows="random", b=100, chunk_pairs=40, tier=2, seed=4, r_pick=5)
    @example(m=2, extra=56, tied=False, rows="random", b=100, chunk_pairs=2**17, tier=0, seed=5, r_pick=4)
    @example(m=3, extra=54, tied=True, rows="random", b=100, chunk_pairs=2**17, tier=0, seed=6, r_pick=6)
    # the uint16 and uint32 tiers forced at small N
    @example(m=2, extra=40, tied=True, rows="random", b=60, chunk_pairs=2**17, tier=1, seed=7, r_pick=5)
    @example(m=3, extra=41, tied=False, rows="random", b=60, chunk_pairs=2**17, tier=2, seed=8, r_pick=4)
    # rows of one word and of several (N = 63, 64, 65, 127, 128, 129, 198,
    # 201), m = 1-3 at both parities, and the last uint8 N (256) and the
    # first uint16 one (257)
    @example(m=1, extra=60, tied=False, rows="random", b=40, chunk_pairs=2**17, tier=0, seed=9, r_pick=4)
    @example(m=2, extra=60, tied=True, rows="random", b=40, chunk_pairs=2**17, tier=0, seed=10, r_pick=5)
    @example(m=3, extra=60, tied=False, rows="random", b=40, chunk_pairs=2**17, tier=0, seed=11, r_pick=6)
    @example(m=2, extra=123, tied=False, rows="random", b=40, chunk_pairs=2**17, tier=0, seed=12, r_pick=4)
    @example(m=1, extra=125, tied=True, rows="random", b=40, chunk_pairs=40, tier=0, seed=13, r_pick=7)
    @example(m=3, extra=124, tied=False, rows="random", b=40, chunk_pairs=2**17, tier=0, seed=14, r_pick=3)
    @example(m=3, extra=193, tied=False, rows="random", b=30, chunk_pairs=2**17, tier=0, seed=15, r_pick=5)
    @example(m=2, extra=197, tied=True, rows="random", b=30, chunk_pairs=2**17, tier=0, seed=16, r_pick=6)
    @example(m=1, extra=198, tied=False, rows="identity", b=5, chunk_pairs=2**17, tier=2, seed=17, r_pick=1)
    @example(m=2, extra=252, tied=True, rows="random", b=12, chunk_pairs=2**17, tier=0, seed=18, r_pick=5)
    @example(m=1, extra=254, tied=False, rows="random", b=12, chunk_pairs=2**17, tier=0, seed=19, r_pick=4)
    # templates longer than a word (shifts by j >= 64 skip whole words), at
    # the radius where every pair matches and at one where about a tenth do
    @example(m=63, extra=135, tied=True, rows="random", b=4, chunk_pairs=2**17, tier=0, seed=20, r_pick=1)
    @example(m=64, extra=134, tied=True, rows="random", b=4, chunk_pairs=2**17, tier=0, seed=21, r_pick=1)
    @example(m=65, extra=133, tied=False, rows="random", b=4, chunk_pairs=2**17, tier=0, seed=22, r_pick=1)
    @example(m=130, extra=68, tied=True, rows="identity", b=2, chunk_pairs=2**17, tier=0, seed=23, r_pick=1)
    @example(m=64, extra=134, tied=True, rows="random", b=4, chunk_pairs=2**17, tier=0, seed=24, r_pick=8)
    def test_rows_equal_per_replicate_loop(self, m, extra, tied, rows, b, chunk_pairs, tier, seed, r_pick):
        # N = m + 2 + extra, from m + 2 to 64 when drawn; index rows in
        # [0, n) with repeats; several chunks per call (a small
        # chunk_pairs, or B = 200 at N = 60); ranks in the tier-th dtype of
        # _RANK_TIERS or a wider one, as N requires
        n = m + 2 + extra
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        if tied:
            x = np.round(x, 1)
        gaps = np.unique(np.abs(x[:, None] - x[None, :]))
        gaps = gaps[gaps > 0]
        below = gaps[0] / 2 if gaps.size else 0.01
        radii = [below, float(np.ptp(x)) + 1.0, *gaps[:: max(1, gaps.size // 8)].tolist()]
        r = radii[r_pick % len(radii)]
        if rows == "random":
            idx = rng.integers(0, n, (b, n))
        elif rows == "constant":
            idx = np.repeat(rng.integers(0, n, (b, 1)), n, axis=1)
        else:
            idx = np.tile(np.arange(n), (b, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sampenopt.entropy._CHUNK_PAIRS", chunk_pairs)
            mp.setattr("sampenopt.entropy._RANK_TIERS", _RANK_TIERS[tier:])
            got = _replicate_counts(_RankPlan(x), r, idx, m)
        # row 0 is x itself, rows 1..B the resamples
        assert got.shape == (b + 1, 2)
        assert np.array_equal(got, replicate_counts_oracle(x, np.vstack((np.arange(n), idx)), m, r))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3).map(lambda v: round(v, 1)),
                                  st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308])),
                        min_size=3, max_size=70),
        m=st.integers(1, 4),
        r=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identity_row_equals_count_matches(self, values, m, r, seed):
        # the original, counted as the batched kernel's identity row 0, is count_matches' count
        x = np.asarray(values)
        if x.size < m + 2:
            return
        idx = np.random.default_rng(seed).integers(0, x.size, (3, x.size))
        c = count_matches(Signal("t", x), SampEnParams(m, r))
        assert _replicate_counts(_RankPlan(x), r, idx, m)[0].tolist() == [c.b_count, c.a_count]


class TestRankPlan:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3),
                                  st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, 5e307])),
                        min_size=1, max_size=70),
        tier=st.integers(0, len(_RANK_TIERS) - 1),
        r_pick=st.integers(0, 2**16),
    )
    # tied values; gaps past float64 at +-1.7e308
    @example(values=[0.0, 1.0, 1.0, -2.0, 0.0, 1.0], tier=0, r_pick=0)
    @example(values=[1.7e308, -1.7e308, 0.0, 1e308, -1e308, 1.7e308], tier=1, r_pick=3)
    def test_runs_equal_the_thresholded_sorted_matrix(self, values, tier, r_pick):
        # (first, width) from two compares on the plan's gaps is the argmax form on the point-match
        # matrix with its columns in x's stable order, whose true entries form that one run in every row;
        # r at half the smallest gap, past the spread, and at exact gaps; ranks in every tier's dtype
        x = np.asarray(values)
        n = x.size
        with np.errstate(over="ignore"):
            gaps = np.unique(np.abs(x[:, None] - x[None, :]))
            spread = min(float(np.ptp(x)) + 1.0, 1.7e308)
        gaps = gaps[(gaps > 0) & np.isfinite(gaps)]
        radii = [gaps[0] / 2 if gaps.size else 0.01, spread, *gaps[:: max(1, gaps.size // 8)].tolist()]
        r = radii[r_pick % len(radii)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sampenopt.entropy._RANK_TIERS", _RANK_TIERS[tier:])
            plan = _RankPlan(x)
        order = np.argsort(x, kind="stable")
        assert plan.rank.dtype == _RANK_TIERS[tier][1]
        assert np.array_equal(plan.rank, np.argsort(order))
        assert plan.gaps.shape == (n, n + 1) and (plan.gaps[:, n] == -np.inf).all()
        sorted_g = _point_matches(x, r)[:, order]
        first = np.argmax(sorted_g, axis=1)
        last = n - 1 - np.argmax(sorted_g[:, ::-1], axis=1)
        got_first, got_width = plan.runs(r)
        assert np.array_equal(got_first, first) and np.array_equal(got_width, last - first)
        pos = np.arange(n)
        assert np.array_equal(sorted_g, (pos >= first[:, None]) & (pos <= last[:, None]))


class TestMaskCache:
    def test_one_read_only_mask_per_length_and_m(self):
        first = _valid_words(101, 2)
        assert _valid_words(101, 2) is first
        assert first.ndim == 1 and first.dtype == np.dtype("<u8") and not first.flags.writeable
        assert first.size == 50 * 2  # N // 2 rows of two words
        assert _valid_words(101, 3) is not first and _valid_words(100, 2) is not first

    def test_plan_less_calls_on_one_length_build_one_mask(self):
        # bootstrap_sampen without a plan builds a rank plan and drops it; the mask outlives it
        p, cfg = SampEnParams(2, 0.3), BootstrapConfig(q=0.5, b=10, seed=1)
        _valid_words.cache_clear()
        for seed in (1, 2):
            bootstrap_sampen(gen_white_noise(97, 1.0, seed=seed), p, cfg)
        info = _valid_words.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestLengthRule:
    """count_matches, cp_sigma and fuzzen share one N >= m + 2 rule and message."""

    CALLS = {
        "count_matches": lambda x, m: count_matches(x, SampEnParams(m, 0.5)),
        "cp_sigma": lambda x, m: cp_sigma(x, SampEnParams(m, 0.5)),
        "fuzzen": lambda x, m: fuzzen(x, m, 0.5),
    }

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_m_plus_1_and_accepts_m_plus_2(self, name, m):
        with pytest.raises(SignalTooShort) as exc:
            self.CALLS[name](Signal("s", np.zeros(m + 1)), m)
        assert str(exc.value) == f"signal 's': need N >= m + 2 = {m + 2}, got N = {m + 1}"
        # a constant signal matches everywhere, so cp_sigma's CP is defined too
        self.CALLS[name](Signal("s", np.zeros(m + 2)), m)


class TestSampen:
    def test_constant_is_zero(self, constant):
        res = sampen(constant, SampEnParams(2, 0.2))
        assert res.cp == 1.0 and res.value == 0.0

    def test_undefined_state(self):
        x = Signal("g", [0.0, 10.0, 20.0, 30.0, 40.0])
        res = sampen(x, SampEnParams(1, 0.5))
        assert res.value is None and res.cp is None and not res.defined

    def test_infinite_state(self):
        # m-matches exist but none extend: value is +inf, not an exception
        x = Signal("s", [0.0, 1.0, 0.05, 5.0, 10.0, 11.0])
        res = sampen(x, SampEnParams(1, 0.1))
        assert res.value == math.inf and res.cp == 0.0

    def test_shift_invariance_exact(self, white100):
        p = SampEnParams(2, 0.3)
        shifted = Signal("s", white100.values + 7.25)
        assert sampen(white100, p).value == sampen(shifted, p).value

    def test_scale_equivariance_exact(self, white100):
        alpha = 3.5
        scaled = Signal("s", alpha * white100.values)
        a = sampen(white100, SampEnParams(2, 0.3))
        b = sampen(scaled, SampEnParams(2, alpha * 0.3))
        assert a.value == b.value

    def test_white_noise_population_mean(self):
        # lighter version of the standard-parameter table check (full scale
        # lives in the acceptance suite)
        vals = []
        for seed in range(30):
            x = normalize(gen_white_noise(100, 1.0, seed=7000 + seed))
            res = sampen(x, SampEnParams(2, 0.2))
            if res.finite:
                vals.append(res.value)
        assert 2.0 <= np.mean(vals) <= 2.6


class TestFuzzen:
    def test_constant_is_zero(self, constant):
        assert fuzzen(constant, 2, 0.2, 2.0) == 0.0

    def test_matches_oracle_small(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(8)
            got = fuzzen(Signal("t", x), 1, 0.25, 2.0)
            want = naive_fuzzen(x, 1, 0.25, 2.0)
            assert abs(got - want) <= 1e-12

    def test_matches_oracle_m2(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(24)
        got = fuzzen(Signal("t", x), 2, 0.2, 2.0)
        want = naive_fuzzen(x, 2, 0.2, 2.0)
        assert abs(got - want) <= 1e-12

    def test_large_radius_limit(self, white100):
        vals = [fuzzen(white100, 2, r, 2.0) for r in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_always_finite(self):
        x = Signal("g", [0.0, 10.0, 20.0, 30.0, 40.0])
        assert math.isfinite(fuzzen(x, 1, 0.1, 2.0))

    @pytest.mark.parametrize("r, eta", [(math.inf, 2.0), (0.2, math.inf)])
    def test_radius_and_eta_must_be_finite(self, white100, r, eta):
        with pytest.raises(ValueError):
            fuzzen(white100, 2, r, eta)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3).map(lambda v: round(v, 1))),
                        min_size=60, max_size=60),
        m=st.integers(1, 5),
        extend=st.booleans(),
        extra=st.integers(0, 53),
        r=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
        eta=st.sampled_from([0.5, 1.0, 2.0, 3.5, 50.0]),
    )
    # every off-diagonal 2-template gap is past 5e3, so (d / r)^50 overflows and every exponent is clamped
    @example(values=[0.0, 1e4, 3e4, 7e4, 1.5e5] + [0.0] * 55, m=1, extend=True, extra=0, r=1e-3, eta=50.0)
    def test_log_phi_equals_tensor_form_bit_for_bit(self, values, m, extend, extra, r, eta):
        # k = 1..6 over N = m + 2..60, ties from the small integers, clamped exponents at small r and large eta
        x = np.asarray(values[:m + 2 + extra])
        k, nt = m + extend, x.size - m
        assert _fuzzy_log_phi(Signal("t", x), k, nt, r, eta) == fuzzy_log_phi_tensor(x, k, nt, r, eta)

    def test_memory_is_two_distance_buffers(self):
        # the distances and one column's gaps, (nt, nt) floats each: no (nt, nt, k) tensor
        x = normalize(gen_white_noise(1000, 1.0, seed=8))
        nt = x.n - 2
        tracemalloc.start()
        try:
            fuzzen(x, 2, 0.2, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * nt * nt + 2**20

    def test_overflowing_template_raises_variance_overflow(self):
        # two 1e308 values in one template: its mean overflows, so it has no baseline-removed form
        x = Signal("a", [1e308, 1e308, -1e308, 1e308, 1e308, 0.0, -1e308, -1e308, 3e307, 1e308, 2e307, 1e308])
        with pytest.raises(VarianceOverflow, match="signal 'a': a baseline-removed 2-point template overflows"):
            fuzzen(x, 2, 0.2, 2.0)

    def test_overflowing_gap_is_a_zero_membership(self):
        # opposite-parity 2-templates lie 3e308 apart, past float64: of the 72 ordered pairs only the 32
        # same-parity ones are members, while every 1-point baseline-removed template is 0
        x = Signal("alt", [1.5e308, -1.5e308] * 5)
        assert abs(fuzzen(x, 1, 0.2, 2.0) - math.log(72 / 32)) <= 1e-12

    @pytest.mark.parametrize("values", [
        np.random.default_rng(30).standard_normal(3),
        np.random.default_rng(31).standard_normal(100),
        np.round(np.random.default_rng(32).standard_normal(40), 1),
        np.full(20, 1.5),
        [1.5e308, -1.5e308] * 5,
        [1e308, -1e308, 0.0, 0.1, 0.05, 1.7e308, -1.7e308, 0.0, 0.25, 1e-300, 0.2],
    ])
    def test_m1_skips_phi_1_bit_for_bit(self, values):
        # fuzzen at m = 1 takes log phi_1 as +0.0 without its (nt, nt) pass, as the full pass gives it
        x = Signal("t", values)
        nt = x.n - 1
        full = _fuzzy_log_phi(x, 1, nt, 0.3, 2.0)
        assert full.hex() == (0.0).hex()
        assert fuzzen(x, 1, 0.3, 2.0).hex() == (full - _fuzzy_log_phi(x, 2, nt, 0.3, 2.0)).hex()

    @pytest.mark.parametrize("m", [1, 2])
    def test_every_membership_underflowing_is_undefined(self, white100, m):
        # every off-diagonal exponent of phi_{m+1} overflows to the clamp; at m = 1 phi_1 is 0
        # (1-point baseline-removed templates are all 0), at m = 2 both terms are clamped
        with pytest.raises(UndefinedEntropy, match=rf"signal 'wn': .* at \(m={m}, r=1e-06, eta=1000.0\)$"):
            fuzzen(white100, m, 1e-6, 1000.0)


class TestCountingSe:
    def test_constant_zero_se(self, constant):
        assert counting_se(constant, SampEnParams(1, 0.2)) == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(25):
            x = rng.standard_normal(12)
            m = int(rng.integers(1, 3))
            r = float(rng.uniform(0.3, 1.0))
            try:
                want_cp, want_sigma = naive_cp_sigma(x, m, r)
            except UndefinedEntropy:
                continue
            got_cp, got_sigma = cp_sigma(Signal("t", x), SampEnParams(m, r))
            assert abs(got_cp - want_cp) <= 1e-14
            assert abs(got_sigma - want_sigma) <= 1e-12
            checked += 1
        assert checked >= 10

    def test_overlap_counts_equal_oracle(self):
        rng = np.random.default_rng(2024)
        near_end = 0
        for case in range(60):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m + 3, 201))
            r = float(rng.uniform(0.05, 1.5))
            x = rng.standard_normal(n)
            if case % 3 == 0:
                x = np.round(x, 1)  # tied values
            got, want, j = overlap_counts_both(x, m, r)
            assert got == want, f"case {case}: n={n} m={m} r={r}"
            near_end += bool(j.size) and int(j.max()) >= n - 2 * m
        # windows W(j) clipped at the last start index n-m-1 were exercised
        assert near_end >= 40

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_overlap_counts_near_boundary(self, m):
        # the signal's tail repeats its head, so pairs (i, j) with j at the
        # last start index N-m-1 match and W(j) is clipped on the right
        head = np.random.default_rng(m).standard_normal(12)
        x = np.concatenate((head, np.random.default_rng(10 + m).standard_normal(30), head))
        got, want, j = overlap_counts_both(x, m, 0.05)
        assert int(j.max()) == x.size - m - 1
        assert got == want

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_overlap_counts_constant_signal(self, m):
        # every pair matches at both lengths, so K_B == K_A
        got, want, j = overlap_counts_both(np.zeros(80), m, 0.1)
        assert j.size == (80 - m) * (79 - m) // 2
        assert got == want and got[0] == got[1]

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.lists(st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0)), min_size=6, max_size=60),
        m=st.integers(1, 5),
        r=st.floats(0.05, 1.5),
    )
    def test_overlap_counts_equal_oracle_property(self, x, m, r):
        got, want, _ = overlap_counts_both(x, m, r)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0)), min_size=44, max_size=44),
        m=st.integers(1, 4),
        extra=st.integers(0, 36),
        radii=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
    )
    @example(values=[0.0, 1.0] * 22, m=4, extra=0, radii=[0.5, 1.5])
    def test_stacked_counts_equal_oracle_per_layer(self, values, m, extra, radii):
        # mixed radii in one stack, nt = m + 2 + extra down to m + 2, where every window clips
        stack = mixed_layers(np.asarray(values[:2 * m + 2 + extra]), m, radii)
        assert _pair_counts(stack, m).tolist() == [layer_overlaps_oracle(layer, m) for layer in stack]

    @pytest.mark.parametrize("m, nt", [(7, 9), (7, 16), (7, 24), (8, 10), (8, 18), (8, 26)])
    def test_stacked_counts_at_wide_windows(self, m, nt):
        # (2m+1)^2 box sums reach 225 at m = 7, the most uint8 holds, and 289 at m = 8, in uint16
        x = np.round(np.random.default_rng(nt).standard_normal(nt + m), 1)
        stack = mixed_layers(x, m, (0.3, 1.0, 3.0))
        assert _pair_counts(stack, m).tolist() == [layer_overlaps_oracle(layer, m) for layer in stack]

    @pytest.mark.parametrize("m, nt", [(1, 40), (3, 9), (7, 30), (128, 258)])
    def test_all_true_layer_closed_form(self, m, nt):
        # every pair matches, so a pair overlaps every pair with an end in U but itself:
        # P - C(nt - |U|, 2) - 1 of the P pairs; at m = 128 box sums pass 65535, past uint16
        i, j = np.triu_indices(nt, 1)
        width = np.minimum(np.arange(nt) + m, nt - 1) - np.maximum(np.arange(nt) - m, 0) + 1
        outside = nt - (width[i] + width[j] - np.maximum(0, np.minimum(i + m, nt - 1) - np.maximum(j - m, 0) + 1))
        want = int((i.size - outside * (outside - 1) // 2 - 1).sum())
        layer = np.ones((nt, nt), dtype=bool)
        assert _pair_counts(layer[None], m).tolist() == [want]
        if nt <= 40:
            assert layer_overlaps_oracle(layer, m) == want

    @pytest.mark.parametrize("cells", [_GRID_CELLS, 1])
    def test_grid_pass_equals_cp_sigma_per_radius(self, cells, monkeypatch):
        # chunked or one radius at a time, the pass gives each radius's cp_sigma
        # bit for bit, and the UndefinedEntropy it raises, message and all
        monkeypatch.setattr("sampenopt.entropy._GRID_CELLS", cells)
        radii = np.round(np.arange(0.10, 1.0001, 0.05), 10).tolist() + [5.0]
        signals = [(Signal("flat", [0.0, 0.0, 10.0, 20.0, 30.0]), 1), (Signal("walk", np.cumsum(np.sin(np.arange(40)))), 2),
                   (normalize(gen_white_noise(30, 1.0, seed=5)), 3), (normalize(gen_white_noise(90, 1.0, seed=6)), 1)]
        messages = set()
        for x, m in signals:
            for r, got in zip(radii, _cp_sigma_grid(x, m, radii)):
                try:
                    want = cp_sigma(x, SampEnParams(m, r))
                except UndefinedEntropy as exc:
                    assert isinstance(got, UndefinedEntropy) and str(got) == str(exc)
                    messages.add(str(exc).split(": ")[1].split(" at ")[0])
                else:
                    assert got == want
        assert messages == {"no template matches", "CP = 0"}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_exhaustive_oracle_exactly(self, m):
        # the counts are exact integers and the variance formula is the
        # oracle's, so (cp, sigma) agree to the last bit
        rng = np.random.default_rng(40 + m)
        checked = 0
        for _ in range(30):
            x = rng.standard_normal(int(rng.integers(m + 8, 30)))
            r = float(rng.uniform(0.3, 1.0))
            try:
                want = naive_cp_sigma(x, m, r)
            except UndefinedEntropy:
                continue
            assert cp_sigma(Signal("t", x), SampEnParams(m, r)) == want
            checked += 1
        assert checked >= 10

    def test_pair_counts_memory_independent_of_matches(self):
        # every array has a size fixed by (nt, m): no match peaks as high as
        # all 44850 of them, up to Python scalars (one int64 per match would
        # add 350 KiB)
        nt, m = 300, 2
        peaks = []
        for match in (np.eye(nt, dtype=bool), np.ones((nt, nt), dtype=bool)):
            stack = np.stack((match, match))
            tracemalloc.start()
            try:
                _pair_counts(stack, m)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) < 4096

    def test_grid_memory_within_chunk_budget(self):
        # at nt = 599 one radius fills a chunk, so a 19-radius grid peaks at
        # one radius's cost, not 19 times it: the point gaps (8 bytes a cell)
        # plus a few bytes per cell of one chunk's layers
        x = normalize(gen_white_noise(600, 1.0, seed=3))
        nt = x.n - 1
        radii = np.round(np.arange(0.10, 1.0001, 0.05), 10).tolist()
        peaks = []
        for grid in (radii[:1], radii):
            tracemalloc.start()
            try:
                _cp_sigma_grid(x, 1, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, whole = peaks
        assert 2 * nt * nt > _GRID_CELLS
        assert whole < 2 * one
        assert whole < 8 * x.n**2 + 8 * 2 * nt * nt

    @pytest.mark.parametrize(
        "values, message", [([0.0, 10.0, 20.0, 30.0, 40.0], "no template matches"), ([0.0, 0.0, 10.0, 20.0, 30.0], "CP = 0")]
    )
    def test_undefined_raises_before_counting_overlaps(self, values, message, monkeypatch):
        # B and A come from the match matrices, so an undefined or zero CP
        # costs no overlap count
        def refuse(*args):
            raise AssertionError("overlaps counted for an undefined CP")

        monkeypatch.setattr("sampenopt.entropy._pair_counts", refuse)
        with pytest.raises(UndefinedEntropy, match=message):
            cp_sigma(Signal("g", values), SampEnParams(1, 0.5))

    def test_se_decreases_with_length(self):
        p = SampEnParams(1, 0.2)

        def median_se(n, base):
            ses = []
            for seed in range(50):
                x = normalize(gen_white_noise(n, 1.0, seed=base + seed))
                ses.append(counting_se(x, p))
            return np.median(ses)

        assert median_se(200, 31_000) < median_se(50, 32_000)

    def test_undefined_on_no_matches(self):
        x = Signal("g", [0.0, 10.0, 20.0, 30.0, 40.0])
        with pytest.raises(UndefinedEntropy):
            counting_se(x, SampEnParams(1, 0.5))
