import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sampenopt.bootstrap import (
    BootstrapConfig,
    BootstrapEstimates,
    _block_indices,
    _block_lengths,
    _draw_blocks,
    bootstrap_sampen,
    stationary_bootstrap,
)
from sampenopt.entropy import SampEnParams, SampEnResult, _RankPlan, _point_matches, sampen
from sampenopt.errors import Infeasible, SignalTooShort
from sampenopt.optimizer import OptimizerConfig, optimize_set
from sampenopt.rng import generator
from sampenopt.signal import Signal, SignalSet, gen_white_noise


def _result(value) -> SampEnResult:
    if value is None:
        return SampEnResult(bm=0.0, am=0.0, cp=None, value=None)
    if math.isinf(value):
        return SampEnResult(bm=0.5, am=0.0, cp=0.0, value=math.inf)
    return SampEnResult(bm=0.5, am=0.25, cp=0.5, value=float(value))


def _estimates(original, replicates) -> BootstrapEstimates:
    # nan stands in for an undefined (None) replicate value
    vals = np.array([math.nan if v is None else v for v in replicates], dtype=np.float64)
    return BootstrapEstimates(original=_result(original), replicates=vals)


def _block_indices_reference(starts, lengths, n):
    """One replicate's block indices, assembled block by block (the per-row reference)."""
    cum = np.cumsum(lengths)
    nb = int(np.searchsorted(cum, n)) + 1
    starts = starts[:nb]
    lengths = lengths[:nb].copy()
    lengths[-1] -= int(cum[nb - 1]) - n
    offsets = np.arange(n) - np.repeat(np.concatenate(([0], np.cumsum(lengths[:-1]))), lengths)
    return (np.repeat(starts, lengths) + offsets) % n


def _replicate_oracle(x, starts, lengths):
    """One replicate assembled block by block from its drawn starts and lengths."""
    return x.with_values(x.values[_block_indices_reference(starts, lengths, x.n)])


def _lengths_oracle(exponentials, q, n):
    """Geom(q) lengths by inversion, one draw at a time: ceil(E / -log1p(-q)), kept in [1, n]."""
    c = -math.log1p(-q)
    return np.array([[max(1, min(n, math.ceil(e / c))) for e in row] for row in np.atleast_2d(exponentials)])


def _fields(res: SampEnResult):
    return res.bm, res.am, res.cp, res.value


def _value_hex(res: SampEnResult) -> str:
    """A sampen value in hex as a replicate array holds it, nan for undefined."""
    return float(math.nan if res.value is None else res.value).hex()


def _hex(values: np.ndarray) -> list[str]:
    return [v.hex() for v in values.tolist()]


@st.composite
def _block_draws(draw):
    """(B, k) starts and lengths >= 1 whose rows sum to at least n."""
    n = draw(st.integers(1, 25))
    b = draw(st.integers(1, 4))
    k = draw(st.integers(1, n + 3))
    rows = st.lists(st.integers(1, 2 * n + 2), min_size=k, max_size=k)
    lengths = np.array(draw(st.lists(rows, min_size=b, max_size=b)), dtype=np.int64)
    lengths[:, -1] += np.maximum(n - lengths.sum(axis=1), 0)
    rows = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    starts = np.array(draw(st.lists(rows, min_size=b, max_size=b)), dtype=np.int64)
    return starts, lengths, n


class TestBlockAssembly:
    def test_wrap_rule(self):
        # start at the last element with a 3-long block wraps to the front
        x = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        idx = _block_indices(np.array([[4, 0]]), np.array([[3, 2]]), 5)
        assert np.array_equal(x[idx[0]][:3], [50.0, 10.0, 20.0])

    def test_truncates_to_exact_length(self):
        idx = _block_indices(np.array([[0, 2]]), np.array([[3, 7]]), 5)
        assert idx.shape == (1, 5)

    def test_single_overlong_block(self):
        idx = _block_indices(np.array([[3]]), np.array([[12]]), 6)
        assert idx.shape == (1, 6)
        assert np.array_equal(idx[0], (3 + np.arange(6)) % 6)


class TestBatchedBlockIndices:
    @settings(max_examples=150, deadline=None)
    @given(draws=_block_draws())
    @example(draws=(np.array([[0]]), np.array([[1]]), 1))
    @example(draws=(np.array([[0, 0], [0, 0]]), np.array([[1, 1], [3, 1]]), 1))
    @example(draws=(np.array([[3, 1], [5, 0]]), np.array([[12, 2], [2, 9]]), 6))
    def test_rows_equal_per_row_reference(self, draws):
        starts, lengths, n = draws
        got = _block_indices(starts, lengths, n)
        assert got.shape == (starts.shape[0], n)
        for row, s_row, l_row in zip(got, starts, lengths):
            assert np.array_equal(row, _block_indices_reference(s_row, l_row, n))


class TestStationaryBootstrap:
    def test_length_preserved(self):
        for n in (1, 2, 5, 50, 100):
            x = gen_white_noise(n, 1.0, seed=n)
            for seed in range(20):
                out = stationary_bootstrap(x, 0.5, generator(seed))
                assert out.n == n

    def test_multiset_containment(self):
        x = gen_white_noise(40, 1.0, seed=3)
        members = set(x.values.tolist())
        for seed in range(50):
            out = stationary_bootstrap(x, 0.3, generator(seed))
            assert set(out.values.tolist()) <= members

    def test_deterministic(self):
        x = gen_white_noise(64, 1.0, seed=5)
        a = stationary_bootstrap(x, 0.7, generator(11))
        b = stationary_bootstrap(x, 0.7, generator(11))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
    def test_block_lengths_are_geometric(self, q):
        # inverted exponentials are Geom(q) on {1, 2, ...}: mean 1/q, P(L = 1) = q
        lens = _block_lengths(generator(1).standard_exponential(100_000), q, 10**6)
        assert lens.dtype == np.int64 and lens.min() >= 1
        assert abs(lens.mean() * q - 1.0) <= 0.02
        assert abs((lens == 1).mean() - q) <= 0.01

    def test_block_lengths_non_increasing_in_q(self):
        # one table serves every q, and a larger q never lengthens a block
        exponentials = _draw_blocks(50, 40, generator(2)).exponentials
        by_q = [_block_lengths(exponentials, q, 50) for q in (0.05, 0.3, 0.9)]
        assert all((a >= b).all() for a, b in zip(by_q, by_q[1:]))
        assert all(lens.min() >= 1 and lens.max() <= 50 for lens in by_q)
        assert (by_q[0] > by_q[-1]).any()

    def test_invalid_q(self):
        x = gen_white_noise(10, 1.0, seed=1)
        with pytest.raises(ValueError):
            stationary_bootstrap(x, 1.0, generator(0))


class TestTinyQ:
    """As q -> 0 the inverted lengths outgrow n without overflowing, and each replicate is one circular shift.

    The starts are drawn before the exponentials, so replicate b's shift is the first start of row b.
    """

    @pytest.mark.parametrize("q", [1e-300, 5e-324])
    @pytest.mark.parametrize("n", [5, 37, 100])
    def test_every_replicate_is_one_circular_shift(self, q, n):
        x = gen_white_noise(n, 1.0, seed=n)
        for seed in range(5):
            start = generator(seed).integers(0, n, (1, n))[0, 0]
            assert np.array_equal(stationary_bootstrap(x, q, generator(seed)).values, np.roll(x.values, -start))
        p, cfg = SampEnParams(1, 0.3), BootstrapConfig(q=q, b=20, seed=n)
        starts = generator(cfg.seed).integers(0, n, (cfg.b, n))[:, 0]
        want = [_value_hex(sampen(x.with_values(np.roll(x.values, -s)), p)) for s in starts]
        assert _hex(bootstrap_sampen(x, p, cfg).replicates) == want


class TestBootstrapSampen:
    def test_constant_signal_feasible_zero(self):
        x = Signal("c", np.full(30, 2.0))
        est = bootstrap_sampen(x, SampEnParams(1, 0.2), BootstrapConfig(q=0.5, b=20, seed=1))
        assert est.feasible
        # every replicate is x itself: value -log(1), as sampen scores it
        assert _hex(est.replicates) == [_value_hex(sampen(x, SampEnParams(1, 0.2)))] * 20
        assert (est.replicates == 0.0).all()
        assert est.summary.variance == 0.0 and est.summary.mse == 0.0

    def test_tiny_radius_infeasible(self):
        # radius below every pairwise template gap: nothing matches anywhere
        x = Signal("g", np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0]))
        est = bootstrap_sampen(x, SampEnParams(1, 1e-6), BootstrapConfig(q=0.5, b=10, seed=2))
        assert not est.feasible

    def test_single_replicate(self):
        x = gen_white_noise(50, 1.0, seed=9)
        est = bootstrap_sampen(x, SampEnParams(1, 0.3), BootstrapConfig(q=0.5, b=1, seed=3))
        assert len(est.replicates) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(5, 40),
        b=st.integers(1, 12),
        q=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**64 - 1),
        params=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([0.05, 0.2, 0.6])), min_size=2, max_size=3),
    )
    def test_replicate_invariants(self, n, b, q, seed, params):
        x = Signal("w", np.round(np.random.default_rng(n).standard_normal(n), 1))
        cfg = BootstrapConfig(q=q, b=b, seed=seed)
        seen = []  # every call's block indices, as bootstrap_sampen builds them

        def spy(starts, lengths, size):
            seen.append(_block_indices(starts, lengths, size))
            return seen[-1]

        ps = [SampEnParams(m, r) for m, r in params]
        ps.append(ps[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sampenopt.bootstrap._block_indices", spy)
            ests = [bootstrap_sampen(x, p, cfg) for p in ps]
        assert len(seen) == len(ps)
        for p, est, idx in zip(ps, ests, seen):
            # B replicates of length n whose values come from x, scored as sampen scores them
            assert idx.shape == (b, n) and idx.min() >= 0 and idx.max() < n
            assert _hex(est.replicates) == [_value_hex(sampen(x.with_values(x.values[i]), p)) for i in idx]
        # the same cfg gives the same replicates (the repeated first call), and
        # the block draws do not depend on (m, r)
        assert _hex(ests[0].replicates) == _hex(ests[-1].replicates)
        assert all(np.array_equal(idx, seen[0]) for idx in seen)

    @pytest.mark.parametrize("b", [1, 7, 100])
    def test_one_generator_per_call(self, monkeypatch, b):
        made = []

        def counting(*args):
            made.append(args)
            return generator(*args)

        monkeypatch.setattr("sampenopt.bootstrap.generator", counting)
        x = gen_white_noise(50, 1.0, seed=10)
        cfg = BootstrapConfig(q=0.5, b=b, seed=4)
        est = bootstrap_sampen(x, SampEnParams(1, 0.3), cfg)
        assert len(est.replicates) == b
        assert made == [(4,)]
        # the same table passed in: no draw, and the same replicates
        blocks = _draw_blocks(50, b, generator(4))
        assert _hex(bootstrap_sampen(x, SampEnParams(1, 0.3), cfg, blocks).replicates) == _hex(est.replicates)
        assert made == [(4,)]

    def test_passed_blocks_must_be_b_by_n(self):
        x, cfg = gen_white_noise(50, 1.0, seed=10), BootstrapConfig(q=0.5, b=7, seed=4)
        with pytest.raises(ValueError, match=r"need \(B, n\) = \(7, 50\)"):
            bootstrap_sampen(x, SampEnParams(1, 0.3), cfg, _draw_blocks(49, 7, generator(4)))

    def test_one_plan_per_signal_per_search(self, monkeypatch):
        # a plan-less call builds one rank plan; a T-trial search on k signals builds k, one beside each
        # signal's table, and no trial builds another; nothing thresholds an (N, N) match matrix
        built, thresholded = [], []

        def planning(x):
            built.append(x.size)
            return _RankPlan(x)

        def matching(x, r):
            thresholded.append(r)
            return _point_matches(x, r)

        monkeypatch.setattr("sampenopt.bootstrap._RankPlan", planning)
        monkeypatch.setattr("sampenopt.optimizer._RankPlan", planning)
        monkeypatch.setattr("sampenopt.entropy._point_matches", matching)
        x = gen_white_noise(50, 1.0, seed=11)
        est = bootstrap_sampen(x, SampEnParams(2, 0.3), BootstrapConfig(q=0.5, b=20, seed=5))
        assert len(est.replicates) == 20
        assert built == [50]
        built.clear()
        signals = SignalSet(tuple(gen_white_noise(n, 1.0, seed=n, id=f"s{n}") for n in (40, 50, 60)))
        res = optimize_set(signals, OptimizerConfig(b=10, t_tilde=12, t_init=4, seed=6))
        assert len(res.records) == 12 and any(rec.feasible for rec in res.records)
        assert built == [40, 50, 60]
        assert thresholded == []


class TestBootstrapOracle:
    def test_bit_identical_to_per_replicate_loop(self):
        rng = np.random.default_rng(77)
        undefined = infinite = too_short = 0
        # 60 drawn lengths, then rows of one 64-bit word and of several
        for case, fixed_n in enumerate([None] * 60 + [64, 65, 128, 129, 200]):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(3, 70)) if fixed_n is None else fixed_n
            x = rng.standard_normal(n)
            if case % 3 == 0:
                x = np.round(x, 1)  # tied values
            x = Signal("t", x)
            p = SampEnParams(m, float(rng.choice([0.02, 0.1, 0.2, 0.5])))
            cfg = BootstrapConfig(q=float(rng.uniform(0.05, 0.95)), b=int(rng.integers(1, 30)), seed=case)
            if n < m + 2:
                with pytest.raises(SignalTooShort):
                    bootstrap_sampen(x, p, cfg)
                with pytest.raises(SignalTooShort):
                    sampen(x, p)
                too_short += 1
                continue
            est = bootstrap_sampen(x, p, cfg)
            # one stream per call: (B, n) starts, then (B, n) exponentials, row b is replicate b
            rng = generator(cfg.seed)
            starts = rng.integers(0, n, (cfg.b, n))
            lengths = _lengths_oracle(rng.standard_exponential((cfg.b, n)), cfg.q, n)
            want = [sampen(_replicate_oracle(x, s, l), p) for s, l in zip(starts, lengths)]
            # the single-replicate caller: n starts, then n exponentials, and the same stream state after
            rng, ref = generator(cfg.seed), generator(cfg.seed)
            ref_starts = ref.integers(0, n, n)
            xb = _replicate_oracle(x, ref_starts, _lengths_oracle(ref.standard_exponential(n), cfg.q, n)[0])
            assert np.array_equal(stationary_bootstrap(x, cfg.q, rng).values, xb.values)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert _fields(est.original) == _fields(sampen(x, p))
            assert _hex(est.replicates) == [_value_hex(r) for r in want], f"case {case}"
            undefined += sum(r.value is None for r in want)
            infinite += sum(r.value == math.inf for r in want)
        assert undefined and infinite and too_short


class TestMoments:
    def test_variance_divisor(self):
        est = _estimates(2.0, [1.0, 2.0, 3.0])
        assert abs(est.summary.variance - 2.0 / 3.0) <= 1e-15

    def test_mse_hand_value(self):
        est = _estimates(1.0, [1.0, 3.0])
        assert abs(est.summary.mse - 2.0) <= 1e-15

    def test_zero_spread(self):
        est = _estimates(1.5, [1.5, 1.5, 1.5])
        assert est.summary.variance == 0.0 and est.summary.mse == 0.0 and est.summary.bias == 0.0

    def test_variance_matches_two_pass_reference(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(64).tolist()
        est = _estimates(0.3, vals)
        mean = sum(vals) / len(vals)
        ref = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(est.summary.variance - ref) <= 1e-14

    def test_decomposition_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            theta = float(rng.standard_normal())
            vals = rng.standard_normal(int(rng.integers(2, 40))).tolist()
            s = _estimates(theta, vals).summary
            assert abs(s.mse - (s.bias**2 + s.variance)) <= 1e-12

    def test_identity_with_censored_replicates(self):
        # one non-finite replicate out of 20 stays under the 10% cut; the
        # identity must hold on the retained subset
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(19).tolist() + [math.inf]
        est = _estimates(0.5, vals)
        assert est.feasible
        s = est.summary
        assert abs(s.mse - (s.bias**2 + s.variance)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(30).tolist()
        est1 = _estimates(0.2, vals)
        est2 = _estimates(0.2, list(reversed(vals)))
        assert est1.summary.variance == est2.summary.variance
        assert est1.summary.mse == est2.summary.mse

    def test_infeasible_raises(self):
        est = _estimates(1.0, [None] * 10)
        assert not est.feasible
        with pytest.raises(Infeasible):
            est.summary.variance
        with pytest.raises(Infeasible):
            est.summary.mse

    @settings(max_examples=200, deadline=None)
    @given(
        original=st.one_of(st.none(), st.just(math.inf), st.floats(-5.0, 5.0)),
        finite=st.lists(st.floats(-5.0, 5.0), max_size=60),
        censored=st.lists(st.sampled_from([math.inf, None]), max_size=5),
        order=st.randoms(use_true_random=False),
    )
    @example(original=0.5, finite=[-0.0, 0.0, 1.0], censored=[], order=random.Random(0))
    @example(original=-0.0, finite=[1.0] * 8, censored=[None, math.inf], order=random.Random(0))
    def test_summary_equals_the_separate_expressions_bitwise(self, original, finite, censored, order):
        # the one summary per estimate set against each moment computed on its own, as it once was
        replicates = finite + censored
        order.shuffle(replicates)
        est = _estimates(original, replicates or [None])
        if not est.feasible:
            for moment in ("variance", "bias", "mse"):
                with pytest.raises(Infeasible):
                    getattr(est.summary, moment)
            return
        vals = np.sort(est.replicates[np.isfinite(est.replicates)])
        theta = est.original.value
        want = [float(vals.mean()), float(np.mean((vals - vals.mean()) ** 2)), float(np.mean((theta - vals) ** 2)),
                float(vals.mean() - theta)]
        assert [v.hex() for v in est.summary] == [v.hex() for v in want]

    def test_feasibility_boundary(self):
        # exactly 90% finite is feasible; below it is not
        ok = _estimates(1.0, [1.0] * 9 + [None])
        assert ok.feasible
        bad = _estimates(1.0, [1.0] * 8 + [None, math.inf])
        assert not bad.feasible
