import itertools

import numpy as np
import pytest

from sampenopt.errors import EmptyGroup, InvalidP, NotTwoClasses, TooShort
from sampenopt.signal import Ar1Config, Signal, SignalSet, gen_ar1, gen_white_noise, normalize
from sampenopt.stats import (
    adf_test,
    holm_sidak,
    mann_whitney_u,
    stationarity_pipeline,
    two_class_split,
)

from conftest import make_ar_set


class TestAdf:
    def test_white_noise_power(self):
        rejections = sum(
            adf_test(gen_white_noise(500, 1.0, seed=s)).p_value < 0.01 for s in range(60)
        )
        assert rejections >= 57  # >= 95%

    def test_random_walk_retains_null(self):
        keep = 0
        for s in range(60):
            rw = Signal("rw", np.cumsum(gen_white_noise(500, 1.0, seed=1000 + s).values))
            if adf_test(rw).p_value > 0.10:
                keep += 1
        assert keep >= 54  # >= 90%

    def test_differenced_random_walk_rejects(self):
        rejections = 0
        for s in range(60):
            rw = np.cumsum(gen_white_noise(501, 1.0, seed=2000 + s).values)
            if adf_test(Signal("d", np.diff(rw))).p_value < 0.01:
                rejections += 1
        assert rejections >= 57

    def test_power_orders_with_persistence(self):
        # stochastic ordering of p-values across phi in {1.0, 0.95, 0.5}
        def median_p(phi, base):
            ps = []
            for s in range(25):
                if phi >= 1.0:
                    x = Signal("rw", np.cumsum(gen_white_noise(300, 1.0, seed=base + s).values))
                else:
                    x = gen_ar1(Ar1Config(phi=phi, sigma=1.0, n=300, seed=base + s))
                ps.append(adf_test(x).p_value)
            return np.median(ps)

        p_unit = median_p(1.0, 3000)
        p_95 = median_p(0.95, 4000)
        p_50 = median_p(0.5, 5000)
        assert p_unit > p_95 > p_50

    def test_matches_statsmodels(self):
        statsmodels = pytest.importorskip("statsmodels.tsa.stattools")
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(250) if seed % 2 else np.cumsum(rng.standard_normal(250))
            mine = adf_test(Signal("x", x))
            stat, p, lags, *_ = statsmodels.adfuller(x, regression="c", autolag="AIC")
            assert mine.statistic == pytest.approx(stat, rel=1e-9)
            assert mine.lags == lags
            if 0.001 < p < 0.999:
                assert mine.p_value == pytest.approx(p, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            adf_test(Signal("s", np.arange(10.0)))

    def test_singular_design(self):
        from sampenopt.errors import SingularDesign

        with pytest.raises(SingularDesign):
            adf_test(Signal("c", np.full(30, 2.0)))

    def test_p_clipped_at_surface_edges(self):
        # long white noise drives the statistic below tau_min, where the
        # response surface is invalid and the p-value clips to 0.001
        res = adf_test(gen_white_noise(2000, 1.0, seed=3))
        assert res.statistic < -18.83
        assert res.p_value == 0.001


class TestHolmSidak:
    def test_hand_example(self):
        adj = holm_sidak([0.01, 0.04])
        assert adj[0] == pytest.approx(0.0199, abs=1e-4)
        assert adj[1] == pytest.approx(0.04, abs=1e-12)

    def test_single_p_unchanged(self):
        assert holm_sidak([0.37])[0] == pytest.approx(0.37)

    def test_all_zeros(self):
        assert holm_sidak([0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]

    def test_monotone_and_dominating(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(0, 1, int(rng.integers(1, 12)))
            adj = np.asarray(holm_sidak(p))
            assert np.all(adj >= p - 1e-15)
            assert np.all((adj >= 0) & (adj <= 1))
            order = np.argsort(p)
            assert np.all(np.diff(adj[order]) >= -1e-15)

    def test_order_preserved(self):
        p = [0.5, 0.01, 0.2]
        adj = holm_sidak(p)
        assert adj[1] == min(adj)

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            holm_sidak([0.5, 1.2])


class TestMannWhitney:
    def test_exact_hand_case(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6], "less")
        assert res.u_statistic == 0.0
        assert res.p_value == pytest.approx(0.05, abs=1e-15)

    def test_identical_samples_two_sided(self):
        res = mann_whitney_u([1, 2, 3], [1, 2, 3], "two-sided")
        assert res.p_value == 1.0

    def test_one_sided_mirror(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(5).tolist()
            b = rng.standard_normal(6).tolist()
            assert mann_whitney_u(a, b, "less").p_value == pytest.approx(
                mann_whitney_u(b, a, "greater").p_value, abs=1e-12
            )

    def test_u_sum_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal(int(rng.integers(2, 8)))
            b = rng.standard_normal(int(rng.integers(2, 8)))
            u_a = mann_whitney_u(a, b).u_statistic
            u_b = mann_whitney_u(b, a).u_statistic
            assert u_a + u_b == pytest.approx(a.size * b.size)

    def test_exact_against_full_enumeration(self):
        # independent check: distribution of U over every rank arrangement
        a = [0.3, 1.9, 2.2, 0.1]
        b = [1.1, 2.5, 0.7]
        u_obs = sum(1 for x in a for y in b if x > y)
        n = len(a) + len(b)
        us = [sum(pos) - 6 for pos in itertools.combinations(range(n), len(a))]
        want = sum(1 for u in us if u <= u_obs) / len(us)
        assert mann_whitney_u(a, b, "less").p_value == pytest.approx(want, abs=1e-15)

    def test_exact_matches_scipy(self):
        from scipy.stats import mannwhitneyu

        rng = np.random.default_rng(3)
        for alt in ("less", "greater", "two-sided"):
            a = rng.standard_normal(6)
            b = rng.standard_normal(7)
            mine = mann_whitney_u(a, b, alt)
            ref = mannwhitneyu(a, b, alternative=alt, method="exact")
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_large_sample_close_to_scipy(self):
        from scipy.stats import mannwhitneyu

        rng = np.random.default_rng(4)
        a = rng.standard_normal(40)
        b = rng.standard_normal(35) + 0.4
        mine = mann_whitney_u(a, b, "two-sided")
        ref = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            mann_whitney_u([], [1.0])


class TestPipeline:
    def test_stationary_ar_set_mostly_retained(self):
        s = make_ar_set(50, 200, seed=600)
        report = stationarity_pipeline(s, alpha=0.05)
        assert report.retained is not None
        assert report.retained.n >= 45  # >= 90%

    def test_ramps_dropped_with_reason(self):
        ramp = Signal("ramp", np.arange(100.0))
        noise = normalize(gen_white_noise(100, 1.0, seed=0, id="wn"))
        report = stationarity_pipeline(SignalSet((ramp, noise)), alpha=0.05)
        rec = {r.signal_id: r for r in report.records}
        assert rec["ramp"].retained is False
        assert rec["ramp"].reason == "ZeroVariance"
        assert rec["wn"].retained is True

    def test_alpha_one_keeps_everything_testable(self):
        s = make_ar_set(10, 100, seed=700)
        report = stationarity_pipeline(s, alpha=1.0)
        assert report.retained.n == 10

    def test_outputs_are_normalized_and_differenced(self):
        s = make_ar_set(5, 150, seed=800)
        report = stationarity_pipeline(s, alpha=0.05)
        for sig in report.retained:
            assert sig.n == 149
            assert abs(sig.values.mean()) <= 1e-12
            assert abs(np.std(sig.values, ddof=1) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.arange(100.0) ** 2, np.arange(100.0) % 2], ids=["square", "alternating"])
    def test_rank_deficient_signal_dropped_with_reason(self, bad):
        noise = [gen_white_noise(100, 1.0, seed=i, id=f"wn{i}") for i in range(3)]
        report = stationarity_pipeline(SignalSet((*noise, Signal("bad", bad))), alpha=0.05)
        rec = {r.signal_id: r for r in report.records}
        assert rec["bad"].retained is False
        assert rec["bad"].reason == "SingularDesign"
        assert rec["bad"].p_value is None and rec["bad"].adjusted_p is None
        assert [x.id for x in report.retained] == ["wn0", "wn1", "wn2"]

    def test_signal_too_large_to_normalize_dropped_with_reason(self):
        noise = [gen_white_noise(100, 1.0, seed=i, id=f"wn{i}") for i in range(3)]
        big = Signal("big", 1e200 * gen_white_noise(100, 1.0, seed=9).values)
        report = stationarity_pipeline(SignalSet((*noise, big)), alpha=0.05)
        rec = {r.signal_id: r for r in report.records}
        assert rec["big"].retained is False and rec["big"].reason == "VarianceOverflow"
        assert [x.id for x in report.retained] == ["wn0", "wn1", "wn2"]

    def test_signal_whose_difference_overflows_dropped_with_reason(self):
        noise = [gen_white_noise(100, 1.0, seed=i, id=f"wn{i}") for i in range(3)]
        mix = Signal("mix", 1.5e308 * (2.0 * np.random.default_rng(3).random(40) - 1.0))
        report = stationarity_pipeline(SignalSet((*noise, mix)), alpha=0.05)
        rec = {r.signal_id: r for r in report.records}
        assert rec["mix"].retained is False and rec["mix"].reason == "VarianceOverflow"
        assert [x.id for x in report.retained] == ["wn0", "wn1", "wn2"]

    def test_records_cover_all_inputs(self):
        s = make_ar_set(8, 120, seed=900)
        report = stationarity_pipeline(s, alpha=0.05)
        assert len(report.records) == 8
        assert all(r is not None for r in report.records)


class TestEntropyComparisons:
    def test_distinct_generators_separate(self):
        # white noise vs AR(1) entropy distributions at the standard
        # parameters separate decisively at n = 50 per class
        from sampenopt.entropy import SampEnParams, sampen
        from conftest import make_noise_set

        p = SampEnParams(2, 0.20)
        hits = 0
        for seed in range(5):
            noise = make_noise_set(50, 100, seed=7000 + seed)
            ar = make_ar_set(50, 100, seed=7500 + seed)
            a = [r.value for r in (sampen(x, p) for x in noise) if r.finite]
            b = [r.value for r in (sampen(x, p) for x in ar) if r.finite]
            if mann_whitney_u(a, b, "two-sided").p_value < 0.05:
                hits += 1
        assert hits == 5

    def test_identical_generators_give_null_pvalues(self):
        # same-distribution classes: p is roughly uniform, so the median
        # over seeds sits well inside (0, 1)
        from sampenopt.entropy import SampEnParams, sampen
        from conftest import make_noise_set

        p = SampEnParams(2, 0.20)
        pvals = []
        for seed in range(20):
            a_set = make_noise_set(12, 100, seed=8000 + seed)
            b_set = make_noise_set(12, 100, seed=8500 + seed)
            a = [r.value for r in (sampen(x, p) for x in a_set) if r.finite]
            b = [r.value for r in (sampen(x, p) for x in b_set) if r.finite]
            pvals.append(mann_whitney_u(a, b, "two-sided").p_value)
        assert 0.2 <= np.median(pvals) <= 0.8


class TestTwoClassSplit:
    def test_splits(self):
        s = SignalSet(
            (
                Signal("a1", [1.0, 2.0], label="x"),
                Signal("b1", [1.0, 2.0], label="y"),
                Signal("a2", [3.0, 4.0], label="x"),
            )
        )
        assert two_class_split(s) == ("x", "y")

    def test_one_class_rejected(self):
        s = SignalSet((Signal("a", [1.0, 2.0], label="x"),))
        with pytest.raises(NotTwoClasses):
            two_class_split(s)

    def test_three_classes_rejected(self):
        s = SignalSet(
            tuple(Signal(f"s{i}", [1.0, 2.0], label=lab) for i, lab in enumerate("abc"))
        )
        with pytest.raises(NotTwoClasses):
            two_class_split(s)
