import math

import numpy as np
import pytest

from sampenopt.baselines import (
    RadiusGrid,
    ar_order_m,
    convergence_select,
    efficiency_criterion,
    gaussian_mse_approx,
    knee_point,
    sampeneff_select,
    standard_params_eval,
    _COUNTING_METHODS,
    _counting_grid,
    _counting_select,
    _interp_fine,
    _per_signal_outputs,
)
from sampenopt.entropy import SampEnParams, counting_se, cp_sigma, sampen
from sampenopt.errors import NoFeasibleRadius, NoKnee, SignalTooShort, TooShort, UndefinedEntropy
from sampenopt.signal import Signal, SignalSet

from conftest import make_ar_set, make_noise_set


class TestSampeneff:
    def test_zero_sigma_gives_zero(self):
        assert efficiency_criterion(0.7, 0.0) == 0.0

    def test_cp_at_inverse_e_equalizes_ratios(self):
        # -log(1/e) = 1 makes both ratios sigma * e
        sigma = 0.013
        assert efficiency_criterion(1.0 / math.e, sigma) == pytest.approx(sigma * math.e, rel=1e-13)

    def test_equal_ratio_point(self, white100):
        cp, sigma = cp_sigma(white100, SampEnParams(1, 0.25))
        crit = efficiency_criterion(*cp_sigma(white100, SampEnParams(1, 0.25)))
        expected = max(sigma / cp, sigma / (-math.log(cp) * cp))
        assert crit == expected
        assert crit >= sigma / cp  # the max always dominates the SE term

    def test_cp_one_is_singular(self, constant):
        # constant signal has CP exactly 1: the -log term vanishes
        with pytest.raises(UndefinedEntropy):
            efficiency_criterion(*cp_sigma(constant, SampEnParams(1, 0.2)))

    def test_undefined_cp(self):
        x = Signal("g", [0.0, 10.0, 20.0, 30.0, 40.0])
        with pytest.raises(UndefinedEntropy):
            efficiency_criterion(*cp_sigma(x, SampEnParams(1, 0.5)))

    @pytest.mark.parametrize("sigma", [0.1, 0.0])
    def test_criterion_at_cp_one_is_undefined(self, sigma):
        # the log term vanishes at CP = 1; a zero sigma does not make it defined
        with pytest.raises(UndefinedEntropy):
            efficiency_criterion(1.0, sigma)


class TestPerSignalOutputs:
    def test_equal_to_sampen_and_counting_se_or_none(self):
        # random lengths, m = 1..3, every third set rounded to ties, short
        # signals and small radii for undefined and infinite entropies
        rng = np.random.default_rng(17)
        states = set()
        for k in range(120):
            m = int(rng.integers(1, 4))
            r = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.6]))
            signals = []
            for i in range(5):
                v = rng.standard_normal(int(rng.integers(m + 3, 141)))
                signals.append(Signal(f"s{i}", np.round(v, 1) if k % 3 == 0 else v))
            s = SignalSet(tuple(signals))
            entropies, ses = _per_signal_outputs(s, m, r)
            p = SampEnParams(m, r)
            for x, e, se in zip(s, entropies, ses):
                res = sampen(x, p)
                states.add("finite" if res.finite else "undefined" if res.value is None else "infinite")
                if res.finite:
                    assert e == res.value and se == counting_se(x, p)
                else:
                    assert e is None and se is None
        assert states == {"finite", "undefined", "infinite"}

    def test_no_sampen_or_counting_se_call(self, monkeypatch):
        import sampenopt.baselines
        import sampenopt.entropy

        def forbidden(*args):
            raise AssertionError("called")

        # count_matches is what sampen counts through
        for module in (sampenopt.entropy, sampenopt.baselines):
            for name in ("sampen", "counting_se", "count_matches"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        entropies, ses = _per_signal_outputs(make_noise_set(4, 60, seed=3), 2, 0.2)
        assert len(entropies) == len(ses) == 4


class TestGridInterpolation:
    def test_grid_shape(self):
        g = RadiusGrid()
        assert len(g.coarse) == 19
        assert g.coarse[0] == pytest.approx(0.10) and g.coarse[-1] == pytest.approx(1.0)

    def test_interior_minimum_at_coarse_point(self):
        g = RadiusGrid()
        radii = np.asarray(g.coarse)
        values = (radii - 0.40) ** 2  # strictly convex, minimum on a coarse point
        fine_r, fine_v = _interp_fine(g, radii, values)
        assert fine_r[int(np.argmin(fine_v))] == pytest.approx(0.40)

    def test_minimum_between_coarse_points_brackets(self):
        g = RadiusGrid()
        radii = np.asarray(g.coarse)
        values = (radii - 0.4249) ** 2  # true minimum strictly between 0.40 and 0.45
        fine_r, fine_v = _interp_fine(g, radii, values)
        r_star = fine_r[int(np.argmin(fine_v))]
        assert 0.40 <= r_star <= 0.45

    def test_fine_argmin_matches_dense_bruteforce(self):
        g = RadiusGrid()
        rng = np.random.default_rng(0)
        radii = np.asarray(g.coarse)
        for _ in range(20):
            values = rng.uniform(0.1, 2.0, radii.size)
            fine_r, fine_v = _interp_fine(g, radii, values)
            dense_r = np.linspace(radii[0], radii[-1], 20001)
            dense_v = np.interp(dense_r, radii, values)
            assert fine_v.min() <= dense_v.min() + 1e-12


class TestKneePoint:
    def test_exponential_matches_difference_argmax(self):
        xs = np.linspace(0.0, 1.0, 50)
        ys = np.exp(-5.0 * xs)
        idx = knee_point(xs, ys)
        # oracle: direct evaluation of the normalized difference curve
        yn = (ys - ys.min()) / np.ptp(ys)
        diff = (1.0 - yn) - xs
        assert abs(xs[idx] - xs[int(np.argmax(diff))]) <= 0.05

    def test_linear_has_no_knee(self):
        xs = np.linspace(0.0, 1.0, 30)
        with pytest.raises(NoKnee):
            knee_point(xs, -xs + 1.0)

    def test_flat_has_no_knee(self):
        xs = np.linspace(0.0, 1.0, 10)
        with pytest.raises(NoKnee):
            knee_point(xs, np.ones(10))

    def test_reciprocal_curve_small_to_mid(self):
        g = RadiusGrid()
        xs = np.asarray(g.coarse)
        idx = knee_point(xs, 1.0 / xs)
        assert 0.15 <= xs[idx] <= 0.5

    def test_affine_invariance_y(self):
        xs = np.linspace(0.0, 1.0, 40)
        ys = np.exp(-4.0 * xs)
        assert knee_point(xs, ys) == knee_point(xs, 2.5 * ys + 3.0)

    def test_affine_invariance_x(self):
        xs = np.linspace(0.0, 1.0, 40)
        ys = np.exp(-4.0 * xs)
        assert knee_point(xs, ys) == knee_point(10.0 * xs + 5.0, ys)

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            knee_point([0.0, 0.0, 1.0], [3.0, 2.0, 1.0])


class TestArOrder:
    def test_ar1_set(self):
        hits = 0
        for seed in range(10):
            s = make_ar_set(10, 200, seed=100 + seed)
            if ar_order_m(s) == 1:
                hits += 1
        assert hits >= 9

    def test_white_noise_set(self):
        hits = 0
        for seed in range(10):
            s = make_noise_set(10, 200, seed=200 + seed)
            if ar_order_m(s) == 1:
                hits += 1
        assert hits >= 8

    def test_too_short(self):
        # orders up to 5 need N > 5 + 2
        s = SignalSet((Signal("s", np.arange(7.0)),))
        with pytest.raises(TooShort):
            ar_order_m(s)


class TestGaussianMseApprox:
    def test_zero_se_gives_pure_penalty(self, constant):
        # constant signals have sigma_CP = 0, so only the penalty remains
        s = SignalSet((constant,))
        val = gaussian_mse_approx(s, 1, 0.36, lam=0.5)
        assert val == pytest.approx(0.5 * math.sqrt(0.36), abs=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0 / 3.0, 2.5])
    def test_equals_mean_squared_se_plus_penalty(self, lam):
        s = make_noise_set(8, 100, seed=2)
        m, r = 1, 0.3
        pairs = [cp_sigma(x, SampEnParams(m, r)) for x in s]
        want = float(np.mean(np.square([sigma / cp for cp, sigma in pairs]))) + lam * math.sqrt(r)
        assert gaussian_mse_approx(s, m, r, lam) == want

    def test_undefined_propagates(self):
        bad = Signal("g", np.array([0.0, 10.0, 20.0, 30.0, 40.0]))
        with pytest.raises(UndefinedEntropy, match=r"signal 'g': entropy not finite at \(m=1, r=0.5\)"):
            gaussian_mse_approx(SignalSet((bad,)), 1, 0.5, 0.1)


@pytest.fixture(scope="module")
def noise_set():
    return make_noise_set(20, 100, seed=77)


@pytest.fixture(scope="module")
def eff_result(noise_set):
    return sampeneff_select(noise_set, m=1)


@pytest.fixture(scope="module")
def conv_result(noise_set):
    return convergence_select(noise_set, m=1)


class TestSelectors:
    def test_sampeneff_prefers_large_radius_on_noise(self, eff_result):
        assert eff_result.method == "sampeneff"
        assert eff_result.r_star >= 0.5
        assert len(eff_result.curve) >= 50

    def test_convergence_selects_smaller_radius(self, conv_result, eff_result):
        assert conv_result.r_star < eff_result.r_star

    def test_grid_drops_a_radius_at_the_first_undefined_cp(self):
        # at m = 3 a 30-point signal has no template match at the smallest radii
        s = make_noise_set(3, 30, seed=5)
        grid = _counting_grid(s, 3)
        kept = list(grid)
        assert 0 < len(kept) < len(RadiusGrid.coarse)
        for r in RadiusGrid.coarse:
            p = SampEnParams(3, r)
            defined = all(sampen(x, p).finite for x in s)
            assert (r in kept) == defined

    @pytest.mark.parametrize("select", [sampeneff_select, convergence_select])
    def test_lengths_are_checked_before_any_radius(self, select):
        # the spike alone leaves no radius defined at m = 2; the 3-point signal is
        # reported as too short whether it comes before the spike or after it
        spike, tiny = Signal("spike", [0.0, 0.0, 100.0, 0.0, 0.0]), Signal("tiny", [0.0, 1.0, 0.5])
        wave = Signal("wave", np.sin(np.arange(40.0)))
        for order in ((spike,), (spike, wave), (wave, spike)):
            with pytest.raises(NoFeasibleRadius, match="only 0 usable grid points"):
                select(SignalSet(order), 2)
        for order in ((spike, tiny), (tiny, spike)):
            with pytest.raises(SignalTooShort, match="signal 'tiny': need N >= m \\+ 2 = 4, got N = 3"):
                select(SignalSet(order), 2)

    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("select", [sampeneff_select, convergence_select])
    def test_invalid_m_is_refused_before_any_work(self, select, m):
        # SampEnParams' rule on m, not a numpy broadcast or reshape error from the grid
        with pytest.raises(ValueError, match="^embedding dimension m must be >= 1$"):
            select(make_noise_set(3, 60, seed=1), m)

    def test_per_signal_outputs_aligned(self, noise_set, conv_result):
        assert len(conv_result.entropies) == noise_set.n == len(conv_result.ses)
        for e in conv_result.entropies:
            assert e is None or math.isfinite(e)

    def test_standard_params_reduce_to_sampen(self, noise_set):
        res = standard_params_eval(noise_set)
        assert res.m_star == 2 and res.r_star == pytest.approx(0.20)
        p = SampEnParams(2, 0.20)
        for x, e in zip(noise_set, res.entropies):
            direct = sampen(x, p)
            if direct.finite:
                assert e == direct.value
            else:
                assert e is None

    def test_fuzzen_variant(self, noise_set):
        res = standard_params_eval(noise_set, fuzzy=True, eta=2.0)
        assert res.method == "fuzzen"
        assert all(v is not None and math.isfinite(v) for v in res.entropies)
        assert all(se is None for se in res.ses)


class TestPlainFloats:
    def test_counting_variance_is_python_floats(self, noise_set):
        x, p = noise_set[0], SampEnParams(2, 0.2)
        assert [type(v) for v in (*cp_sigma(x, p), counting_se(x, p))] == [float] * 3
        for res in (sampeneff_select(noise_set, 2), convergence_select(noise_set, 2), standard_params_eval(noise_set)):
            assert [type(v) for v in res.ses] == [float] * noise_set.n, res.method


class TestOutputsFromTheTable:
    @pytest.mark.parametrize("make", [make_noise_set, make_ar_set])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("select", [sampeneff_select, convergence_select])
    def test_equal_a_recount_at_r_star(self, select, m, make):
        s = make(4, 100, seed=11)
        res = select(s, m)
        assert res.r_star in _counting_grid(s, m)
        assert repr((res.entropies, res.ses)) == repr(_per_signal_outputs(s, m, res.r_star))

    def test_no_cp_sigma_call_at_a_table_radius(self, monkeypatch):
        import sampenopt.baselines
        import sampenopt.entropy

        def forbidden(*args):
            raise AssertionError("called")

        for module in (sampenopt.entropy, sampenopt.baselines):
            monkeypatch.setattr(module, "cp_sigma", forbidden)
        s = make_noise_set(4, 80, seed=2)
        for select in (sampeneff_select, convergence_select):
            res = select(s, 1)
            assert len(res.entropies) == len(res.ses) == 4

    def test_r_star_between_knots_is_counted_again(self, monkeypatch):
        import sampenopt.baselines

        calls = []

        def spy(x, p):
            calls.append(p.r)
            return cp_sigma(x, p)

        monkeypatch.setattr(sampenopt.baselines, "cp_sigma", spy)
        monkeypatch.setitem(_COUNTING_METHODS, "sampeneff", (efficiency_criterion, lambda radii, values: 2))
        s = make_noise_set(4, 80, seed=2)
        grid = _counting_grid(s, 1)
        res = _counting_select("sampeneff", s, 1, grid)
        assert res.r_star == 0.12 and res.r_star not in grid
        assert calls == [0.12] * 4
        monkeypatch.undo()
        assert repr((res.entropies, res.ses)) == repr(_per_signal_outputs(s, 1, 0.12))

    @pytest.mark.parametrize("n_signals", [4, 5])
    @pytest.mark.parametrize("method", ["sampeneff", "convergence"])
    def test_one_pass_medians_equal_per_radius_medians(self, method, n_signals):
        s = make_noise_set(n_signals, 80, seed=4)
        grid = _counting_grid(s, 1)
        criterion, _ = _COUNTING_METHODS[method]
        curve = []
        for r, pairs in grid.items():
            try:
                curve.append((r, float(np.median([criterion(cp, sigma) for cp, sigma in pairs]))))
            except UndefinedEntropy:
                pass
        fine_r, fine_v = _interp_fine(RadiusGrid(), *np.asarray(curve).T)
        res = _counting_select(method, s, 1, grid)
        assert repr(res.curve) == repr(tuple(zip(fine_r.tolist(), fine_v.tolist())))
