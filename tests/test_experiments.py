import math

import numpy as np
import pytest

from sampenopt.errors import Infeasible, InsufficientDefined
from sampenopt.experiments import (
    _BASELINE_M,
    MethodComparisonConfig,
    VarBenchConfig,
    estimator_error,
    method_comparison,
    true_variance,
)
from sampenopt.signal import Signal, SignalSet, gen_white_noise

from conftest import make_noise_set


class TestTrueVariance:
    def test_identical_population_zero(self):
        base = gen_white_noise(60, 1.0, seed=1)
        s = SignalSet(tuple(Signal(f"s{i}", base.values) for i in range(5)))
        assert true_variance(s, 1, 0.3) == 0.0

    def test_two_value_hand_case(self):
        # entropies 1 and 3 have (n-1)-variance 2; construct via direct values
        vals = [1.0, 3.0]
        assert np.var(vals, ddof=1) == 2.0  # documents the convention used

    def test_matches_two_pass_reference(self):
        s = make_noise_set(30, 80, seed=2)
        got = true_variance(s, 1, 0.25)
        from sampenopt.entropy import SampEnParams, sampen

        vals = [r.value for r in (sampen(x, SampEnParams(1, 0.25)) for x in s) if r.finite]
        mean = sum(vals) / len(vals)
        ref = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        assert got == pytest.approx(ref, abs=1e-14)

    def test_insufficient_defined(self):
        bad = Signal("g", np.array([0.0, 10.0, 20.0, 30.0, 40.0]))
        with pytest.raises(InsufficientDefined):
            true_variance(SignalSet((bad,)), 1, 0.5)

    def test_scale_invariance(self):
        # scaling every signal by a constant and r accordingly leaves the
        # cross-signal variance untouched (sampen scale equivariance)
        s = make_noise_set(15, 80, seed=3)
        scaled = SignalSet(tuple(Signal(x.id, 4.0 * x.values) for x in s))
        assert true_variance(s, 1, 0.3) == true_variance(scaled, 1, 4.0 * 0.3)


class TestBootstrapVarianceSanity:
    def test_mean_bootstrap_variance_tracks_truth(self):
        # white noise at (m=1, r=0.2, q=0.9): the bootstrap variance
        # averaged over signals approximates the cross-signal variance
        from sampenopt.bootstrap import BootstrapConfig, bootstrap_sampen, variance
        from sampenopt.entropy import SampEnParams
        from sampenopt.rng import child_seed

        pop = make_noise_set(400, 100, seed=44)
        truth = true_variance(pop, 1, 0.2)
        p = SampEnParams(1, 0.2)
        ests = []
        for i, x in enumerate(pop.signals[:80]):
            est = bootstrap_sampen(x, p, BootstrapConfig(q=0.9, b=100, seed=child_seed(45, i)))
            if est.feasible:
                ests.append(variance(est))
        mean_est = float(np.mean(ests))
        assert 0.4 * truth <= mean_est <= 2.5 * truth


@pytest.fixture(scope="module")
def tiny_cfg():
    return VarBenchConfig(
        signal_type="white_noise",
        n=80,
        r=0.25,
        n_population=150,
        n_subsample=25,
        repeats=2,
        b=40,
        seed=5,
    )


_COMPARISON_CFG = MethodComparisonConfig(
    signal_type="white_noise",
    n_signals=8,
    n=80,
    b=30,
    t_tilde=15,
    t_init=5,
    seed=9,
)


@pytest.fixture(scope="module")
def comparison_rows():
    return method_comparison(_COMPARISON_CFG)


class TestEstimatorError:
    def test_self_comparison_is_exact_zero(self, tiny_cfg):
        # replacing the bootstrap estimator with the counting estimator
        # must zero the reduction identically
        from sampenopt.entropy import SampEnParams, cp_sigma

        p = SampEnParams(tiny_cfg.m, tiny_cfg.r)

        def counting(x, seed):
            cp, sigma = cp_sigma(x, p)
            return (sigma / cp) ** 2

        res = estimator_error(tiny_cfg, counting=counting, bootstrap=counting)
        assert all(r == 0.0 for r in res.reductions)

    def test_errors_nonnegative_and_deterministic(self, tiny_cfg):
        a = estimator_error(tiny_cfg)
        b = estimator_error(tiny_cfg)
        assert a.eps_counting == b.eps_counting
        assert a.eps_bootstrap == b.eps_bootstrap
        assert all(e >= 0 for e in a.eps_counting + a.eps_bootstrap)
        assert len(a.reductions) == tiny_cfg.repeats

    def test_bootstrap_beats_counting_at_small_scale(self, tiny_cfg):
        res = estimator_error(tiny_cfg)
        assert res.mean_reduction > 0

    def test_counting_error_of_0_is_insufficient(self):
        # at r = 5 every template of a 4-point signal matches: CP = 1, so every SampEn and estimate is 0
        cfg = VarBenchConfig(n=4, m=2, r=5.0, n_population=3, n_subsample=3, repeats=1)
        with pytest.raises(InsufficientDefined, match="repeat 0: the counting error is 0"):
            estimator_error(cfg)


class TestEstimatorErrorInfeasible:
    """A signal whose bootstrap set is infeasible is left out, like an undefined one."""

    def test_standard_params_on_50_point_signals_run(self):
        cfg = VarBenchConfig(
            signal_type="white_noise", n=50, r=0.2, m=2, b=30, n_population=200, n_subsample=40, repeats=2, seed=3
        )
        res = estimator_error(cfg)
        assert len(res.reductions) == 2 and all(math.isfinite(v) for v in res.reductions)

    def test_infeasible_signal_left_out_of_both_averages(self, tiny_cfg):
        # odd-numbered signals are infeasible; had their counting value of 1e6
        # entered the average, eps_counting would be about 1e12
        def odd(x):
            return int(x.id[-5:]) % 2 == 1

        def bootstrap(x, seed):
            if odd(x):
                raise Infeasible("injected")
            return 0.0

        res = estimator_error(tiny_cfg, counting=lambda x, seed: 1e6 if odd(x) else 0.0, bootstrap=bootstrap)
        assert res.eps_counting == res.eps_bootstrap
        assert res.eps_counting[0] == pytest.approx(res.true_var ** 2, rel=1e-12)
        assert res.reductions == (0.0,) * tiny_cfg.repeats


class TestMethodComparison:
    def test_all_methods_present(self, comparison_rows):
        assert [r.method for r in comparison_rows] == ["ours", "sampeneff", "convergence", "standard"]

    def test_row_shapes(self, comparison_rows):
        for r in comparison_rows:
            assert r.m_star >= 1
            assert 0.0 < r.r_star <= 1.0
            assert r.objective >= 0.0
            assert r.seconds >= 0.0
        ours = comparison_rows[0]
        assert ours.q_star is not None

    def test_standard_row_is_2_02(self, comparison_rows):
        std = comparison_rows[-1]
        assert std.m_star == 2 and std.r_star == pytest.approx(0.20)


class TestMethodComparisonScoresEachSelectionOnce:
    def test_cp_sigma_calls_are_those_of_the_selections(self, monkeypatch):
        # both counting rows read one (cp, sigma) grid, and each baseline is scored
        # from the SEs its selection already computed, so the comparison makes one
        # grid's worth of cp_sigma calls fewer than the three selectors run apart;
        # the TPE search makes none
        from collections import Counter

        import sampenopt.baselines
        import sampenopt.entropy
        from sampenopt.baselines import RadiusGrid, convergence_select, sampeneff_select, standard_params_eval
        from sampenopt.rng import child_seed
        from sampenopt.signal import gen_signal_set

        calls = []
        original = sampenopt.entropy.cp_sigma

        def spy(x, p):
            calls.append((x.id, p.m, p.r))
            return original(x, p)

        monkeypatch.setattr(sampenopt.entropy, "cp_sigma", spy)
        monkeypatch.setattr(sampenopt.baselines, "cp_sigma", spy)
        cfg = MethodComparisonConfig(n_signals=4, n=80, b=10, t_tilde=6, t_init=3, seed=5)
        s = gen_signal_set(cfg.signal_type, cfg.n_signals, cfg.n, seed=child_seed(cfg.seed, 0))
        sampeneff_select(s, _BASELINE_M)
        convergence_select(s, _BASELINE_M)
        standard_params_eval(s)
        apart = Counter(calls)
        calls.clear()
        method_comparison(cfg)
        assert sum(apart.values()) - len(calls) == len(RadiusGrid.coarse) * cfg.n_signals
        # the calls left out are exactly one grid's: every (signal, m, r) at the coarse radii
        assert apart - Counter(calls) == Counter((x.id, _BASELINE_M, r) for r in RadiusGrid.coarse for x in s)


class TestMethodComparisonReadsTheSearchEstimates:
    def test_ours_row_makes_no_sampen_call(self, monkeypatch):
        # the "ours" entropy mean and std come from the estimate sets behind best_y
        import sampenopt.entropy
        import sampenopt.experiments
        from sampenopt.entropy import SampEnParams, sampen
        from sampenopt.rng import child_seed
        from sampenopt.signal import gen_signal_set

        def no_sampen(*args):
            raise AssertionError("sampen ran")

        monkeypatch.setattr(sampenopt.entropy, "sampen", no_sampen)
        monkeypatch.setattr(sampenopt.experiments, "sampen", no_sampen)
        cfg = MethodComparisonConfig(n_signals=4, n=80, b=10, t_tilde=6, t_init=3, seed=5)
        ours = method_comparison(cfg)[0]
        monkeypatch.undo()
        s = gen_signal_set(cfg.signal_type, cfg.n_signals, cfg.n, seed=child_seed(cfg.seed, 0))
        values = [sampen(x, SampEnParams(m=ours.m_star, r=ours.r_star)).value for x in s]
        assert ours.entropy_mean == float(np.mean(values))
        assert ours.entropy_std == float(np.std(values, ddof=1))


class TestMethodComparisonScoresBaselinesFirst:
    def test_undefined_standard_entropy_fails_before_the_search(self, monkeypatch):
        # 30-point signals have no finite SampEn at the standard (2, 0.20) for
        # some signal; the search is never started
        import sampenopt.experiments
        from sampenopt.errors import UndefinedEntropy

        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(sampenopt.experiments, "optimize_set", no_search)
        cfg = MethodComparisonConfig(n_signals=20, n=30, t_tilde=40, seed=0)
        with pytest.raises(UndefinedEntropy, match=r"entropy not finite at \(m=2, r=0.2\)"):
            method_comparison(cfg)

    def test_rows_keep_their_order_and_values(self, comparison_rows):
        from sampenopt.baselines import _gaussian_mse, convergence_select, sampeneff_select, standard_params_eval
        from sampenopt.rng import child_seed
        from sampenopt.signal import gen_signal_set

        cfg = _COMPARISON_CFG
        s = gen_signal_set(cfg.signal_type, cfg.n_signals, cfg.n, seed=child_seed(cfg.seed, 0))
        results = [sampeneff_select(s, _BASELINE_M), convergence_select(s, _BASELINE_M), standard_params_eval(s)]
        for row, res in zip(comparison_rows[1:], results):
            assert (row.method, row.m_star, row.r_star) == (res.method, res.m_star, res.r_star)
            assert row.objective == _gaussian_mse(s, res.m_star, res.r_star, res.entropies, res.ses, cfg.lam_value)


class TestVarBenchConfig:
    @pytest.mark.parametrize("n_population, n_subsample", [(40, 0), (40, -1), (1, 1), (0, 0)])
    def test_impossible_sizes_rejected(self, n_population, n_subsample):
        with pytest.raises(ValueError):
            VarBenchConfig(n_population=n_population, n_subsample=n_subsample)

    def test_smallest_sizes_accepted(self):
        cfg = VarBenchConfig(n_population=2, n_subsample=1)
        assert (cfg.n_population, cfg.n_subsample) == (2, 1)


class TestMethodComparisonConfig:
    @pytest.mark.parametrize(
        "field",
        [{"lam": -1.0}, {"b": 0}, {"t_init": 0}, {"t_tilde": 3}, {"u": 0}],
    )
    def test_bad_field_rejected_on_construction(self, field):
        with pytest.raises(ValueError):
            MethodComparisonConfig(**field)

    def test_has_no_baseline_m(self):
        # the counting baselines run at the constant _BASELINE_M = 1
        assert _BASELINE_M == 1
        with pytest.raises(TypeError):
            MethodComparisonConfig(baseline_m=1)

    def test_optimizer_config_carries_the_fields(self):
        cfg = MethodComparisonConfig(signal_type="ar1", b=7, t_tilde=9, t_init=4, u=2, seed=3).optimizer_config()
        assert (cfg.lam, cfg.b, cfg.t_tilde, cfg.t_init, cfg.domain.u) == (0.1, 7, 9, 4, 2)


class TestVarBenchConfigFields:
    @pytest.mark.parametrize("field", [{"b": 0}, {"q": 0.0}, {"q": 1.5}, {"m": 0}, {"r": 0.0}])
    def test_bad_field_rejected_on_construction(self, field):
        with pytest.raises(ValueError):
            VarBenchConfig(**field)

    def test_signal_shorter_than_m_plus_2_rejected(self):
        with pytest.raises(ValueError, match="N >= m \\+ 2"):
            VarBenchConfig(n=3, m=2)
        assert VarBenchConfig(n=4, m=2).n == 4
