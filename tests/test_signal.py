import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sampenopt

from sampenopt.errors import NonStationaryConfig, TooShort, VarianceOverflow, ZeroVariance
from sampenopt.rng import child_seed, generator
from sampenopt.signal import (
    Ar1Config,
    Signal,
    SignalSet,
    difference,
    gen_ar1,
    gen_signal_set,
    gen_white_noise,
    normalize,
)


class TestSignalTypes:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Signal("bad", [1.0, np.nan, 2.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Signal("bad", [1.0, np.inf])

    def test_values_readonly(self):
        s = Signal("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_set_requires_unique_ids(self):
        a = Signal("x", [1.0, 2.0])
        b = Signal("x", [3.0, 4.0])
        with pytest.raises(ValueError):
            SignalSet((a, b))

    def test_ar1_config_rejects_nonstationary(self):
        with pytest.raises(NonStationaryConfig):
            Ar1Config(phi=1.0, sigma=1.0, n=10, seed=0)

    def test_nonstationary_phi_is_a_config_error(self):
        # a generator setting, like sigma <= 0: the CLI maps ValueError to exit 2
        with pytest.raises(ValueError):
            Ar1Config(phi=-1.5, sigma=1.0, n=10, seed=0)


class TestNormalize:
    def test_hand_example(self):
        # sample (n-1) std of [1,2,3] is exactly 1
        out = normalize(Signal("a", [1.0, 2.0, 3.0]))
        assert np.allclose(out.values, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_moments(self):
        out = normalize(gen_white_noise(500, 3.0, seed=2))
        assert abs(out.values.mean()) <= 1e-12
        assert abs(np.std(out.values, ddof=1) - 1.0) <= 1e-12

    def test_idempotent(self):
        x = gen_white_noise(200, 2.0, seed=3)
        once = normalize(x)
        twice = normalize(once)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-12

    def test_constant_raises(self):
        with pytest.raises(ZeroVariance):
            normalize(Signal("c", [5.0, 5.0, 5.0]))

    def test_too_short(self):
        with pytest.raises(TooShort):
            normalize(Signal("s", [1.0]))

    @pytest.mark.parametrize(
        "values",
        [1e200 * np.sin(np.arange(40.0)), 1.7e308 - 1e305 * np.arange(40.0)],
        ids=["sd-overflows", "mean-overflows"],
    )
    def test_non_finite_sd_raises_naming_the_signal(self, values):
        # the SD of the first is inf (once all zeros came back); the mean of the second is inf
        with pytest.raises(VarianceOverflow, match="signal 'big'"):
            normalize(Signal("big", values))


class TestDifference:
    def test_definitional(self):
        out = difference(Signal("a", [1.0, 3.0, 6.0, 10.0]))
        assert np.array_equal(out.values, [2.0, 3.0, 4.0])

    def test_constant_maps_to_zero(self):
        out = difference(Signal("c", np.full(10, 2.5)))
        assert np.array_equal(out.values, np.zeros(9))

    def test_ramp_maps_to_ones(self):
        out = difference(Signal("r", np.arange(10.0)))
        assert np.array_equal(out.values, np.ones(9))

    def test_length_drops_by_one(self):
        for n in (3, 7, 50):
            x = gen_white_noise(n, 1.0, seed=n)
            assert difference(x).n == n - 1

    def test_affine_trend_to_constant(self):
        out = difference(Signal("t", 4.0 - 0.25 * np.arange(20.0)))
        assert np.allclose(out.values, -0.25, atol=1e-14)

    def test_too_short(self):
        with pytest.raises(TooShort):
            difference(Signal("s", [1.0, 2.0]))

    def test_overflowing_difference_raises_without_a_warning(self):
        values = 1.5e308 * (2.0 * np.random.default_rng(3).random(40) - 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(VarianceOverflow, match="signal 'mix': first difference overflows"):
                difference(Signal("mix", values))
        assert caught == []


class TestGenerators:
    def test_white_noise_deterministic(self):
        a = gen_white_noise(100, 1.0, seed=7)
        b = gen_white_noise(100, 1.0, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_white_noise_std(self):
        x = gen_white_noise(10_000, 1.0, seed=11)
        assert 0.97 <= np.std(x.values, ddof=1) <= 1.03

    def test_white_noise_single_sample(self):
        x = gen_white_noise(1, 1.0, seed=0)
        assert x.n == 1 and np.isfinite(x.values[0])

    def test_ar1_deterministic(self):
        cfg = Ar1Config(phi=0.5, sigma=1.0, n=50, seed=9)
        assert np.array_equal(gen_ar1(cfg).values, gen_ar1(cfg).values)

    def test_ar1_lag1_autocorrelation(self):
        x = gen_ar1(Ar1Config(phi=0.9, sigma=0.1, n=10_000, seed=13)).values
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert 0.85 <= rho <= 0.93

    def test_phi_zero_is_white(self):
        x = gen_ar1(Ar1Config(phi=0.0, sigma=1.0, n=10_000, seed=17)).values
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho) <= 0.05

    def test_set_child_seeds_stable(self):
        # subsets reproduce independently of the set size
        small = gen_signal_set("white_noise", 3, 40, seed=21)
        large = gen_signal_set("white_noise", 6, 40, seed=21)
        for a, b in zip(small, large):
            assert np.array_equal(a.values, b.values)


class TestAdfStationarityInvariant:
    def test_ar1_rejects_unit_root_with_adjustment(self):
        # AR(1) at phi=0.5 keeps high power after Holm-Sidak across runs;
        # at phi near 1 the raw ADF power collapses for N=200, so the
        # invariant is checked at a coefficient the test can resolve
        from sampenopt.stats import adf_test, holm_sidak

        pvals = []
        for seed in range(100):
            x = gen_ar1(Ar1Config(phi=0.5, sigma=1.0, n=200, seed=seed))
            pvals.append(adf_test(x).p_value)
        adjusted = holm_sidak(pvals)
        rejected = sum(1 for p in adjusted if p <= 0.05)
        assert rejected >= 95


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal dominates import time and nothing in the package needs it
    env = dict(os.environ, PYTHONPATH=str(Path(sampenopt.__file__).resolve().parent.parent))
    code = "import sys, sampenopt; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_ar1_generators_leave_scipy_signal_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(sampenopt.__file__).resolve().parent.parent))
    code = (
        "import sys\n"
        "from sampenopt.signal import Ar1Config, gen_ar1, gen_signal_set\n"
        "gen_ar1(Ar1Config(phi=0.9, sigma=0.1, n=50, seed=1))\n"
        "gen_signal_set('ar1', 3, 50, seed=1)\n"
        "print('scipy.signal' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestAr1AgainstLfilter:
    """The AR(1) recurrence is bit-identical to the zero-state IIR filter lfilter([1], [1, -phi], eps)."""

    CASES = [
        (phi, sigma, n, burn_in)
        for phi in (-0.95, -0.3, 0.0, 0.5, 0.99)
        for sigma, n, burn_in in ((1.0, 60, 500), (0.1, 1, 0), (2.5, 40, 0), (0.7, 25, 3))
    ]

    @staticmethod
    def _filtered(phi, sigma, n, burn_in, seed):
        from scipy.signal import lfilter

        eps = sigma * generator(seed).standard_normal(burn_in + n)
        return lfilter([1.0], [1.0, -phi], eps)[burn_in:]

    @pytest.mark.parametrize("phi,sigma,n,burn_in", CASES)
    def test_gen_ar1(self, phi, sigma, n, burn_in):
        x = gen_ar1(Ar1Config(phi=phi, sigma=sigma, n=n, seed=31, burn_in=burn_in))
        assert np.array_equal(x.values, self._filtered(phi, sigma, n, burn_in, 31))

    @pytest.mark.parametrize("phi,sigma,n,burn_in", CASES)
    def test_signal_set_rows(self, phi, sigma, n, burn_in):
        raw = gen_signal_set("ar1", 4, n, seed=32, sigma=sigma, phi=phi, burn_in=burn_in, normalize_signals=False)
        for i, x in enumerate(raw):
            assert x.id == f"ar1_{i:05d}"
            assert np.array_equal(x.values, self._filtered(phi, sigma, n, burn_in, child_seed(32, i)))
        if n >= 2:
            # normalized sets normalize each generated row, as gen_ar1 + normalize does
            cfgs = [Ar1Config(phi=phi, sigma=sigma, n=n, seed=child_seed(32, i), burn_in=burn_in) for i in range(4)]
            normed = gen_signal_set("ar1", 4, n, seed=32, sigma=sigma, phi=phi, burn_in=burn_in)
            for x, cfg in zip(normed, cfgs):
                assert np.array_equal(x.values, normalize(gen_ar1(cfg)).values)

    def test_bad_settings_still_rejected(self):
        with pytest.raises(NonStationaryConfig):
            gen_signal_set("ar1", 2, 10, seed=0, phi=1.0)
        with pytest.raises(ValueError):
            gen_signal_set("ar1", 2, 10, seed=0, sigma=0.0)
        with pytest.raises(ValueError):
            gen_signal_set("ar1", 0, 10, seed=0)

    @pytest.mark.parametrize(
        "n,settings", [(10, dict(phi=2.0)), (10, dict(burn_in=-1)), (1, dict(normalize_signals=True))]
    )
    def test_white_noise_checks_every_setting(self, monkeypatch, n, settings):
        # rejected as config before any signal is drawn, as ar1 rejects them
        monkeypatch.setattr("sampenopt.signal.gen_white_noise", lambda *a, **k: pytest.fail("signal drawn"))
        with pytest.raises(ValueError):
            gen_signal_set("white_noise", 2, n, seed=0, **settings)
