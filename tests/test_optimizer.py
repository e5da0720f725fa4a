import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from sampenopt.bootstrap import BootstrapConfig, bias, bootstrap_sampen, mse, variance
from sampenopt.entropy import SampEnParams
from sampenopt.errors import AllTrialsInfeasible, SignalTooShort
from sampenopt.optimizer import (
    OptimizerConfig,
    _objective,
    objective_set,
    objective_single,
    optimize_set,
    optimize_single,
)
from sampenopt.rng import child_seed
from sampenopt.signal import Signal, SignalSet, gen_white_noise, normalize
from sampenopt.tpe import ParamDomain, ParamVector, Trial

from conftest import make_ar_set


def small_cfg(**kw):
    defaults = dict(lam=0.1, b=30, t_tilde=20, t_init=5, domain=ParamDomain(u=3, fixed_q=0.5), seed=0)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


class TestObjective:
    def test_constant_signal_gives_pure_penalty(self):
        # degenerate case: entropy 0 with zero spread, so MSE is exactly 0
        x = Signal("c", np.full(30, 1.0))
        psi = ParamVector(m=1, r=0.25, q=0.5)
        y = objective_single(x, psi, lam=0.4, b=20, seed=1)
        assert y == pytest.approx(0.4 * math.sqrt(0.25), abs=1e-15)

    def test_lambda_zero_is_raw_mse(self):
        x = normalize(gen_white_noise(80, 1.0, seed=2))
        psi = ParamVector(m=1, r=0.3, q=0.5)
        y0 = objective_single(x, psi, lam=0.0, b=20, seed=3)
        y1 = objective_single(x, psi, lam=0.2, b=20, seed=3)
        assert y1 == pytest.approx(y0 + 0.2 * math.sqrt(0.3), rel=1e-12)

    def test_infeasible_radius(self):
        x = Signal("g", np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0]))
        psi = ParamVector(m=1, r=1e-9, q=0.5)
        assert objective_single(x, psi, lam=0.1, b=10, seed=4) == math.inf

    def test_regularization_monotone_in_lambda(self):
        x = normalize(gen_white_noise(60, 1.0, seed=5))
        psi = ParamVector(m=2, r=0.5, q=0.7)
        ys = [objective_single(x, psi, lam=lam, b=15, seed=6) for lam in (0.0, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_set_reduces_to_single(self):
        x = normalize(gen_white_noise(60, 1.0, seed=7))
        psi = ParamVector(m=1, r=0.4, q=0.5)
        y_set = objective_set(SignalSet((x,)), psi, lam=0.1, b=15, seed=8)
        y_one = objective_single(x, psi, lam=0.1, b=15, seed=8)
        assert y_set == y_one

    def test_one_infeasible_signal_poisons_set(self):
        good = normalize(gen_white_noise(60, 1.0, seed=9))
        bad = Signal("g", np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0]))
        psi = ParamVector(m=1, r=1e-9, q=0.5)
        assert objective_set(SignalSet((good, bad)), psi, lam=0.0, b=10, seed=10) == math.inf


def objective_oracle(signals, psi, lam, b, seed, trial_index):
    """A trial composed from the public API: bootstrap_sampen per signal, then mse/variance/bias.

    Signals run in order and the first infeasible one (m too large, an
    undefined or infinite original, under 90% finite replicates) scores
    the trial +inf. The second element names that reason, or "feasible".
    """
    params = SampEnParams(m=psi.m, r=psi.r)
    ests = []
    for i, x in enumerate(signals):
        cfg = BootstrapConfig(q=psi.q, b=b, seed=child_seed(seed, 0, trial_index, i))
        try:
            est = bootstrap_sampen(x, params, cfg)
        except SignalTooShort:
            return Trial(psi=psi, y=math.inf), "m_too_large"
        if not est.original.finite:
            return Trial(psi=psi, y=math.inf), "original_undefined"
        if not est.feasible:
            return Trial(psi=psi, y=math.inf), "replicates_nonfinite"
        ests.append(est)
    y = float(np.mean([mse(e) for e in ests])) + lam * math.sqrt(psi.r)
    trial = Trial(
        psi=psi,
        y=y,
        entropy=float(np.mean([e.original.value for e in ests])),
        variance=float(np.mean([variance(e) for e in ests])),
        bias=float(np.mean([bias(e) for e in ests])),
    )
    return trial, "feasible"


def _bits(trial):
    """A trial's psi and its four numbers in hex, so -0.0 and 0.0 differ; None stays None."""
    numbers = (trial.y, trial.entropy, trial.variance, trial.bias)
    return trial.psi, *(None if v is None else float(v).hex() for v in numbers)


class TestObjectiveOracle:
    """_objective gives the bits of the public composition: bootstrap_sampen, then mse/variance/bias."""

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.integers(3, 70), min_size=1, max_size=3),
        tied=st.booleans(),
        m=st.integers(1, 4),
        r=st.sampled_from([1e-6, 0.02, 0.1, 0.3, 1.0, 5.0]),
        q=st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.01, 0.0101, 0.9899, 0.99])),
        b=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        t=st.integers(0, 200),
    )
    # different N, m too large for the second signal, an undefined original,
    # too few finite replicates, q at both ends of its domain, B = 1
    @example(lengths=[40, 4, 60], tied=False, m=3, r=1.0, q=0.5, b=20, seed=1, t=1)
    @example(lengths=[30, 50], tied=False, m=2, r=1e-6, q=0.5, b=20, seed=2, t=3)
    @example(lengths=[30, 40], tied=False, m=2, r=0.3, q=0.5, b=20, seed=13, t=2)
    @example(lengths=[25, 61], tied=True, m=1, r=0.3, q=0.01, b=30, seed=3, t=4)
    @example(lengths=[64, 33], tied=False, m=2, r=0.3, q=0.99, b=30, seed=4, t=5)
    @example(lengths=[50, 51], tied=False, m=1, r=0.3, q=0.5, b=1, seed=5, t=6)
    @example(lengths=[12], tied=False, m=2, r=0.1, q=0.5, b=40, seed=6, t=7)
    # a set where np.log and math.log differ in the last bit of one replicate
    @example(lengths=[18], tied=False, m=2, r=5.0, q=0.9899, b=11, seed=65470994, t=1)
    def test_equals_the_public_composition(self, lengths, tied, m, r, q, b, seed, t):
        rng = np.random.default_rng(seed % 2**32)
        signals = []
        for i, n in enumerate(lengths):
            v = rng.standard_normal(n)
            signals.append(Signal(f"s{i}", np.round(v, 1) if tied else v))
        signals = tuple(signals)
        psi = ParamVector(m=m, r=r, q=q)
        want, reason = objective_oracle(signals, psi, 0.2, b, seed, t)
        event(reason)
        assert _bits(_objective(signals, psi, 0.2, b, seed, t)[0]) == _bits(want)


class TestOneBootstrapPath:
    """Trials score their signals through bootstrap_sampen, the path every other caller takes."""

    def test_one_call_per_trial_and_signal_until_the_first_infeasible(self, monkeypatch):
        rng = np.random.default_rng(21)
        # m = 4 is too long for the 5-point signal, so some trials stop before the last signal
        signals = (
            Signal("a", rng.standard_normal(60)),
            Signal("short", rng.standard_normal(5)),
            Signal("b", rng.standard_normal(50)),
        )
        calls = []

        def spy(x, p, cfg):
            calls.append((x.id, p, cfg))
            return bootstrap_sampen(x, p, cfg)

        monkeypatch.setattr("sampenopt.optimizer.bootstrap_sampen", spy)
        cfg = small_cfg(b=20, t_tilde=30, domain=ParamDomain(u=4, r_bounds=(0.2, 1.0), fixed_q=0.5), seed=22)
        res = optimize_set(SignalSet(signals), cfg)
        want, stopped = [], set()
        for t, rec in enumerate(res.records, start=1):
            params = SampEnParams(rec.psi.m, rec.psi.r)
            for i, x in enumerate(signals):
                bcfg = BootstrapConfig(q=rec.psi.q, b=cfg.b, seed=child_seed(cfg.seed, 0, t, i))
                want.append((x.id, params, bcfg))
                try:
                    feasible = bootstrap_sampen(x, params, bcfg).feasible
                except SignalTooShort:
                    feasible = False
                if not feasible:
                    stopped.add(x.id)
                    break
            assert rec.feasible == feasible
        assert calls == want
        assert "short" in stopped and any(rec.feasible for rec in res.records)


class TestConfig:
    @pytest.mark.parametrize("lam", [-0.1, math.inf, math.nan])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError):
            small_cfg(lam=lam)


class TestOptimize:
    def test_deterministic(self, white100):
        cfg = small_cfg(seed=11)
        a = optimize_single(white100, cfg)
        b = optimize_single(white100, cfg)
        assert a.best_psi == b.best_psi and a.best_y == b.best_y
        assert [t.psi for t in a.records] == [t.psi for t in b.records]
        assert [t.y for t in a.records] == [t.y for t in b.records]

    def test_best_so_far_monotone(self, white100):
        res = optimize_single(white100, small_cfg(seed=12))
        bsf = res.best_so_far()
        assert all(b <= a for a, b in zip(bsf, bsf[1:]))

    def test_every_psi_in_domain(self, white100):
        cfg = small_cfg(seed=13)
        res = optimize_single(white100, cfg)
        for t in res.records:
            assert cfg.domain.contains(t.psi)
            assert t.y >= 0.0 or t.y == math.inf

    def test_best_is_first_minimum(self, white100):
        res = optimize_single(white100, small_cfg(seed=14))
        ys = [t.y for t in res.records]
        first = next(i for i, y in enumerate(ys) if y == res.best_y)
        assert res.records[first].psi == res.best_psi

    def test_pure_random_search(self, white100):
        cfg = small_cfg(t_tilde=5, t_init=5, seed=15)
        res = optimize_single(white100, cfg)
        finite = [t.y for t in res.records if t.feasible]
        assert res.best_y == min(finite)

    def test_fixed_q_everywhere(self, white100):
        res = optimize_single(white100, small_cfg(seed=16))
        assert all(t.psi.q == 0.5 for t in res.records)

    def test_free_q_within_bounds(self, white100):
        cfg = small_cfg(domain=ParamDomain(u=3, q_bounds=(0.2, 0.9)), seed=17)
        res = optimize_single(white100, cfg)
        assert all(0.2 <= t.psi.q <= 0.9 for t in res.records)

    def test_single_signal_set_equals_single(self, white100):
        cfg = small_cfg(seed=18)
        a = optimize_single(white100, cfg)
        b = optimize_set(SignalSet((white100,)), cfg)
        assert a.best_psi == b.best_psi and a.best_y == b.best_y

    def test_all_trials_infeasible_raises(self):
        x = Signal("g", np.array([0.0, 100.0, 200.0, 300.0, 400.0, 500.0]))
        cfg = small_cfg(domain=ParamDomain(u=1, r_bounds=(1e-8, 1e-6), fixed_q=0.5), t_tilde=6, t_init=3)
        with pytest.raises(AllTrialsInfeasible):
            optimize_single(x, cfg)

    def test_records_mirror_history(self, white100):
        # one Trial per evaluation, in order; a feasible one carries all three
        # finite diagnostics, an infeasible one none of them
        res = optimize_single(white100, small_cfg(seed=19))
        assert isinstance(res.records, tuple) and len(res.records) == 20
        for rec in res.records:
            diagnostics = (rec.entropy, rec.variance, rec.bias)
            if rec.feasible:
                assert all(type(v) is float and math.isfinite(v) for v in diagnostics)
            else:
                assert rec.y == math.inf and diagnostics == (None, None, None)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("entry", ["single", "set"])
    def test_signal_too_short_for_any_m_raises_before_the_first_trial(self, white100, monkeypatch, n, entry):
        monkeypatch.setattr("sampenopt.optimizer.bootstrap_sampen", lambda *a, **k: pytest.fail("trial started"))
        tiny = Signal("tiny", np.arange(float(n)))
        with pytest.raises(AllTrialsInfeasible, match=f"'tiny' has N={n}"):
            if entry == "single":
                optimize_single(tiny, small_cfg())
            else:
                optimize_set(SignalSet((white100, tiny)), small_cfg())

    def test_three_points_still_search(self, monkeypatch):
        # m = 1 passes N >= m + 2 at N = 3, so the search is not ruled out up front
        class TrialStarted(Exception):
            pass

        def started(*args, **kwargs):
            raise TrialStarted

        monkeypatch.setattr("sampenopt.optimizer.bootstrap_sampen", started)
        with pytest.raises(TrialStarted):
            optimize_single(Signal("three", np.array([0.0, 1.0, 0.0])), small_cfg())

    def test_duplicated_signal_set_runs(self, white100):
        twin = Signal("copy", white100.values)
        cfg = small_cfg(seed=20)
        res = optimize_set(SignalSet((white100, twin)), cfg)
        assert cfg.domain.contains(res.best_psi)


class TestBestTrialRule:
    """The first trial with the lowest y is the result; all +inf raises."""

    @staticmethod
    def script(monkeypatch, ys):
        scores = iter(ys)
        monkeypatch.setattr("sampenopt.optimizer._objective", lambda signals, psi, *a: (Trial(psi, next(scores)), ()))

    def test_first_of_the_lowest_wins(self, white100, monkeypatch):
        self.script(monkeypatch, [math.inf, 0.5, 0.2, 0.2, math.inf])
        res = optimize_single(white100, small_cfg(t_tilde=5, t_init=5))
        assert [tr.y for tr in res.records] == [math.inf, 0.5, 0.2, 0.2, math.inf]
        assert res.best_y == 0.2 and res.best_psi == res.records[2].psi
        assert res.best_psi != res.records[3].psi

    def test_all_infinite_raises(self, white100, monkeypatch):
        self.script(monkeypatch, [math.inf] * 5)
        with pytest.raises(AllTrialsInfeasible, match="every trial scored"):
            optimize_single(white100, small_cfg(t_tilde=5, t_init=5))


class TestKeptEstimates:
    """OptResult.estimates are the estimate sets that scored best_y: those of the first trial with the lowest y."""

    def test_first_of_a_tied_lowest(self, monkeypatch):
        # two-level signals at one psi: SampEn takes few values, so trials 4 and 10
        # tie on the lowest y with different replicates
        psi = ParamVector(m=1, r=0.5, q=0.3)
        monkeypatch.setattr("sampenopt.optimizer._random_psi", lambda domain, rng: psi)
        s = SignalSet((Signal("a", [1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
                       Signal("b", [1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0])))
        cfg = OptimizerConfig(lam=0.1, b=2, t_tilde=10, t_init=10, domain=ParamDomain(u=1), seed=0)
        res = optimize_set(s, cfg)
        assert [t for t, tr in enumerate(res.records, start=1) if tr.y == res.best_y] == [4, 10]

        def bits(estimates):
            return [(est.original.value.hex(), est.replicates.tobytes()) for est in estimates]

        def stream(t):
            cfgs = [BootstrapConfig(q=psi.q, b=cfg.b, seed=child_seed(cfg.seed, 0, t, i)) for i in range(s.n)]
            return [bootstrap_sampen(x, SampEnParams(m=psi.m, r=psi.r), c) for x, c in zip(s, cfgs)]

        assert bits(res.estimates) == bits(stream(4)) != bits(stream(10))
        assert float(np.mean([mse(est) for est in res.estimates])) + 0.1 * math.sqrt(psi.r) == res.best_y
        # a result, not part of the search's identity: out of repr and ==
        assert "estimates" not in repr(res) and dataclasses.replace(res, estimates=()) == res


class TestReplay:
    """Trial t of a search is objective_*(..., trial_index=t): the best trial replays bit for bit."""

    @staticmethod
    def first_best_index(res):
        ys = [t.y for t in res.records]
        return ys.index(min(ys))

    def test_single(self, white100):
        cfg = small_cfg(seed=23, domain=ParamDomain(u=3))
        res = optimize_single(white100, cfg)
        k = self.first_best_index(res)
        y = objective_single(white100, res.best_psi, cfg.lam, cfg.b, cfg.seed, trial_index=k + 1)
        assert y.hex() == res.best_y.hex()

    def test_set(self):
        s = make_ar_set(3, 60, seed=24)
        cfg = small_cfg(seed=25, domain=ParamDomain(u=3))
        res = optimize_set(s, cfg)
        k = self.first_best_index(res)
        y = objective_set(s, res.best_psi, cfg.lam, cfg.b, cfg.seed, trial_index=k + 1)
        assert y.hex() == res.best_y.hex()


class TestPinnedHistory:
    def test_sixty_trial_history_digest(self):
        # (m, r, q, y) of every trial, bit for bit: a change to the TPE or
        # bootstrap RNG layout, or to any number a trial computes, changes it
        x = normalize(gen_white_noise(100, 1.0, seed=1))
        res = optimize_single(x, OptimizerConfig(lam=1 / 3, b=10, t_tilde=60, seed=1))
        rows = [(t.psi.m, t.psi.r.hex(), t.psi.q.hex(), t.y.hex()) for t in res.records]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "91e71df900c3b4153f13903c49bfbdc511e1121bf6f29d9c9d17f95ed069dca3"


class TestSearchQuality:
    def test_ar_set_finds_reasonable_params(self):
        # desk-scale version of the search-behavior check; the full-budget
        # variant lives in the acceptance suite
        s = make_ar_set(5, 100, seed=21)
        cfg = OptimizerConfig(lam=0.1, b=50, t_tilde=40, t_init=10, domain=ParamDomain(u=3), seed=22)
        res = optimize_set(s, cfg)
        assert res.best_psi.m in (1, 2, 3)
        assert 0.01 <= res.best_psi.r <= 1.0
        assert res.best_y < 0.5

    def test_good_solutions_found_early(self):
        # single AR(1) signal, fixed q = 0.5: best-so-far at trial 40 should
        # sit within 10% of the final best in at least 7 of 10 seeds
        from sampenopt.signal import Ar1Config, gen_ar1

        hits = 0
        for seed in range(10):
            x = normalize(gen_ar1(Ar1Config(phi=0.9, sigma=0.1, n=100, seed=4000 + seed)))
            cfg = OptimizerConfig(
                lam=0.1, b=100, t_tilde=100, t_init=10, domain=ParamDomain(u=3, fixed_q=0.5), seed=4100 + seed
            )
            res = optimize_single(x, cfg)
            bsf = res.best_so_far()
            if bsf[39] <= 1.10 * bsf[99]:
                hits += 1
        assert hits >= 7
