"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a single `ACCEPTANCE n: PASS/FAIL` line (run pytest with
-s to see them live) and enforces the criterion's stated tolerance and
runtime budget. Criteria 3 and 7 are the long-running ones (minutes).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from sampenopt.baselines import gaussian_mse_approx, knee_point
from sampenopt.bootstrap import BootstrapEstimates, _block_lengths, stationary_bootstrap
from sampenopt.cli import main
from sampenopt.entropy import SampEnParams, SampEnResult, count_matches, fuzzen, sampen
from sampenopt.errors import NoKnee
from sampenopt.experiments import VarBenchConfig, estimator_error
from sampenopt.ingest import write_signals
from sampenopt.optimizer import OptimizerConfig, optimize_set, optimize_single
from sampenopt.rng import generator
from sampenopt.signal import Signal, gen_signal_set, gen_white_noise, normalize
from sampenopt.stats import adf_test, holm_sidak, mann_whitney_u
from sampenopt.tpe import (
    ParamDomain,
    _DimMixture,
    _split_indices,
    decay_weights,
    scott_bandwidth,
)

from conftest import make_ar_set


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: oracle equivalence ----------------------------------------


def _naive_counts(x, m, r):
    x = x.tolist()
    nt = len(x) - m
    b = a = 0
    for i in range(nt):
        for j in range(nt):
            if i == j:
                continue
            # the (m+1)-distance extends the m-distance by one coordinate
            d = max(abs(x[i + k] - x[j + k]) for k in range(m))
            if d <= r:
                b += 1
            if max(d, abs(x[i + m] - x[j + m])) <= r:
                a += 1
    return b, a


def _naive_fuzzen(x, m, r, eta):
    # log-domain double loop (max-shifted sum) so the reference never
    # underflows where memberships are tiny
    def log_phi(k):
        nt = len(x) - m
        # each baseline-removed template once, as a plain list
        templates = [(x[i : i + k] - x[i : i + k].mean()).tolist() for i in range(nt)]
        exponents = []
        for i, ti in enumerate(templates):
            for j, tj in enumerate(templates):
                if i == j:
                    continue
                d = max(abs(u - v) for u, v in zip(ti, tj))
                exponents.append(-((d / r) ** eta))
        top = max(exponents)
        return top + math.log(math.fsum(math.exp(u - top) for u in exponents)) - math.log(len(exponents))

    return log_phi(m) - log_phi(m + 1)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for case in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 3, 65))
        r = float(rng.uniform(0.05, 1.5))
        x = rng.standard_normal(n)
        sig = Signal(f"c{case}", x)
        counts = count_matches(sig, SampEnParams(m, r))
        nb, na = _naive_counts(x, m, r)
        assert (counts.b_count, counts.a_count) == (nb, na), f"case {case}"
        got = fuzzen(sig, m, r, 2.0)
        want = _naive_fuzzen(x, m, r, 2.0)
        assert abs(got - want) <= 1e-12, f"fuzzen case {case}"
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0, f"200 oracle cases bit-identical, fuzzen within 1e-12, {elapsed:.1f}s < 10s")


# -- criterion 2: standard-parameter population means ------------------------


def test_criterion_2_table_values():
    t0 = time.perf_counter()
    p = SampEnParams(2, 0.20)
    noise = gen_signal_set("white_noise", 100, 100, seed=202)
    wn_vals = [r.value for r in (sampen(x, p) for x in noise) if r.finite]
    ar = gen_signal_set("ar1", 100, 100, seed=203)
    ar_vals = [r.value for r in (sampen(x, p) for x in ar) if r.finite]
    wn_mean = float(np.mean(wn_vals))
    ar_mean = float(np.mean(ar_vals))
    elapsed = time.perf_counter() - t0
    ok = 2.15 <= wn_mean <= 2.45 and 1.35 <= ar_mean <= 1.55 and elapsed < 30.0
    report(2, ok, f"white noise mean {wn_mean:.3f} in [2.15,2.45], AR(1) mean {ar_mean:.3f} in [1.35,1.55], {elapsed:.1f}s < 30s")


# -- criterion 3: variance-estimator superiority ------------------------------


def test_criterion_3_variance_estimator_superiority():
    t0 = time.perf_counter()
    wn = estimator_error(VarBenchConfig(signal_type="white_noise", n=100, r=0.20, seed=301))
    ar = estimator_error(VarBenchConfig(signal_type="ar1", n=100, r=0.20, seed=302))
    elapsed = time.perf_counter() - t0
    ok = wn.mean_reduction >= 30.0 and ar.mean_reduction >= 20.0 and elapsed < 600.0
    report(
        3,
        ok,
        f"bootstrap vs counting MSE reduction: white noise {wn.mean_reduction:.1f}% >= 30%, "
        f"AR(1) {ar.mean_reduction:.1f}% >= 20%, {elapsed:.0f}s < 600s",
    )


# -- criterion 4: MSE decomposition identity ----------------------------------


def _fake_result(v: float) -> SampEnResult:
    return SampEnResult(bm=0.5, am=0.25, cp=0.5, value=float(v))


def test_criterion_4_mse_decomposition():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        theta = float(rng.standard_normal() * rng.uniform(0.5, 3.0))
        vals = rng.standard_normal(int(rng.integers(2, 120))) * rng.uniform(0.1, 5.0)
        est = BootstrapEstimates(original=_fake_result(theta), replicates=vals)
        s = est.summary
        worst = max(worst, abs(s.mse - (s.bias**2 + s.variance)))
    report(4, worst <= 1e-12, f"1000 sets, max |mse - (bias^2 + var)| = {worst:.2e} <= 1e-12")


# -- criterion 5: stationary bootstrap invariants -----------------------------


def test_criterion_5_bootstrap_invariants():
    checked = 0
    for n in (5, 50, 100):
        x = gen_white_noise(n, 1.0, seed=500 + n)
        members = np.sort(x.values)
        for seed in range(3334):
            out = stationary_bootstrap(x, 0.5, generator(505, n, seed))
            assert out.n == n
            assert np.isin(out.values, members).all()
            checked += 1
    lens = _block_lengths(generator(506).standard_exponential(100_000), 0.5, 100_000)
    mean_len = float(lens.mean())
    ok = checked >= 10_000 and 1.9 <= mean_len <= 2.1
    report(5, ok, f"{checked} replicates length/multiset clean, mean block length {mean_len:.3f} in [1.9,2.1]")


# -- criterion 6: TPE unit formulas -------------------------------------------


def test_criterion_6_tpe_formulas():
    def n_better(k):
        return len(_split_indices(np.arange(k, dtype=np.float64))[0])

    def kernel(kind, center, b, lo, hi):
        return _DimMixture(kind=kind, lo=lo, hi=hi, centers=np.array([center]), bandwidths=np.array([b]))

    ok_split = n_better(30) == 3 and n_better(300) == 25
    ok_scott = abs(scott_bandwidth(100, 3, 0.0, 1e-9, 10**9) - 0.517947) <= 1e-6

    rng = np.random.default_rng(606)
    ok_cont = True
    for _ in range(8):
        center, b = float(rng.uniform(-0.3, 1.3)), float(rng.uniform(0.02, 0.6))
        mix = kernel("continuous", center, b, 0.0, 1.0)
        val, _ = quad(lambda v: math.exp(mix.log_components(v)[0]), 0.0, 1.0, limit=200)
        ok_cont &= abs(val - 1.0) <= 1e-6
    ok_disc = True
    for _ in range(20):
        u = int(rng.integers(1, 9))
        center, b = float(rng.uniform(0, u + 1)), float(rng.uniform(0.05, 4.0))
        masses = np.exp(kernel("discrete", center, b, 1.0, float(u)).log_components(np.arange(1, u + 1)))
        ok_disc &= abs(masses.sum() - 1.0) <= 1e-12
    ok_weights = True
    for _ in range(100):
        better, worse = decay_weights(int(rng.integers(0, 40)), int(rng.integers(0, 150)))
        ok_weights &= abs(better.sum() - 1.0) <= 1e-12 and abs(worse.sum() - 1.0) <= 1e-12

    ok = ok_split and ok_scott and ok_cont and ok_disc and ok_weights
    report(6, ok, "T_l spots, Scott 100^(-1/7), kernel normalizations and weight sums all within tolerance")


# -- criterion 7: optimizer behavior on AR(1) sets ----------------------------


def test_criterion_7_optimizer_behavior():
    t0 = time.perf_counter()
    lam = 0.1
    beats_standard = 0
    m_one_good_r = 0
    for seed in range(5):
        s = make_ar_set(20, 100, seed=700 + seed)
        cfg = OptimizerConfig(lam=lam, b=100, t_tilde=100, t_init=10, domain=ParamDomain(u=3), seed=710 + seed)
        res = optimize_set(s, cfg)
        bsf = res.best_so_far()
        assert all(b <= a for a, b in zip(bsf, bsf[1:])), "best-so-far not monotone"
        std_obj = gaussian_mse_approx(s, 2, 0.20, lam)
        if res.best_y < std_obj:
            beats_standard += 1
        if res.best_psi.m == 1 and 0.15 <= res.best_psi.r <= 0.35:
            m_one_good_r += 1
    elapsed = time.perf_counter() - t0
    ok = beats_standard >= 4 and m_one_good_r >= 3 and elapsed < 900.0
    report(
        7,
        ok,
        f"monotone best-so-far, beats standard {beats_standard}/5 (need 4), "
        f"m*=1 with r* in [0.15,0.35] {m_one_good_r}/5 (need 3), {elapsed:.0f}s < 900s",
    )


# -- criterion 8: regularization behavior -------------------------------------


def test_criterion_8_regularization():
    def fixation(lam, base_seed):
        fracs = []
        for seed in range(3):
            x = normalize(gen_white_noise(100, 1.0, seed=base_seed + seed))
            cfg = OptimizerConfig(
                lam=lam, b=100, t_tilde=100, t_init=10, domain=ParamDomain(u=3, fixed_q=0.9), seed=base_seed + seed
            )
            res = optimize_single(x, cfg)
            rs = np.array([t.psi.r for t in res.records])
            fracs.append(float((rs >= 0.95).mean()))
        return fracs

    free = fixation(0.0, 800)
    reg = fixation(1.0 / 3.0, 830)
    ok = all(f >= 0.5 for f in free) and all(f < 0.5 for f in reg)
    report(8, ok, f"upper-bound fixation at lambda=0: {free} (all >= 0.5); at lambda=1/3: {reg} (all < 0.5)")


# -- criterion 9: statistics oracles ------------------------------------------


def test_criterion_9_statistics_oracles():
    mw = mann_whitney_u([1, 2, 3], [4, 5, 6], "less")
    ok_mw = mw.p_value == pytest.approx(0.05, abs=1e-15)
    adj = holm_sidak([0.01, 0.04])
    ok_holm = abs(adj[0] - 0.0199) <= 1e-4 and abs(adj[1] - 0.04) <= 1e-4

    wn_reject = sum(adf_test(gen_white_noise(500, 1.0, seed=s)).p_value < 0.01 for s in range(60))
    rw_keep = sum(
        adf_test(Signal("rw", np.cumsum(gen_white_noise(500, 1.0, seed=9000 + s).values))).p_value > 0.10
        for s in range(60)
    )
    dif_reject = sum(
        adf_test(
            Signal("d", np.diff(np.cumsum(gen_white_noise(501, 1.0, seed=9500 + s).values)))
        ).p_value
        < 0.01
        for s in range(60)
    )
    ok_adf = wn_reject >= 57 and rw_keep >= 54 and dif_reject >= 57
    ok = ok_mw and ok_holm and ok_adf
    report(
        9,
        ok,
        f"MW exact p=0.05, Holm-Sidak within 1e-4, ADF powers {wn_reject}/60, {rw_keep}/60, {dif_reject}/60",
    )


# -- criterion 10: knee detection ----------------------------------------------


def test_criterion_10_knee_detection():
    xs = np.linspace(0.0, 1.0, 50)
    ys = np.exp(-5.0 * xs)
    idx = knee_point(xs, ys)
    yn = (ys - ys.min()) / np.ptp(ys)
    oracle_x = xs[int(np.argmax((1.0 - yn) - xs))]
    ok_exp = abs(xs[idx] - oracle_x) <= 0.05
    try:
        knee_point(xs, -xs + 1.0)
        ok_lin = False
    except NoKnee:
        ok_lin = True
    report(10, ok_exp and ok_lin, f"exp knee at {xs[idx]:.3f} vs oracle {oracle_x:.3f}, linear raises NoKnee")


# -- criterion 11: CLI determinism ---------------------------------------------


def _canonical(env: dict) -> str:
    e = dict(env)
    e.pop("started_at", None)
    e.pop("finished_at", None)
    e.pop("timings", None)
    return json.dumps(e, sort_keys=True)


def test_criterion_11_cli_determinism(tmp_path):
    from sampenopt.signal import SignalSet
    from conftest import make_noise_set

    write_signals(tmp_path / "in.csv", make_noise_set(5, 70, seed=20), fmt="long")
    write_signals(tmp_path / "ar.csv", make_ar_set(5, 120, seed=21), fmt="long")
    a = make_noise_set(4, 70, seed=22, label="x")
    b = make_ar_set(4, 70, seed=23, label="y")
    write_signals(tmp_path / "two.csv", SignalSet(tuple(list(a.signals) + list(b.signals))), fmt="long")
    d = tmp_path
    cases = {
        "synth": ["synth", "ar1", "--n", "3", "--len", "40", "--seed", "9", "--out", str(d / "s.csv")],
        "estimate": ["estimate", "--input", str(d / "in.csv"), "--m", "1", "--r", "0.3", "--q", "0.8", "--B", "20", "--seed", "9"],
        "optimize": ["optimize", "--input", str(d / "in.csv"), "--no-preprocess", "--T", "8", "--T-init", "4", "--B", "15", "--seed", "9"],
        "preprocess": ["preprocess", "--input", str(d / "ar.csv"), "--out", str(d / "ret.csv")],
        "baseline": ["baseline", "--input", str(d / "in.csv"), "--method", "standard"],
        "compare": ["compare", "--input", str(d / "two.csv"), "--m", "1", "--r", "0.3", "--q", "0.8", "--B", "15", "--seed", "9"],
        "varbench": ["varbench", "--len", "50", "--n-population", "40", "--n-subsample", "10", "--repeats", "2", "--B", "15", "--seed", "9"],
        "compare-methods": ["compare-methods", "--n", "4", "--len", "100", "--T", "8", "--T-init", "4", "--B", "12", "--seed", "9"],
    }
    failures = []
    for name, args in cases.items():
        out1, out2 = d / f"{name}1.json", d / f"{name}2.json"
        code1 = main(args + ["--output", str(out1)])
        code2 = main(args + ["--output", str(out2)])
        if code1 != 0 or code2 != 0:
            failures.append(f"{name}: exit {code1}/{code2}")
            continue
        if _canonical(json.loads(out1.read_text())) != _canonical(json.loads(out2.read_text())):
            failures.append(f"{name}: payload drift")
    report(11, not failures, "all 8 subcommands byte-identical excluding timestamps" if not failures else "; ".join(failures))
