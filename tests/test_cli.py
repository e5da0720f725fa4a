import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sampenopt.cli import build_parser, main
from sampenopt.errors import IngestionError, NonStationaryConfig, UndefinedEntropy
from sampenopt.ingest import read_signals, write_signals
from sampenopt.signal import Signal, SignalSet, gen_signal_set

from conftest import make_ar_set, make_noise_set


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def canonical(envelope):
    """Envelope bytes with the time-varying fields removed."""
    e = dict(envelope)
    e.pop("started_at", None)
    e.pop("finished_at", None)
    e.pop("timings", None)
    return json.dumps(e, sort_keys=True)


def _csv(tmp_path, signals):
    """Long-format CSV of {id: values}; returns its path."""
    path = tmp_path / "signals.csv"
    rows = "".join(f"{sid},,{t},{float(v)}\n" for sid, vals in signals.items() for t, v in enumerate(vals))
    path.write_text("signal_id,label,t,value\n" + rows)
    return str(path)


@pytest.fixture
def noise_csv(tmp_path):
    path = tmp_path / "noise.csv"
    write_signals(path, make_noise_set(8, 80, seed=42), fmt="long")
    return str(path)


@pytest.fixture
def two_class_csv(tmp_path):
    a = make_noise_set(10, 90, seed=1, label="noise")
    b = make_ar_set(10, 90, seed=2, label="ar")
    merged = SignalSet(tuple(list(a.signals) + list(b.signals)))
    path = tmp_path / "two.csv"
    write_signals(path, merged, fmt="long")
    return str(path)


class TestSynth:
    def test_writes_reproducible_csv(self, tmp_path):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        base = ["synth", "ar1", "--n", "4", "--len", "50", "--phi", "0.9", "--sigma", "0.1", "--seed", "7"]
        code_a, _ = run(base + ["--out", str(csv_a)], tmp_path, "a.json")
        code_b, _ = run(base + ["--out", str(csv_b)], tmp_path, "b.json")
        assert code_a == code_b == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()
        loaded, fmt = read_signals(csv_a)
        assert fmt == "long" and loaded.n == 4 and loaded[0].n == 50

    def test_payload_lists_ids(self, tmp_path):
        code, env = run(
            ["synth", "white-noise", "--n", "3", "--len", "20", "--seed", "1", "--out", str(tmp_path / "w.csv")],
            tmp_path,
        )
        assert code == 0
        assert env["payload"]["ids"] == ["white_noise_00000", "white_noise_00001", "white_noise_00002"]

    def test_unencodable_label_writes_no_file(self, tmp_path, capsys):
        # what the C locale makes of "café" on the command line: a lone surrogate per byte
        out, kept = tmp_path / "o.csv", tmp_path / "kept.csv"
        kept.write_bytes(b"old bytes\r\n")
        for target in (out, kept):
            code, env = run(["synth", "white-noise", "--n", "2", "--len", "5", "--label", "caf\udcc3\udca9",
                             "--out", str(target)], tmp_path)
            assert code == 2 and env is None
            assert capsys.readouterr().err.startswith(f"sampenopt: config error: cannot write {target}: ")
        assert not out.exists()
        assert kept.read_bytes() == b"old bytes\r\n"


class TestEstimate:
    def test_sampen_records(self, noise_csv, tmp_path):
        code, env = run(["estimate", "--input", noise_csv, "--m", "2", "--r", "0.2"], tmp_path)
        assert code == 0
        recs = env["payload"]["signals"]
        assert len(recs) == 8
        for rec in recs:
            assert rec["entropy"]["state"] in ("finite", "infinite", "undefined")

    def test_bootstrap_se_attached_with_q(self, noise_csv, tmp_path):
        code, env = run(
            ["estimate", "--input", noise_csv, "--m", "1", "--r", "0.25", "--q", "0.9", "--B", "40", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        assert all(r["bootstrap_se"] is not None for r in env["payload"]["signals"])

    def test_fuzzen_routing(self, noise_csv, tmp_path):
        code, env = run(["estimate", "--input", noise_csv, "--fuzzen", "--eta", "2.0"], tmp_path)
        assert code == 0
        assert env["payload"]["measure"] == "fuzzen"
        assert all(r["entropy"]["state"] == "finite" for r in env["payload"]["signals"])


class TestOptimize:
    def test_end_to_end_no_preprocess(self, noise_csv, tmp_path):
        code, env = run(
            ["optimize", "--input", noise_csv, "--no-preprocess", "--T", "14", "--T-init", "5", "--B", "25", "--seed", "5"],
            tmp_path,
        )
        assert code == 0
        best = env["payload"]["best_psi"]
        assert best["m"] in (1, 2, 3)
        assert 0.0 < best["r"] < 1.0 and 0.0 < best["q"] < 1.0
        assert len(env["payload"]["history"]) == 14
        assert len(env["payload"]["signals"]) == 8

    def test_preprocess_included(self, noise_csv, tmp_path):
        code, env = run(
            ["optimize", "--input", noise_csv, "--T", "12", "--T-init", "5", "--B", "20", "--seed", "6"],
            tmp_path,
        )
        assert code == 0
        assert len(env["payload"]["preprocess"]) == 8

    @pytest.mark.parametrize("preprocess", [True, False], ids=["preprocess", "no-preprocess"])
    @pytest.mark.parametrize("seed", range(5))
    def test_summary_mses_average_to_best_y(self, tmp_path, seed, preprocess):
        # the summary rereads the winning trial's replicates, so it reproduces best_y to the last bit
        src = tmp_path / "ar.csv"
        write_signals(src, gen_signal_set("ar1", 8, 100, seed=seed, sigma=0.1), fmt="long")
        argv = ["optimize", "--input", str(src), "--T", "15", "--T-init", "5", "--B", "30", "--lambda", "0.1",
                "--seed", str(seed)]
        code, env = run(argv + ([] if preprocess else ["--no-preprocess"]), tmp_path)
        assert code == 0
        payload = env["payload"]
        mses = [rec["bootstrap_mse"] for rec in payload["signals"]]
        assert len(mses) == 8
        assert float(np.mean(mses)) + 0.1 * math.sqrt(payload["best_psi"]["r"]) == payload["best_y"]


    @pytest.mark.parametrize("preprocess", [True, False], ids=["preprocess", "no-preprocess"])
    def test_bootstraps_only_inside_the_search(self, tmp_path, monkeypatch, preprocess):
        # the summary reads the estimate sets the search kept: the run makes exactly
        # the bootstrap calls of optimize_set on the retained set with the same config
        import sampenopt.cli
        import sampenopt.optimizer
        from sampenopt.optimizer import OptimizerConfig, optimize_set
        from sampenopt.signal import normalize
        from sampenopt.stats import stationarity_pipeline

        calls = []
        original = sampenopt.optimizer.bootstrap_sampen

        def spy(x, params, cfg):
            calls.append((x.id, params, cfg))
            return original(x, params, cfg)

        monkeypatch.setattr(sampenopt.optimizer, "bootstrap_sampen", spy)
        monkeypatch.setattr(sampenopt.cli, "bootstrap_sampen", spy)
        src = tmp_path / "ar.csv"
        write_signals(src, gen_signal_set("ar1", 6, 100, seed=3, sigma=0.1), fmt="long")
        argv = ["optimize", "--input", str(src), "--T", "8", "--T-init", "4", "--B", "15", "--seed", "3"]
        code, env = run(argv + ([] if preprocess else ["--no-preprocess"]), tmp_path)
        assert code == 0 and len(env["payload"]["signals"]) == 6
        cli_calls = calls[:]
        calls.clear()
        s, _ = read_signals(src)
        s = stationarity_pipeline(s, 0.05).retained_or_raise() if preprocess else SignalSet(tuple(map(normalize, s)))
        optimize_set(s, OptimizerConfig(b=15, t_tilde=8, t_init=4, seed=3))
        assert cli_calls == calls


class TestCompare:
    def test_detects_known_difference(self, two_class_csv, tmp_path):
        code, env = run(
            ["compare", "--input", two_class_csv, "--m", "2", "--r", "0.2", "--q", "0.7", "--seed", "4"],
            tmp_path,
        )
        assert code == 0
        p = env["payload"]
        assert p["classes"] == ["ar", "noise"]
        assert p["p_value"] < 0.05
        assert all(se is not None for se in p["median_bootstrap_se"])

    def test_single_class_is_data_error(self, noise_csv, tmp_path):
        code, _ = run(["compare", "--input", noise_csv, "--m", "1", "--r", "0.2"], tmp_path)
        assert code == 3

    def test_class_without_a_finite_sampen_exits_4_naming_it(self, tmp_path, capsys):
        # at (3, 0.3) no 12-point signal of class "short" has a finite SampEn; two of "long" have
        short = make_noise_set(3, 12, seed=1, label="short")
        long = make_noise_set(3, 100, seed=11, label="long")
        src = tmp_path / "two.csv"
        write_signals(src, SignalSet(tuple(Signal(f"{x.label}{i}", x.values, x.label)
                                           for i, x in enumerate([*short, *long]))), fmt="long")
        code, env = run(["compare", "--input", str(src), "--m", "3", "--r", "0.3"], tmp_path)
        assert code == 4 and env is None
        assert capsys.readouterr().err == (
            "sampenopt: computation error: class 'short': no signal has a finite SampEn at (m=3, r=0.3)\n"
        )


class TestPreprocess:
    def test_writes_retained_set(self, tmp_path):
        src = tmp_path / "ar.csv"
        write_signals(src, make_ar_set(6, 150, seed=10), fmt="long")
        out_csv = tmp_path / "retained.csv"
        code, env = run(
            ["preprocess", "--input", str(src), "--alpha", "0.05", "--out", str(out_csv)], tmp_path
        )
        assert code == 0
        retained, _ = read_signals(out_csv)
        assert retained.n == env["payload"]["n_retained"]
        assert retained[0].n == 149  # differenced

    def test_mirrors_wide_format(self, tmp_path):
        src = tmp_path / "w.csv"
        write_signals(src, make_ar_set(4, 120, seed=11), fmt="wide")
        out_csv = tmp_path / "ret.csv"
        code, env = run(["preprocess", "--input", str(src), "--out", str(out_csv)], tmp_path)
        assert code == 0
        assert env["payload"]["format"] == "wide"
        _, fmt = read_signals(out_csv)
        assert fmt == "wide"


    @pytest.mark.parametrize("command", ["preprocess", "optimize"])
    def test_rank_deficient_signal_does_not_abort_the_screen(self, command, tmp_path):
        src = tmp_path / "mixed.csv"
        square = Signal("square", [float(t * t) for t in range(100)])
        write_signals(src, SignalSet((*make_noise_set(3, 100, seed=5), square)), fmt="long")
        extra = (["--out", str(tmp_path / "kept.csv")] if command == "preprocess"
                 else ["--T", "4", "--T-init", "2", "--B", "10", "--alpha", "1.0"])
        code, env = run([command, "--input", str(src), *extra], tmp_path)
        assert code == 0
        key = "signals" if command == "preprocess" else "preprocess"
        rec = {r["id"]: r for r in env["payload"][key]}
        assert rec["square"]["retained"] is False and rec["square"]["reason"] == "SingularDesign"


class TestNoStationarySurvivor:
    """A set whose every signal fails the ADF screen exits 4 (EmptySurvivorSet)."""

    @pytest.mark.parametrize("command", ["preprocess", "optimize"])
    def test_exits_4(self, tmp_path, capsys, command):
        rng = np.random.default_rng(3)
        walks = {f"rw{i}": np.cumsum(np.cumsum(rng.standard_normal(60))) for i in range(3)}
        extra = ["--out", str(tmp_path / "kept.csv")] if command == "preprocess" else ["--T", "4", "--T-init", "2"]
        code, env = run([command, "--input", _csv(tmp_path, walks), *extra], tmp_path)
        assert code == 4 and env is None
        assert capsys.readouterr().err.strip() == "sampenopt: computation error: no signal passed the stationarity screen"
        assert not (tmp_path / "kept.csv").exists()


class TestBaseline:
    def test_convergence_below_sampeneff(self, tmp_path):
        src = tmp_path / "n.csv"
        write_signals(src, make_noise_set(12, 100, seed=12), fmt="long")
        code_c, env_c = run(["baseline", "--input", str(src), "--method", "convergence", "--m", "1"], tmp_path, "c.json")
        code_e, env_e = run(["baseline", "--input", str(src), "--method", "sampeneff", "--m", "1"], tmp_path, "e.json")
        assert code_c == code_e == 0
        assert env_c["payload"]["r_star"] < env_e["payload"]["r_star"]
        assert len(env_c["payload"]["curve"]) >= 50

    def test_standard_method(self, noise_csv, tmp_path):
        code, env = run(["baseline", "--input", noise_csv, "--method", "standard"], tmp_path)
        assert code == 0
        assert env["payload"]["m_star"] == 2 and env["payload"]["r_star"] == 0.2

    def test_fuzzen_method(self, noise_csv, tmp_path):
        code, env = run(["baseline", "--input", noise_csv, "--method", "fuzzen"], tmp_path)
        assert code == 0
        assert env["payload"]["method"] == "fuzzen"

    def test_infinite_sampen_has_the_state_estimate_gives(self, tmp_path):
        # at (2, 0.2) this signal has template matches (bm > 0) but no extended ones (am = 0)
        values = np.random.default_rng(0).standard_normal(20)
        src = _csv(tmp_path, {"g": (values - values.mean()) / values.std(ddof=1)})
        code_e, env_e = run(["estimate", "--input", src, "--m", "2", "--r", "0.2"], tmp_path, "e.json")
        code_b, env_b = run(["baseline", "--input", src, "--method", "standard"], tmp_path, "b.json")
        assert code_e == code_b == 0
        want = env_e["payload"]["signals"][0]
        assert want["bm"] > 0 and want["am"] == 0
        assert env_b["payload"]["signals"][0]["entropy"] == want["entropy"] == {"state": "infinite", "value": None}

    def test_sampen_only_for_signals_without_a_finite_entropy(self, tmp_path, monkeypatch):
        import sampenopt.cli

        values = np.random.default_rng(0).standard_normal(20)
        signals = {"g": (values - values.mean()) / values.std(ddof=1), "far": 10.0 * np.arange(6)}
        signals.update({x.id: x.values for x in make_noise_set(3, 80, seed=4)})
        src = _csv(tmp_path, signals)
        called = []
        original = sampenopt.cli.sampen

        def spy(x, p):
            called.append(x.id)
            return original(x, p)

        monkeypatch.setattr(sampenopt.cli, "sampen", spy)
        code, env = run(["baseline", "--input", src, "--method", "standard"], tmp_path)
        assert code == 0
        states = {rec["id"]: rec["entropy"]["state"] for rec in env["payload"]["signals"]}
        assert states["g"] == "infinite" and states["far"] == "undefined"
        assert "finite" in states.values()
        assert sorted(called) == sorted(sid for sid, state in states.items() if state != "finite")


class TestVarbench:
    def test_tiny_run_with_csv(self, tmp_path):
        table = tmp_path / "t.csv"
        code, env = run(
            [
                "varbench", "--signal-type", "white-noise", "--len", "60", "--r", "0.25",
                "--n-population", "60", "--n-subsample", "15", "--repeats", "2", "--B", "25",
                "--seed", "2", "--csv", str(table),
            ],
            tmp_path,
        )
        assert code == 0
        assert len(env["payload"]["reductions"]) == 2
        header = table.read_text().splitlines()[0]
        assert header == "signal_type,N,r,mean_reduction,interval_lo,interval_hi"

    def test_counting_error_of_0_exits_4(self, tmp_path, capsys):
        # at r = 5 every template of a 4-point signal matches: every SampEn and every error is 0
        table = tmp_path / "t.csv"
        argv = ["varbench", "--len", "4", "--m", "2", "--n-population", "3", "--n-subsample", "3", "--repeats", "1",
                "--r", "5", "--csv", str(table)]
        code, env = run(argv, tmp_path)
        assert code == 4 and env is None and not table.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["sampenopt: computation error: repeat 0: the counting error is 0, so the relative reduction "
                       "is undefined"]


class TestCompareMethods:
    def test_tiny_run(self, tmp_path):
        table = tmp_path / "cm.csv"
        code, env = run(
            [
                "compare-methods", "--signal-type", "white-noise", "--n", "6", "--len", "100",
                "--T", "12", "--T-init", "5", "--B", "20", "--seed", "3", "--csv", str(table),
            ],
            tmp_path,
        )
        assert code == 0
        methods = [r["method"] for r in env["payload"]["rows"]]
        assert methods == ["ours", "sampeneff", "convergence", "standard"]
        assert set(env["timings"]) == set(methods)
        assert table.read_text().count("\n") == 5  # header + 4 rows

    # the baselines are scored in closed form, so there is no draw count to set
    def test_gaussian_draws_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare-methods", "--n", "3", "--len", "60", "--gaussian-draws", "5",
                  "--output", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert "--gaussian-draws" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_gaussian_draws_config_key_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"gaussian_draws": 5}')
        code, env = run(["compare-methods", "--n", "3", "--len", "60", "--config", str(cfg)], tmp_path)
        assert code == 2 and env is None
        assert "'gaussian_draws'" in capsys.readouterr().err


class TestRemovedBaselineSettings:
    """compare-methods' baselines run at m = 1 and baseline's AR-order rule fits orders up to 5, with no option."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["compare-methods", "--n", "3", "--len", "60", "--baseline-m", "1"], "--baseline-m"),
            (["baseline", "--input", "in.csv", "--method", "sampeneff", "--p-max", "5"], "--p-max"),
        ],
        ids=["compare-methods", "baseline"],
    )
    def test_flag_exits_2(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (lambda csv: ["compare-methods", "--n", "3", "--len", "60"], "baseline_m"),
            (lambda csv: ["baseline", "--input", csv, "--method", "sampeneff"], "p_max"),
        ],
        ids=["compare-methods", "baseline"],
    )
    def test_config_key_exits_2_and_names_it(self, noise_csv, tmp_path, capsys, argv, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 1}))
        code, env = run(argv(noise_csv) + ["--config", str(cfg)], tmp_path)
        assert code == 2 and env is None
        assert f"unknown config key(s) {key!r}" in capsys.readouterr().err


class TestErrorsAndExitCodes:
    def test_empty_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        code, _ = run(["estimate", "--input", str(bad)], tmp_path)
        assert code == 3

    @pytest.mark.parametrize(
        "content",
        [b"signal_id,label,t,value\n\xe9,,0,1.0\n", b"a," + b"1" * 200_000 + b"\n"],
        ids=["not-utf8", "field-over-the-csv-limit"],
    )
    def test_unreadable_input_is_data_error_naming_the_file(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code, env = run(["estimate", "--input", str(bad)], tmp_path)
        assert code == 3 and env is None
        err = capsys.readouterr().err
        assert err.startswith(f"sampenopt: data error: {bad}: ") and err.count("\n") == 1

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", "x.csv", "--definitely-not-a-flag"])
        assert exc.value.code == 2

    def test_infeasible_exits_4(self, tmp_path):
        # single very short spread-out signal: nothing ever matches
        src = tmp_path / "bad.csv"
        src.write_text(
            "signal_id,label,t,value\n"
            + "".join(f"g,,{t},{v}\n" for t, v in enumerate([0.0, 50.0, 100.0, 150.0, 200.0, 250.0]))
        )
        code, _ = run(
            ["optimize", "--input", str(src), "--no-preprocess", "--T", "6", "--T-init", "3",
             "--B", "10", "--r-lo", "1e-9", "--r-hi", "1e-8", "--U", "1", "--seed", "1"],
            tmp_path,
        )
        assert code == 4

    @pytest.mark.parametrize(
        "command",
        [
            lambda tmp: ["compare-methods", "--n", "4", "--len", "2", "--T", "30", "--B", "30"],
            lambda tmp: ["optimize", "--input", _csv(tmp, {"ok": range(40), "tiny": [0.0, 1.0]}), "--no-preprocess"],
        ],
        ids=["compare-methods", "optimize"],
    )
    def test_signals_too_short_for_any_m_exit_4_before_search(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("sampenopt.optimizer.bootstrap_sampen", lambda *a, **k: pytest.fail("trial started"))
        code, env = run(command(tmp_path), tmp_path)
        assert code == 4 and env is None
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: computation error: signal ") and "N=2" in err

    def test_bad_config_value_exits_2(self, noise_csv, tmp_path):
        code, _ = run(["estimate", "--input", noise_csv, "--r", "-0.5"], tmp_path)
        assert code == 2

    def test_infinite_radius_exits_2(self, noise_csv, tmp_path, capsys):
        code, env = run(["estimate", "--input", noise_csv, "--r", "inf"], tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [
            lambda csv: ["optimize", "--input", csv, "--no-preprocess", "--T", "3", "--T-init", "2", "--B", "5"],
            lambda csv: ["compare-methods", "--n", "3", "--len", "60", "--T", "3", "--T-init", "2", "--B", "5"],
        ],
        ids=["optimize", "compare-methods"],
    )
    def test_non_finite_lambda_exits_2(self, noise_csv, tmp_path, capsys, command, value):
        code, env = run(command(noise_csv) + ["--lambda", value, "--seed", "1"], tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")

    def test_nan_in_payload_exits_4_without_traceback(self, noise_csv, tmp_path, capsys, monkeypatch):
        # the envelope is written with allow_nan=False; a stray NaN is a computation error
        monkeypatch.setattr("sampenopt.cli._cmd_estimate", lambda args: ({"x": float("nan")}, {}))
        code, env = run(["estimate", "--input", noise_csv], tmp_path)
        assert code == 4 and env is None
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: computation error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (IngestionError("row 3: bad"), 3, "data error: row 3: bad"),
            (UndefinedEntropy("no matches"), 4, "computation error: no matches"),
            (MemoryError(), 4, "computation error: MemoryError"),
            (ValueError("bad value"), 2, "config error: bad value"),
            (NonStationaryConfig("|phi| must be < 1"), 2, "config error: |phi| must be < 1"),
        ],
        ids=["data", "computation", "out-of-memory", "config", "config-and-package-error"],
    )
    def test_each_failure_exits_with_its_code_and_one_line(self, noise_csv, tmp_path, capsys, monkeypatch, error,
                                                           code, line):
        def fail(args):
            raise error

        monkeypatch.setattr("sampenopt.cli._cmd_estimate", fail)
        got, env = run(["estimate", "--input", noise_csv], tmp_path)
        assert got == code and env is None
        assert capsys.readouterr().err == f"sampenopt: {line}\n"

    @pytest.mark.parametrize("command", [["estimate"], ["baseline", "--method", "standard"]])
    @pytest.mark.parametrize(
        "values",
        [1e200 * np.sin(np.arange(40.0)), 1.7e308 - 1e305 * np.arange(40.0)],
        ids=["scaled-by-1e200", "near-the-largest-float"],
    )
    def test_signal_too_large_to_normalize_exits_3(self, tmp_path, capsys, command, values):
        code, env = run(command + ["--input", _csv(tmp_path, {"big": values})], tmp_path)
        assert code == 3 and env is None
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: data error: signal 'big': ") and err.count("\n") == 1


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with one config-error line naming it."""

    @pytest.mark.parametrize(
        "command",
        [
            lambda csv: ["synth", "white-noise", "--n", "2", "--len", "20", "--out", "nodir/x.csv"],
            lambda csv: ["preprocess", "--input", csv, "--out", "nodir/x.csv"],
            lambda csv: ["varbench", "--len", "40", "--n-population", "20", "--n-subsample", "5", "--repeats", "1",
                         "--B", "5", "--csv", "nodir/x.csv"],
            lambda csv: ["compare-methods", "--n", "3", "--len", "40", "--T", "3", "--T-init", "2", "--B", "5",
                         "--csv", "nodir/x.csv"],
            lambda csv: ["estimate", "--input", csv, "--output", "nodir/x.csv"],
        ],
        ids=["synth-out", "preprocess-out", "varbench-csv", "compare-methods-csv", "output"],
    )
    def test_missing_directory_exits_2(self, noise_csv, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert main(command(noise_csv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: config error: cannot write nodir/x.csv: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, work",
        [
            (lambda csv: ["compare-methods", "--n", "4", "--len", "100", "--T", "30", "--B", "30",
                          "--csv", "nodir/x.csv"], "method_comparison"),
            (lambda csv: ["optimize", "--input", csv, "--output", "nodir/x.json"], "optimize_set"),
        ],
        ids=["compare-methods-csv", "optimize-output"],
    )
    def test_rejected_before_the_work(self, noise_csv, tmp_path, capsys, monkeypatch, command, work):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(f"sampenopt.cli.{work}", lambda *a, **k: pytest.fail("work started"))
        assert main(command(noise_csv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: config error: cannot write nodir/x.") and err.count("\n") == 1
        assert not (tmp_path / "nodir").exists()


    @pytest.mark.parametrize(
        "command, work",
        [
            (lambda csv: ["optimize", "--input", csv, "--T", "30", "--output", "adir"], "optimize_set"),
            (lambda csv: ["synth", "white-noise", "--n", "2", "--len", "20", "--out", "adir"], "gen_signal_set"),
            (lambda csv: ["varbench", "--len", "40", "--n-population", "20", "--n-subsample", "5", "--repeats", "1",
                          "--B", "5", "--csv", "adir"], "estimator_error"),
        ],
        ids=["optimize-output", "synth-out", "varbench-csv"],
    )
    def test_directory_rejected_before_the_work(self, noise_csv, tmp_path, capsys, monkeypatch, command, work):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        monkeypatch.setattr(f"sampenopt.cli.{work}", lambda *a, **k: pytest.fail("work started"))
        assert main(command(noise_csv)) == 2
        assert capsys.readouterr().err == "sampenopt: config error: cannot write adir: Is a directory\n"
        assert not any((tmp_path / "adir").iterdir())


class TestConfigFile:
    def test_key_value_config_with_flag_override(self, noise_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nr=0.4\n")
        code, env = run(["estimate", "--input", noise_csv, "--config", str(cfg), "--r", "0.3"], tmp_path)
        assert code == 0
        assert env["payload"]["m"] == 1  # from config
        assert env["payload"]["r"] == 0.3  # flag wins

    def test_json_config(self, noise_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"m": 3, "r": 0.5}')
        code, env = run(["estimate", "--input", noise_csv, "--config", str(cfg)], tmp_path)
        assert code == 0
        assert env["payload"]["m"] == 3 and env["payload"]["r"] == 0.5

    def test_equals_spelling_is_read(self, noise_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\n")
        code, env = run(["estimate", "--input", noise_csv, f"--config={cfg}"], tmp_path)
        assert code == 0
        assert env["payload"]["m"] == 1

    @pytest.mark.parametrize(
        "text, key",
        [
            ("lamda=0.5\n", "lamda"),
            ("B=7\n", "B"),
            ("threads=2\n", "threads"),
            ('{"T": 3}', "T"),
            ("input=x.csv\n", "input"),
            ("out=x.csv\n", "out"),
            ("method=standard\n", "method"),
        ],
    )
    def test_unknown_key_exits_2_and_names_it(self, noise_csv, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, env = run(["optimize", "--input", noise_csv, "--config", str(cfg)], tmp_path)
        assert code == 2 and env is None
        assert repr(key) in capsys.readouterr().err

    def test_key_read_by_another_command_is_accepted(self, noise_csv, tmp_path):
        # one file can serve several commands: t_tilde is an optimize key, unused by estimate
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nt_tilde=5\n")
        code, env = run(["estimate", "--input", noise_csv, "--config", str(cfg)], tmp_path)
        assert code == 0 and env["payload"]["m"] == 1

    def test_utf8_config_under_an_ascii_locale(self, tmp_path):
        # without UTF-8 mode, the C locale makes the default text encoding ASCII
        (tmp_path / "cfg.txt").write_bytes("label = caf\u00e9\n".encode("utf-8"))
        script = "import sys; from sampenopt.cli import main; raise SystemExit(main())"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": src}
        argv = ["synth", "white-noise", "--n", "2", "--len", "5", "--config", "cfg.txt", "--out", "o.csv"]
        proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env, capture_output=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "o.csv").read_bytes().decode("utf-8").splitlines()
        assert rows[1].split(",")[1] == "caf\u00e9"

    @pytest.mark.parametrize("text", ['{"m": 1, "r": 0.4}', "m = 1\nr = 0.4\n"], ids=["json", "key-value"])
    def test_leading_byte_order_mark_is_ignored(self, noise_csv, tmp_path, text):
        # Notepad and Excel's "CSV UTF-8" export begin the file with EF BB BF
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        code, env = run(["estimate", "--input", noise_csv, "--config", str(cfg)], tmp_path)
        assert code == 0
        assert env["payload"]["m"] == 1 and env["payload"]["r"] == 0.4

    @pytest.mark.parametrize("path", ["absent.cfg", ""])
    def test_missing_config_file_exits_2(self, noise_csv, tmp_path, path):
        code, _ = run(["estimate", "--input", noise_csv, f"--config={tmp_path / path if path else ''}"], tmp_path)
        assert code == 2


class TestConfigValueTypes:
    """Config values are converted and checked by each option's type, like flags."""

    @staticmethod
    def config(tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return ["--config", str(path)]

    @pytest.mark.parametrize(
        "command, text",
        [
            (["estimate", "--q", "0.8"], '{"b": 7.9}'),
            (["estimate", "--q", "0.8"], '{"b": true}'),
            (["estimate", "--q", "0.8"], "b=7.9\n"),
            (["optimize", "--no-preprocess"], '{"t_tilde": 5.5}'),
            (["estimate"], '{"m": [1, 2]}'),
        ],
    )
    def test_wrong_type_exits_2(self, noise_csv, tmp_path, command, text):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--input", noise_csv, "--output", str(tmp_path / "o.json")] + self.config(tmp_path, text))
        assert exc.value.code == 2
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("text", ['{"m": null}', '{"r": null}', "seed=null\n"])
    def test_null_where_a_value_is_required_exits_2(self, noise_csv, tmp_path, capsys, text):
        code, env = run(["estimate", "--input", noise_csv] + self.config(tmp_path, text), tmp_path)
        assert code == 2 and env is None
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: config error: ") and "null" in err

    def test_null_where_the_default_is_none_is_accepted(self, noise_csv, tmp_path):
        # baseline's m defaults to None (AR-order heuristic); estimate's q too
        cfg = self.config(tmp_path, '{"m": null, "q": null}')
        code, env = run(["baseline", "--input", noise_csv, "--method", "sampeneff"] + cfg, tmp_path, "b.json")
        assert code == 0 and env["payload"]["auto_m"] is True
        code, env = run(["estimate", "--input", noise_csv, "--m", "1"] + cfg, tmp_path, "e.json")
        assert code == 0 and env["config"]["q"] is None

    def test_flag_overrides_a_null_config_value(self, noise_csv, tmp_path):
        code, env = run(["estimate", "--input", noise_csv, "--m", "1"] + self.config(tmp_path, '{"m": null}'), tmp_path)
        assert code == 0 and env["payload"]["m"] == 1

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (["estimate"], '{"fuzzen": "false"}', "fuzzen"),
            (["estimate"], '{"no_normalize": "false"}', "no_normalize"),
            (["estimate"], "fuzzen=1\n", "fuzzen"),
            (["optimize"], '{"no_preprocess": null}', "no_preprocess"),
        ],
    )
    def test_switch_takes_only_true_or_false(self, noise_csv, tmp_path, capsys, command, text, key):
        code, env = run(command + ["--input", noise_csv] + self.config(tmp_path, text), tmp_path)
        assert code == 2 and env is None
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: config error: ") and repr(key) in err

    def test_bad_switch_for_another_command_is_not_read(self, noise_csv, tmp_path):
        # estimate has no --optimize, so one file can still serve several commands
        code, env = run(["estimate", "--input", noise_csv] + self.config(tmp_path, '{"optimize": "yes"}'), tmp_path)
        assert code == 0 and "optimize" not in env["config"]

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (["synth", "white-noise", "--n", "2", "--len", "20"], '{"label": 3}', "label"),
            (["varbench", "--len", "50", "--repeats", "1", "--B", "5"], '{"csv": true}', "csv"),
            (["compare", "--input", "IN"], '{"alternative": 1}', "alternative"),
        ],
    )
    def test_option_without_a_type_takes_only_text(self, noise_csv, tmp_path, capsys, command, text, key):
        out = tmp_path / "set.csv"
        command = [noise_csv if a == "IN" else a for a in command]
        if command[0] == "synth":
            command += ["--out", str(out)]
        code, env = run(command + self.config(tmp_path, text), tmp_path)
        assert code == 2 and env is None and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: config error: ") and repr(key) in err

    def test_integer_for_a_float_option_echoes_as_the_flag(self, noise_csv, tmp_path):
        code, env = run(["estimate", "--input", noise_csv] + self.config(tmp_path, '{"r": 1}'), tmp_path)
        code_f, env_f = run(["estimate", "--input", noise_csv, "--r", "1"], tmp_path, "f.json")
        assert code == code_f == 0
        assert env["config"] == env_f["config"] and env["config"]["r"] == 1.0
        assert isinstance(env["config"]["r"], float)

    @pytest.mark.parametrize("text", ['{"fuzzen": true}', "fuzzen=true\n"])
    def test_switch_true_is_read(self, noise_csv, tmp_path, text):
        code, env = run(["estimate", "--input", noise_csv] + self.config(tmp_path, text), tmp_path)
        assert code == 0 and env["payload"]["measure"] == "fuzzen" and env["config"]["fuzzen"] is True

    def test_numbers_echo_as_from_flags(self, noise_csv, tmp_path):
        code, env = run(["estimate", "--input", noise_csv] + self.config(tmp_path, '{"m": 1, "r": 0.25}'), tmp_path)
        code_f, env_f = run(["estimate", "--input", noise_csv, "--m", "1", "--r", "0.25"], tmp_path, "f.json")
        assert code == code_f == 0
        assert env["config"] == env_f["config"] and env["payload"] == env_f["payload"]


class TestNonFiniteOptions:
    """A non-finite float option exits 2 before the command runs."""

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--fuzzen", "--eta", "inf"],
            ["estimate", "--fuzzen", "--r", "inf"],
            ["estimate", "--eta", "nan"],
            ["optimize", "--no-preprocess", "--alpha", "nan", "--T", "3", "--T-init", "2", "--B", "5"],
            ["baseline", "--method", "standard", "--eta", "nan"],
        ],
    )
    def test_flag_exits_2(self, noise_csv, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr("sampenopt.cli.optimize_set", lambda *a, **k: pytest.fail("command ran"))
        code, env = run(args + ["--input", noise_csv], tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")

    @pytest.mark.parametrize("text", ['{"eta": Infinity}', "eta=NaN\n", "eta=nan\n"])
    def test_config_value_exits_2(self, noise_csv, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, env = run(["estimate", "--input", noise_csv, "--config", str(cfg)], tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")


class TestVarbenchSizes:
    @pytest.mark.parametrize("sizes", [["--n-subsample", "0"], ["--n-population", "1", "--n-subsample", "1"]])
    def test_impossible_sizes_exit_2(self, tmp_path, capsys, sizes):
        code, env = run(["varbench", "--len", "50", "--repeats", "1", "--B", "5"] + sizes, tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")


class TestConfigCheckedBeforeWork:
    """A bad config field exits 2 before any signal is generated, screened or optimized."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for target in ["experiments.gen_signal_set", "experiments.optimize_set", "cli.stationarity_pipeline"]:
            monkeypatch.setattr(f"sampenopt.{target}", lambda *a, **k: pytest.fail("work started"))

    @pytest.mark.parametrize(
        "args",
        [
            ["--lambda", "-1"],
            ["--B", "0"],
            ["--T-init", "0"],
            ["--T", "3", "--T-init", "5"],
            ["--U", "0"],
        ],
    )
    def test_compare_methods(self, tmp_path, capsys, args):
        code, env = run(["compare-methods", "--n", "4", "--len", "100", "--T", "30", "--B", "30"] + args, tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")

    @pytest.mark.parametrize("args", [["--B", "0"], ["--q", "0"], ["--q", "1.5"]])
    def test_varbench(self, tmp_path, capsys, args):
        code, env = run(["varbench"] + args, tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")

    def test_varbench_signal_shorter_than_m_plus_2(self, tmp_path, capsys):
        code, env = run(["varbench", "--len", "3", "--m", "2"], tmp_path)
        assert code == 2 and env is None
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: config error: ") and "N >= m + 2" in err

    def test_synth_nonstationary_phi(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, env = run(["synth", "ar1", "--n", "2", "--len", "30", "--phi", "1.5", "--out", str(out)], tmp_path)
        assert code == 2 and env is None and not out.exists()
        assert capsys.readouterr().err.startswith("sampenopt: config error: |phi| must be < 1")

    def test_config_value_outside_the_choices(self, tmp_path, capsys, monkeypatch, two_class_csv):
        monkeypatch.setattr("sampenopt.cli.optimize_set", lambda *a, **k: pytest.fail("work started"))
        cfg = tmp_path / "alt.cfg"
        cfg.write_text("alternative = bogus\n")
        args = ["compare", "--input", two_class_csv, "--optimize", "--T", "30", "--B", "40", "--config", str(cfg)]
        code, env = run(args, tmp_path)
        assert code == 2 and env is None
        err = capsys.readouterr().err
        assert err.startswith("sampenopt: config error: config key 'alternative'")
        assert "bogus" in err and "two-sided, less, greater" in err

    def test_config_choice_is_checked_only_by_a_command_that_reads_it(self, noise_csv, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"alternative": "bogus", "signal_type": "pink"}')
        code, env = run(["estimate", "--input", noise_csv, "--config", str(cfg)], tmp_path)
        assert code == 0 and "alternative" not in env["config"]

    def test_config_choice_is_overridden_by_the_flag(self, two_class_csv, tmp_path):
        cfg = tmp_path / "alt.cfg"
        cfg.write_text("alternative = bogus\n")
        args = ["compare", "--input", two_class_csv, "--alternative", "less", "--config", str(cfg)]
        code, env = run(args, tmp_path)
        assert code == 0 and env["payload"]["alternative"] == "less"

    @pytest.mark.parametrize("args", [["--B", "0"], ["--U", "0"], ["--fixed-q", "1"]])
    def test_optimize_before_the_stationarity_screen(self, noise_csv, tmp_path, capsys, args):
        code, env = run(["optimize", "--input", noise_csv] + args, tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--B", "-5"],
            ["estimate", "--fuzzen", "--q", "0"],
            ["estimate", "--eta", "-1"],
            ["compare", "--B", "0"],
            ["compare", "--T", "0"],
            ["compare", "--U", "0"],
            ["compare", "--lambda", "-1"],
            ["baseline", "--method", "sampeneff", "--m", "1", "--eta", "-1"],
            ["baseline", "--method", "standard", "--m", "0"],
            ["baseline", "--method", "fuzzen", "--m", "0"],
            ["optimize", "--B", "0"],
            ["optimize", "--alpha", "2"],
            ["preprocess", "--alpha", "0", "--out", "o.csv"],
        ],
    )
    def test_option_the_mode_ignores_before_the_input_is_read(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr("sampenopt.cli.read_signals", lambda *a, **k: pytest.fail("input read"))
        code, env = run(args + ["--input", "unread.csv"], tmp_path)
        assert code == 2 and env is None
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["white-noise", "--len", "30", "--phi", "2"],
            ["white-noise", "--len", "30", "--burn-in", "-1"],
            ["white-noise", "--len", "1", "--normalize"],
            ["ar1", "--len", "1", "--normalize"],
        ],
    )
    def test_synth_setting_for_either_kind(self, tmp_path, capsys, args):
        out = tmp_path / "s.csv"
        code, env = run(["synth"] + args + ["--n", "2", "--out", str(out)], tmp_path)
        assert code == 2 and env is None and not out.exists()
        assert capsys.readouterr().err.startswith("sampenopt: config error: ")


class TestParserShape:
    """Each command's destinations and defaults, as parsed from its required arguments alone."""

    COMMON = {"config": None, "output": "-", "seed": 0}
    OPTIMIZER = {
        "lam": 1 / 3, "b": 100, "t_tilde": 100, "t_init": 10, "u": 3,
        "r_lo": 0.01, "r_hi": 1.0, "q_lo": 0.01, "q_hi": 0.99, "fixed_q": None,
    }
    CASES = {
        "synth": (
            ["ar1", "--n", "3", "--len", "40", "--out", "s.csv"],
            {"kind": "ar1", "n_signals": 3, "length": 40, "sigma": 1.0, "phi": 0.9, "burn_in": 500, "label": None,
             "normalize": False, "out": "s.csv"},
        ),
        "estimate": (
            ["--input", "in.csv"],
            {"input": "in.csv", "m": 2, "r": 0.2, "q": None, "b": 100, "fuzzen": False, "eta": 2.0, "normalize": True},
        ),
        "optimize": (["--input", "in.csv"], {"input": "in.csv", "preprocess": True, "alpha": 0.05, **OPTIMIZER}),
        "compare": (
            ["--input", "in.csv"],
            {"input": "in.csv", "m": 2, "r": 0.2, "q": None, "optimize": False, "alternative": "two-sided",
             "normalize": True, **OPTIMIZER},
        ),
        "preprocess": (["--input", "in.csv", "--out", "o.csv"], {"input": "in.csv", "alpha": 0.05, "out": "o.csv"}),
        "baseline": (
            ["--input", "in.csv", "--method", "standard"],
            {"input": "in.csv", "method": "standard", "m": None, "eta": 2.0, "normalize": True},
        ),
        "varbench": (
            [],
            {"signal_type": "white-noise", "length": 100, "r": 0.2, "m": 1, "q": None, "b": 100,
             "n_population": 2000, "n_subsample": 100, "repeats": 5, "csv": None},
        ),
        "compare-methods": (
            [],
            {"signal_type": "white-noise", "n_signals": 100, "length": 100, "lam": None, "b": 100, "t_tilde": 100,
             "t_init": 10, "u": 3, "csv": None},
        ),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_destinations_and_defaults(self, command):
        argv, expected = self.CASES[command]
        parsed = vars(build_parser({}).parse_args([command] + argv))
        parsed.pop("fn")
        assert parsed == {"command": command, **self.COMMON, **expected}


@pytest.fixture(scope="module")
def validators():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    schemas = files("sampenopt") / "schemas"
    envelope = json.loads((schemas / "envelope.schema.json").read_text())
    payloads = json.loads((schemas / "payloads.schema.json").read_text())
    return jsonschema, envelope, payloads


class TestSchemas:
    @pytest.mark.parametrize("command", sorted(["synth", "estimate", "optimize", "preprocess", "baseline", "compare", "varbench", "compare-methods"]))
    def test_envelope_and_payload_validate(self, command, tmp_path, validators):
        jsonschema, envelope_schema, payload_schemas = validators
        write_signals(tmp_path / "in.csv", make_noise_set(5, 70, seed=20), fmt="long")
        write_signals(tmp_path / "ar.csv", make_ar_set(5, 120, seed=21), fmt="long")
        a = make_noise_set(4, 70, seed=22, label="x")
        b = make_ar_set(4, 70, seed=23, label="y")
        write_signals(tmp_path / "two.csv", SignalSet(tuple(list(a.signals) + list(b.signals))), fmt="long")
        args = TestDeterminism.CASES[command](tmp_path)
        code, env = run(args, tmp_path, "schema.json")
        assert code == 0
        jsonschema.validate(env, envelope_schema)
        payload_schema = dict(payload_schemas["$defs"][command])
        payload_schema["$defs"] = payload_schemas["$defs"]
        jsonschema.validate(env["payload"], payload_schema)


class TestDeterminism:
    CASES = {
        "synth": lambda d: ["synth", "ar1", "--n", "3", "--len", "40", "--seed", "9", "--out", str(d / "s.csv")],
        "estimate": lambda d: ["estimate", "--input", str(d / "in.csv"), "--m", "1", "--r", "0.3", "--q", "0.8", "--B", "20", "--seed", "9"],
        "optimize": lambda d: ["optimize", "--input", str(d / "in.csv"), "--no-preprocess", "--T", "8", "--T-init", "4", "--B", "15", "--seed", "9"],
        "preprocess": lambda d: ["preprocess", "--input", str(d / "ar.csv"), "--out", str(d / "ret.csv")],
        "baseline": lambda d: ["baseline", "--input", str(d / "in.csv"), "--method", "standard"],
        "compare": lambda d: ["compare", "--input", str(d / "two.csv"), "--m", "1", "--r", "0.3", "--q", "0.8", "--B", "15", "--seed", "9"],
        "varbench": lambda d: ["varbench", "--len", "50", "--n-population", "40", "--n-subsample", "10", "--repeats", "2", "--B", "15", "--seed", "9"],
        "compare-methods": lambda d: ["compare-methods", "--n", "4", "--len", "100", "--T", "8", "--T-init", "4", "--B", "12", "--seed", "9"],
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_double_run_identical(self, command, tmp_path):
        write_signals(tmp_path / "in.csv", make_noise_set(5, 70, seed=20), fmt="long")
        write_signals(tmp_path / "ar.csv", make_ar_set(5, 120, seed=21), fmt="long")
        a = make_noise_set(4, 70, seed=22, label="x")
        b = make_ar_set(4, 70, seed=23, label="y")
        write_signals(tmp_path / "two.csv", SignalSet(tuple(list(a.signals) + list(b.signals))), fmt="long")
        args = self.CASES[command](tmp_path)
        code1, env1 = run(args, tmp_path, "r1.json")
        code2, env2 = run(args, tmp_path, "r2.json")
        assert code1 == code2 == 0
        assert canonical(env1) == canonical(env2)
