"""Fingerprint a fixed set of CLI runs, to diff the CLI's behaviour across two source trees.

Usage:
    python tools/cli_identity.py SRC > runs.txt

SRC is the directory that holds the ``sampenopt`` package (``src`` in a
checkout). Every run executes in-process, inside one temporary directory,
with relative paths, so the config echo in each envelope is the same for
any tree. Input signals come from numpy alone, not from the package under
test. One line is printed per run:

    name  exit=CODE  env=SHA  csv:FILE=SHA ...  | last stderr line

An exception that escapes the CLI is printed as ``exit=uncaught:TYPE``.

``env`` hashes the envelope without ``started_at``, ``finished_at``,
``timings`` and the payload's ``csv_path``; each CSV the run writes is
hashed too, the compare-methods table without its ``seconds`` column. Run
it on two trees and diff the outputs: a line that differs is a run whose
payload, files, exit code or error message changed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

TIMED = ("started_at", "finished_at", "timings")


def _write_long(path: str, signals: dict[str, tuple[str, np.ndarray]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["signal_id", "label", "t", "value"])
        for sid, (label, values) in signals.items():
            w.writerows([sid, label, t, repr(float(v))] for t, v in enumerate(values))


def _ar1(rng: np.random.Generator, n: int, phi: float = 0.9) -> np.ndarray:
    out = np.zeros(n + 200)
    eps = rng.standard_normal(n + 200)
    for t in range(1, out.size):
        out[t] = phi * out[t - 1] + eps[t]
    return out[200:]


def _z(x: np.ndarray) -> np.ndarray:
    return (x - x.mean()) / x.std(ddof=1)


def _inputs() -> None:
    rng = np.random.default_rng(20240917)
    _write_long("in.csv", {f"wn{i}": ("", _z(rng.standard_normal(70))) for i in range(5)})
    _write_long("ar.csv", {f"ar{i}": ("", _ar1(rng, 120)) for i in range(5)})
    two = {f"a{i}": ("x", _z(rng.standard_normal(70))) for i in range(4)}
    two.update({f"b{i}": ("y", _z(_ar1(rng, 70))) for i in range(4)})
    _write_long("two.csv", two)
    # twice-integrated random walks: still integrated after one difference
    _write_long("i2.csv", {f"rw{i}": ("", np.cumsum(np.cumsum(rng.standard_normal(60)))) for i in range(3)})
    _write_long("short.csv", {f"s{i}": ("", rng.standard_normal(2)) for i in range(2)})
    _write_long("mixed.csv", {f"n{n}": ("", _z(rng.standard_normal(n))) for n in (8, 40, 70)})
    Path("cfg.json").write_text(json.dumps({"b": 12, "t_tilde": 6, "t_init": 3, "lam": 0.2, "r_hi": 0.6}))
    Path("cfg.txt").write_text("# key=value config\nm = 1\nr = 0.25\nq = 0.7\nb = 10\n")
    Path("alt.cfg").write_text("alternative = bogus\n")
    Path("typo.json").write_text(json.dumps({"lamda": 0.1}))
    Path("latin1.csv").write_bytes("signal_id,label,t,value\n\u00e9,,0,1.0\n".encode("latin-1"))
    Path("long.csv").write_text("a," + "1" * 200_000 + "\n")  # over csv's field size limit
    _write_long("big.csv", {"big": ("", 1e200 * np.sin(np.arange(40)))})  # its sample SD overflows float64
    # at (2, 0.2) this signal has template matches but no extended ones: an infinite SampEn
    _write_long("inf.csv", {"g": ("", _z(np.random.default_rng(0).standard_normal(20)))})
    # at (3, 0.3) no 12-point signal of class "y" has a finite SampEn
    rng = np.random.default_rng(1)
    cls = {f"x{i}": ("x", _z(rng.standard_normal(100))) for i in range(3)}
    cls.update({f"y{i}": ("y", _z(rng.standard_normal(12))) for i in range(3)})
    _write_long("cls.csv", cls)
    # the first difference of "mix" overflows float64
    rng = np.random.default_rng(2)
    ovf = {f"wn{i}": ("", rng.standard_normal(60)) for i in range(3)}
    ovf["mix"] = ("", 1.5e308 * (2 * rng.random(40) - 1))
    _write_long("ovf.csv", ovf)
    # what Notepad and Excel's "CSV UTF-8" export write: a byte-order mark first
    Path("bom.csv").write_bytes(b"\xef\xbb\xbf" + Path("in.csv").read_bytes())
    Path("bom.cfg").write_bytes(b"\xef\xbb\xbfm = 1\nr = 0.25\n")
    Path("adir").mkdir()
    # two classes in alternating rows: compare scores signal i on estimate's stream for row i
    rng = np.random.default_rng(3)
    _write_long("inter.csv", {f"s{i}": ("xy"[i % 2], _z(rng.standard_normal(70) if i % 2 else _ar1(rng, 70)))
                              for i in range(8)})
    Path("dup.cfg").write_text("m = 1\nr = 0.25\nm = 3\n")
    # the spike leaves no radius defined at m = 2, and the 3-point signal after it is too short
    _write_long("spike.csv", {"spike": ("", np.array([0.0, 0.0, 100.0, 0.0, 0.0])), "tiny": ("", np.array([0.0, 1.0, 0.5]))})
    # raw values at the float limit: the mean of a template holding two 1e308 values overflows
    _write_long("big2.csv", {"a": ("", np.array([1e308, 1e308, -1e308, 1e308, 1e308, 0, -1e308, -1e308, 3e307, 1e308,
                                                 2e307, 1e308]))})


OPT = ["--T", "8", "--T-init", "4", "--B", "15", "--seed", "9"]

RUNS = {
    # the determinism cases of tests/test_cli.py, with --csv where a command takes it
    "synth": ["synth", "ar1", "--n", "3", "--len", "40", "--seed", "9", "--out", "s.csv"],
    "estimate": ["estimate", "--input", "in.csv", "--m", "1", "--r", "0.3", "--q", "0.8", "--B", "20", "--seed", "9"],
    "optimize": ["optimize", "--input", "in.csv", "--no-preprocess", *OPT],
    "preprocess": ["preprocess", "--input", "ar.csv", "--out", "ret.csv"],
    "baseline": ["baseline", "--input", "in.csv", "--method", "standard"],
    "compare": ["compare", "--input", "two.csv", "--m", "1", "--r", "0.3", "--q", "0.8", "--B", "15", "--seed", "9"],
    "varbench": ["varbench", "--len", "50", "--n-population", "40", "--n-subsample", "10", "--repeats", "2",
                 "--B", "15", "--seed", "9", "--csv", "vb.csv"],
    "compare-methods": ["compare-methods", "--n", "4", "--len", "100", "--T", "8", "--T-init", "4", "--B", "12",
                        "--seed", "9", "--csv", "cm.csv"],
    # optimizer domains and preprocessing
    "optimize-preprocess": ["optimize", "--input", "ar.csv", *OPT],
    "optimize-narrow-r": ["optimize", "--input", "in.csv", "--no-preprocess", "--r-lo", "0.01", "--r-hi", "0.08",
                          *OPT],
    "optimize-u1": ["optimize", "--input", "in.csv", "--no-preprocess", "--U", "1", *OPT],
    "optimize-u8-fixed-q": ["optimize", "--input", "ar.csv", "--U", "8", "--fixed-q", "0.7", *OPT],
    "compare-optimize": ["compare", "--input", "two.csv", "--optimize", *OPT],
    # N = 8, 40 and 70 in one set: trials with m > 6 or a tiny r score +inf
    "optimize-mixed-lengths": ["optimize", "--input", "mixed.csv", "--no-preprocess", "--U", "8", "--r-lo", "0.005",
                               "--T", "30", "--T-init", "10", "--B", "15", "--seed", "9"],
    "compare-no-q": ["compare", "--input", "two.csv", "--m", "2", "--r", "0.2", "--alternative", "less"],
    # at this r most replicates are undefined or infinite, so no signal has a
    # bootstrap SE, whether its original is finite or not
    "estimate-infeasible": ["estimate", "--input", "in.csv", "--m", "2", "--r", "0.1", "--q", "0.5", "--B", "20",
                            "--seed", "9"],
    "estimate-fuzzen": ["estimate", "--input", "in.csv", "--fuzzen", "--m", "2", "--r", "0.3", "--eta", "3"],
    "baseline-sampeneff": ["baseline", "--input", "in.csv", "--method", "sampeneff"],
    "baseline-convergence": ["baseline", "--input", "in.csv", "--method", "convergence", "--m", "1"],
    "baseline-fuzzen": ["baseline", "--input", "in.csv", "--method", "fuzzen"],
    "baseline-infinite-entropy": ["baseline", "--input", "inf.csv", "--method", "standard"],
    "varbench-ar1": ["varbench", "--signal-type", "ar1", "--len", "60", "--n-population", "40", "--n-subsample",
                     "10", "--repeats", "2", "--B", "15", "--seed", "4"],
    # config files
    "config-json": ["optimize", "--input", "in.csv", "--no-preprocess", "--config", "cfg.json"],
    "config-key-value": ["estimate", "--input", "in.csv", "--config=cfg.txt", "--seed", "2"],
    # no stationary survivor
    "preprocess-no-survivor": ["preprocess", "--input", "i2.csv", "--out", "none.csv"],
    "optimize-no-survivor": ["optimize", "--input", "i2.csv", *OPT],
    # one signal is dropped because its first difference overflows
    "preprocess-overflowing-difference": ["preprocess", "--input", "ovf.csv", "--out", "ovf-ret.csv"],
    # rejections
    "reject-2-bad-B": ["estimate", "--input", "in.csv", "--q", "0.5", "--B", "0"],
    "reject-2-unknown-key": ["estimate", "--input", "in.csv", "--config", "typo.json"],
    "reject-2-flag-choice": ["compare", "--input", "two.csv", "--alternative", "bogus"],
    "reject-2-config-choice": ["compare", "--input", "two.csv", "--optimize", *OPT, "--config", "alt.cfg"],
    "reject-2-phi": ["synth", "ar1", "--n", "2", "--len", "30", "--phi", "1.5", "--out", "phi.csv"],
    "reject-2-varbench-len": ["varbench", "--len", "3", "--m", "2", "--n-population", "40", "--n-subsample", "10"],
    "reject-2-out-missing-dir": ["synth", "white-noise", "--n", "2", "--len", "20", "--out", "nodir/s.csv"],
    "reject-2-optimize-B-before-input": ["optimize", "--input", "missing.csv", "--B", "0"],
    "reject-2-csv-missing-dir": ["varbench", "--len", "40", "--n-population", "20", "--n-subsample", "5",
                                 "--repeats", "1", "--B", "5", "--csv", "nodir/vb.csv"],
    "reject-3-missing-file": ["estimate", "--input", "missing.csv"],
    "reject-3-not-utf8": ["estimate", "--input", "latin1.csv"],
    "reject-3-long-field": ["estimate", "--input", "long.csv"],
    "reject-3-short-signal": ["estimate", "--input", "short.csv", "--m", "2"],
    "reject-3-overflow": ["estimate", "--input", "big.csv"],
    "reject-4-short-optimize": ["optimize", "--input", "short.csv", "--no-preprocess", *OPT],
    "reject-4-class-without-finite-sampen": ["compare", "--input", "cls.csv", "--m", "3", "--r", "0.3"],
    "varbench-m2-len50": ["varbench", "--len", "50", "--m", "2", "--r", "0.2", "--B", "30",
                           "--n-population", "200", "--n-subsample", "40", "--repeats", "2", "--seed", "3"],
    # at m = 3 the radii 0.10-0.30 are dropped from the grid, and a radius is still selected
    "baseline-sampeneff-m3": ["baseline", "--input", "in.csv", "--method", "sampeneff", "--m", "3"],
    # 30-point signals: the standard (2, 0.20) row has an infinite or undefined SampEn
    "reject-4-compare-methods-standard-row": ["compare-methods", "--n", "4", "--len", "30", "--T", "8", "--T-init",
                                              "4", "--B", "12", "--seed", "9"],
    # at r = 5 every template of a 4-point signal matches, so the counting error is 0
    "varbench-all-match": ["varbench", "--len", "4", "--m", "2", "--n-population", "3", "--n-subsample", "3",
                           "--repeats", "1", "--r", "5"],
    # "café" as argv decoding leaves it under the C locale: UTF-8 cannot encode the lone surrogates
    "reject-2-unencodable-label": ["synth", "white-noise", "--n", "2", "--len", "5", "--label", "caf\udcc3\udca9",
                                   "--out", "label.csv"],
    # a leading byte-order mark in an input CSV and in a config file
    "estimate-bom-csv": ["estimate", "--input", "bom.csv", "--m", "1", "--r", "0.3"],
    "config-bom": ["estimate", "--input", "in.csv", "--config", "bom.cfg"],
    # an output path that is a directory is rejected before any work
    "reject-2-out-is-dir": ["synth", "white-noise", "--n", "2", "--len", "20", "--out", "adir"],
    "compare-interleaved": ["compare", "--input", "inter.csv", "--m", "1", "--r", "0.3", "--q", "0.8", "--B", "15",
                            "--seed", "9"],
    # a config key set twice, and an empty --config value
    "reject-2-duplicate-config-key": ["estimate", "--input", "in.csv", "--config", "dup.cfg"],
    "reject-2-empty-config-path": ["estimate", "--input", "in.csv", "--config="],
    # 200 trials at U = 6: a worse group of ~180 components, past numpy's 128-element
    # pairwise-sum block, with the old-decay weight ramp and a 6-row m table
    "optimize-deep-history": ["optimize", "--input", "in.csv", "--no-preprocess", "--T", "200", "--T-init", "10",
                              "--B", "5", "--U", "6", "--seed", "9"],
    # Geom(q) lengths near INT64_MAX: every replicate is one circular shift of its signal
    "estimate-tiny-q": ["estimate", "--input", "in.csv", "--m", "1", "--r", "0.3", "--q", "1e-300", "--B", "20",
                        "--seed", "9"],
    "optimize-tiny-fixed-q": ["optimize", "--input", "in.csv", "--no-preprocess", "--fixed-q", "1e-300", *OPT],
    # a too-short signal is reported whatever its place in the file
    "reject-3-short-signal-after-spike": ["baseline", "--input", "spike.csv", "--method", "sampeneff", "--m", "2"],
    # unnormalized values at the float limit: fuzzy entropy's templates overflow, and the point gaps
    # that overflow are simply not within r
    "reject-3-fuzzen-template-overflow": ["estimate", "--input", "big2.csv", "--fuzzen", "--no-normalize", "--m", "2",
                                          "--r", "0.2"],
    "estimate-point-gap-overflow": ["estimate", "--input", "big2.csv", "--no-normalize", "--m", "1", "--r", "0.2",
                                    "--q", "0.5", "--B", "20"],
    # every fuzzy membership exponent overflows to the clamp: the entropy is not representable
    "reject-4-fuzzen-memberships-underflow": ["estimate", "--input", "in.csv", "--fuzzen", "--m", "2", "--r",
                                              "0.000001", "--eta", "1000"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _csv_digest(path: Path) -> str:
    rows = list(csv.reader(path.read_text().splitlines()))
    if rows and "seconds" in rows[0]:
        k = rows[0].index("seconds")
        rows = [row[:k] + row[k + 1:] for row in rows]
    return _sha(json.dumps(rows).encode())


def _run(main, name: str, argv: list[str]) -> str:
    before = {p: p.stat().st_mtime_ns for p in Path(".").iterdir()}
    out = Path(f"{name}.env.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv + ["--output", str(out)])
        except SystemExit as exc:  # argparse rejections
            code = exc.code
        except Exception as exc:  # a crash is a result to compare, not a reason to stop
            code = f"uncaught:{type(exc).__name__}"
    parts = [name, f"exit={code}"]
    if out.exists():
        env = json.loads(out.read_text())
        for key in TIMED:
            env.pop(key, None)
        env.get("payload", {}).pop("csv_path", None)
        parts.append("env=" + _sha(json.dumps(env, sort_keys=True).encode()))
        out.unlink()
    written = sorted(p for p in Path(".").iterdir() if p.suffix == ".csv" and before.get(p) != p.stat().st_mtime_ns)
    parts += [f"csv:{p.name}={_csv_digest(p)}" for p in written]
    lines = err.getvalue().strip().splitlines()
    return "  ".join(parts) + "  | " + (lines[-1] if lines else "")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    from sampenopt.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _inputs()
        for name, argv in RUNS.items():
            print(_run(cli_main, name, argv), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
