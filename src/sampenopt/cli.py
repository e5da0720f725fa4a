"""Command-line entry point.

Subcommands: optimize, estimate, compare, preprocess, baseline, synth,
varbench, compare-methods. Every run emits a JSON envelope (schema_version,
resolved config, timestamps, payload) to --output (default stdout); some
commands additionally write CSV files. Exit codes: 0 success, 2 usage or
config error (an output path that cannot be written among them), 3 data
error, 4 computation infeasible or out of memory.

All stochastic commands take --seed (default 0) and are deterministic
given (input bytes, flags, seed); only the envelope timestamps and the
"timings" block vary between runs. A --config file (JSON object or
key=value lines) supplies defaults that explicit flags override; its keys
are option destinations (b, t_tilde, lam, no_preprocess, ...), and a key
that no subcommand reads, or one set twice, is a config error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    _STANDARD_M,
    _STANDARD_R,
    ar_order_m,
    convergence_select,
    sampeneff_select,
    standard_params_eval,
)
from .bootstrap import BootstrapConfig, bootstrap_sampen
from .entropy import SampEnParams, _fuzzen_params, fuzzen, sampen
from .errors import ComputationError, DataError, UndefinedEntropy
from .experiments import MethodComparisonConfig, VarBenchConfig, estimator_error, method_comparison
from .ingest import read_signals, write_signals
from .optimizer import OptimizerConfig, optimize_set
from .rng import child_seed
from .signal import SignalSet, gen_signal_set, normalize
from .stats import _require_alpha, mann_whitney_u, stationarity_pipeline, two_class_split
from .tpe import ParamDomain

SCHEMA_VERSION = "1.0"

_USAGE_EXIT = 2
_DATA_EXIT = 3
_COMPUTE_EXIT = 4


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not path:  # Path("") is the current directory, which would hide the empty value
        raise ValueError("empty --config value ''; give the path of a config file")
    # every error names the file, as read_signals does for an input CSV
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    entries = []  # (key, value, line number or None for JSON), in file order
    if text.lstrip().startswith("{"):
        # JSON text that begins with "{" and parses is an object. json calls the hook
        # for the outermost object last, so objects[-1] holds its pairs; nested
        # values stay plain dicts
        objects = []
        try:
            json.loads(text, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        entries = [(key, val, None) for key, val in objects[-1]]
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: config line {lineno}: expected key=value")
            key, _, raw = line.partition("=")
            raw = raw.strip()
            try:
                val = json.loads(raw)
            except json.JSONDecodeError:
                val = raw
            entries.append((key.strip(), val, lineno))
    # keys are compared as option destinations, so t-tilde and t_tilde are one key
    out, first_line = {}, {}
    for key, val, lineno in entries:
        key = key.replace("-", "_")
        if key in out:
            if lineno is None:
                raise ValueError(f"{path}: config key {key!r} is set twice")
            raise ValueError(f"{path}: config line {lineno}: key {key!r} is already set on line {first_line[key]}")
        out[key], first_line[key] = val, lineno
    return out


def _entropy_state(value: float | None) -> dict:
    if value is None:
        return {"state": "undefined", "value": None}
    if math.isinf(value):
        return {"state": "infinite", "value": None}
    return {"state": "finite", "value": float(value)}


def _normalized(s: SignalSet) -> SignalSet:
    return SignalSet(tuple(normalize(x) for x in s))


def _read_input(args) -> SignalSet:
    s, _ = read_signals(args.input)
    return _normalized(s) if args.normalize else s


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        lam=args.lam,
        b=args.b,
        t_tilde=args.t_tilde,
        t_init=args.t_init,
        domain=ParamDomain(
            u=args.u, r_bounds=(args.r_lo, args.r_hi), q_bounds=(args.q_lo, args.q_hi), fixed_q=args.fixed_q
        ),
        seed=args.seed,
    )


def _check_bootstrap_options(args) -> None:
    """BootstrapConfig's rules on --q and --B, also in a mode that ignores them."""
    # with --q unset only B is in question; 0.5 stands in for the absent q
    BootstrapConfig(q=0.5 if args.q is None else args.q, b=args.b, seed=args.seed)


def _psi_dict(psi) -> dict:
    return {"m": psi.m, "r": psi.r, "q": psi.q}


def _record(x, value: float | None, **fields) -> dict:
    return {"id": x.id, "label": x.label, "entropy": _entropy_state(value), **fields}


def _bootstrap_record(x, est) -> dict:
    """x's record with the bootstrap SE and MSE of its estimate set est; None for both where est is infeasible."""
    se, mse = (math.sqrt(est.summary.variance), est.summary.mse) if est.feasible else (None, None)
    return _record(x, est.original.value, bootstrap_se=se, bootstrap_mse=mse)


def _entropy_records(s, params: SampEnParams, q: float | None, b: int, seed: int) -> list[dict]:
    """Per-signal SampEn with its match counts, or with bootstrap SE/MSE when q is set.

    With q set, signal i of s, in file order, draws its replicates from the
    stream (seed, 0, i), so estimate and compare give a signal the same SE.
    """
    out = []
    for i, x in enumerate(s):
        if q is None:
            res = sampen(x, params)
            out.append(_record(x, res.value, bm=res.bm, am=res.am, cp=res.cp))
            continue
        est = bootstrap_sampen(x, params, BootstrapConfig(q=q, b=b, seed=child_seed(seed, 0, i)))
        out.append(_bootstrap_record(x, est))
    return out


def _preprocess_records(report) -> list[dict]:
    return [
        {"id": r.signal_id, "p_value": r.p_value, "adjusted_p": r.adjusted_p, "retained": r.retained, "reason": r.reason}
        for r in report.records
    ]


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError raised while writing path into a config error (exit 2) that names it."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, header: list[str], rows) -> None:
    with _writing(path), open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cmd_synth(args) -> tuple[dict, dict]:
    s = gen_signal_set(
        args.kind.replace("-", "_"),
        args.n_signals,
        args.length,
        seed=args.seed,
        sigma=args.sigma,
        phi=args.phi,
        burn_in=args.burn_in,
        normalize_signals=args.normalize,
        label=args.label,
    )
    with _writing(args.out):
        write_signals(args.out, s, fmt="long")
    payload = {
        "kind": args.kind.replace("-", "_"),
        "n_signals": s.n,
        "length": args.length,
        "normalized": bool(args.normalize),
        "csv_path": str(args.out),
        "ids": [x.id for x in s],
    }
    return payload, {}


def _cmd_estimate(args) -> tuple[dict, dict]:
    # every listed option is checked before the input is read, whichever measure and mode run
    params = _fuzzen_params(args.m, args.r, args.eta)
    _check_bootstrap_options(args)
    s = _read_input(args)
    if args.fuzzen:
        records = [_record(x, fuzzen(x, args.m, args.r, args.eta)) for x in s]
        payload = {"measure": "fuzzen", "m": args.m, "r": args.r, "eta": args.eta, "signals": records}
        return payload, {}
    records = _entropy_records(s, params, args.q, args.b, args.seed)
    payload = {"measure": "sampen", "m": args.m, "r": args.r, "q": args.q, "signals": records}
    return payload, {}


def _cmd_optimize(args) -> tuple[dict, dict]:
    # every listed option is checked before the input is read, with or without the screen
    cfg = _optimizer_config(args)
    _require_alpha(args.alpha)
    start = time.perf_counter()
    s, _ = read_signals(args.input)
    read = time.perf_counter()
    preprocess_records = None
    if args.preprocess:
        report = stationarity_pipeline(s, args.alpha)
        preprocess_records = _preprocess_records(report)
        s = report.retained_or_raise()
    else:
        s = _normalized(s)
    preprocessed = time.perf_counter()
    result = optimize_set(s, cfg)
    searched = time.perf_counter()
    history = [
        {"psi": _psi_dict(rec.psi), "y": (rec.y if math.isfinite(rec.y) else None), "feasible": rec.feasible}
        for rec in result.records
    ]
    payload = {
        "best_psi": _psi_dict(result.best_psi),
        "best_y": result.best_y,
        "n_trials": len(result.records),
        "history": history,
        "signals": [_bootstrap_record(x, est) for x, est in zip(s, result.estimates)],
    }
    if preprocess_records is not None:
        payload["preprocess"] = preprocess_records
    timings = {"read_s": read - start, "preprocess_s": preprocessed - read, **result.timings,
               "summary_s": time.perf_counter() - searched}
    return payload, timings


def _cmd_compare(args) -> tuple[dict, dict]:
    # every listed option is checked before the input is read, with or without --optimize
    cfg = _optimizer_config(args)
    params = SampEnParams(m=args.m, r=args.r)
    _check_bootstrap_options(args)
    s = _read_input(args)
    labels = two_class_split(s)
    optimized = None
    m, r, q = args.m, args.r, args.q
    # the whole set is scored once, in file order, as estimate or optimize scores it, and then split by label
    if args.optimize:
        result = optimize_set(s, cfg)
        m, r, q = result.best_psi.m, result.best_psi.r, result.best_psi.q
        optimized = {"best_psi": _psi_dict(result.best_psi), "best_y": result.best_y}
        records = [_bootstrap_record(x, est) for x, est in zip(s, result.estimates)]
    else:
        records = _entropy_records(s, params, q, args.b, args.seed)
    by_class = [[rec for rec in records if rec["label"] == label] for label in labels]
    vals = [[rec["entropy"]["value"] for rec in recs if rec["entropy"]["state"] == "finite"] for recs in by_class]
    ses = [[rec["bootstrap_se"] for rec in recs if rec.get("bootstrap_se") is not None] for recs in by_class]
    for label, v in zip(labels, vals):
        if not v:
            raise UndefinedEntropy(f"class {label!r}: no signal has a finite SampEn at (m={m}, r={r})")
    comparison = mann_whitney_u(*vals, args.alternative)
    payload = {
        "m": m,
        "r": r,
        "q": q,
        "classes": list(labels),
        "n_finite": [len(v) for v in vals],
        "entropies": dict(zip(labels, vals)),
        "medians": list(comparison.medians),
        "median_bootstrap_se": [float(np.median(se)) if se else None for se in ses],
        "u_statistic": comparison.u_statistic,
        "p_value": comparison.p_value,
        "alternative": args.alternative,
    }
    if optimized is not None:
        payload["optimized"] = optimized
    return payload, {}


def _cmd_preprocess(args) -> tuple[dict, dict]:
    _require_alpha(args.alpha)
    s, fmt = read_signals(args.input)
    report = stationarity_pipeline(s, args.alpha)
    retained = report.retained_or_raise()
    with _writing(args.out):
        write_signals(args.out, retained, fmt=fmt)
    payload = {
        "alpha": args.alpha,
        "n_input": s.n,
        "n_retained": retained.n,
        "csv_path": str(args.out),
        "format": fmt,
        "signals": _preprocess_records(report),
    }
    return payload, {}


def _cmd_baseline(args) -> tuple[dict, dict]:
    # every listed option is checked before the input is read, whichever method
    # runs; the standard parameters stand in for an unset --m and for r
    _fuzzen_params(_STANDARD_M if args.m is None else args.m, _STANDARD_R, args.eta)
    s = _read_input(args)
    if args.method in ("standard", "fuzzen"):
        res = standard_params_eval(s, fuzzy=args.method == "fuzzen", eta=args.eta)
    else:
        m = args.m if args.m is not None else ar_order_m(s)
        res = (sampeneff_select if args.method == "sampeneff" else convergence_select)(s, m)
    # entropies hold None for an infinite SampEn too; sampen tells it from an undefined one
    p = SampEnParams(m=res.m_star, r=res.r_star)
    values = [sampen(x, p).value if e is None else e for x, e in zip(s, res.entropies)]
    payload = {
        "method": res.method,
        "m_star": res.m_star,
        "r_star": res.r_star,
        "criterion": res.criterion,
        "auto_m": args.method in ("sampeneff", "convergence") and args.m is None,
        "curve": [[r, v] for r, v in res.curve],
        "signals": [_record(x, e, counting_se=se) for x, e, se in zip(s, values, res.ses)],
    }
    return payload, {}


def _cmd_varbench(args) -> tuple[dict, dict]:
    cfg = VarBenchConfig(
        signal_type=args.signal_type.replace("-", "_"),
        n=args.length,
        r=args.r,
        m=args.m,
        q=args.q,
        b=args.b,
        n_population=args.n_population,
        n_subsample=args.n_subsample,
        repeats=args.repeats,
        seed=args.seed,
    )
    res = estimator_error(cfg)
    payload = {
        "signal_type": cfg.signal_type,
        "length": cfg.n,
        "r": cfg.r,
        "m": cfg.m,
        "q": cfg.q_value,
        "b": cfg.b,
        "n_population": cfg.n_population,
        "n_subsample": cfg.n_subsample,
        "repeats": cfg.repeats,
        "true_variance": res.true_var,
        "eps_counting": list(res.eps_counting),
        "eps_bootstrap": list(res.eps_bootstrap),
        "reductions": list(res.reductions),
        "mean_reduction": res.mean_reduction,
        "reduction_interval": list(res.reduction_interval),
    }
    if args.csv:
        _write_csv(
            args.csv,
            ["signal_type", "N", "r", "mean_reduction", "interval_lo", "interval_hi"],
            [[cfg.signal_type, cfg.n, cfg.r, res.mean_reduction, *res.reduction_interval]],
        )
        payload["csv_path"] = str(args.csv)
    return payload, {}


def _cmd_compare_methods(args) -> tuple[dict, dict]:
    cfg = MethodComparisonConfig(
        signal_type=args.signal_type.replace("-", "_"),
        n_signals=args.n_signals,
        n=args.length,
        lam=args.lam,
        b=args.b,
        t_tilde=args.t_tilde,
        t_init=args.t_init,
        u=args.u,
        seed=args.seed,
    )
    rows = method_comparison(cfg)
    payload = {
        "signal_type": cfg.signal_type,
        "n_signals": cfg.n_signals,
        "length": cfg.n,
        "lambda": cfg.lam_value,
        "rows": [{k: v for k, v in dataclasses.asdict(r).items() if k != "seconds"} for r in rows],
    }
    timings = {r.method: r.seconds for r in rows}
    if args.csv:
        _write_csv(
            args.csv,
            ["signal_type", "method", "objective", "m_star", "r_star", "entropy_mean", "entropy_std", "seconds"],
            ([cfg.signal_type, r.method, r.objective, r.m_star, r.r_star, r.entropy_mean, r.entropy_std, r.seconds]
             for r in rows),
        )
        payload["csv_path"] = str(args.csv)
    return payload, timings


# Every option, declared once: config key -> (flag, add_argument keywords). The
# key is the option's destination and its config key; a --no-... switch keeps
# its own key and stores into the option it negates. An option that is not
# required reads its default from the config file.
_OPTIONS = {
    "seed": ("--seed", dict(type=int, default=0, help="master seed")),
    "kind": ("kind", dict(choices=["white-noise", "ar1"])),
    "input": ("--input", dict(required=True, help="signal CSV, long or wide format")),
    "out": ("--out", dict(required=True, help="CSV output path (preprocess mirrors the input format)")),
    "method": ("--method", dict(choices=["sampeneff", "convergence", "standard", "fuzzen"], required=True)),
    "signal_type": ("--signal-type", dict(choices=["white-noise", "ar1"], default="white-noise")),
    "n_signals": ("--n", dict(type=int, default=100, help="number of signals")),
    "length": ("--len", dict(type=int, default=100, help="samples per signal")),
    "sigma": ("--sigma", dict(type=float, default=1.0)),
    "phi": ("--phi", dict(type=float, default=0.9)),
    "burn_in": ("--burn-in", dict(type=int, default=500)),
    "label": ("--label", dict(default=None)),
    "normalize": ("--normalize", dict(action="store_true", help="z-normalize each generated signal")),
    "no_normalize": ("--no-normalize", dict(dest="normalize", action="store_false", help="keep the input scale")),
    "m": ("--m", dict(type=int, default=2, help="embedding dimension (baseline default: AR-order heuristic, "
                      "orders 1-5)")),
    "r": ("--r", dict(type=float, default=0.2, help="similarity radius")),
    "q": ("--q", dict(type=float, default=None, help="bootstrap success probability; enables bootstrap SE/MSE "
                      "(varbench default: 0.9 white noise, 0.5 AR(1))")),
    "b": ("--B", dict(type=int, default=100, help="bootstrap replicates (per trial when optimizing)")),
    "fuzzen": ("--fuzzen", dict(action="store_true", help="fuzzy entropy instead of SampEn")),
    "eta": ("--eta", dict(type=float, default=2.0, help="fuzzy membership exponent")),
    "no_preprocess": ("--no-preprocess", dict(dest="preprocess", action="store_false",
                                              help="skip the stationarity pipeline (signals are still normalized)")),
    "alpha": ("--alpha", dict(type=float, default=0.05, help="ADF screen level (Holm-Sidak)")),
    "optimize": ("--optimize", dict(action="store_true", help="select (m, r, q) on the pooled set first")),
    "alternative": ("--alternative", dict(choices=["two-sided", "less", "greater"], default="two-sided")),
    "lam": ("--lambda", dict(type=float, default=1 / 3, help="regularization weight on sqrt(r) (compare-methods "
                             "default: 1/3 white noise, 1/10 AR(1)); raise it if the search sticks to the upper "
                             "radius bound, relax it if the search sticks to the lower bound")),
    "t_tilde": ("--T", dict(type=int, default=100, help="total optimization trials (200 for real-data workflows)")),
    "t_init": ("--T-init", dict(type=int, default=10, help="random trials before TPE proposals")),
    "u": ("--U", dict(type=int, default=3, help="upper bound on embedding dimension m")),
    "r_lo": ("--r-lo", dict(type=float, default=0.01)),
    "r_hi": ("--r-hi", dict(type=float, default=1.0)),
    "q_lo": ("--q-lo", dict(type=float, default=0.01)),
    "q_hi": ("--q-hi", dict(type=float, default=0.99)),
    "fixed_q": ("--fixed-q", dict(type=float, default=None, help="pin the bootstrap success probability "
                                  "instead of optimizing it")),
    "n_population": ("--n-population", dict(type=int, default=2000, help="full scale: 10000")),
    "n_subsample": ("--n-subsample", dict(type=int, default=100)),
    "repeats": ("--repeats", dict(type=int, default=5, help="full scale: 20")),
    "csv": ("--csv", dict(default=None, help="also write a summary CSV table")),
}

_OPTIMIZER_KEYS = ["lam", "b", "t_tilde", "t_init", "u", "r_lo", "r_hi", "q_lo", "q_hi", "fixed_q"]

# subcommand -> (help, option keys after seed, keywords that differ from the table)
_COMMANDS = {
    "synth": ("generate a synthetic signal set as long CSV",
              ["kind", "n_signals", "length", "sigma", "phi", "burn_in", "label", "normalize", "out"],
              {"n_signals": {"required": True}, "length": {"required": True}}),
    "estimate": ("per-signal entropy at fixed (m, r), optional bootstrap SE",
                 ["input", "m", "r", "q", "b", "fuzzen", "eta", "no_normalize"], {}),
    "optimize": ("jointly select (m, r, q) for a signal set",
                 ["input", "no_preprocess", "alpha", *_OPTIMIZER_KEYS], {}),
    "compare": ("compare entropy distributions of a two-class set",
                ["input", "m", "r", "q", "optimize", "alternative", "no_normalize", *_OPTIMIZER_KEYS], {}),
    "preprocess": ("difference, normalize and ADF-screen a signal set", ["input", "alpha", "out"], {}),
    "baseline": ("run a baseline hyperparameter selection method",
                 ["input", "method", "m", "eta", "no_normalize"], {"m": {"default": None}}),
    "varbench": ("variance-estimator error benchmark",
                 ["signal_type", "length", "r", "m", "q", "b", "n_population", "n_subsample", "repeats", "csv"],
                 {"m": {"default": 1}}),
    "compare-methods": ("four-way method comparison on synthetic sets",
                        ["signal_type", "n_signals", "length", "lam", "b", "t_tilde", "t_init", "u", "csv"],
                        {"lam": {"default": None}}),
}


def build_parser(config: dict) -> argparse.ArgumentParser:
    """The full parser, with config values as defaults; ValueError names keys no option reads.

    A config value reaches argparse as a string, so the option's type
    converts or rejects it like a flag; an option with no type takes only
    text, and one with choices only those. Null is kept only where the
    option's default is None, and a switch takes only true or false. Any
    other value becomes a ValueError default, which _run raises only if the
    command reads that option.
    """
    read = set()

    def d(key, fallback, text=False, choices=None):
        read.add(key)
        if key not in config:
            return fallback
        value = config[key]
        if value is None:
            return None if fallback is None else ValueError(f"config key {key!r} cannot be null")
        if isinstance(value, str):
            if choices is None or value in choices:
                return value
            return ValueError(f"config key {key!r} takes one of {', '.join(choices)}, not {value!r}")
        return ValueError(f"config key {key!r} takes text, not {value!r}") if text else str(value)

    def switch(key, stores=True):
        """Default of a flag that stores `stores`; config true means the flag is given."""
        read.add(key)
        value = config.get(key, False)
        if not isinstance(value, bool):
            return ValueError(f"config key {key!r} is a switch and takes true or false, not {value!r}")
        return value if stores else not value

    parser = argparse.ArgumentParser(prog="sampenopt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sampenopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys, overrides) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON or key=value config file; flags override it")
        p.add_argument("--output", default="-", help="envelope JSON path, '-' for stdout")
        for key in ["seed", *keys]:
            flag, kw = _OPTIONS[key]
            kw = {**kw, **overrides.get(key, {})}
            if kw.get("required"):
                kw.pop("default", None)
            elif "action" in kw:
                kw["default"] = switch(key, kw["action"] == "store_true")
            elif "default" in kw:
                kw["default"] = d(key, kw["default"], text="type" not in kw, choices=kw.get("choices"))
            if flag.startswith("--"):
                kw.setdefault("dest", key)
            p.add_argument(flag, **kw)
        p.set_defaults(fn=globals()["_cmd_" + name.replace("-", "_")])

    unknown = sorted(set(config) - read)
    if unknown:
        keys = ", ".join(map(repr, unknown))
        raise ValueError(f"unknown config key(s) {keys}; keys are option destinations such as b, t_tilde, lam")
    return parser


def _check_parsed(args) -> None:
    """Raise a bad config value the command reads, or ValueError for a non-finite float option."""
    for key, value in sorted(vars(args).items()):
        if isinstance(value, ValueError):
            raise value
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"option {key!r} must be finite, got {value}")


def _config_echo(args) -> dict:
    skip = {"fn", "config", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _check_outputs(args) -> None:
    """Reject an output path that is a directory or in a missing one before any work; _writing guards each write."""
    for path in (getattr(args, "out", None), getattr(args, "csv", None), args.output):
        if path not in (None, "-"):
            if Path(path).is_dir():  # the write would fail with this message, but only after all the work
                raise ValueError(f"cannot write {path}: Is a directory")
            with _writing(path):
                Path(path).parent.stat()


def _run(argv: list[str]) -> None:
    """Parse argv, run its command and write the envelope; every failure is raised for main to report."""
    # the config file must be read before defaults are bound; the pre-parser
    # accepts both --config FILE and --config=FILE
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    args = build_parser(_load_config_file(pre.parse_known_args(argv)[0].config)).parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    _check_parsed(args)
    _check_outputs(args)
    payload, timings = args.fn(args)
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": _config_echo(args),
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "timings": timings,
        "payload": payload,
    }
    try:
        text = json.dumps(envelope, indent=2, allow_nan=False, sort_keys=True)
    except ValueError as exc:  # a NaN or infinity in the payload
        raise ComputationError(str(exc)) from exc
    if args.output == "-":
        print(text)
        return
    with _writing(args.output):
        Path(args.output).write_text(text + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        _run(list(sys.argv[1:] if argv is None else argv))
        return 0
    except DataError as exc:
        kind, code, error = "data", _DATA_EXIT, exc
    except (ComputationError, MemoryError) as exc:
        kind, code, error = "computation", _COMPUTE_EXIT, exc
    except (ValueError, OSError, argparse.ArgumentError) as exc:
        kind, code, error = "config", _USAGE_EXIT, exc
    print(f"sampenopt: {kind} error: {str(error) or type(error).__name__}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
