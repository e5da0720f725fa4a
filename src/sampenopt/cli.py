"""Command-line entry point.

Subcommands: optimize, estimate, compare, preprocess, baseline, synth,
varbench, compare-methods. Every run emits a JSON envelope (schema_version,
resolved config, timestamps, payload) to --output (default stdout); some
commands additionally write CSV files. Exit codes: 0 success, 2 usage or
config error, 3 data error, 4 computation infeasible.

All stochastic commands take --seed (default 0) and are deterministic
given (input bytes, flags, seed); only the envelope timestamps and the
"timings" block vary between runs. A --config file (JSON object or
key=value lines) supplies defaults that explicit flags override; its keys
are option destinations (b, t_tilde, lam, no_preprocess, ...), and a key
that no subcommand reads is a config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import ar_order_m, convergence_select, sampeneff_select, standard_params_eval
from .bootstrap import BootstrapConfig, bootstrap_sampen, bootstrap_se, mse as bootstrap_mse
from .entropy import SampEnParams, fuzzen, sampen
from .errors import ComputationError, DataError, EmptySurvivorSet
from .experiments import MethodComparisonConfig, VarBenchConfig, estimator_error, method_comparison
from .ingest import read_signals, write_signals
from .optimizer import OptimizerConfig, optimize_set
from .rng import child_seed
from .signal import SignalSet, gen_signal_set, normalize
from .stats import mann_whitney_u, stationarity_pipeline, two_class_split
from .tpe import ParamDomain

SCHEMA_VERSION = "1.0"

_USAGE_EXIT = 2
_DATA_EXIT = 3
_COMPUTE_EXIT = 4


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ValueError("config JSON must be an object")
        return {str(k).replace("-", "_"): v for k, v in loaded.items()}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        raw = raw.strip()
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        out[key.strip().replace("-", "_")] = val
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


def _domain_from(args) -> ParamDomain:
    return ParamDomain(
        u=args.u,
        r_bounds=(args.r_lo, args.r_hi),
        q_bounds=(args.q_lo, args.q_hi),
        fixed_q=args.fixed_q,
    )


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        lam=args.lam,
        b=args.b,
        t_tilde=args.t_tilde,
        t_init=args.t_init,
        domain=_domain_from(args),
        seed=args.seed,
    )


def _psi_dict(psi) -> dict:
    return {"m": psi.m, "r": psi.r, "q": psi.q}


def _sampen_records(s, params: SampEnParams, q: float | None, b: int, seed: int, tag: int) -> list[dict]:
    """Per-signal entropy with bootstrap SE/MSE; signal i draws from the stream (seed, tag, i).

    With q None there is no bootstrap, and each record carries the match
    counts bm, am and cp instead.
    """
    out = []
    for i, x in enumerate(s):
        if q is None:
            res = sampen(x, params)
            out.append({"id": x.id, "label": x.label, "entropy": _entropy_state(res.value),
                        "bm": res.bm, "am": res.am, "cp": res.cp})
            continue
        est = bootstrap_sampen(x, params, BootstrapConfig(q=q, b=b, seed=child_seed(seed, tag, i)))
        out.append({
            "id": x.id,
            "label": x.label,
            "entropy": _entropy_state(est.original.value),
            "bootstrap_se": bootstrap_se(est) if est.feasible else None,
            "bootstrap_mse": bootstrap_mse(est) if est.feasible else None,
        })
    return out


def _preprocess_records(report) -> list[dict]:
    return [
        {"id": r.signal_id, "p_value": r.p_value, "adjusted_p": r.adjusted_p, "retained": r.retained, "reason": r.reason}
        for r in report.records
    ]


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
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
    s = _read_input(args)
    if args.fuzzen:
        records = [
            {"id": x.id, "label": x.label, "entropy": _entropy_state(fuzzen(x, args.m, args.r, args.eta))} for x in s
        ]
        payload = {"measure": "fuzzen", "m": args.m, "r": args.r, "eta": args.eta, "signals": records}
        return payload, {}
    records = _sampen_records(s, SampEnParams(m=args.m, r=args.r), args.q, args.b, args.seed, 0)
    payload = {"measure": "sampen", "m": args.m, "r": args.r, "q": args.q, "signals": records}
    return payload, {}


def _cmd_optimize(args) -> tuple[dict, dict]:
    s, _ = read_signals(args.input)
    preprocess_records = None
    if args.preprocess:
        report = stationarity_pipeline(s, args.alpha)
        preprocess_records = _preprocess_records(report)
        s = report.retained_or_raise()
    else:
        s = _normalized(s)
    result = optimize_set(s, _optimizer_config(args))
    best = result.best_psi
    history = [
        {"psi": _psi_dict(rec.psi), "y": (rec.y if math.isfinite(rec.y) else None), "feasible": rec.feasible}
        for rec in result.history
    ]
    payload = {
        "best_psi": _psi_dict(best),
        "best_y": result.best_y,
        "n_trials": len(result.history),
        "history": history,
        "signals": _sampen_records(s, SampEnParams(m=best.m, r=best.r), best.q, args.b, args.seed, 3),
    }
    if preprocess_records is not None:
        payload["preprocess"] = preprocess_records
    return payload, {}


def _cmd_compare(args) -> tuple[dict, dict]:
    s = _read_input(args)
    label_a, label_b, group_a, group_b = two_class_split(s)
    optimized = None
    if args.optimize:
        result = optimize_set(s, _optimizer_config(args))
        m, r, q = result.best_psi.m, result.best_psi.r, result.best_psi.q
        optimized = {"best_psi": _psi_dict(result.best_psi), "best_y": result.best_y}
    else:
        m, r, q = args.m, args.r, args.q
    params = SampEnParams(m=m, r=r)

    def class_values(group, tag):
        recs = _sampen_records(group, params, q, args.b, args.seed, tag)
        vals = [rec["entropy"]["value"] for rec in recs if rec["entropy"]["state"] == "finite"]
        return vals, [rec["bootstrap_se"] for rec in recs if rec.get("bootstrap_se") is not None]

    vals_a, ses_a = class_values(group_a, 0)
    vals_b, ses_b = class_values(group_b, 1)
    comparison = mann_whitney_u(vals_a, vals_b, args.alternative)
    payload = {
        "m": m,
        "r": r,
        "q": q,
        "classes": [label_a, label_b],
        "n_finite": [len(vals_a), len(vals_b)],
        "entropies": {label_a: vals_a, label_b: vals_b},
        "medians": list(comparison.medians),
        "median_bootstrap_se": [
            _median_or_none(ses_a),
            _median_or_none(ses_b),
        ],
        "u_statistic": comparison.u_statistic,
        "p_value": comparison.p_value,
        "alternative": args.alternative,
    }
    if optimized is not None:
        payload["optimized"] = optimized
    return payload, {}


def _median_or_none(vals: list[float]) -> float | None:
    return float(np.median(vals)) if vals else None


def _cmd_preprocess(args) -> tuple[dict, dict]:
    s, fmt = read_signals(args.input)
    report = stationarity_pipeline(s, args.alpha)
    retained = report.retained
    if retained is None:
        raise EmptySurvivorSet("no signal passed the stationarity screen")
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
    s = _read_input(args)
    if args.method in ("standard", "fuzzen"):
        res = standard_params_eval(s, fuzzy=args.method == "fuzzen", eta=args.eta)
    else:
        m = args.m if args.m is not None else ar_order_m(s, args.p_max)
        if args.method == "sampeneff":
            res = sampeneff_select(s, m)
        else:
            res = convergence_select(s, m)
    payload = {
        "method": res.method,
        "m_star": res.m_star,
        "r_star": res.r_star,
        "criterion": res.criterion,
        "auto_m": args.method in ("sampeneff", "convergence") and args.m is None,
        "curve": [[r, v] for r, v in res.curve],
        "signals": [
            {"id": x.id, "label": x.label, "entropy": _entropy_state(e), "counting_se": se}
            for x, e, se in zip(s, res.entropies, res.ses)
        ],
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
            [[cfg.signal_type, cfg.n, cfg.r, repr(res.mean_reduction), repr(res.reduction_interval[0]),
              repr(res.reduction_interval[1])]],
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
        baseline_m=args.baseline_m,
        gaussian_draws=args.gaussian_draws,
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
            (
                [cfg.signal_type, r.method, repr(r.objective), r.m_star, repr(r.r_star),
                 "" if r.entropy_mean is None else repr(r.entropy_mean),
                 "" if r.entropy_std is None else repr(r.entropy_std), repr(r.seconds)]
                for r in rows
            ),
        )
        payload["csv_path"] = str(args.csv)
    return payload, timings


def _add_optimizer_flags(p: argparse.ArgumentParser, d) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=d("lam", 1 / 3), help="regularization weight on sqrt(r); raise it if the search sticks to the upper radius bound, relax it if the search sticks to the lower bound")
    p.add_argument("--B", dest="b", type=int, default=d("b", 100), help="bootstrap replicates per trial")
    p.add_argument("--T", dest="t_tilde", type=int, default=d("t_tilde", 100), help="total optimization trials (use 200 for real-data workflows)")
    p.add_argument("--T-init", dest="t_init", type=int, default=d("t_init", 10), help="random trials before TPE proposals")
    p.add_argument("--U", dest="u", type=int, default=d("u", 3), help="upper bound on embedding dimension m")
    p.add_argument("--r-lo", type=float, default=d("r_lo", 0.01))
    p.add_argument("--r-hi", type=float, default=d("r_hi", 1.0))
    p.add_argument("--q-lo", type=float, default=d("q_lo", 0.01))
    p.add_argument("--q-hi", type=float, default=d("q_hi", 0.99))
    p.add_argument("--fixed-q", type=float, default=d("fixed_q", None), help="pin the bootstrap success probability instead of optimizing it")


def build_parser(config: dict) -> argparse.ArgumentParser:
    """The full parser, with config values as defaults; ValueError names keys no option reads.

    A config value reaches argparse as a string, so the option's type
    converts or rejects it like a flag; an option with no type takes only
    text. Null is kept only where the option's default is None, and a switch
    takes only true or false. Any other value becomes a ValueError default,
    which main raises only if the command reads that option.
    """
    read = set()

    def d(key, fallback, text=False):
        read.add(key)
        if key not in config:
            return fallback
        value = config[key]
        if value is None:
            return None if fallback is None else ValueError(f"config key {key!r} cannot be null")
        if isinstance(value, str):
            return value
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

    def common(p):
        p.add_argument("--config", help="JSON or key=value config file; flags override it")
        p.add_argument("--output", default="-", help="envelope JSON path, '-' for stdout")
        p.add_argument("--seed", type=int, default=d("seed", 0))

    p = sub.add_parser("synth", help="generate a synthetic signal set as long CSV")
    common(p)
    p.add_argument("kind", choices=["white-noise", "ar1"])
    p.add_argument("--n", dest="n_signals", type=int, required=True, help="number of signals")
    p.add_argument("--len", dest="length", type=int, required=True, help="samples per signal")
    p.add_argument("--sigma", type=float, default=d("sigma", 1.0))
    p.add_argument("--phi", type=float, default=d("phi", 0.9))
    p.add_argument("--burn-in", type=int, default=d("burn_in", 500))
    p.add_argument("--label", default=d("label", None, text=True))
    p.add_argument("--normalize", action="store_true", default=switch("normalize"))
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("estimate", help="per-signal entropy at fixed (m, r), optional bootstrap SE")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=d("m", 2))
    p.add_argument("--r", type=float, default=d("r", 0.2))
    p.add_argument("--q", type=float, default=d("q", None), help="enable bootstrap SE/MSE with this success probability")
    p.add_argument("--B", dest="b", type=int, default=d("b", 100))
    p.add_argument("--fuzzen", action="store_true", default=switch("fuzzen"))
    p.add_argument("--eta", type=float, default=d("eta", 2.0))
    p.add_argument("--no-normalize", dest="normalize", action="store_false", default=switch("no_normalize", stores=False))
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("optimize", help="jointly select (m, r, q) for a signal set")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--no-preprocess", dest="preprocess", action="store_false", default=switch("no_preprocess", stores=False), help="skip the stationarity pipeline (signals are still normalized)")
    p.add_argument("--alpha", type=float, default=d("alpha", 0.05))
    _add_optimizer_flags(p, d)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("compare", help="compare entropy distributions of a two-class set")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=d("m", 2))
    p.add_argument("--r", type=float, default=d("r", 0.2))
    p.add_argument("--q", type=float, default=d("q", None))
    p.add_argument("--optimize", action="store_true", default=switch("optimize"), help="select (m, r, q) on the pooled set first")
    p.add_argument("--alternative", choices=["two-sided", "less", "greater"], default=d("alternative", "two-sided", text=True))
    p.add_argument("--no-normalize", dest="normalize", action="store_false", default=switch("no_normalize", stores=False))
    _add_optimizer_flags(p, d)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("preprocess", help="difference, normalize and ADF-screen a signal set")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, default=d("alpha", 0.05))
    p.add_argument("--out", required=True, help="retained-set CSV path (mirrors input format)")
    p.set_defaults(fn=_cmd_preprocess)

    p = sub.add_parser("baseline", help="run a baseline hyperparameter selection method")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["sampeneff", "convergence", "standard", "fuzzen"], required=True)
    p.add_argument("--m", type=int, default=d("m", None), help="fixed embedding dimension (default: AR-order heuristic)")
    p.add_argument("--p-max", type=int, default=d("p_max", 5), help="max AR order for the heuristic")
    p.add_argument("--eta", type=float, default=d("eta", 2.0))
    p.add_argument("--no-normalize", dest="normalize", action="store_false", default=switch("no_normalize", stores=False))
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("varbench", help="variance-estimator error benchmark")
    common(p)
    p.add_argument("--signal-type", choices=["white-noise", "ar1"], default=d("signal_type", "white-noise", text=True))
    p.add_argument("--len", dest="length", type=int, default=d("length", 100))
    p.add_argument("--r", type=float, default=d("r", 0.20))
    p.add_argument("--m", type=int, default=d("m", 1))
    p.add_argument("--q", type=float, default=d("q", None), help="default: 0.9 white noise, 0.5 AR(1)")
    p.add_argument("--B", dest="b", type=int, default=d("b", 100))
    p.add_argument("--n-population", type=int, default=d("n_population", 2000), help="full scale: 10000")
    p.add_argument("--n-subsample", type=int, default=d("n_subsample", 100))
    p.add_argument("--repeats", type=int, default=d("repeats", 5), help="full scale: 20")
    p.add_argument("--csv", default=d("csv", None, text=True), help="also write a summary CSV table")
    p.set_defaults(fn=_cmd_varbench)

    p = sub.add_parser("compare-methods", help="four-way method comparison on synthetic sets")
    common(p)
    p.add_argument("--signal-type", choices=["white-noise", "ar1"], default=d("signal_type", "white-noise", text=True))
    p.add_argument("--n", dest="n_signals", type=int, default=d("n_signals", 100))
    p.add_argument("--len", dest="length", type=int, default=d("length", 100))
    p.add_argument("--lambda", dest="lam", type=float, default=d("lam", None), help="default: 1/3 white noise, 1/10 AR(1)")
    p.add_argument("--B", dest="b", type=int, default=d("b", 100))
    p.add_argument("--T", dest="t_tilde", type=int, default=d("t_tilde", 100))
    p.add_argument("--T-init", dest="t_init", type=int, default=d("t_init", 10))
    p.add_argument("--U", dest="u", type=int, default=d("u", 3))
    p.add_argument("--baseline-m", type=int, default=d("baseline_m", 1))
    p.add_argument("--gaussian-draws", type=int, default=d("gaussian_draws", 10000))
    p.add_argument("--csv", default=d("csv", None, text=True))
    p.set_defaults(fn=_cmd_compare_methods)

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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the config file must be read before defaults are bound; the pre-parser
    # accepts both --config FILE and --config=FILE
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        parser = build_parser(_load_config_file(pre.parse_known_args(argv)[0].config))
    except (argparse.ArgumentError, OSError, ValueError) as exc:
        print(f"sampenopt: config error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    args = parser.parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    try:
        _check_parsed(args)
        payload, timings = args.fn(args)
    except DataError as exc:
        print(f"sampenopt: data error: {exc}", file=sys.stderr)
        return _DATA_EXIT
    except ComputationError as exc:
        print(f"sampenopt: computation error: {exc}", file=sys.stderr)
        return _COMPUTE_EXIT
    except ValueError as exc:
        print(f"sampenopt: config error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
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
    except ValueError as exc:
        print(f"sampenopt: computation error: {exc}", file=sys.stderr)
        return _COMPUTE_EXIT
    if args.output == "-":
        print(text)
    else:
        Path(args.output).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
