"""One benchmark process: set up a workload, time its iterations, check the outputs.

run.py starts this file in a fresh interpreter, once per set-up sample and
once for the measured run:

    python3 perfbench/worker.py '<json options>'

and reads the JSON object on the last line of its standard output. Set-up
time runs from the first statement of this file, before numpy or sampenopt
is imported, to the moment the workload's inputs exist.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import sampenopt.cli  # noqa: E402
from sampenopt import entropy, errors, ingest, optimizer, signal, stats, tpe  # noqa: E402
from scipy.special import ndtri  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REL_TOL = 1e-9  # recomputed objectives and entropies; same arithmetic gives equality


def _finite_or_none(v):
    return v if v is not None and math.isfinite(v) else None


def _checksum(obj) -> str:
    # repr keeps every digit of a float, so any change in a selected value shows
    text = json.dumps(obj, sort_keys=True, default=repr, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# Probe times when the host is quiet: about the 10th percentile of repeated
# runs on the shared 2-vCPU Xeon this benchmark was tuned on. Its speed swings
# by up to 2x as other tenants load it; the probes measure that swing.
SMALL_OPS_REF_S = 0.066
LARGE_ARRAY_REF_S = 0.075


def _slowdown(work, ref_s: float) -> tuple[float, float]:
    """(wall, cpu) time of work() as multiples of its quiet-machine time ref_s."""
    c0, w0 = time.process_time(), time.perf_counter()
    work()
    return (time.perf_counter() - w0) / ref_s, (time.process_time() - c0) / ref_s


def small_ops_probe() -> tuple[float, float]:
    """Slowdown of fixed interpreter-bound work shaped like one bootstrap replicate.

    Seed hashing, a fresh Generator, index draws and a 100 x 100 comparison,
    repeated 1600 times. It calls nothing in sampenopt.
    """
    x = np.linspace(-2.0, 2.0, 100)

    def work():
        for i in range(1600):
            g = np.random.default_rng(np.random.SeedSequence((i, 7, 3)))
            y = x[g.integers(0, 100, 100)]
            np.count_nonzero(np.abs(y[:, None] - y[None, :]) <= 0.2)

    return _slowdown(work, SMALL_OPS_REF_S)


def large_array_probe() -> tuple[float, float]:
    """Slowdown of fixed memory-bound work shaped like cp_sigma's overlap count.

    Pairwise int32 gaps and running minima over 1500 x 1500 arrays, eight
    times. It calls nothing in sampenopt.
    """
    i = np.arange(1500, dtype=np.int32) % 97
    j = (np.arange(1500, dtype=np.int32) * 7) % 101

    def work():
        for _ in range(8):
            gap = np.abs(i[:, None] - i[None, :])
            np.minimum(gap, np.abs(j[:, None] - i[None, :]), out=gap)
            np.minimum(gap, np.abs(j[:, None] - j[None, :]), out=gap)
            np.count_nonzero(gap <= 1)

    return _slowdown(work, LARGE_ARRAY_REF_S)


def _best_index(ys) -> int:
    finite = [(y, i) for i, y in enumerate(ys) if y is not None]
    return min(finite)[1]


def _check_selection(domain, psi, best_y, ys) -> list[str]:
    problems = []
    if not domain.contains(tpe.ParamVector(**psi)):
        problems.append(f"best_psi {psi} outside the search domain")
    finite = [y for y in ys if y is not None]
    if not finite or best_y != min(finite):
        problems.append(f"best_y {best_y!r} is not the minimum finite trial y")
    return problems


class SetSelect:
    """`sampenopt optimize` through the CLI on 10 raw AR(1) signals, T=20, B=100.

    r >= 0.2 keeps nearly every trial feasible, so the work per selection
    hardly depends on the seed: an infeasible trial stops at its first
    failing signal and would make the cost vary with the data.
    """

    probe = staticmethod(small_ops_probe)

    def __init__(self, seed: int, workdir: Path, corrupt: str | None):
        raw = signal.gen_signal_set("ar1", 10, 100, seed=seed, sigma=0.1, phi=0.9, normalize_signals=False)
        self.csv = workdir / "set_select.csv"
        ingest.write_signals(self.csv, raw, fmt="long")
        self.out = workdir / "envelope.json"
        self.argv = ["optimize", "--input", str(self.csv), "--lambda", "0.1", "--T", "20", "--B", "100",
                     "--r-lo", "0.2", "--seed", str(seed), "--output", str(self.out)]
        self.corrupt = corrupt

    def run_once(self):
        return sampenopt.cli.main(self.argv)

    def collect(self, code):
        envelope = json.loads(self.out.read_text()) if code == 0 else None
        self.out.unlink(missing_ok=True)
        if envelope is not None and self.corrupt == "best_y":
            envelope["payload"]["best_y"] *= 1.0 + 1e-6
        return {"code": code, "envelope": envelope}

    def selection(self, out):
        p = out["envelope"]["payload"]
        return {
            "best_psi": p["best_psi"],
            "best_y": p["best_y"],
            "ys": [h["y"] for h in p["history"]],
            "entropies": [s["entropy"]["value"] for s in p["signals"]],
        }

    def check(self, out):
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        import jsonschema

        schemas = ROOT / "src" / "sampenopt" / "schemas"
        env_schema = json.loads((schemas / "envelope.schema.json").read_text())
        payloads = json.loads((schemas / "payloads.schema.json").read_text())
        payload_schema = dict(payloads["$defs"]["optimize"], **{"$defs": payloads["$defs"]})
        env = out["envelope"]
        try:
            jsonschema.validate(env, env_schema)
            jsonschema.validate(env["payload"], payload_schema)
        except jsonschema.ValidationError as exc:
            return [f"schema: {exc.message}"]
        cfg, sel = env["config"], self.selection(out)
        domain = tpe.ParamDomain(u=cfg["u"], r_bounds=(cfg["r_lo"], cfg["r_hi"]),
                                 q_bounds=(cfg["q_lo"], cfg["q_hi"]), fixed_q=cfg["fixed_q"])
        return _check_selection(domain, sel["best_psi"], sel["best_y"], sel["ys"])

    def check_once(self, out):
        cfg, sel = out["envelope"]["config"], self.selection(out)
        raw, _ = ingest.read_signals(self.csv)
        retained = stats.stationarity_pipeline(raw, cfg["alpha"]).retained_or_raise()
        ids = [r["id"] for r in out["envelope"]["payload"]["preprocess"] if r["retained"]]
        if ids != [x.id for x in retained]:
            return ["retained signal ids differ from the stationarity pipeline's"]
        idx = _best_index(sel["ys"])
        y = optimizer.objective_set(retained, tpe.ParamVector(**sel["best_psi"]), cfg["lam"], cfg["b"],
                                    cfg["seed"], trial_index=idx + 1)
        if not _same(y, sel["best_y"]):
            return [f"objective_set at the best trial gives {y!r}, best_y is {sel['best_y']!r}"]
        return []


class LongSearch:
    """optimize_single with a 200-trial budget and B=20 on one white-noise signal."""

    probe = staticmethod(small_ops_probe)

    def __init__(self, seed: int, workdir: Path, corrupt: str | None):
        self.x = signal.gen_signal_set("white_noise", 1, 100, seed=seed)[0]
        self.cfg = optimizer.OptimizerConfig(lam=1.0 / 3.0, b=20, t_tilde=200, seed=seed)
        self.corrupt = corrupt

    def run_once(self):
        return sampenopt.optimizer.optimize_single(self.x, self.cfg)

    def collect(self, res):
        best_y = res.best_y * (1.0 + 1e-6) if self.corrupt == "best_y" else res.best_y
        return {
            "best_psi": {"m": res.best_psi.m, "r": res.best_psi.r, "q": res.best_psi.q},
            "best_y": best_y,
            "ys": [_finite_or_none(r.y) for r in res.records],
            "entropies": [r.entropy for r in res.records],
        }

    def selection(self, out):
        return out

    def check(self, out):
        return _check_selection(self.cfg.domain, out["best_psi"], out["best_y"], out["ys"])

    def check_once(self, out):
        idx = _best_index(out["ys"])
        c = self.cfg
        y = optimizer.objective_single(self.x, tpe.ParamVector(**out["best_psi"]), c.lam, c.b, c.seed,
                                       trial_index=idx + 1)
        if not _same(y, out["best_y"]):
            return [f"objective_single at the best trial gives {y!r}, best_y is {out['best_y']!r}"]
        return []


def _oracle_counts(values, m: int, radii) -> dict:
    """Naive double loop: ordered match counts (B, A) at lengths m and m+1 for each radius."""
    x = [float(v) for v in values]
    nt = len(x) - m
    d_m, d_m1 = [], []
    for i in range(nt):
        for j in range(i + 1, nt):
            d = max(abs(x[i + k] - x[j + k]) for k in range(m))
            d_m.append(d)
            d_m1.append(max(d, abs(x[i + m] - x[j + m])))
    return {r: (2 * sum(d <= r for d in d_m), 2 * sum(d <= r for d in d_m1)) for r in radii}


class RadiusGrid:
    """Counting-variance baselines at m=1 on the default radius grid, plus standard parameters."""

    ORACLE_RADII = (0.10, 0.20, 0.50, 1.00)
    probe = staticmethod(large_array_probe)

    def __init__(self, seed: int, workdir: Path, corrupt: str | None):
        # each signal is a seeded shuffle of the same 100 normal scores: white noise whose
        # match counts K(r), and so cp_sigma's O(K^2) work, hardly depend on the seed
        scores = ndtri((np.arange(1, 101) - 0.5) / 100)
        self.s = signal.SignalSet(tuple(
            signal.normalize(signal.Signal(f"scores_{i}", np.random.default_rng([seed, i]).permutation(scores)))
            for i in range(5)
        ))
        self.corrupt = corrupt

    def run_once(self):
        b = sampenopt.baselines
        return (b.sampeneff_select(self.s, 1), b.convergence_select(self.s, 1),
                b.standard_params_eval(self.s), b.standard_params_eval(self.s, fuzzy=True))

    def collect(self, results):
        out = [
            {"method": r.method, "m_star": r.m_star, "r_star": r.r_star, "criterion": r.criterion,
             "entropies": list(r.entropies), "ses": list(r.ses), "curve": [list(p) for p in r.curve]}
            for r in results
        ]
        if self.corrupt == "r_star":
            out[0]["r_star"] = round(out[0]["r_star"] + 0.01, 10)
        return out

    def selection(self, out):
        keys = ("method", "m_star", "r_star", "criterion", "entropies", "ses")
        return [{k: r[k] for k in keys} for r in out]

    def check(self, out):
        problems = []
        for r in out:
            if r["method"] in ("sampeneff", "convergence"):
                at = [v for rad, v in r["curve"] if rad == r["r_star"]]
                if len(at) != 1 or at[0] != r["criterion"]:
                    problems.append(f"{r['method']}: r*={r['r_star']} is not a curve point with its criterion")
                if r["method"] == "sampeneff" and r["criterion"] != min(v for _, v in r["curve"]):
                    problems.append("sampeneff: criterion is not the curve minimum")
            elif (r["m_star"], r["r_star"]) != (2, 0.20):
                problems.append(f"{r['method']}: not at the standard parameters")
            if len(r["entropies"]) != self.s.n or len(r["ses"]) != self.s.n:
                problems.append(f"{r['method']}: per-signal outputs do not cover the set")
        return problems

    def check_once(self, out):
        problems = []
        for r in out:
            p = entropy.SampEnParams(m=r["m_star"], r=r["r_star"])
            for x, e, se in zip(self.s, r["entropies"], r["ses"]):
                if r["method"] == "fuzzen":
                    want_e, want_se = entropy.fuzzen(x, p.m, p.r), None
                else:
                    want_e = _finite_or_none(entropy.sampen(x, p).value)
                    try:
                        want_se = entropy.counting_se(x, p)
                    except errors.UndefinedEntropy:
                        want_se = None
                if not (_same(e, want_e) and _same(se, want_se)):
                    problems.append(f"{r['method']}: {x.id} outputs differ from a recomputation at r*")
        radii = sorted({*self.ORACLE_RADII, out[0]["r_star"], out[1]["r_star"]})
        for x in self.s:
            for m in (1, 2):
                want = _oracle_counts(x.values, m, radii)
                for rad in radii:
                    p = entropy.SampEnParams(m=m, r=rad)
                    c = entropy.count_matches(x, p)
                    got = (c.b_count + (2 if self.corrupt == "match_count" else 0), c.a_count)
                    if got != want[rad]:
                        problems.append(f"count_matches{(x.id, m, rad)} = {got}, oracle {want[rad]}")
                        continue
                    if got[1] == 0:
                        continue  # cp_sigma raises for CP = 0; the counts above already match
                    cp, _ = entropy.cp_sigma(x, p)
                    if cp != got[1] / got[0]:
                        problems.append(f"cp_sigma{(x.id, m, rad)} CP {cp!r} != A/B {got[1] / got[0]!r}")
        return problems


WORKLOADS = {"set_select": SetSelect, "radius_grid": RadiusGrid, "long_search": LongSearch}


def _measure(wl, run_once, seconds: float):
    """Run iterations until the next one would end past `seconds`.

    Returns (walls, cpus, probes, outputs). Only run_once is timed, and
    wl.collect turns its result into the checked output. The workload's
    probe runs before the first iteration and after each one, so
    iteration i lies between probes i and i + 1.
    """
    walls, cpus, outs, probes = [], [], [], [wl.probe()]
    start = time.perf_counter()
    while True:
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            raw = run_once()
        except Exception as exc:  # a raising iteration is a failed one and ends the run
            raw = exc
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        if not isinstance(raw, Exception):
            try:
                raw = wl.collect(raw)
            except Exception as exc:
                raw = exc
        outs.append(raw)
        probes.append(wl.probe())
        if isinstance(raw, Exception) or time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, cpus, probes, outs


def _judge(wl, outs) -> tuple[list[bool], str | None, list[str]]:
    """Per-iteration failure flags, the selection checksum and the problems found.

    Every output gets the cheap checks; the first that passes them gets the
    expensive ones (oracles, recomputation), and every other output must
    carry the same selection checksum.
    """
    problems, failed, sums = [], [], []
    for out in outs:
        found = [f"raised {type(out).__name__}: {out}"] if isinstance(out, Exception) else wl.check(out)
        problems.extend(found)
        failed.append(bool(found))
        sums.append(None if found else _checksum(wl.selection(out)))
    if all(failed):
        return failed, None, problems
    first = failed.index(False)
    once = wl.check_once(outs[first])
    if once:
        return [True] * len(outs), None, problems + once
    ref = sums[first]
    for i, s in enumerate(sums):
        if s is not None and s != ref:
            failed[i] = True
            problems.append(f"iteration {i} selection checksum {s} differs from {ref}")
    return failed, ref, problems


def main() -> int:
    opts = json.loads(sys.argv[1])
    workdir = Path(opts["workdir"])
    wl = WORKLOADS[opts["workload"]](opts["seed"], workdir, opts.get("corrupt"))
    setup = {"setup_s": time.perf_counter() - _T0, "setup_slowdown": small_ops_probe()[0]}
    if opts["mode"] == "setup":
        print(json.dumps(setup))
        return 0
    seconds = opts["seconds"]
    result = dict(setup, module_file=sampenopt.__file__)
    if opts["trace"]:
        import tracer

        walls, cpus, probes, outs = _measure(wl, wl.run_once, seconds / 2)
        t = tracer.Tracer()

        def run_traced():
            t.iteration += 1
            return wl.run_once()

        t.install()
        try:
            twalls, _, tprobes, touts = _measure(wl, run_traced, seconds / 2)
        finally:
            t.uninstall()
        t.write_spans(opts["spans"])
        result.update(traced_wall_s=twalls, traced_probes=tprobes, layers=t.layer_table(), counters=t.counters,
                      traced_iterations=len(twalls))
        outs = outs + touts
    else:
        walls, cpus, probes, outs = _measure(wl, wl.run_once, seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, checksum, problems = _judge(wl, outs)
    result.update(wall_s=walls, cpu_s=cpus, probes=probes, failed=failed, checksum=checksum, problems=problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
