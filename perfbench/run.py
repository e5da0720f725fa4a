"""sampenopt benchmark: three selection workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload set_select --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload long_search --trace 1   # per-layer run
    python3 perfbench/run.py --self-test          # corrupted outputs must fail

Each workload runs in fresh single-process interpreters (worker.py) with the
numeric libraries' thread pools pinned to one thread: one measured process
plus set-up-only processes, so set-up time is a median. End-to-end times are
divided by the slowdown a fixed probe measures around them (see README.md).
Results, with an environment block, go to perfbench/out/; the last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}. Metric names and units are declared in BENCHMARK.json at the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

from tracer import RATIOS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("set_select", "radius_grid", "long_search")
SETUP_SAMPLES = 5  # set-up is timed in the measured process and in four set-up-only processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SELF_TEST_CASES = (("set_select", "best_y"), ("long_search", "best_y"), ("radius_grid", "r_star"),
                   ("radius_grid", "match_count"))


class BenchError(Exception):
    """The benchmark itself could not run (missing source, crashed worker)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def environment() -> dict:
    child_env = _child_env()
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "sampenopt").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {k: child_env[k] for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def _worker(opts: dict, timeout: float, importtime: bool = False) -> tuple[dict, str]:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(HERE / "worker.py"), json.dumps(opts)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{opts['workload']}: worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{opts['workload']}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), proc.stderr


def _import_times(stderr: str) -> dict:
    """Cumulative seconds of `import sampenopt` and `import scipy.signal` from -X importtime."""
    cum = {}
    for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)", stderr):
        cum.setdefault(m.group(2), int(m.group(1)) / 1e6)
    return {"import.sampenopt_s": cum.get("sampenopt", 0.0), "import.scipy_signal_s": cum.get("scipy.signal", 0.0)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, corrupt: str | None) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    opts = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "corrupt": corrupt,
            "workdir": str(workdir), "spans": str(OUT / f"spans-{name}-s{seed}.csv.gz")}
    try:
        setups, imports = [], []
        for _ in range(SETUP_SAMPLES - 1):
            res, err = _worker(dict(opts, mode="setup"), timeout=120, importtime=trace)
            setups.append(res)
            imports.append(_import_times(err))
        res, _ = _worker(dict(opts, mode="measure"), timeout=seconds + 150)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if Path(res["module_file"]).resolve().parent != (ROOT / "src" / "sampenopt").resolve():
        raise BenchError(f"worker imported sampenopt from {res['module_file']}, not from this checkout")
    setups.append(res)
    res["setup_samples"] = [r["setup_s"] for r in setups]
    res["setup_slowdowns"] = [r["setup_slowdown"] for r in setups]
    res["import"] = {k: statistics.median(d[k] for d in imports) for k in imports[0]} if trace else None
    return res


def _scaled_median(samples: list, probes: list, k: int) -> float:
    """Median of the iteration times, each divided by the mean slowdown of the probes either side of it.

    probes holds (wall, cpu) slowdowns; k picks wall (0) or cpu (1).
    """
    slow = [p[k] for p in probes]
    return statistics.median(x * 2.0 / (a + b) for x, a, b in zip(samples, slow, slow[1:]))


def end_to_end(res: dict) -> dict:
    return {
        "wall_s": _scaled_median(res["wall_s"], res["probes"], 0),
        "cpu_s": _scaled_median(res["cpu_s"], res["probes"], 1),
        "setup_s": statistics.median(x / d for x, d in zip(res["setup_samples"], res["setup_slowdowns"])),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict:
    out = {}
    for fn, row in res["layers"].items():
        for k, v in row.items():
            out[f"{fn}.{k}"] = v
    c, n = res["counters"], res["traced_iterations"]
    for name, (num, base) in RATIOS.items():
        out[name] = c[num] / c[base] if c[base] else 0.0
        out[base] = c[base] / n
    out["entropy.count_matches.pairs"] = c["entropy.count_matches.pairs"] / n
    cm_self = res["layers"]["entropy.count_matches"]["self_s"]
    out["entropy.count_matches.pairs_per_s"] = out["entropy.count_matches.pairs"] / cm_self if cm_self else 0.0
    out["trace.wall_s"] = _scaled_median(res["traced_wall_s"], res["traced_probes"], 0)
    out["trace.untraced_wall_s"] = _scaled_median(res["wall_s"], res["probes"], 0)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out.update(res["import"])
    return out


def _print_block(name: str, metrics: dict, units: dict, res: dict, failed: int, attempted: int) -> None:
    print(f"== {name}: {len(res['wall_s'])} timed iterations, {len(res['setup_samples'])} set-up samples, "
          f"checksum {res['checksum']}")
    for k, v in metrics.items():
        print(f"  {k:44s} {v:14.6g} {units[k]}")
    print(f"  {'failed_frac':44s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    slowdown = statistics.median(p[0] for p in res["probes"])
    print(f"  unscaled medians: wall {statistics.median(res['wall_s']):.6g} s, cpu "
          f"{statistics.median(res['cpu_s']):.6g} s, setup {statistics.median(res['setup_samples']):.6g} s; "
          f"median probe slowdown {slowdown:.4g}")
    for p in res["problems"]:
        print(f"  problem: {p}")
    if res.get("layers"):
        wall = statistics.median(res["traced_wall_s"])
        print(f"  layer shares of the traced iteration ({wall:.3f} s):")
        for fn, row in sorted(res["layers"].items(), key=lambda kv: -kv[1]["total_s"]):
            if row["calls"]:
                print(f"    {fn:34s} calls {row['calls']:>9.0f}  total {row['total_s'] / wall:7.1%}"
                      f"  self {row['self_s'] / wall:7.1%}")


def self_test() -> int:
    """Each corrupted output must trip failed > 0 and a nonzero exit."""
    ok = True
    for name, case in SELF_TEST_CASES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seconds", "1", "--corrupt", case]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        tripped = proc.returncode != 0 and last.get("failed", 0) > 0
        ok &= tripped
        print(f"self-test {name}/{case}: exit {proc.returncode}, failed {last.get('failed')}/"
              f"{last.get('attempted')} -> {'tripped' if tripped else 'NOT TRIPPED'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    # a terminated run raises SystemExit, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (held-out seed for claims: 2)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    ap.add_argument("--corrupt", choices=sorted({c for _, c in SELF_TEST_CASES}),
                    help="corrupt the outputs before checking (checker self-test)")
    ap.add_argument("--self-test", action="store_true", help="check that corrupted outputs are caught")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sampenopt" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} lacks src/sampenopt or BENCHMARK.json", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.corrupt)
            metrics = per_layer(res) if args.trace else end_to_end(res)
            if set(metrics) != set(units):
                raise BenchError(f"emitted metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
            failed, attempted = sum(res["failed"]), len(res["failed"])
            _print_block(name, metrics, units, res, failed, attempted)
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "corrupt": args.corrupt, "environment": env, "checksum": res["checksum"],
                      "failed_frac": failed / attempted, "metrics": metrics, "samples": res}
            tag = f"-corrupt-{args.corrupt}" if args.corrupt else ""
            (OUT / f"{name}-s{args.seed}-trace{args.trace}{tag}.json").write_text(json.dumps(record, indent=1))
            summary["correct"] &= failed == 0
            summary["attempted"] += attempted
            summary["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}."
            for k in sorted(metrics):
                summary["metrics"][prefix + k] = {"value": metrics[k], "unit": units[k]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
