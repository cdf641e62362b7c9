"""duality-lab benchmark: one workload per fresh process, seeded, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: mc-diffusion, mc-jump, exact-oracle, verify-suite (see
perfbench/README.md).  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  Earlier lines print every metric with
its unit and sample count, and the environment.  ``--workload all`` runs
the four workloads one after the other.  Exit status is 0 when the run
completed, whether or not every op passed its reference check
(``"correct"`` says that), and non-zero when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = (5, 4)  # processes that only set up, before and after the run; with it, ten samples
RUN_DEADLINE_S = 170  # a workload run, probes included, ends within this or fails
RSE_TARGET = 1e-3


def _spec() -> dict:
    """Workload and metric names with their units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": tuple(w["name"] for w in spec["workloads"]),
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing program, crashed worker, timeout)."""


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: on a small shared machine a two-thread OpenBLAS waits
    # for whichever core another process holds, which made a 969-state expm
    # 2.3x slower and check commands up to 8x slower whenever anything else ran.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from err
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {' '.join(args)}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    mem_kb = 0
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "duality_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def _gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(raw: dict, setups: list[float]) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric that applies, as name -> (value, unit, samples)."""
    recs = raw["records"]
    plain = [r for r in recs if not r["traced"]]
    ok = [r for r in plain if r["error"] is None]
    times = [r["seconds"] for r in ok]
    out: dict[str, tuple[float, str, int]] = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "fail_rate": ((len(plain) - len(ok)) / len(plain), "ratio", len(plain)),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
    }
    if not ok:
        return out
    out["op_s.p50"] = (statistics.median(times), "s", len(times))
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        out["op_s.p90"] = (statistics.quantiles(times, n=10, method="inclusive")[-1], "s", len(times))
    mc = [r for r in ok if r["n_paths"]]
    if mc:
        out["paths_per_s"] = (statistics.median(r["n_paths"] / r["seconds"] for r in mc), "1/s", len(mc))
    # The gated timings are taken per input class and combined over classes
    # by geometric mean, so that every class counts once whatever its size.
    # Within a class they take the fastest op, not the median: the host has
    # slow phases of seconds to minutes that stretch every op 1.2-1.8x, and
    # the fastest op is the one they touched least.  A plain median over all
    # ops also sat between two classes on verify-suite and jumped between
    # them from run to run.
    by_class: dict[str, list[dict]] = {}
    for r in ok:
        by_class.setdefault(r["op"], []).append(r)
    fast = {op: min(r["seconds"] for r in rs) for op, rs in by_class.items()}
    out["op_s.class_min"] = (_gmean(fast.values()), "s", len(ok))
    # An exact op reaches 1e-3 relative accuracy in one call; an estimator
    # needs (rse / 1e-3)^2 times its own work.  The ops of a class share
    # their inputs, so their squared rse is pooled over the class.
    ttr = []
    for op, rs in by_class.items():
        rse2 = statistics.fmean(r["rse"] ** 2 for r in rs) if rs[0]["n_paths"] else RSE_TARGET**2
        ttr.append(fast[op] * rse2 / RSE_TARGET**2)
    out["time_to_rse_1e-3_s"] = (_gmean(ttr), "s", len(ok))
    return out


def per_layer(raw: dict, units: dict[str, str]) -> dict[str, tuple[float, str, int]]:
    recs = raw["records"]
    traced = [r["seconds"] for r in recs if r["traced"] and r["error"] is None]
    plain = [r["seconds"] for r in recs if not r["traced"] and r["error"] is None]
    layer = dict(raw["per_layer"])
    layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) if traced and plain else 0.0
    return {name: (layer[name], unit, len(traced)) for name, unit in units.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int, toy: bool, spec: dict) -> dict:
    out = HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    base = ["--workload", workload, "--seed", str(seed), "--out", str(out)] + (["--toy"] if toy else [])
    deadline = time.monotonic() + RUN_DEADLINE_S
    def probe() -> float:
        return _worker(base + ["--setup-only"], deadline)["setup_s"]

    # probes on both sides of the run, so that one slow phase of the host
    # does not hold every set-up sample
    setups = [probe() for _ in range(SETUP_PROBES[0])]
    raw = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups += [raw["setup_s"]] + [probe() for _ in range(SETUP_PROBES[1])]
    e2e = end_to_end(raw, setups)
    recs = raw["records"]
    failed = [r for r in recs if r["error"] is not None]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": dict(raw["environment"], **_machine()),
        "attempted": len(recs),
        "failed": len(failed),
        "failures": [f"{r['op']}: {r['error']}" for r in failed],
        "cli_verdict_failures": sum(1 for r in recs if r.get("cli_verdict_failed")),
        "end_to_end": e2e,
        "per_layer": per_layer(raw, spec["per_layer"]) if trace else {},
        "ops": recs,
    }
    if trace:
        result["trace_file"] = raw["trace_file"]
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _print_table(result: dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"attempted={result['attempted']}  failed={result['failed']}  "
          f"cli_3sigma_verdicts_failed={result['cli_verdict_failures']}")
    rows = list(result["end_to_end"].items()) + list(result["per_layer"].items())
    for name, (value, unit, n) in rows:
        print(f"  {name:<48} {value:>16.6g} {unit:<6} n={n}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("  environment: " + json.dumps(result["environment"], sort_keys=True))


def _gated(result: dict, spec: dict) -> dict:
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    source = result["per_layer"] if result["trace"] else result["end_to_end"]
    missing = sorted(set(wanted) - set(source))
    if missing:
        raise BenchmarkError(f"{result['workload']}: no value for {', '.join(missing)} (every op failed?)")
    return {name: {"value": source[name][0], "unit": unit} for name, unit in wanted.items()}


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=spec["workloads"] + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="tiny op sizes, for the harness self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "duality_lab" / "__init__.py").is_file():
        print(f"benchmark: no duality_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = spec["workloads"] if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            started = time.perf_counter()
            result = run_workload(name, args.seed, args.seconds, args.trace, args.toy, spec)
            _print_table(result)
            print(f"  wall: {time.perf_counter() - started:.1f} s")
            summary["correct"] = summary["correct"] and result["failed"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            gated = _gated(result, spec)
            if args.workload == "all":
                gated = {f"{name}/{metric}": value for metric, value in gated.items()}
            summary["metrics"].update(gated)
    except BenchmarkError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
