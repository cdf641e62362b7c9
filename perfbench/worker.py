"""One workload in one fresh process; run by run.py, not by hand.

Times set-up (importing duality_lab and building the first op), then runs
rounds of ops until the requested seconds have passed.  With ``--trace 1``
each op runs twice with the same inputs, once plain and once under the span
tracer, alternating which goes first.  Prints one JSON object of raw
measurements on its last line of output.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import duality_lab  # noqa: E402
from duality_lab import cli  # noqa: E402,F401  (the CLI's import cost is set-up too)

import workloads  # noqa: E402


def _run_op(op, traced: bool, tracer, op_index: int) -> dict:
    if traced:
        tracer.install(op_index)
    error = None
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as err:  # noqa: BLE001 - a raising op is a failed op, recorded and counted
        result, error = None, f"raised {err!r}"
    seconds = time.perf_counter() - start
    if traced:
        tracer.uninstall()
    if error is None:
        error = op.check(result)
    if traced and error is None:
        tracer.check_op(op.n_paths, op.gen_sizes, op.cli_calls)
    record = {"op": op.label, "seconds": seconds, "traced": traced, "error": error, "n_paths": op.n_paths}
    if error is None and op.n_paths:
        record["rse"] = op.outcome["se"] / abs(op.outcome["mean"])
        record["cli_verdict_failed"] = op.outcome.get("cli_verdict_failed", False)
    return record


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    here = Path(duality_lab.__file__).resolve()
    if ROOT / "src" not in here.parents:
        print(f"duality_lab imported from {here}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = Path(args.out)
    rounds = workloads.ROUNDS[args.workload](args.seed, out, args.toy)
    ops = next(rounds)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(duality_lab)
    records = []
    pairs = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is None:
                records.append(_run_op(op, False, None, len(records)))
                continue
            order = (False, True) if pairs % 2 == 0 else (True, False)
            for traced in order:
                records.append(_run_op(op, traced, tracer, pairs))
            pairs += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = next(rounds)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "environment": _environment(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.summary(pairs)
        trace_file = out / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
