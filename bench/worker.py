"""One benchmark process: set up a workload, then time it as a closed loop.

``run.py`` starts this script once per set-up measurement and once for the
measured run; it is not meant to be run by hand.  The result is written as
JSON to ``--result``.

With ``--trace 1`` the untraced pass is followed by a traced pass over the
same op sequence; the trace wrappers are installed only for the second pass.
"""

import time

_t = time.perf_counter()
import landsel.cli  # noqa: E402  (timed: this is the import every caller pays)

IMPORT_S = time.perf_counter() - _t

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(wl, seconds: float) -> dict:
    """Ops 0, 1, 2, ... back to back, in whole cycles of the workload's op
    sequence, so every pass has the same mix of inputs.  The pass ends at the
    cycle boundary nearest to ``seconds``, and runs at least one cycle."""
    latencies: list[float] = []
    failures: dict[int, str] = {}
    start = cycle_start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            output = wl.run(i)
        except Exception as e:  # an op that raises is a failed op, not a crash
            latencies.append(time.perf_counter() - t0)
            failures[i] = f"op {i}: {type(e).__name__}: {e}"
        else:
            latencies.append(time.perf_counter() - t0)
            try:
                problem = wl.check(i, output)
            except Exception as e:
                problem = f"op {i}: verification raised {type(e).__name__}: {e}"
            if problem is not None:
                failures[i] = problem
        i += 1
        if i % wl.cycle == 0:
            now = time.perf_counter()
            if now - start + (now - cycle_start) / 2 >= seconds:
                break
            cycle_start = now
    return {
        "ops": i,
        "elapsed_s": time.perf_counter() - start,
        "latencies": latencies,
        "failures": failures,
        "invalid_input_ops": [j for j in range(i) if not wl.valid(j)],
    }


def tail(latencies: list[float], percentile: float) -> dict:
    """Nearest-rank percentile, with the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return {"percentile": percentile, "value_s": ordered[rank - 1], "beyond": len(ordered) - rank,
            "samples": len(ordered)}


def blas_info() -> dict:
    info = {"version": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    # Keep the set-up's objects out of the collector's later full passes, as
    # they would be in a process that only runs the timed ops.
    gc.collect()
    gc.freeze()
    result = {"setup_s": time.monotonic() - args.spawned_at, "import_s": IMPORT_S}
    if not args.setup_only:
        plain = run_pass(wl, args.seconds)
        result["untraced"] = plain
        result["tail"] = tail(plain["latencies"], wl.tail_percentile)
        if args.trace:
            tracer = tracing.Tracer()
            if wl.in_process:
                tracer.counts["cli.import_s"] += IMPORT_S
            tracer.install()
            wl.tracer = tracer
            try:
                traced = run_pass(wl, args.seconds)
            finally:
                wl.tracer = None
                tracer.uninstall()
            overhead = (traced["ops"] / traced["elapsed_s"]) / (plain["ops"] / plain["elapsed_s"])
            result["traced"] = traced
            result["per_layer"] = tracing.layer_metrics(tracer, traced["ops"], overhead)
            result["spans"] = tracer.spans
            result["trace_missing"] = tracer.missing
        result["peak_rss_mib"] = peak_rss_mib()
        result["host"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": blas_info(),
        }
        result["p50_s"] = statistics.median(plain["latencies"])
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
