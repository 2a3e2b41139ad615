"""landsel benchmark: four workloads, end-to-end metrics, traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads: invariance_sweep, large_designs, mixed_cli, selection (see
BENCHMARK.json for why each one is there).  Load is a closed loop with one
client: one op at a time, and at most one child process at a time.

The benchmark sets up ``SETUP_RUNS`` times, each in a fresh process, and
reports the median as ``setup_s``; the last of those processes then runs the
timed passes.  A pass runs whole cycles of the workload's op sequence and
ends at the cycle boundary nearest to ``--seconds``.  ``--trace 0`` prints
the end-to-end metrics.  ``--trace 1`` runs the same untraced pass, then a
traced pass over the same ops, and prints the per-layer metrics.  The last
line of standard output is the result JSON; the full record (host, tail
percentile, latencies, failures, spans) is written under ``.bench_results/``.
Exits 0 with a result, or non-zero without one.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("invariance_sweep", "large_designs", "mixed_cli", "selection")
SETUP_RUNS = 2
TIME_LIMIT_S = 170  # the whole command, including every set-up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def end_to_end(result: dict, setup_s: float) -> dict:
    plain = result["untraced"]
    ops = plain["ops"]
    values = {
        "ops_per_s": (ops / plain["elapsed_s"], "1/s"),
        "op_p50_ms": (result["p50_s"] * 1000.0, "ms"),
        "op_tail_ms": (result["tail"]["value_s"] * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
        "ok_rate": ((ops - len(plain["failures"])) / ops, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the sources always
    (benchmark checkouts are not git repositories)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def run_worker(args, index: int, setup_only: bool, deadline: float) -> dict:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    env = dict(os.environ)
    # One BLAS thread: with two threads on a shared two-core host, every
    # stolen time slice stalls both, and run-to-run times spread widely.
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + inherited)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--result", str(result_path)]
    if setup_only:
        command.append("--setup-only")
    try:
        # Its own process group, so a timeout also stops a landsel child.
        proc = subprocess.Popen(command + ["--spawned-at", repr(time.monotonic())], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError("worker exceeded the time limit") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-3000:]}")
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "landsel" / "__init__.py").is_file():
        print(f"bench: no landsel sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Byte-compile up front so that no run's set-up pays for it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        setups = [run_worker(args, k, True, deadline)["setup_s"] for k in range(SETUP_RUNS - 1)]
        result = run_worker(args, SETUP_RUNS - 1, False, deadline)
    except RuntimeError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    passes = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    # A malformed-input op that is not refused with exit 2 counts as failed
    # but does not make the outputs incorrect; any other failure does.
    wrong = [msg for p in passes for i, msg in p["failures"].items()
             if int(i) not in set(p["invalid_input_ops"])]
    trace_check = None
    if args.trace:
        overlap = min(p["ops"] for p in passes)
        outcomes = [{int(i) for i in p["failures"] if int(i) < overlap} for p in passes]
        trace_check = outcomes[0] == outcomes[1]
        if not trace_check:
            wrong.append("tracing changed which ops failed")
    metrics = result["per_layer"] if args.trace else end_to_end(result, statistics.median(setups))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "host": {**result["host"], "nproc": os.cpu_count(), **source_identity()},
        "setup_runs_s": setups,
        "import_s": result["import_s"],
        "tail": {k: v for k, v in result["tail"].items() if k != "value_s"},
        "passes": [{k: p[k] for k in ("ops", "elapsed_s", "failures", "latencies")} for p in passes],
        "trace_outcomes_identical": trace_check,
        "trace_missing": result.get("trace_missing"),
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(result["spans"]))

    for msg in [m for p in passes for m in p["failures"].values()][:10]:
        print(f"failed: {msg}")
    print(json.dumps({"host": record["host"], "tail": record["tail"], "setup_runs_s": setups}))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
