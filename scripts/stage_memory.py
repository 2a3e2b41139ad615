"""Print the peak memory of each pipeline stage on one seeded builtin design.

Each stage runs in a fresh Python process.  That process samples, evaluates
and preprocesses the design and builds its distance matrix, then runs the
stage three times: twice plain, after which it reads the peak resident set
size of the whole process (``ru_maxrss``), and once under ``tracemalloc``,
which gives the peak bytes that this one call allocated on top of what it
found.  The minor page faults (``ru_minflt``) of the second plain call show
per-call churn: a temporary that the allocator maps, or trims off the heap,
and returns to the system on every call faults its pages in each time.
The ``design`` row runs nothing: its ``ru_maxrss`` is the baseline once the
distance matrix exists.  The ``evaluate`` row evaluates the design as it was
sampled, before it had an objective.  The feature sets come in
``compute_all`` order, then the map stages of ``landsel fitmap``:
``knn_cloud`` (k = 8), ``cloud_to_csv`` (of a cloud built before the stage),
``rmc`` (``reduce_mean`` of ``multichannel``, written as PGM) and
``pca_func`` (the PCA raster with the objective, written as PGM), both at
resolution 224.

``ru_maxrss`` is read as KiB, as Linux reports it.

Usage:
    PYTHONPATH=src python3 scripts/stage_memory.py --fid rastrigin --d 40 --n 2000
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import landsel
from landsel import ela, fitmap
from landsel.preprocess import preprocess_pipeline
from landsel.sampling import create_initial_design, evaluate_design
from landsel.space import BUILTIN_FUNCTIONS, builtin_problem

STAGES = (
    "design", "evaluate", "ela_meta", "ela_distr", "dispersion", "information_content",
    "nearest_better_clustering", "fitness_distance_correlation",
    "knn_cloud", "cloud_to_csv", "rmc", "pca_func",
)
K = 8
RESOLUTION = 224


def stage_call(name: str, pd, out: Path):
    """The stage ``name`` as a call without arguments on ``pd``; the map
    stages write into the directory ``out``."""
    if name == "cloud_to_csv":
        cloud = fitmap.knn_cloud(pd, K)
        return lambda: fitmap.cloud_to_csv(cloud, out / "cloud.csv")
    if name == "rmc":
        return lambda: fitmap.write_pgm(fitmap.reduce_mean(fitmap.multichannel(pd, RESOLUTION)), out / "rmc.pgm")
    if name == "pca_func":
        def pca_func():
            projection = fitmap.pca_project(pd, include_objective=True)
            fitmap.write_pgm(fitmap.rasterize_projection(projection, pd.objective, RESOLUTION), out / "pca.pgm")
        return pca_func
    if name == "knn_cloud":
        return lambda: fitmap.knn_cloud(pd, K)
    if name == "design":
        return lambda: None
    return lambda: getattr(ela, name)(pd)


def measure(args) -> dict:
    """Run one stage in this process; its peak RSS and traced peak in MiB."""
    problem = builtin_problem(args.fid, args.seed % 5, args.d)
    raw = create_initial_design(problem.space, args.n, seed=args.seed)
    pd = preprocess_pipeline(evaluate_design(problem, raw))
    pd.distances
    with tempfile.TemporaryDirectory() as tmp:
        if args.stage == "evaluate":
            call = lambda: evaluate_design(problem, raw)
        else:
            call = stage_call(args.stage, pd, Path(tmp))
        call()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        faults = usage.ru_minflt - faults
        rss = usage.ru_maxrss / 1024
        tracemalloc.start()
        try:
            call()
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"rss_mib": rss, "traced_mib": traced / 2**20, "matrix_mib": pd.distances.nbytes / 2**20,
            "repeat_faults": faults}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fid", choices=BUILTIN_FUNCTIONS, default="rastrigin")
    ap.add_argument("--d", type=int, default=40, help="dimension")
    ap.add_argument("--n", type=int, default=2000, help="sample size")
    ap.add_argument("--seed", type=int, default=0, help="design seed; the instance is seed mod 5")
    ap.add_argument("--stage", choices=STAGES, help=argparse.SUPPRESS)  # one stage, in this process
    args = ap.parse_args(argv)
    if args.stage:
        print(json.dumps(measure(args)))
        return 0

    # the children import landsel from where this process found it
    src = str(Path(landsel.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    common = ["--fid", args.fid, "--d", str(args.d), "--n", str(args.n), "--seed", str(args.seed)]
    rows = []
    for stage in STAGES:
        proc = subprocess.run([sys.executable, __file__, *common, "--stage", stage],
                              env=env, capture_output=True, text=True, check=True)
        rows.append((stage, json.loads(proc.stdout.splitlines()[-1])))
    matrix = rows[0][1]["matrix_mib"]
    print(f"{args.fid} d={args.d} n={args.n} seed={args.seed}: distance matrix {matrix:.1f} MiB")
    print(f"{'stage':<30} {'ru_maxrss MiB':>13} {'traced MiB':>10} {'traced/matrix':>13} {'repeat faults':>13}")
    for stage, r in rows:
        print(f"{stage:<30} {r['rss_mib']:>13.1f} {r['traced_mib']:>10.1f} {r['traced_mib'] / matrix:>13.2f}"
              f" {r['repeat_faults']:>13d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
