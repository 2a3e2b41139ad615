"""Print SHA-256 digests of landsel's outputs over a seeded random corpus.

Two checkouts that print the same digests produce bit-identical feature
vectors and kNN clouds, and byte-identical CLI outputs, on every design of
the corpus; compare them to show that a refactor or an optimisation changed
no output.

The corpus, drawn from ``--seed``:

* ``--designs`` continuous builtin designs with d in 1..8 and n in 3..260;
  every fourth one repeats some of its rows;
* the large designs (10, 500), (20, 1000) and (40, 2000);
* a mixed hierarchical design (47 columns after one-hot encoding) at
  n = 300, under ``one_hot`` and under ``target`` encoding.

Each design contributes its ``compute_all`` JSON and its ``knn_cloud``
``FitnessCloud`` (k = 1 and k = min(8, n - 1)), and the CLI's ``features``
JSON and CSV and ``fitmap --mode cloud`` CSV, run in-process on the design's
CSV.  The cloud is fed one point at a time: its ``neighbors`` row as int64,
then its ``distances`` row followed by the ``points`` rows of the point and
of each neighbor, nearest first.

The ``report`` line hashes the CLI's ``aas`` cross-validation report for 16
selector configurations (knn with k in {1, 3, 5} and nearest_centroid, each
with and without ``--cost-sensitive``, under ``leave_iid_out`` and
``leave_fid_out``) over a seeded feature table (five builtins x d in {2, 3}
x 8 instances) and a seeded performance table in which some (family,
algorithm) pairs never succeed, so their cells are imputed.

The ``preprocess`` line hashes the CLI's ``preprocess`` CSV and
``.provenance.json`` for every corpus design under each encoding its space
allows (``none`` only for numeric spaces), with target smoothing 0 and 0.5.
The ``maps`` line hashes the ``fitmap --mode rmc``, ``mc`` and ``pca-func``
PGMs of the three large designs and of the mixed design under both encodings.
``report``, ``preprocess`` and ``maps`` are printed on their own lines and are
not part of ``all``, so ``all`` stays comparable with older checkouts.

Usage:
    PYTHONPATH=src python3 scripts/output_digest.py --seed 0 --designs 120
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from landsel import cli
from landsel.aas import PerformanceRecord, write_features_csv, write_performance_csv
from landsel.ela import compute_all
from landsel.fitmap import knn_cloud
from landsel.preprocess import ENCODINGS, preprocess_pipeline
from landsel.sampling import Design, create_initial_design, design_to_csv, evaluate_design
from landsel.space import BUILTIN_FUNCTIONS, Condition, Problem, SearchSpace, VariableSpec, builtin_problem

LARGE = ((10, 500), (20, 1000), (40, 2000))
ALGORITHMS = ("bfgs", "cmaes", "de", "nelder_mead")
SELECTION_GRID = tuple(
    (scheme, selector, k, cost)
    for scheme in ("leave_iid_out", "leave_fid_out")
    for selector, k in (("knn", 1), ("knn", 3), ("knn", 5), ("nearest_centroid", 1))
    for cost in (False, True)
)


def mixed_problem(seed: int) -> Problem:
    """Twenty variables, 47 one-hot columns: a categorical parent gating a
    continuous block, an integer parent gating another, plain categoricals."""
    V = VariableSpec
    variables = [
        V("opt", "categorical", categories=("a", "b", "c", "d")),
        V("beta", "continuous", 0.0, 1.0, condition=Condition("opt", ("a",))),
        V("gamma", "continuous", 0.0, 1.0, condition=Condition("opt", ("a",))),
        V("mom", "continuous", 0.0, 1.0, condition=Condition("opt", ("b", "c"))),
        V("nest", "categorical", categories=("y", "n"), condition=Condition("opt", ("b",))),
        V("layers", "integer", 1, 4),
        V("w3", "continuous", 16.0, 512.0, condition=Condition("layers", (3, 4))),
        V("p3", "continuous", 0.0, 0.5, condition=Condition("layers", (3, 4))),
        V("w4", "continuous", 16.0, 512.0, condition=Condition("layers", (4,))),
        V("act4", "categorical", categories=("r", "t", "g"), condition=Condition("layers", (4,))),
        V("lr", "continuous", -5.0, -1.0),
        V("wd", "continuous", -6.0, -2.0),
        V("batch", "integer", 16, 256),
        V("warm", "integer", 0, 10),
    ]
    for j, size in enumerate((5, 4, 6, 5, 4, 3)):
        variables.append(V(f"cat{j}", "categorical", categories=tuple(f"v{c}" for c in range(size))))
    sp = SearchSpace(tuple(variables))
    rng = np.random.default_rng([seed, 47])
    weights = rng.uniform(0.5, 3.0, sp.dimension)
    offsets = {v.name: dict(zip(v.categories, rng.uniform(0.0, 2.0, len(v.categories))))
               for v in sp.variables if v.kind == "categorical"}

    def objective(row: tuple) -> float:
        total = 0.0
        for v, w, cell in zip(sp.variables, weights, row):
            if v.kind == "categorical":
                total += offsets[v.name][cell]
            else:
                z = (cell - v.lower) / (v.upper - v.lower)
                total += w * (z - 0.3) ** 2 + 0.1 * np.sin(7.0 * z)
        return float(total)

    return Problem(space=sp, objective=objective)


def with_repeated_rows(design: Design, rng: np.random.Generator) -> Design:
    """The design plus copies of some of its rows, appended at the end."""
    picks = rng.integers(0, design.n, max(1, design.n // 5))
    columns = {name: np.concatenate([col, np.asarray(col)[picks]]) for name, col in design.columns.items()}
    y = np.concatenate([design.y, design.y[picks]])
    return Design(space=design.space, columns=columns, y=y, meta=dict(design.meta))


def corpus(seed: int, count: int):
    """Yield (label, design, encoding, mapped) tuples; ``mapped`` marks the
    designs whose fitness maps go into the ``maps`` digest."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        fid = BUILTIN_FUNCTIONS[int(rng.integers(len(BUILTIN_FUNCTIONS)))]
        d = int(rng.integers(1, 9))
        n = int(rng.integers(3, 261))
        problem = builtin_problem(fid, int(rng.integers(0, 5)), d)
        design = evaluate_design(problem, create_initial_design(problem.space, n, seed=int(rng.integers(2**31))))
        if i % 4 == 3:
            design = with_repeated_rows(design, rng)
        yield f"{fid} d={d} n={design.n}", design, "none", False
    for d, n in LARGE:
        problem = builtin_problem("rastrigin", 3, d)
        design = evaluate_design(problem, create_initial_design(problem.space, n, seed=seed))
        yield f"rastrigin d={d} n={n}", design, "none", True
    problem = mixed_problem(seed)
    mixed = evaluate_design(problem, create_initial_design(problem.space, 300, seed=seed))
    for encoding in ("one_hot", "target"):
        yield f"mixed {encoding} n=300", mixed, encoding, True


def run_cli(*argv) -> None:
    if cli.main([str(a) for a in argv]) != 0:
        raise RuntimeError(f"landsel {' '.join(map(str, argv))} failed")


def cli_bytes(path: Path, encoding: str, seed: int, k: int, workdir: Path) -> list[bytes]:
    outputs = []
    for argv in (
        ["features", path, "--encoding", encoding, "--seed", seed, "--out", workdir / "f.json"],
        ["features", path, "--encoding", encoding, "--seed", seed, "--out", workdir / "f.csv"],
        ["fitmap", path, "--encoding", encoding, "--mode", "cloud", "--k", k, "--out", workdir / "cloud.csv"],
    ):
        run_cli(*argv)
        outputs.append(Path(argv[-1]).read_bytes())
    return outputs


def preprocess_bytes(path: Path, design: Design, workdir: Path) -> list[bytes]:
    """``landsel preprocess`` CSV and provenance sidecar per legal
    (encoding, smoothing) pair of the design's space."""
    variants = [(e, 0.0) for e in ENCODINGS if e != "none" or design.space.is_numeric()]
    outputs = []
    for encoding, smoothing in variants + [("target", 0.5)]:
        out = workdir / "processed.csv"
        run_cli("preprocess", path, "--encoding", encoding, "--smoothing", smoothing, "--out", out)
        outputs += [out.read_bytes(), (workdir / "processed.provenance.json").read_bytes()]
    return outputs


def map_bytes(path: Path, encoding: str, workdir: Path) -> list[bytes]:
    """The ``rmc``, ``mc`` (every channel, in file-name order) and
    ``pca-func`` PGMs of one design, each prefixed by its file name."""
    outdir = workdir / "maps"
    outdir.mkdir()
    for mode in ("rmc", "mc", "pca-func"):
        run_cli("fitmap", path, "--encoding", encoding, "--mode", mode, "--out", outdir / f"{mode}.pgm")
    outputs = []
    for pgm in sorted(outdir.iterdir()):
        outputs.append(pgm.name.encode() + pgm.read_bytes())
        pgm.unlink()
    outdir.rmdir()
    return outputs


def selection_tables(seed: int, workdir: Path) -> tuple[Path, Path]:
    """Write the seeded feature and performance CSVs of the ``report`` digest."""
    rng = np.random.default_rng([seed, 6])
    features = {}
    records = []
    for fid in BUILTIN_FUNCTIONS:
        for d in (2, 3):
            family = f"{fid}_d{d}"
            # family-level strengths decide each family's winner; a hopeless
            # (family, algorithm) pair never succeeds
            strength = rng.uniform(0.2, 1.0, len(ALGORITHMS))
            hopeless = rng.random(len(ALGORITHMS)) < 0.15
            for iid in range(1, 9):
                problem = builtin_problem(fid, iid, d)
                design = create_initial_design(problem.space, n=20 * d, seed=int(rng.integers(2**31)))
                pd = preprocess_pipeline(evaluate_design(problem, design))
                features[(family, str(iid))] = compute_all(pd, seed=int(rng.integers(2**31)))
                budget = 1000 * d
                for a, algorithm in enumerate(ALGORITHMS):
                    for run in range(1, 6):
                        success = not hopeless[a] and rng.random() < strength[a]
                        spent = budget * min(1.0, (1.1 - strength[a]) * rng.uniform(0.3, 1.0)) if success else budget
                        records.append(
                            PerformanceRecord(family, str(iid), algorithm, run, max(int(spent), 1), success, budget)
                        )
    paths = (workdir / "selection_features.csv", workdir / "selection_performance.csv")
    write_features_csv(features, paths[0])
    write_performance_csv(records, paths[1])
    return paths


def report_bytes(seed: int, workdir: Path) -> list[bytes]:
    features, performance = selection_tables(seed, workdir)
    out = workdir / "report.json"
    outputs = []
    for scheme, selector, k, cost in SELECTION_GRID:
        argv = ["aas", features, performance, "--scheme", scheme, "--selector", selector, "--k", k, "--out", out]
        if cost:
            argv.append("--cost-sensitive")
        run_cli(*argv)
        outputs.append(out.read_bytes())
    return outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="corpus seed")
    ap.add_argument("--designs", type=int, default=120, help="random continuous designs")
    args = ap.parse_args(argv)

    sections = {name: hashlib.sha256() for name in ("features", "knn_cloud", "cli")}
    total = hashlib.sha256()

    def feed(section: str, chunk: bytes) -> None:
        for h in (sections[section], total):
            h.update(len(chunk).to_bytes(8, "little"))
            h.update(chunk)

    separate = {name: hashlib.sha256() for name in ("report", "preprocess", "maps")}

    def feed_separate(name: str, chunks: list[bytes]) -> None:
        for chunk in chunks:
            separate[name].update(len(chunk).to_bytes(8, "little"))
            separate[name].update(chunk)

    start = time.perf_counter()
    count = 0
    previous = None
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        path = workdir / "design.csv"
        for count, (label, design, encoding, mapped) in enumerate(corpus(args.seed, args.designs), start=1):
            seed = count
            pd = preprocess_pipeline(design, encoding=encoding)
            feed("features", label.encode() + compute_all(pd, seed=seed).to_json().encode())
            k = min(8, pd.n - 1)
            for kk in sorted({1, k}):
                cloud = knn_cloud(pd, kk)
                for i, row in enumerate(cloud.neighbors):
                    feed("knn_cloud", row.astype(np.int64).tobytes())
                    feed("knn_cloud", cloud.distances[i].tobytes() + cloud.points[[i, *row]].tobytes())
            design_to_csv(design, path)
            for chunk in cli_bytes(path, encoding, seed, k, workdir):
                feed("cli", chunk)
            if design is not previous:  # the mixed design comes once per encoding
                feed_separate("preprocess", preprocess_bytes(path, design, workdir))
            if mapped:
                feed_separate("maps", map_bytes(path, encoding, workdir))
            previous = design
        feed_separate("report", report_bytes(args.seed, workdir))
    for name, h in sections.items():
        print(f"{name:10s} {h.hexdigest()}")
    print(f"{'all':10s} {total.hexdigest()}")
    for name, h in separate.items():
        print(f"{name:10s} {h.hexdigest()}")
    print(f"{count} designs, seed {args.seed}, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
