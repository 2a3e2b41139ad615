"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in :meth:`setup`, then
serves op ``i`` for ``i = 0, 1, 2, ...`` as a closed loop with one client.
Op ``i`` depends only on the seed and ``i``, so a traced pass that restarts
at op 0 repeats the inputs of the untraced pass.

``run(i)`` is the timed part.  ``check(i, output)`` verifies it afterwards
and returns None or a failure message.  Set-up records a reference digest
for every distinct op by running it once; those runs are the warm-up, and
their cost is part of ``setup_s``.  A timed op whose digest differs from the
reference fails; the reference is never re-recorded.

Library functions are always looked up on their module at call time
(``ela.compute_all``, not an imported name), so the trace wrappers apply.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from landsel import aas, cli, ela, fitmap, preprocess, sampling, space

HERE = Path(__file__).resolve().parent
FIDS = ("ellipsoid", "linear_slope", "rastrigin", "rosenbrock", "sphere")
CHILD_TIMEOUT_S = 120


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _pop_bytes(path: Path) -> bytes:
    """Read an output file and delete it, so a later op cannot pass on a
    stale file."""
    data = path.read_bytes()
    path.unlink()
    return data


class Workload:
    """Shared bookkeeping: the reference digests and the op-to-input map."""

    # Fixed per workload so the metric means the same thing on every commit;
    # chosen so that at least ten samples lie beyond it at the seed commit.
    tail_percentile = 50.0
    in_process = True  # False where ops run in child processes
    cycle = 1  # a timed pass runs whole cycles of this many ops
    tracer = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference: dict[int, str] = {}

    def key(self, i: int) -> int:
        """Index of the distinct input that op i runs."""
        raise NotImplementedError

    def valid(self, i: int) -> bool:
        """False for ops whose input is malformed on purpose."""
        return True

    def record_references(self) -> None:
        """Run the first op of every distinct input in one cycle."""
        for i in range(self.cycle):
            if self.key(i) not in self.reference:
                self.reference[self.key(i)] = self.output_digest(i, self.run(i))

    def output_digest(self, i: int, output) -> str:
        raise NotImplementedError

    def check(self, i: int, output) -> str | None:
        got = self.output_digest(i, output)
        want = self.reference[self.key(i)]
        return None if got == want else f"op {i}: digest {got[:12]} != reference {want[:12]}"


# ── invariance_sweep ─────────────────────────────────────────────────────────


class InvarianceSweep(Workload):
    """Criterion-01-shaped sweep: each base design is followed by many exact
    affine rescalings of its objective; every rescaled feature vector must be
    bit-equal to the base vector."""

    # p99 (about fifteen samples beyond it) moved by a quarter between runs
    # on a shared two-core host; p95 keeps about seventy samples beyond it.
    tail_percentile = 95.0
    # Every seed gets the same grid of (function, d, n); the seed draws the
    # instances, designs and rescalings.  Op i rescales base i mod 30, so a
    # pass of whole cycles has the same mix of design sizes on every seed.
    GRID = tuple((fid, d, n) for fid in FIDS for d in (2, 3) for n in (40, 70, 100))
    cycle = len(GRID)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.bases = []
        for fid, d, n in self.GRID:
            problem = space.builtin_problem(fid, int(rng.integers(0, 10)), d)
            design = sampling.evaluate_design(
                problem,
                sampling.create_initial_design(problem.space, n=n, seed=int(rng.integers(0, 2**31))),
            )
            feature_seed = int(rng.integers(0, 2**31))
            base = ela.compute_all(preprocess.preprocess_pipeline(design), seed=feature_seed)
            self.bases.append((design, feature_seed, base))
        self.check(0, self.run(0))  # warm-up op

    def key(self, i: int) -> int:
        return i % len(self.GRID)

    def run(self, i: int):
        design, feature_seed, _ = self.bases[self.key(i)]
        rng = np.random.default_rng([self.seed, 2, i])
        transform = space.ObjectiveTransform(
            scale=float(10.0 ** rng.uniform(-3.0, 3.0)), shift=float(rng.uniform(-1e6, 1e6))
        )
        rescaled = sampling.with_objective(design, space.apply_transform(transform, design.y))
        return ela.compute_all(preprocess.preprocess_pipeline(rescaled), seed=feature_seed)

    def check(self, i: int, fv) -> str | None:
        base = self.bases[self.key(i)][2]
        if fv.values == base.values and fv.reasons == base.reasons:
            return None
        bad = [n for n in base.names() if fv.values.get(n) != base.values[n]]
        return f"op {i}: {len(bad)} features differ from the base vector, e.g. {bad[:3]}"


# ── large_designs ────────────────────────────────────────────────────────────


class LargeDesigns(Workload):
    """Full in-process pipeline on large continuous designs: sample, evaluate,
    preprocess, all features, then a mean-reduced multi-channel map, a PCA
    raster with the objective, and a kNN cloud, each written to disk."""

    tail_percentile = 60.0
    SIZES = {"S": (10, 500), "M": (20, 1000), "L": (40, 2000)}
    INPUTS = (
        ("S", "ellipsoid"), ("S", "linear_slope"), ("S", "rastrigin"), ("S", "rosenbrock"),
        ("S", "sphere"), ("M", "ellipsoid"), ("M", "rosenbrock"), ("L", "rastrigin"),
    )
    # Ten small, two medium and one large design per cycle: enough ops in a
    # run for a tail with ten samples beyond it, while the large design still
    # takes about half of the time.
    CYCLE = (0, 1, 5, 2, 3, 7, 4, 0, 6, 1, 2, 3, 4)
    cycle = len(CYCLE)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.inputs = []
        for size, fid in self.INPUTS:
            d, n = self.SIZES[size]
            problem = space.builtin_problem(fid, int(rng.integers(1, 100)), d)
            self.inputs.append((problem, n, int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31))))
        self.record_references()

    def key(self, i: int) -> int:
        return self.CYCLE[i % len(self.CYCLE)]

    def run(self, i: int):
        problem, n, design_seed, feature_seed = self.inputs[self.key(i)]
        design = sampling.evaluate_design(
            problem, sampling.create_initial_design(problem.space, n=n, seed=design_seed)
        )
        pd = preprocess.preprocess_pipeline(design)
        fv = ela.compute_all(pd, seed=feature_seed)
        paths = [self.workdir / f"large_{name}" for name in ("rmc.pgm", "pca.pgm", "cloud.csv")]
        fitmap.write_pgm(fitmap.reduce_mean(fitmap.multichannel(pd, 224)), paths[0])
        projection = fitmap.pca_project(pd, include_objective=True)
        fitmap.write_pgm(fitmap.rasterize_projection(projection, pd.objective, 224), paths[1])
        fitmap.cloud_to_csv(fitmap.knn_cloud(pd, 8), paths[2])
        return fv.to_json(), paths

    def output_digest(self, i: int, output) -> str:
        features, paths = output
        return digest(features.encode(), *(_pop_bytes(p) for p in paths))


# ── mixed_cli ────────────────────────────────────────────────────────────────


def mixed_space() -> space.SearchSpace:
    """Twenty variables, 47 columns after one-hot encoding: a categorical
    parent gating a continuous block, an integer parent gating another block,
    and several plain categoricals."""
    V, C = space.VariableSpec, space.Condition
    adam = C("optimizer", ("adam",))
    deep = C("layers", (3, 4))
    return space.SearchSpace(
        (
            V("optimizer", "categorical", categories=("adam", "sgd", "rmsprop", "adagrad")),
            V("beta1", "continuous", 0.8, 0.999, condition=adam),
            V("beta2", "continuous", 0.9, 0.9999, condition=adam),
            V("momentum", "continuous", 0.0, 0.99, condition=C("optimizer", ("sgd", "rmsprop"))),
            V("nesterov", "categorical", categories=("yes", "no"), condition=C("optimizer", ("sgd",))),
            V("layers", "integer", 1, 4),
            V("width_3", "continuous", 16.0, 512.0, condition=deep),
            V("dropout_3", "continuous", 0.0, 0.5, condition=deep),
            V("width_4", "continuous", 16.0, 512.0, condition=C("layers", (4,))),
            V("act_4", "categorical", categories=("relu", "tanh", "gelu"), condition=C("layers", (4,))),
            V("lr_log", "continuous", -5.0, -1.0),
            V("wd_log", "continuous", -6.0, -2.0),
            V("batch", "integer", 16, 256),
            V("warmup", "integer", 0, 10),
            V("activation", "categorical", categories=("relu", "tanh", "gelu", "silu", "elu")),
            V("norm", "categorical", categories=("none", "batch", "layer", "group")),
            V("init", "categorical", categories=("he", "xavier", "normal", "uniform", "orthogonal", "zeros")),
            V("schedule", "categorical", categories=("const", "cosine", "step", "linear", "exp")),
            V("loss", "categorical", categories=("mse", "huber", "l1", "logcosh")),
            V("augment", "categorical", categories=("none", "flip", "crop")),
        )
    )


def mixed_problem(seed: int) -> space.Problem:
    """A seeded objective that reads only the active variables of a row:
    a rugged bowl per numeric variable plus a per-category offset."""
    sp = mixed_space()
    rng = np.random.default_rng([seed, 4])
    terms = []
    for v in sp.variables:
        if v.kind == "categorical":
            terms.append(dict(zip(v.categories, rng.uniform(0.0, 2.0, len(v.categories)))))
        else:
            terms.append((rng.uniform(0.5, 3.0), rng.uniform(0.0, 1.0)))

    def objective(row: tuple) -> float:
        cells = dict(zip(sp.names, row))
        total = 0.0
        for v, term in zip(sp.variables, terms):
            cond = v.condition
            if cond is not None and cells[cond.parent] not in cond.values:
                cells[v.name] = None  # inactive, and so are its children
                continue
            if v.kind == "categorical":
                total += term[cells[v.name]]
            else:
                weight, center = term
                z = (cells[v.name] - v.lower) / (v.upper - v.lower)
                total += weight * (z - center) ** 2 + 0.1 * np.sin(7.0 * z)
        return float(total)

    return space.Problem(space=sp, objective=objective)


def _blank_inactive(design: sampling.Design) -> sampling.Design:
    """The same design with hierarchically inactive cells left empty, as an
    external evaluator would write it."""
    sp = design.space
    active = {name: np.ones(design.n, dtype=bool) for name in sp.names}
    for v in sp.variables:  # parents precede their children
        if v.condition is not None:
            parent = design.columns[v.condition.parent]
            hits = np.array([cell in v.condition.values for cell in parent], dtype=bool)
            active[v.name] = active[v.condition.parent] & hits
    columns = {}
    for v in sp.variables:
        col = np.array(design.columns[v.name], dtype=object if v.kind == "categorical" else float)
        col[~active[v.name]] = None if v.kind == "categorical" else np.nan
        columns[v.name] = col
    return sampling.Design(space=sp, columns=columns, y=design.y, meta=dict(design.meta))


class MixedCli(Workload):
    """The real entry point, ``python -m landsel features``, one subprocess
    at a time on mixed hierarchical designs, plus malformed inputs that must
    be refused with exit code 2."""

    tail_percentile = 50.0
    in_process = False
    SIZES = (300, 1200)
    VALID = (("one_hot", 300), ("target", 300), ("one_hot", 1200), ("target", 1200))
    MALFORMED = ("sidecar_without_space", "string_bound", "unknown_config_key", "encoding_none")
    VALID_PER_MALFORMED = 4  # one malformed op after every four valid ones
    cycle = (VALID_PER_MALFORMED + 1) * len(MALFORMED)

    def setup(self) -> None:
        problem = mixed_problem(self.seed)
        rng = np.random.default_rng([self.seed, 5])
        self.designs = {}
        for n in self.SIZES:
            design = sampling.evaluate_design(
                problem,
                sampling.create_initial_design(problem.space, n=n, seed=int(rng.integers(0, 2**31))),
            )
            path = self.workdir / f"mixed_{n}.csv"
            sampling.design_to_csv(_blank_inactive(design), path)
            self.designs[n] = path
        self.feature_seed = int(rng.integers(0, 2**31))
        self.malformed = self._write_malformed()
        # References come from the same command run in-process: a subprocess
        # whose bytes differ from an in-process run is itself a failure.
        for k in range(len(self.VALID)):
            argv = self.argv(k)
            if cli.main(argv) != 0:
                raise RuntimeError(f"reference run failed: landsel {' '.join(argv)}")
            self.reference[k] = digest(_pop_bytes(self.out_path(k)))

    def _write_malformed(self) -> dict[str, list[str]]:
        base = self.designs[self.SIZES[0]]
        sidecar = json.loads(base.with_name(base.stem + ".meta.json").read_text())
        text = base.read_text()

        def design_copy(stem: str, doc: dict) -> str:
            path = self.workdir / f"{stem}.csv"
            path.write_text(text)
            path.with_name(f"{stem}.meta.json").write_text(json.dumps(doc))
            return str(path)

        bound = json.loads(json.dumps(sidecar))
        entry = next(e for e in bound["space"] if e["kind"] == "continuous")
        entry["lower"] = str(entry["lower"])
        config = self.workdir / "unknown_key.json"
        config.write_text(json.dumps({"encoding": "one_hot", "smoothness": 1.0}))
        out = str(self.workdir / "malformed_out.json")
        return {
            "sidecar_without_space": ["features", design_copy("no_space", {"meta": sidecar["meta"]}),
                                      "--encoding", "one_hot", "--out", out],
            "string_bound": ["features", design_copy("string_bound", bound),
                             "--encoding", "one_hot", "--out", out],
            "unknown_config_key": ["features", str(base), "--config", str(config), "--out", out],
            "encoding_none": ["features", str(base), "--encoding", "none", "--out", out],
        }

    def out_path(self, k: int) -> Path:
        encoding, n = self.VALID[k]
        return self.workdir / f"features_{encoding}_{n}.{'json' if encoding == 'one_hot' else 'csv'}"

    def argv(self, k: int) -> list[str]:
        encoding, n = self.VALID[k]
        return ["features", str(self.designs[n]), "--encoding", encoding,
                "--seed", str(self.feature_seed), "--out", str(self.out_path(k))]

    def key(self, i: int) -> int:
        """0..3 for the valid ops, 4..7 for the malformed ones."""
        period = self.VALID_PER_MALFORMED + 1
        cycle, slot = divmod(i, period)
        if slot < self.VALID_PER_MALFORMED:
            return (cycle * self.VALID_PER_MALFORMED + slot) % len(self.VALID)
        return len(self.VALID) + cycle % len(self.MALFORMED)

    def valid(self, i: int) -> bool:
        return self.key(i) < len(self.VALID)

    def run(self, i: int):
        k = self.key(i)
        argv = self.argv(k) if k < len(self.VALID) else self.malformed[self.MALFORMED[k - len(self.VALID)]]
        if self.tracer is None:
            command = [sys.executable, "-m", "landsel", *argv]
        else:
            command = [sys.executable, str(HERE / "cli_launcher.py"), str(self.workdir / "spans.json"), *argv]
        # run.py already put src/ on this process's PYTHONPATH; the child inherits it.
        proc = subprocess.run(command, capture_output=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stderr

    def check(self, i: int, output) -> str | None:
        code, stderr = output
        if self.tracer is not None:
            spans = self.workdir / "spans.json"
            self.tracer.merge(json.loads(_pop_bytes(spans)))
        k = self.key(i)
        if k >= len(self.VALID):
            name = self.MALFORMED[k - len(self.VALID)]
            if code == 2:
                return None
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"op {i} ({name}): exit {code}, expected 2: {' '.join(last)}"
        if code != 0:
            return f"op {i}: exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"
        got = digest(_pop_bytes(self.out_path(k)))
        return None if got == self.reference[k] else f"op {i}: output digest differs from reference"


# ── selection ────────────────────────────────────────────────────────────────


class Selection(Workload):
    """``landsel aas`` in-process over a real feature table and a seeded
    synthetic performance table, one selector configuration per op."""

    tail_percentile = 65.0
    # Fifteen families (function x dimension) of fifteen instances: both
    # schemes then have fifteen folds of the same size, so op latency does
    # not split into one mode per scheme.
    DIMENSIONS = (2, 3, 4)
    INSTANCES = 15
    ALGORITHMS = ("bfgs", "cmaes", "de", "nelder_mead")
    RUNS = 5
    GRID = tuple(
        (scheme, selector, k, cost)
        for scheme in ("leave_iid_out", "leave_fid_out")
        for selector, k in (("knn", 1), ("knn", 3), ("knn", 5), ("nearest_centroid", 1))
        for cost in (False, True)
    )
    cycle = len(GRID)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 6])
        features = {}
        records = []
        for fid in FIDS:
            for d in self.DIMENSIONS:
                family = f"{fid}_d{d}"
                # Family-level algorithm strengths make each family's winner
                # depend on the family; a few (family, algorithm) pairs never
                # succeed, so their cells must be imputed.
                strength = rng.uniform(0.2, 1.0, len(self.ALGORITHMS))
                hopeless = rng.random(len(self.ALGORITHMS)) < 0.15
                for iid in range(1, self.INSTANCES + 1):
                    problem = space.builtin_problem(fid, iid, d)
                    design = sampling.evaluate_design(
                        problem,
                        sampling.create_initial_design(problem.space, n=30 * d, seed=int(rng.integers(0, 2**31))),
                    )
                    features[(family, str(iid))] = ela.compute_all(
                        preprocess.preprocess_pipeline(design), seed=int(rng.integers(0, 2**31))
                    )
                    budget = 1000 * d
                    for a, algorithm in enumerate(self.ALGORITHMS):
                        for run in range(1, self.RUNS + 1):
                            p_success = 0.0 if hopeless[a] else strength[a]
                            success = bool(rng.random() < p_success)
                            spent = budget if not success else int(
                                budget * min(1.0, (1.1 - strength[a]) * rng.uniform(0.3, 1.0))
                            )
                            records.append(aas.PerformanceRecord(
                                family, str(iid), algorithm, run, max(spent, 1), success, budget
                            ))
        self.features_csv = self.workdir / "features.csv"
        self.performance_csv = self.workdir / "performance.csv"
        aas.write_features_csv(features, self.features_csv)
        aas.write_performance_csv(records, self.performance_csv)
        self.out = self.workdir / "report.json"
        self.instances = len(features)
        self.record_references()

    def key(self, i: int) -> int:
        return i % len(self.GRID)

    def run(self, i: int):
        scheme, selector, k, cost = self.GRID[self.key(i)]
        argv = ["aas", str(self.features_csv), str(self.performance_csv), "--scheme", scheme,
                "--selector", selector, "--k", str(k), "--out", str(self.out)]
        if cost:
            argv.append("--cost-sensitive")
        return cli.main(argv)

    def output_digest(self, i: int, code) -> str:
        if code != 0:
            raise RuntimeError(f"landsel aas exited {code}")
        report = _pop_bytes(self.out)
        doc = json.loads(report)
        if len(doc["selections"]) != self.instances or not doc["imputation_log"]:
            raise RuntimeError(f"op {i}: incomplete report")
        if not doc["pooled"]["vbs_mean"] <= doc["pooled"]["model_mean"]:
            raise RuntimeError(f"op {i}: model beats the virtual best solver")
        return digest(report)


WORKLOADS = {
    "invariance_sweep": InvarianceSweep,
    "large_designs": LargeDesigns,
    "mixed_cli": MixedCli,
    "selection": Selection,
}
