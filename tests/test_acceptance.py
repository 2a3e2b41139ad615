"""Contract-level acceptance checks, one test per headline guarantee.

Each test measures the relevant quantity, prints a single PASS/FAIL line with
the measured numbers (visible with ``pytest -s`` and in the failure report),
and asserts the stated tolerance.  Covered: exact invariance of the feature
stack under affine objective rescaling, gap-closure arithmetic against a
published solver-benchmark summary, the ERT definition, analytic feature
values on constructed landscapes, raster and preprocessing contracts, the
selector cross-validation protocol, and byte-level CLI determinism.  One
unit test checks the per-feature text of criterion 01's failure line.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from landsel import cli
from landsel.aas import (
    ErtTable,
    FeatureVector,
    PerformanceRecord,
    cross_validate,
    gap_closure,
    read_performance_csv,
    write_performance_csv,
)
from landsel.ela import compute_all, ela_meta, information_content, nearest_better_clustering
from landsel.fitmap import multichannel, rasterize_2d, reduce_mean
from landsel.preprocess import minmax_unit, preprocess_pipeline
from landsel.sampling import create_initial_design, evaluate_design, with_objective
from landsel.space import (
    BUILTIN_FUNCTIONS,
    ObjectiveTransform,
    SearchSpace,
    VariableSpec,
    apply_transform,
    builtin_problem,
)

from conftest import ert_table, make_processed


def _report(label: str, ok: bool, detail: str) -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ── 1: affine invariance of the full feature stack ───────────────────────────


class _Mismatches:
    """Feature-by-feature comparison of transformed against untransformed
    feature vectors. A feature that differs is recorded with its largest
    |deviation| and its count of missing-versus-present flips; an equal one
    costs one comparison and records nothing."""

    def __init__(self):
        self.comparisons = self.count = 0
        self.moved: dict[str, tuple[float, int]] = {}

    def compare(self, base: FeatureVector, other: FeatureVector) -> None:
        self.comparisons += len(base.values)
        for name, u in base.values.items():
            v = other.values[name]
            if u != v:
                self.count += 1
                dev, flips = self.moved.get(name, (0.0, 0))
                if u is None or v is None:
                    self.moved[name] = (dev, flips + 1)
                else:
                    self.moved[name] = (max(dev, abs(u - v)), flips)

    def detail(self, elapsed: float) -> str:
        moved = "".join(
            f"; {name}: max |dev| {dev:.1e}, missing flips {flips}"
            for name, (dev, flips) in sorted(self.moved.items())
        )
        return f"{self.count}/{self.comparisons} mismatches, {elapsed:.1f} s{moved}"


def test_criterion_01_names_each_moved_feature():
    base = FeatureVector(values={"a": 1.0, "b": 2.0, "c": None}, reasons={"c": "undefined"}, meta={})
    other = FeatureVector(
        values={"a": 1.0 + 2.0**-40, "b": None, "c": None}, reasons={"b": "undefined", "c": "undefined"}, meta={}
    )
    mismatches = _Mismatches()
    mismatches.compare(base, base)
    assert (mismatches.count, mismatches.moved) == (0, {})
    mismatches.compare(base, other)
    mismatches.compare(base, other)
    assert mismatches.detail(1.0) == (
        "4/9 mismatches, 1.0 s; a: max |dev| 9.1e-13, missing flips 0; b: max |dev| 0.0e+00, missing flips 2"
    )


def test_criterion_01_invariance_under_affine_rescaling():
    """200 random (problem, seed) pairs x 50 random transforms each: the
    feature vector after scale * y + shift must be bit-equal to the original,
    within a 60 s budget for the whole sweep."""
    rng = np.random.default_rng(20260822)
    fids = sorted(BUILTIN_FUNCTIONS)
    pairs, transforms_each = 200, 50
    mismatches = _Mismatches()
    start = time.perf_counter()
    for _ in range(pairs):
        problem = builtin_problem(
            fids[int(rng.integers(len(fids)))],
            int(rng.integers(0, 10)),
            int(rng.integers(2, 4)),
        )
        design = evaluate_design(
            problem,
            create_initial_design(
                problem.space, n=int(rng.integers(40, 101)), seed=int(rng.integers(0, 2**31))
            ),
        )
        feature_seed = int(rng.integers(0, 2**31))
        base = compute_all(preprocess_pipeline(design), seed=feature_seed)
        for _ in range(transforms_each):
            transform = ObjectiveTransform(
                scale=float(10.0 ** rng.uniform(-3.0, 3.0)),
                shift=float(rng.uniform(-1e6, 1e6)),
            )
            rescaled = with_objective(design, apply_transform(transform, design.y))
            mismatches.compare(base, compute_all(preprocess_pipeline(rescaled), seed=feature_seed))
    elapsed = time.perf_counter() - start
    _report("criterion 01 invariance", mismatches.count == 0 and elapsed < 60.0, mismatches.detail(elapsed))


# ── 2: gap-closure arithmetic against published benchmark means ──────────────


def test_criterion_02_gap_closure_reference_percentages():
    """Published VBS/SBS/model mean-ERT triples from a hyperparameter-tuning
    solver benchmark, with the gap-closure percentages they were reported as;
    each must be reproduced within 0.01 percentage points."""
    rows = [
        ("rbv2_glmnet", 165.46, 28312.86, 11437.34, 59.95),
        ("rbv2_rpart", 412.47, 13182.87, 2755.18, 81.66),
        ("rbv2_aknn", 354.90, 2380.31, 2375.83, 0.22),
        ("rbv2_svm", 339.59, 25297.37, 12498.84, 51.28),
        ("iaml_ranger", 659.55, 40471.21, 32908.88, 19.00),
        ("rbv2_xgboost", 754.12, 10162.03, 4978.53, 55.10),
        ("All", 444.33, 13114.71, 5828.60, 57.51),
    ]
    worst = 0.0
    for _scenario, vbs, sbs_mean, model, printed in rows:
        pct = 100.0 * gap_closure(sbs_mean, vbs, model)
        worst = max(worst, abs(pct - printed))
    _report(
        "criterion 02 gap closure",
        worst <= 0.01,
        f"{len(rows)} scenarios, worst |dev| {worst:.4f} pp",
    )


# ── 3: expected running time against the direct definition ───────────────────


def test_criterion_03_ert_matches_brute_force_definition(tmp_path):
    """1000 randomized run-sets, one instance each of a single performance
    CSV: the ERT that read_performance_csv puts in each cell must equal
    sum(evaluations) / #successes exactly, and be +inf exactly when no run
    succeeded."""
    rng = np.random.default_rng(5150)
    cases = 1000
    run_sets = []
    for case in range(cases):
        runs = int(rng.integers(1, 21))
        budget = int(rng.integers(50, 5001))
        force_failure = case % 5 == 0
        records = []
        for r in range(runs):
            records.append(
                PerformanceRecord(
                    fid="f",
                    iid=str(case),
                    algorithm="a",
                    run=r,
                    evaluations=int(rng.integers(1, budget + 1)),
                    success=bool(rng.random() < 0.6) and not force_failure,
                    budget=budget,
                )
            )
        run_sets.append(records)
    path = tmp_path / "performance.csv"
    write_performance_csv([rec for records in run_sets for rec in records], path)
    table = read_performance_csv(path)
    row = {inst: r for r, inst in enumerate(table.instances)}
    mismatches = infinity_mismatches = all_failed = 0
    for case, records in enumerate(run_sets):
        successes = sum(1 for rec in records if rec.success)
        total = sum(rec.evaluations for rec in records)
        expected = math.inf if successes == 0 else total / successes
        got = float(table.ert[row["f", str(case)], 0])
        if got != expected:
            mismatches += 1
        if math.isinf(got) != (successes == 0):
            infinity_mismatches += 1
        all_failed += int(successes == 0)
    ok = mismatches == 0 and infinity_mismatches == 0
    _report(
        "criterion 03 ERT oracle",
        ok,
        f"{cases} run-sets ({all_failed} with zero successes), "
        f"{mismatches} value and {infinity_mismatches} infinity mismatches",
    )


# ── 4: surrogate-fit features on analytically known landscapes ───────────────


def test_criterion_04_surrogate_fits_on_analytic_landscapes():
    """An exactly linear objective must fit perfectly and reproduce the
    closed-form least-squares coefficient magnitudes; an isotropic quadratic
    bowl must yield a quadratic condition number of 1."""
    rng = np.random.default_rng(3)
    X = rng.random((60, 2))
    y = minmax_unit(2.0 * X[:, 0] + 3.0 * X[:, 1])
    linear = ela_meta(make_processed(X, y)).values

    beta, *_ = np.linalg.lstsq(np.column_stack([np.ones(len(X)), X]), y, rcond=None)
    magnitudes = np.abs(beta[1:])
    coef_dev = max(
        abs(linear["ela_meta.lin_simple.coef.min"] - magnitudes.min()),
        abs(linear["ela_meta.lin_simple.coef.max"] - magnitudes.max()),
        abs(linear["ela_meta.lin_simple.coef.max_by_min"] - magnitudes.max() / magnitudes.min()),
    )
    adj_r2 = linear["ela_meta.lin_simple.adj_r2"]

    Xs = rng.random((80, 3))
    bowl = ela_meta(make_processed(Xs, minmax_unit(((Xs - 0.5) ** 2).sum(axis=1)))).values
    cond_dev = abs(bowl["ela_meta.quad_simple.cond"] - 1.0)

    ok = adj_r2 >= 1.0 - 1e-9 and coef_dev <= 1e-6 and cond_dev <= 1e-6
    _report(
        "criterion 04 surrogate fits",
        ok,
        f"linear adj_r2 {adj_r2!r}, coef |dev| {coef_dev:.1e}, "
        f"bowl cond |dev| {cond_dev:.1e}",
    )


# ── 5: information content on constructed tours ──────────────────────────────


def test_criterion_05_information_content_analytic_cases():
    """Constant fitness gives zero entropy and zero initial partial
    information exactly; a strictly alternating tour realizes the two-symbol
    entropy log_6(2) at epsilon -> 0."""
    X = np.linspace(0.0, 1.0, 12).reshape(-1, 1)
    constant = information_content(make_processed(X, np.zeros(12)), seed=0).values
    # seed 23 starts the greedy tour at row 0, so the tour walks the line
    # left to right and the symbol sequence alternates strictly
    alternating = information_content(make_processed(X, np.tile([0.0, 1.0], 6)), seed=23).values
    target = math.log(2.0) / math.log(6.0)
    dev = abs(alternating["ic.h.max"] - target)
    ok = (
        constant["ic.h.max"] == 0.0
        and constant["ic.m0"] == 0.0
        and dev < 1e-9
    )
    _report(
        "criterion 05 information content",
        ok,
        f"constant h.max {constant['ic.h.max']!r} m0 {constant['ic.m0']!r}, "
        f"alternating |h.max - log6(2)| {dev:.1e}",
    )


# ── 6: nearest-better distances dominate nearest-neighbour distances ─────────


def test_criterion_06_nearest_better_pointwise_dominance():
    """On 500 random designs the nearest-better distance of every non-best
    point must be >= its nearest-neighbour distance (checked against a direct
    double-loop oracle), so the mean ratio never exceeds 1."""
    rng = np.random.default_rng(66)
    designs = 500
    violations = ratios_above_one = 0
    max_feature_dev = 0.0
    for _ in range(designs):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, 5))
        X = rng.random((n, d))
        y = rng.permutation(n).astype(float) / n  # unique objective values
        dnn = np.empty(n)
        dnb = np.full(n, np.inf)
        for i in range(n):
            dists = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
            dists[i] = np.inf
            dnn[i] = dists.min()
            better = y < y[i]
            if better.any():
                dnb[i] = dists[better].min()
        nonbest = y > y.min()
        violations += int(np.sum(dnb[nonbest] < dnn[nonbest]))
        ratio = nearest_better_clustering(make_processed(X, y)).values["nbc.nn_nb.mean_ratio"]
        ratios_above_one += int(ratio > 1.0)
        max_feature_dev = max(
            max_feature_dev, abs(ratio - dnn[nonbest].mean() / dnb[nonbest].mean())
        )
    ok = violations == 0 and ratios_above_one == 0 and max_feature_dev <= 1e-12
    _report(
        "criterion 06 nearest-better dominance",
        ok,
        f"{designs} designs, {violations} pointwise violations, "
        f"{ratios_above_one} ratios > 1, oracle |dev| {max_feature_dev:.1e}",
    )


# ── 7: raster contracts ──────────────────────────────────────────────────────


def test_criterion_07_fitness_map_contracts():
    """Default raster resolution 224; one channel per coordinate pair; mean
    reduction of identical channels is the channel itself; never more filled
    pixels than sample points."""
    rng = np.random.default_rng(7)
    pd2 = make_processed(rng.random((20, 2)), rng.random(20))
    default_ok = rasterize_2d(pd2).pixels.shape == (224, 224)

    channel_counts = {}
    for d in range(2, 9):
        stack = multichannel(make_processed(rng.random((12, d)), rng.random(12)), resolution=16)
        channel_counts[d] = len(stack.channels)
    channels_ok = all(channel_counts[d] == math.comb(d, 2) for d in channel_counts)

    # three equal columns make three identical pair channels
    t, y = np.random.default_rng(77).random((2, 20))
    same = make_processed(np.column_stack([t, t, t]), y)
    reduced = reduce_mean(multichannel(same, resolution=32))
    base = rasterize_2d(same, (0, 1), resolution=32)
    identity_ok = np.array_equal(reduced.pixels, base.pixels, equal_nan=True)

    overfull = 0
    for _ in range(100):
        n = int(rng.integers(1, 301))
        fmap = rasterize_2d(make_processed(rng.random((n, 2)), rng.random(n)), resolution=64)
        overfull += int(fmap.non_empty > n)

    ok = default_ok and channels_ok and identity_ok and overfull == 0
    _report(
        "criterion 07 fitness maps",
        ok,
        f"default 224 {default_ok}, channel counts {channel_counts}, "
        f"identical-channel reduction exact {identity_ok}, {overfull} rasters over-filled",
    )


# ── 8: preprocessing contracts ───────────────────────────────────────────────


def test_criterion_08_preprocessing_contracts():
    """Indicator blocks sum to one on every row of 100 random mixed designs,
    the pipeline keeps everything inside the unit cube, and min-max objective
    normalization maps [2, 4, 6] to [0, 0.5, 1]."""
    anchors_ok = np.array_equal(
        minmax_unit([2.0, 4.0, 6.0]), np.array([0.0, 0.5, 1.0])
    )
    space = SearchSpace(
        variables=(
            VariableSpec(name="x", kind="continuous", lower=-5.0, upper=10.0),
            VariableSpec(name="k", kind="integer", lower=0.0, upper=7.0),
            VariableSpec(name="c", kind="categorical", categories=("red", "green", "blue")),
            VariableSpec(name="m", kind="categorical", categories=("a", "b", "c", "d")),
        )
    )
    rng = np.random.default_rng(88)
    bad_rows = out_of_unit = 0
    for seed in range(100):
        design = create_initial_design(space, n=int(rng.integers(10, 41)), seed=seed)
        processed = preprocess_pipeline(
            with_objective(design, rng.random(design.n)), encoding="one_hot"
        )
        for name in ("c", "m"):
            sums = processed.matrix[:, list(processed.column_map[name])].sum(axis=1)
            bad_rows += int(np.sum(sums != 1.0))
        inside = (
            processed.matrix.min() >= 0.0
            and processed.matrix.max() <= 1.0
            and processed.objective.min() >= 0.0
            and processed.objective.max() <= 1.0
        )
        out_of_unit += int(not inside)
    ok = anchors_ok and bad_rows == 0 and out_of_unit == 0
    _report(
        "criterion 08 preprocessing",
        ok,
        f"[2,4,6] -> [0,0.5,1] {anchors_ok}, {bad_rows} bad indicator rows, "
        f"{out_of_unit}/100 pipelines outside the unit cube",
    )


# ── 9: selector protocol on a deterministic synthetic portfolio ──────────────


def _synthetic_portfolio() -> tuple[dict, ErtTable]:
    """36 instances, 3 algorithms; the winner is a deterministic function of
    the feature ``g`` (three well-separated clusters), with a small
    iid-dependent jitter so no two instances coincide."""
    records = []
    features = {}
    for fi in range(12):
        fid = f"f{fi:02d}"
        winner = f"a{fi % 3}"
        for iid in range(3):
            features[(fid, str(iid))] = FeatureVector(
                values={"g": [0.0, 0.5, 1.0][fi % 3] + 0.001 * iid, "noise": 0.1 * iid},
                reasons={},
                meta={},
            )
            for algorithm in ("a0", "a1", "a2"):
                records.append(
                    PerformanceRecord(
                        fid=fid,
                        iid=str(iid),
                        algorithm=algorithm,
                        run=0,
                        evaluations=100 if algorithm == winner else 1000,
                        success=True,
                        budget=2000,
                    )
                )
    return features, ert_table(records)


def test_criterion_09_selector_closes_gap_iff_features_inform():
    """leave_iid_out with a 1-nearest-neighbour selector recovers the full
    SBS-to-VBS gap when the winning algorithm is a function of one feature,
    and close to none of it once the feature vectors are shuffled."""
    features, table = _synthetic_portfolio()
    informed = cross_validate(features, table, scheme="leave_iid_out", kind="knn", k=1)
    informed_gap = informed["pooled"]["gap_closure"]

    keys = sorted(features)
    perm = np.random.default_rng(0).permutation(len(keys))
    shuffled_features = {keys[i]: features[keys[perm[i]]] for i in range(len(keys))}
    shuffled = cross_validate(shuffled_features, table, scheme="leave_iid_out", kind="knn", k=1)
    shuffled_gap = shuffled["pooled"]["gap_closure"]

    ok = informed_gap == 1.0 and shuffled_gap <= 0.1
    _report(
        "criterion 09 selector protocol",
        ok,
        f"informed gap {informed_gap!r} (sbs {informed['pooled']['sbs_mean']}, "
        f"vbs {informed['pooled']['vbs_mean']}), shuffled gap {shuffled_gap:.4f}",
    )


# ── 10: the command-line pipeline is byte-deterministic ──────────────────────


def _run_cli_pipeline(root: Path) -> dict[str, bytes]:
    """sample -> features for four problem instances, merge the per-instance
    feature rows, run the selection harness; return every produced file."""
    root.mkdir()
    instances = [("sphere", 0), ("sphere", 1), ("rastrigin", 0), ("rastrigin", 1)]
    header = None
    merged_rows = []
    for fid, iid in instances:
        design = root / f"{fid}_i{iid}.csv"
        feats = root / f"{fid}_i{iid}_features.csv"
        assert (
            cli.main(
                ["sample", f"builtin:{fid}:d2:i{iid}", "--n", "60", "--seed", "11", "--out", str(design)]
            )
            == 0
        )
        assert cli.main(["features", str(design), "--seed", "3", "--out", str(feats)]) == 0
        lines = feats.read_text().splitlines()
        if header is None:
            header = "fid,iid," + lines[0]
        merged_rows.append(f"{fid},{iid}," + lines[1])
    merged = root / "features.csv"
    merged.write_text(header + "\n" + "\n".join(merged_rows) + "\n")

    records = []
    for fid, iid in instances:
        for algorithm, good_on in (("alg_a", "sphere"), ("alg_b", "rastrigin")):
            records.append(
                PerformanceRecord(
                    fid=fid,
                    iid=str(iid),
                    algorithm=algorithm,
                    run=0,
                    evaluations=100 if fid == good_on else 900,
                    success=True,
                    budget=1000,
                )
            )
    performance = root / "performance.csv"
    write_performance_csv(records, performance)

    report = root / "report.json"
    assert cli.main(["aas", str(merged), str(performance), "--out", str(report)]) == 0
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_criterion_10_cli_pipeline_byte_identical(tmp_path):
    first = _run_cli_pipeline(tmp_path / "first")
    second = _run_cli_pipeline(tmp_path / "second")
    same_names = set(first) == set(second)
    differing = [name for name in first if same_names and first[name] != second[name]]
    total = sum(len(v) for v in first.values())
    ok = same_names and not differing
    _report(
        "criterion 10 CLI determinism",
        ok,
        f"{len(first)} files, {total} bytes, differing: {differing or 'none'}",
    )
