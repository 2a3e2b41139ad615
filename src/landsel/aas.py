"""Algorithm-selection harness: ERT tables, baselines, selectors, evaluation.

Performance data is a list of runs, one record per (instance, algorithm, run).
The expected running time (ERT) of an algorithm on an instance is the sum of
evaluations spent over all runs divided by the number of successful runs;
with zero successes the ERT is infinite and is imputed as
budget * runs * penalty before any aggregation.

Two baselines frame every evaluation: the single best solver (SBS) minimizes
the mean imputed ERT across instances, and the virtual best solver (VBS)
picks the per-instance minimum.  A selection model is scored by the fraction
of the SBS-to-VBS gap it closes: (sbs_mean - model_mean) / (sbs_mean -
vbs_mean).

Selectors are nearest-neighbor or nearest-centroid classifiers over
standardized landscape features; training labels are the per-instance
ERT-minimizing algorithms (ties lexicographic).  The cost-sensitive variant
votes with per-instance normalized ERT costs instead of labels, so instances
where the choice barely matters barely influence the vote.  Evaluation runs
leave-one-group-out cross-validation with folds keyed by instance id, by
function id, or by explicit group labels.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ela import FeatureVector

DEFAULT_PENALTY = 10.0
CV_SCHEMES = ("leave_iid_out", "leave_fid_out", "leave_group_out")
SELECTOR_KINDS = ("knn", "nearest_centroid")

InstanceKey = tuple[str, str]


@dataclass(frozen=True)
class PerformanceRecord:
    """One run of one algorithm on one problem instance."""

    fid: str
    iid: str
    algorithm: str
    run: int
    evaluations: int
    success: bool
    budget: int

    def __post_init__(self):
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.evaluations > self.budget:
            raise ValueError("evaluations cannot exceed the budget")

    @property
    def instance(self) -> InstanceKey:
        return (self.fid, self.iid)


def compute_ert(records: list[PerformanceRecord]) -> float:
    """Sum of evaluations over runs divided by the success count; infinite
    when no run succeeded."""
    if not records:
        raise ValueError("cannot compute an ERT from zero runs")
    evaluations = sum(r.evaluations for r in records)
    successes = sum(1 for r in records if r.success)
    if successes == 0:
        return math.inf
    return evaluations / successes


def impute_ert(ert: float, budget: int, runs: int, penalty: float = DEFAULT_PENALTY) -> float:
    """Replace an infinite ERT with budget * runs * penalty; finite values
    pass through unchanged."""
    if penalty < 1:
        raise ValueError("penalty must be at least 1")
    if math.isinf(ert):
        return float(budget) * runs * penalty
    return ert


@dataclass(frozen=True)
class ErtCell:
    ert: float
    runs: int
    successes: int
    budget: int


@dataclass
class ErtTable:
    """ERT per (instance, algorithm), plus run bookkeeping.

    ``cells`` maps (fid, iid, algorithm) to an ErtCell.  Aggregations require
    a complete, finite table: call :func:`impute_table` first when any cell
    may be infinite.
    """

    cells: dict[tuple[str, str, str], ErtCell]

    @classmethod
    def from_records(cls, records: list[PerformanceRecord]) -> "ErtTable":
        if not records:
            raise ValueError("no performance records")
        groups: dict[tuple[str, str, str], list[PerformanceRecord]] = {}
        seen_runs: set[tuple[str, str, str, int]] = set()
        for r in records:
            key = (r.fid, r.iid, r.algorithm)
            run_key = key + (r.run,)
            if run_key in seen_runs:
                raise ValueError(f"duplicate run id {r.run} for {key}")
            seen_runs.add(run_key)
            groups.setdefault(key, []).append(r)
        cells = {}
        for key, runs in groups.items():
            cells[key] = ErtCell(
                ert=compute_ert(runs),
                runs=len(runs),
                successes=sum(1 for r in runs if r.success),
                budget=max(r.budget for r in runs),
            )
        return cls(cells=cells)

    def instances(self) -> list[InstanceKey]:
        return sorted({(f, i) for f, i, _ in self.cells})

    def algorithms(self) -> list[str]:
        return sorted({a for _, _, a in self.cells})

    def ert(self, instance: InstanceKey, algorithm: str) -> float:
        return self.cells[(instance[0], instance[1], algorithm)].ert

    def require_complete(self) -> None:
        algorithms = self.algorithms()
        for instance in self.instances():
            for algorithm in algorithms:
                if (instance[0], instance[1], algorithm) not in self.cells:
                    raise ValueError(f"table is missing {algorithm!r} on {instance}")

    def require_finite(self) -> None:
        for key, cell in self.cells.items():
            if math.isinf(cell.ert):
                raise ValueError(f"infinite ERT at {key}; impute the table first")

    def restrict(self, instances: list[InstanceKey]) -> "ErtTable":
        wanted = set(instances)
        cells = {k: v for k, v in self.cells.items() if (k[0], k[1]) in wanted}
        if not cells:
            raise ValueError("restriction removed every cell")
        return ErtTable(cells=cells)


def impute_table(table: ErtTable, penalty: float = DEFAULT_PENALTY) -> tuple[ErtTable, list[dict]]:
    """Impute every infinite cell; returns the new table and a log of the
    imputed cells."""
    cells = {}
    log = []
    for key, cell in table.cells.items():
        value = impute_ert(cell.ert, cell.budget, cell.runs, penalty)
        if math.isinf(cell.ert):
            log.append(
                {
                    "fid": key[0],
                    "iid": key[1],
                    "algorithm": key[2],
                    "imputed_ert": value,
                    "budget": cell.budget,
                    "runs": cell.runs,
                    "penalty": penalty,
                }
            )
        cells[key] = ErtCell(value, cell.runs, cell.successes, cell.budget)
    return ErtTable(cells=cells), log


def sbs(table: ErtTable) -> str:
    """The single best solver: minimal mean ERT across instances, ties
    resolved lexicographically.  Requires a complete, finite table."""
    table.require_complete()
    table.require_finite()
    instances = table.instances()
    best_alg = None
    best_mean = math.inf
    for algorithm in table.algorithms():
        mean = sum(table.ert(inst, algorithm) for inst in instances) / len(instances)
        if mean < best_mean:
            best_mean = mean
            best_alg = algorithm
    return best_alg


def sbs_performance(table: ErtTable) -> dict[InstanceKey, float]:
    """Per-instance ERT of the single best solver."""
    algorithm = sbs(table)
    return {inst: table.ert(inst, algorithm) for inst in table.instances()}


def vbs_performance(table: ErtTable) -> dict[InstanceKey, float]:
    """Per-instance minimum ERT over algorithms (the virtual best solver)."""
    table.require_complete()
    table.require_finite()
    algorithms = table.algorithms()
    return {inst: min(table.ert(inst, a) for a in algorithms) for inst in table.instances()}


def instance_labels(table: ErtTable) -> dict[InstanceKey, str]:
    """Per-instance ERT-minimizing algorithm, ties lexicographic."""
    table.require_complete()
    table.require_finite()
    algorithms = table.algorithms()
    return {
        inst: min(algorithms, key=lambda a: (table.ert(inst, a), a)) for inst in table.instances()
    }


def feature_cost_adjust(performance: dict[InstanceKey, float], design_size: int) -> dict[InstanceKey, float]:
    """Charge the evaluations spent on the feature design to each instance."""
    if design_size < 0:
        raise ValueError("design size must be non-negative")
    return {inst: value + design_size for inst, value in performance.items()}


def gap_closure(sbs_mean: float, vbs_mean: float, model_mean: float) -> float:
    """Fraction of the SBS-to-VBS gap closed: (sbs - model) / (sbs - vbs).

    1 means the model matches the VBS, 0 means it matches the SBS; values
    below 0 (worse than SBS) and above 1 are possible only for cost-adjusted
    or out-of-table performance.  Requires sbs_mean > vbs_mean.
    """
    if not sbs_mean > vbs_mean:
        raise ValueError("gap closure requires sbs_mean > vbs_mean")
    return (sbs_mean - model_mean) / (sbs_mean - vbs_mean)


def f1_macro(confusion: np.ndarray) -> float:
    """Macro-averaged F1 over a square confusion matrix (rows = true class,
    columns = predicted class).  Zero-denominator precision, recall, or F1
    contribute zero."""
    c = np.asarray(confusion, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("confusion matrix must be square")
    if np.any(c < 0):
        raise ValueError("confusion counts must be non-negative")
    if not np.any(c.sum(axis=1) > 0):
        raise ValueError("confusion matrix needs at least one non-zero row")
    scores = []
    for k in range(c.shape[0]):
        tp = c[k, k]
        col = c[:, k].sum()
        row = c[k, :].sum()
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        if precision + recall == 0.0:
            scores.append(0.0)
        else:
            scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores))


# ── selector models ──────────────────────────────────────────────────────────


def _aligned_arrays(
    features: dict[InstanceKey, FeatureVector], table: ErtTable
) -> tuple[np.ndarray, list[str], np.ndarray, list[str], list[InstanceKey]]:
    """The feature matrix (NaN where missing) and its column names, the ERT
    array and its column algorithms, and the instances, one row each in
    sorted order."""
    instances = table.instances()
    only = set(features) ^ set(instances)
    if only:
        side = "the features" if min(only) in features else "the performance table"
        raise ValueError(
            f"features must align one-to-one with the table's instances: {min(only)} is only in {side}"
        )
    names = list(features[instances[0]].names())
    matrix = np.empty((len(instances), len(names)))
    for r, inst in enumerate(instances):
        if list(features[inst].names()) != names:
            raise ValueError(f"feature names differ for instance {inst}")
        matrix[r] = [np.nan if v is None else v for v in features[inst].values.values()]
    algorithms = table.algorithms()
    erts = np.array([[table.ert(inst, a) for a in algorithms] for inst in instances])
    return matrix, names, erts, algorithms, instances


@dataclass
class SelectorModel:
    """A trained landscape-aware selector.

    Standardization parameters (training medians for imputing missing
    features, means, and standard deviations) come from the training split
    only; constant and all-missing training columns are dropped and recorded.
    """

    kind: str
    k: int
    cost_sensitive: bool
    algorithms: list[str]
    feature_names: list[str]
    dropped_columns: list[str]
    medians: np.ndarray
    center: np.ndarray
    scale: np.ndarray
    train_matrix: np.ndarray
    train_instances: list[InstanceKey]
    labels: list[str]
    weights: np.ndarray
    cost_matrix: np.ndarray
    centroids: dict[str, np.ndarray] = field(default_factory=dict)
    imputed_cells: list[tuple[str, str, str]] = field(default_factory=list)

    def _prepare(self, fv: FeatureVector) -> np.ndarray:
        raw = np.empty(len(self.feature_names))
        for c, name in enumerate(self.feature_names):
            v = fv.values.get(name)
            raw[c] = self.medians[c] if v is None else v
        z = (raw - self.center) / self.scale
        if not np.all(np.isfinite(z)):
            raise ValueError("feature vector is not finite after standardization")
        return z

    def _neighbors(self, z: np.ndarray) -> np.ndarray:
        d = np.sqrt(((self.train_matrix - z) ** 2).sum(axis=1))
        return np.argsort(d, kind="stable")[: self.k]

    def predict(self, fv: FeatureVector) -> str:
        z = self._prepare(fv)
        if self.kind == "nearest_centroid":
            return min(
                self.centroids,
                key=lambda a: (float(np.sqrt(((self.centroids[a] - z) ** 2).sum())), a),
            )
        idx = self._neighbors(z)
        if self.cost_sensitive:
            sums = self.cost_matrix[idx].sum(axis=0)
            best = np.flatnonzero(sums == sums.min())
            return self.algorithms[int(best[0])]
        votes: dict[str, int] = {}
        for i in idx:
            votes[self.labels[i]] = votes.get(self.labels[i], 0) + 1
        top = max(votes.values())
        return min(a for a, v in votes.items() if v == top)


def _fit(matrix: np.ndarray, names: list[str], erts: np.ndarray, algorithms: list[str],
         instances: list[InstanceKey], kind: str, k: int, cost_sensitive: bool) -> SelectorModel:
    """Fit a selector on training rows: row r of ``matrix`` and of ``erts``
    belongs to ``instances[r]``."""
    if kind not in SELECTOR_KINDS:
        raise ValueError(f"unknown selector kind {kind!r}")
    if not 1 <= k <= len(instances):
        raise ValueError(f"k must satisfy 1 <= k <= {len(instances)}")

    medians = np.empty(matrix.shape[1])
    for c in range(matrix.shape[1]):
        col = matrix[:, c]
        finite = col[~np.isnan(col)]
        medians[c] = np.median(finite) if finite.size else np.nan
    filled = np.where(np.isnan(matrix), medians[None, :], matrix)

    center = filled.mean(axis=0)
    scale = filled.std(axis=0)
    keep = np.isfinite(medians) & (scale > 0.0)
    dropped = [names[c] for c in range(len(names)) if not keep[c]]
    if not np.any(keep):
        raise ValueError("every feature column is constant or missing; nothing to train on")
    kept_names = [names[c] for c in range(len(names)) if keep[c]]
    Z = (filled[:, keep] - center[keep]) / scale[keep]

    # argmin keeps the first minimum: ties go to the lexicographically first algorithm
    labels = [algorithms[j] for j in erts.argmin(axis=1)]
    means = erts.mean(axis=1)
    weights = (means - erts.min(axis=1)) / means
    cost_matrix = erts / means[:, None]

    centroids: dict[str, np.ndarray] = {}
    if kind == "nearest_centroid":
        for algorithm in sorted(set(labels)):
            rows = [r for r, lab in enumerate(labels) if lab == algorithm]
            if cost_sensitive:
                w = weights[rows]
                if w.sum() > 0:
                    centroids[algorithm] = (Z[rows] * w[:, None]).sum(axis=0) / w.sum()
                else:
                    centroids[algorithm] = Z[rows].mean(axis=0)
            else:
                centroids[algorithm] = Z[rows].mean(axis=0)

    return SelectorModel(
        kind=kind,
        k=k,
        cost_sensitive=cost_sensitive,
        algorithms=algorithms,
        feature_names=kept_names,
        dropped_columns=dropped,
        medians=medians[keep],
        center=center[keep],
        scale=scale[keep],
        train_matrix=Z,
        train_instances=list(instances),
        labels=labels,
        weights=weights,
        cost_matrix=cost_matrix,
        centroids=centroids,
    )


def train_selector(
    features: dict[InstanceKey, FeatureVector],
    table: ErtTable,
    kind: str = "knn",
    k: int = 1,
    cost_sensitive: bool = False,
    penalty: float = DEFAULT_PENALTY,
) -> SelectorModel:
    """Fit a selector on aligned features and performance.

    ``features`` must cover exactly the table's instances.  Infinite ERT
    cells are imputed (recorded on the model).  The features become one
    matrix and the ERTs one array, rows in sorted instance order, and the
    same fit that serves each cross-validation fold runs on all rows.
    Per-instance regret weights are (mean ERT - min ERT) / mean ERT; the
    cost matrix normalizes each instance's ERT row by its mean, so a
    neighbor where all algorithms tie contributes no preference to
    cost-sensitive votes.
    """
    table.require_complete()
    table, log = impute_table(table, penalty)
    model = _fit(*_aligned_arrays(features, table), kind, k, cost_sensitive)
    model.imputed_cells = [(e["fid"], e["iid"], e["algorithm"]) for e in log]
    return model


# ── cross-validation ─────────────────────────────────────────────────────────


def _fold_key(scheme: str, instance: InstanceKey, groups: dict[InstanceKey, str] | None) -> str:
    if scheme == "leave_iid_out":
        return instance[1]
    if scheme == "leave_fid_out":
        return instance[0]
    if scheme == "leave_group_out":
        if groups is None or instance not in groups:
            raise ValueError(f"no group label for instance {instance}")
        return groups[instance]
    raise ValueError(f"unknown scheme {scheme!r}; choose from {CV_SCHEMES}")


def cross_validate(
    features: dict[InstanceKey, FeatureVector],
    table: ErtTable,
    scheme: str = "leave_iid_out",
    kind: str = "knn",
    k: int = 1,
    cost_sensitive: bool = False,
    groups: dict[InstanceKey, str] | None = None,
    feature_cost: int = 0,
    penalty: float = DEFAULT_PENALTY,
) -> dict:
    """Leave-one-group-out evaluation of a selector.

    Folds are keyed by instance id, function id, or explicit group labels;
    each fold is predicted by a model trained on everything else, so
    predictions depend on the training folds only.  The table is imputed
    once and the features and ERTs become one matrix and one array; each
    fold fits on its training rows of both, so medians, means and standard
    deviations still come from the training rows alone.  The report carries
    per instance selections, the confusion of predicted versus ERT-optimal
    algorithms, pooled and per-fold SBS/VBS/model means, the gap closure
    with its inputs, macro F1, and the imputation log.
    """
    table.require_complete()
    imputed, log = impute_table(table, penalty)
    matrix, names, erts, algorithms, instances = _aligned_arrays(features, imputed)
    folds: dict[str, list[int]] = {}
    for row, inst in enumerate(instances):
        folds.setdefault(_fold_key(scheme, inst, groups), []).append(row)
    if len(folds) < 2:
        raise ValueError(f"scheme {scheme!r} yields fewer than two folds")

    selections: dict[InstanceKey, str] = {}
    for key in sorted(folds):
        train = np.delete(np.arange(len(instances)), folds[key])
        model = _fit(matrix[train], names, erts[train], algorithms, [instances[r] for r in train],
                     kind, min(k, len(train)), cost_sensitive)
        for r in folds[key]:
            selections[instances[r]] = model.predict(features[instances[r]])

    vbs_perf = vbs_performance(imputed)
    sbs_algorithm = sbs(imputed)
    sbs_perf = {inst: imputed.ert(inst, sbs_algorithm) for inst in instances}
    model_perf = {inst: imputed.ert(inst, selections[inst]) for inst in instances}
    if feature_cost:
        model_perf = feature_cost_adjust(model_perf, feature_cost)

    labels = instance_labels(imputed)
    alg_index = {a: i for i, a in enumerate(algorithms)}
    confusion = np.zeros((len(algorithms), len(algorithms)), dtype=int)
    for inst in instances:
        confusion[alg_index[labels[inst]], alg_index[selections[inst]]] += 1

    def _means(subset: list[InstanceKey]) -> dict:
        sbs_m, vbs_m, model_m = (
            float(sum(perf[i] for i in subset) / len(subset)) for perf in (sbs_perf, vbs_perf, model_perf)
        )
        gap = gap_closure(sbs_m, vbs_m, model_m) if sbs_m > vbs_m else None
        return {"sbs_mean": sbs_m, "vbs_mean": vbs_m, "model_mean": model_m, "gap_closure": gap}

    pooled = {"sbs_algorithm": sbs_algorithm, **_means(instances)}
    per_fold = []
    for key in sorted(folds):
        subset = [instances[r] for r in folds[key]]
        per_fold.append({"fold": key, "instances": [list(i) for i in subset], **_means(subset)})
    return {
        "scheme": scheme,
        "selector": {
            "kind": kind,
            "k": k,
            "cost_sensitive": cost_sensitive,
            "feature_cost": feature_cost,
            "penalty": penalty,
        },
        "algorithms": algorithms,
        "selections": {f"{f}:{i}": a for (f, i), a in sorted(selections.items())},
        "true_labels": {f"{f}:{i}": a for (f, i), a in sorted(labels.items())},
        "confusion": confusion.tolist(),
        "f1_macro": f1_macro(confusion),
        "pooled": pooled,
        "per_fold": per_fold,
        "imputation_log": log,
    }


# ── file formats ─────────────────────────────────────────────────────────────

PERFORMANCE_HEADER = ["fid", "iid", "algorithm", "run", "evaluations", "success", "budget"]


def read_performance_csv(path: str | Path) -> list[PerformanceRecord]:
    """Read runs from CSV with header fid,iid,algorithm,run,evaluations,success,budget."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"performance file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != PERFORMANCE_HEADER:
        raise ValueError(f"{path}: expected header {','.join(PERFORMANCE_HEADER)}")
    records = []
    for lineno, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(PERFORMANCE_HEADER):
            raise ValueError(f"{path}:{lineno}: expected {len(PERFORMANCE_HEADER)} fields")
        fid, iid, algorithm, run, evaluations, success, budget = cells
        if success not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: success must be 0 or 1")
        try:
            records.append(
                PerformanceRecord(
                    fid=fid,
                    iid=iid,
                    algorithm=algorithm,
                    run=int(run),
                    evaluations=int(evaluations),
                    success=success == "1",
                    budget=int(budget),
                )
            )
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
    if not records:
        raise ValueError(f"{path}: no performance records")
    return records


def write_performance_csv(records: list[PerformanceRecord], path: str | Path) -> None:
    lines = [",".join(PERFORMANCE_HEADER)]
    for r in records:
        lines.append(
            f"{r.fid},{r.iid},{r.algorithm},{r.run},{r.evaluations},{1 if r.success else 0},{r.budget}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_features_csv(path: str | Path) -> dict[InstanceKey, FeatureVector]:
    """Read a batch feature table: header fid,iid,<feature names>; empty cells
    are missing features, every other cell must be a finite number."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"features file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["fid", "iid"]:
        raise ValueError(f"{path}: header must start with fid,iid")
    names = rows[0][2:]
    if not names:
        raise ValueError(f"{path}: no feature columns")
    out: dict[InstanceKey, FeatureVector] = {}
    for lineno, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} fields")
        key = (cells[0], cells[1])
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate instance {key}")
        values: dict[str, float | None] = {}
        reasons: dict[str, str] = {}
        for name, cell in zip(names, cells[2:]):
            if cell == "":
                values[name] = None
                reasons[name] = "missing_in_file"
            else:
                try:
                    values[name] = float(cell)
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: column {name}: {e}") from None
                if not math.isfinite(values[name]):
                    raise ValueError(f"{path}:{lineno}: column {name}: {cell!r} is not finite")
        out[key] = FeatureVector(values=values, reasons=reasons, meta={"source": str(path)})
    if not out:
        raise ValueError(f"{path}: no feature rows")
    return out


def write_features_csv(features: dict[InstanceKey, FeatureVector], path: str | Path) -> None:
    keys = sorted(features)
    names = list(features[keys[0]].names())
    lines = [",".join(["fid", "iid"] + names)]
    for key in keys:
        fv = features[key]
        cells = [key[0], key[1]]
        for name in names:
            v = fv[name]
            cells.append("" if v is None else repr(float(v)))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
