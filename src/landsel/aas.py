"""Algorithm-selection harness: ERT tables, baselines, selectors, evaluation.

Performance data is read straight into one :class:`ErtTable`, whose arrays
hold one cell per (instance, algorithm).  A cell's expected running time
(ERT) is the sum of evaluations spent over its runs divided by the number of
successful runs; with zero successes the ERT is infinite and is imputed as
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
where the choice barely matters barely influence the vote.  Selectors are
fitted and scored only inside :func:`cross_validate`: leave-one-group-out
cross-validation with folds keyed by instance id, by function id, or by
explicit group labels; the features become one matrix, and each fold fits
on its training rows and predicts its held-out rows of it, in algorithm
column indices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ela import FeatureVector

DEFAULT_PENALTY = 10.0
CV_SCHEMES = ("leave_iid_out", "leave_fid_out", "leave_group_out")
SELECTOR_KINDS = ("knn", "nearest_centroid")
_INT64_MAX = int(np.iinfo(np.int64).max)

InstanceKey = tuple[str, str]


def _check_run(evaluations: int, budget: int) -> None:
    if evaluations < 1:
        raise ValueError("evaluations must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if evaluations > budget:
        raise ValueError("evaluations cannot exceed the budget")


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
        _check_run(self.evaluations, self.budget)


def _add_run(cells: dict, key: tuple[str, str, str], run: int, evaluations: int, success: bool,
             budget: int) -> None:
    """Check one run and fold it into its cell's [evaluations, successes, run
    ids, largest budget]; ``cells`` keeps first-appearance order."""
    _check_run(evaluations, budget)
    if budget > _INT64_MAX:
        raise ValueError(f"budget {budget} does not fit in 64 bits")
    cell = cells.setdefault(key, [0, 0, set(), 0])
    if run in cell[2]:
        raise ValueError(f"duplicate run id {run} for {key}")
    cell[0] += evaluations
    cell[1] += success
    cell[2].add(run)
    cell[3] = max(cell[3], budget)


@dataclass(frozen=True, eq=False)
class ErtTable:
    """ERT per (instance, algorithm): rows follow the sorted ``instances``,
    columns the sorted ``algorithms``, and every cell is present.

    ``ert`` is infinite where no run succeeded (impute it before the
    baselines); ``runs`` counts the runs, ``budget`` is their largest budget,
    and ``rank`` orders the cells by first appearance in the input.
    """

    instances: list[InstanceKey]
    algorithms: list[str]
    ert: np.ndarray
    runs: np.ndarray
    budget: np.ndarray
    rank: np.ndarray

    @classmethod
    def _from_cells(cls, cells: dict) -> "ErtTable":
        if not cells:
            raise ValueError("no performance records")
        instances = sorted({key[:2] for key in cells})
        algorithms = sorted({key[2] for key in cells})
        row = {inst: r for r, inst in enumerate(instances)}
        col = {a: c for c, a in enumerate(algorithms)}
        shape = (len(instances), len(algorithms))
        ert = np.empty(shape)
        runs, budget, rank = (np.full(shape, -1, dtype=np.int64) for _ in range(3))
        for n, ((fid, iid, algorithm), (evaluations, successes, ids, top)) in enumerate(cells.items()):
            r, c = row[fid, iid], col[algorithm]
            ert[r, c] = evaluations / successes if successes else math.inf
            runs[r, c], budget[r, c], rank[r, c] = len(ids), top, n
        if len(cells) < rank.size:
            r, c = np.argwhere(rank < 0)[0]
            raise ValueError(f"table is missing {algorithms[c]!r} on {instances[r]}")
        return cls(instances, algorithms, ert, runs, budget, rank)


def impute_table(table: ErtTable, penalty: float = DEFAULT_PENALTY) -> tuple[ErtTable, list[dict]]:
    """Impute every infinite cell; returns the new table and a log of the
    imputed cells in input order."""
    if not 1 <= penalty < math.inf:
        raise ValueError("penalty must be at least 1 and finite")
    infinite = np.argwhere(np.isinf(table.ert))
    ert = table.ert.copy()
    log = []
    for r, c in infinite[np.argsort(table.rank[tuple(infinite.T)])].tolist():
        budget, runs = int(table.budget[r, c]), int(table.runs[r, c])
        ert[r, c] = value = float(budget) * runs * penalty
        fid, iid = table.instances[r]
        log.append({"fid": fid, "iid": iid, "algorithm": table.algorithms[c], "imputed_ert": value,
                    "budget": budget, "runs": runs, "penalty": penalty})
    return replace(table, ert=ert), log


def _finite_ert(table: ErtTable) -> np.ndarray:
    infinite = np.argwhere(np.isinf(table.ert))
    if infinite.size:
        r, c = infinite[0]
        key = (*table.instances[r], table.algorithms[c])
        raise ValueError(f"infinite ERT at {key}; impute the table first")
    return table.ert


def sbs(table: ErtTable) -> str:
    """The single best solver: minimal mean ERT across instances, ties
    resolved lexicographically.  Requires a finite table."""
    # an axis-0 sum adds the rows in order; argmin keeps the first tied mean
    means = _finite_ert(table).sum(axis=0) / len(table.instances)
    return table.algorithms[int(np.argmin(means))]


def vbs_performance(table: ErtTable) -> np.ndarray:
    """Per-instance minimum ERT over algorithms (the virtual best solver),
    one value per row of the table."""
    return _finite_ert(table).min(axis=1)


def instance_labels(table: ErtTable) -> np.ndarray:
    """Per-instance column of the ERT-minimizing algorithm; argmin keeps the
    first minimum, so ties go to the lexicographically first algorithm."""
    return _finite_ert(table).argmin(axis=1)


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
    tp, predicted, true = np.diag(c), c.sum(axis=0), c.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, true, out=np.zeros_like(tp), where=true > 0)
    total = precision + recall
    return float(np.divide(2 * precision * recall, total, out=np.zeros_like(tp), where=total > 0).mean())


# ── selector models ──────────────────────────────────────────────────────────


def _feature_matrix(features: dict[InstanceKey, FeatureVector], instances: list[InstanceKey]) -> np.ndarray:
    """The feature matrix (NaN where missing), one row per instance of the
    table."""
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
        matrix[r] = list(features[inst].values.values())  # None becomes NaN
    return matrix


@dataclass
class SelectorModel:
    """A landscape-aware selector fitted on one cross-validation fold.

    Standardization parameters (training medians for imputing missing
    features, means, and standard deviations) come from the training split
    only; constant and all-missing training columns are dropped, and
    ``columns`` keeps the indices of the others among the matrix columns.
    ``labels`` holds each training row's algorithm column, and ``centroids``
    one row per labelled algorithm in sorted-algorithm order.
    """

    kind: str
    k: int
    cost_sensitive: bool
    algorithms: list[str]
    columns: np.ndarray
    medians: np.ndarray
    center: np.ndarray
    scale: np.ndarray
    train_matrix: np.ndarray
    labels: np.ndarray
    cost_matrix: np.ndarray
    centroids: np.ndarray

    def select(self, rows: np.ndarray) -> np.ndarray:
        """The algorithm column chosen for each raw row (the training
        matrix's column layout, NaN where missing).  Ties go to the first
        algorithm: the first maximum vote, the first minimum cost sum, the
        first nearest centroid."""
        raw = rows[:, self.columns]
        z = (np.where(np.isnan(raw), self.medians, raw) - self.center) / self.scale
        if not np.all(np.isfinite(z)):
            raise ValueError("feature rows are not finite after standardization")
        classes = np.flatnonzero(np.bincount(self.labels, minlength=len(self.algorithms)))
        selected = np.empty(len(z), dtype=np.intp)
        # one held-out row at a time: no held-out x train x width array
        for r, row in enumerate(z):
            if self.kind == "nearest_centroid":
                selected[r] = classes[np.argmin(np.sqrt(((self.centroids - row) ** 2).sum(axis=1)))]
                continue
            distances = np.sqrt(((self.train_matrix - row) ** 2).sum(axis=1))
            near = np.argsort(distances, kind="stable")[: self.k]
            if self.cost_sensitive:
                selected[r] = np.argmin(self.cost_matrix[near].sum(axis=0))
            else:
                selected[r] = np.argmax(np.bincount(self.labels[near], minlength=len(self.algorithms)))
        return selected


def _column_medians(matrix: np.ndarray) -> np.ndarray:
    """Median of each column's present (non-NaN) cells; NaN where none is
    present.  Bit-equal to ``np.nanmedian(matrix, axis=0)`` without its
    ``numpy.ma`` import."""
    # NaNs sort last, so the middle one or two present cells lead.
    # np.nanmedian sums them from 0.0, so a zero median comes out +0.0; the
    # "+ 0.0" does the same.
    counts = np.count_nonzero(~np.isnan(matrix), axis=0)
    ordered = np.sort(matrix, axis=0)
    columns = np.arange(matrix.shape[1])
    return (ordered[(counts - 1) // 2, columns] + ordered[counts // 2, columns] + 0.0) / 2


def _fit(matrix: np.ndarray, erts: np.ndarray, algorithms: list[str], kind: str, k: int,
         cost_sensitive: bool) -> SelectorModel:
    """Fit a selector on training rows: one instance per row of ``matrix``
    and of the imputed ``erts``.

    Per-instance regret weights are (mean ERT - min ERT) / mean ERT; the
    cost matrix normalizes each instance's ERT row by its mean, so a
    neighbor where all algorithms tie contributes no preference to
    cost-sensitive votes.
    """
    if kind not in SELECTOR_KINDS:
        raise ValueError(f"unknown selector kind {kind!r}")
    if not 1 <= k <= len(erts):
        raise ValueError(f"k must satisfy 1 <= k <= {len(erts)}")

    medians = _column_medians(matrix)
    filled = np.where(np.isnan(matrix), medians[None, :], matrix)

    center = filled.mean(axis=0)
    scale = filled.std(axis=0)
    columns = np.flatnonzero(np.isfinite(medians) & (scale > 0.0))
    if not columns.size:
        raise ValueError("every feature column is constant or missing; nothing to train on")
    Z = (filled[:, columns] - center[columns]) / scale[columns]

    # argmin keeps the first minimum: ties go to the lexicographically first algorithm
    labels = erts.argmin(axis=1)
    means = erts.mean(axis=1)
    weights = (means - erts.min(axis=1)) / means
    cost_matrix = erts / means[:, None]

    centroids = []
    if kind == "nearest_centroid":
        for c in np.flatnonzero(np.bincount(labels, minlength=len(algorithms))):
            rows, w = Z[labels == c], weights[labels == c]
            if cost_sensitive and w.sum() > 0:
                centroids.append((rows * w[:, None]).sum(axis=0) / w.sum())
            else:
                centroids.append(rows.mean(axis=0))

    return SelectorModel(
        kind=kind,
        k=k,
        cost_sensitive=cost_sensitive,
        algorithms=algorithms,
        columns=columns,
        medians=medians[columns],
        center=center[columns],
        scale=scale[columns],
        train_matrix=Z,
        labels=labels,
        cost_matrix=cost_matrix,
        centroids=np.array(centroids),
    )


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
    once and the features become one matrix; each fold fits on its training
    rows of the matrix and the ERT array, so medians, means and standard
    deviations still come from the training rows alone, and predicts its
    held-out rows of the same matrix with ``SelectorModel.select``.  The
    report carries per instance selections, the confusion of predicted
    versus ERT-optimal algorithms, pooled and per-fold SBS/VBS/model means,
    the gap closure with its inputs, macro F1, and the imputation log.
    ``feature_cost`` evaluations, spent on each instance's feature design,
    are charged to every model selection.
    """
    if feature_cost < 0:
        raise ValueError("design size must be non-negative")
    imputed, log = impute_table(table, penalty)
    instances, algorithms, erts = imputed.instances, imputed.algorithms, imputed.ert
    matrix = _feature_matrix(features, instances)
    folds: dict[str, list[int]] = {}
    for row, inst in enumerate(instances):
        folds.setdefault(_fold_key(scheme, inst, groups), []).append(row)
    if len(folds) < 2:
        raise ValueError(f"scheme {scheme!r} yields fewer than two folds")

    rows = np.arange(len(instances))
    selected = np.empty(len(instances), dtype=np.intp)
    for key in sorted(folds):
        train = np.delete(rows, folds[key])
        model = _fit(matrix[train], erts[train], algorithms, kind, min(k, len(train)), cost_sensitive)
        selected[folds[key]] = model.select(matrix[folds[key]])

    sbs_algorithm = sbs(imputed)
    # SBS, VBS and model columns; an axis-0 sum adds their C-ordered rows in order
    perf = np.column_stack([erts[:, algorithms.index(sbs_algorithm)], vbs_performance(imputed),
                            erts[rows, selected] + feature_cost])
    labels = instance_labels(imputed)
    confusion = np.zeros((len(algorithms), len(algorithms)), dtype=int)
    np.add.at(confusion, (labels, selected), 1)

    def _means(subset) -> dict:
        sbs_m, vbs_m, model_m = (perf[subset].sum(axis=0) / len(subset)).tolist()
        gap = gap_closure(sbs_m, vbs_m, model_m) if sbs_m > vbs_m else None
        return {"sbs_mean": sbs_m, "vbs_mean": vbs_m, "model_mean": model_m, "gap_closure": gap}

    pooled = {"sbs_algorithm": sbs_algorithm, **_means(rows)}
    per_fold = [{"fold": key, "instances": [list(instances[r]) for r in folds[key]], **_means(folds[key])}
                for key in sorted(folds)]
    return {
        "scheme": scheme,
        "selector": {
            "kind": kind,
            "k": k,
            "cost_sensitive": cost_sensitive,
            "feature_cost": feature_cost,
            "penalty": penalty,
        },
        "algorithms": list(algorithms),
        "selections": {f"{f}:{i}": algorithms[j] for (f, i), j in zip(instances, selected.tolist())},
        "true_labels": {f"{f}:{i}": algorithms[j] for (f, i), j in zip(instances, labels.tolist())},
        "confusion": confusion.tolist(),
        "f1_macro": f1_macro(confusion),
        "pooled": pooled,
        "per_fold": per_fold,
        "imputation_log": log,
    }


# ── file formats ─────────────────────────────────────────────────────────────

PERFORMANCE_HEADER = ["fid", "iid", "algorithm", "run", "evaluations", "success", "budget"]


def _csv_rows(path: Path, what: str) -> list[list[str]]:
    """Every row of a CSV file; a missing file, bytes that do not decode and
    malformed CSV are ValueErrors that name the file."""
    if not path.exists():
        raise ValueError(f"{what} file not found: {path}")
    with open(path, newline="") as fh:
        try:
            return list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as e:
            raise ValueError(f"{path}: {e}") from None


def read_performance_csv(path: str | Path) -> ErtTable:
    """Read runs from CSV with header fid,iid,algorithm,run,evaluations,success,budget
    straight into an :class:`ErtTable`; every algorithm needs runs on every
    instance.  Errors name the file, and the line where one row is at fault."""
    path = Path(path)
    rows = _csv_rows(path, "performance")
    if not rows or rows[0] != PERFORMANCE_HEADER:
        raise ValueError(f"{path}: expected header {','.join(PERFORMANCE_HEADER)}")
    cells: dict = {}
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != len(PERFORMANCE_HEADER):
                raise ValueError(f"expected {len(PERFORMANCE_HEADER)} fields")
            fid, iid, algorithm, run, evaluations, success, budget = row
            if success not in ("0", "1"):
                raise ValueError("success must be 0 or 1")
            _add_run(cells, (fid, iid, algorithm), int(run), int(evaluations), success == "1", int(budget))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    try:
        return ErtTable._from_cells(cells)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def write_performance_csv(records: list[PerformanceRecord], path: str | Path) -> None:
    """Write runs in the layout ``read_performance_csv`` reads; cells that
    hold a comma, a quote or a line break are quoted, all others written
    as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PERFORMANCE_HEADER)
        writer.writerows(
            (r.fid, r.iid, r.algorithm, r.run, r.evaluations, 1 if r.success else 0, r.budget) for r in records
        )


def read_features_csv(path: str | Path) -> dict[InstanceKey, FeatureVector]:
    """Read a batch feature table: header fid,iid,<feature names>; empty cells
    are missing features, every other cell must be a finite number."""
    path = Path(path)
    rows = _csv_rows(path, "features")
    if not rows or rows[0][:2] != ["fid", "iid"]:
        raise ValueError(f"{path}: header must start with fid,iid")
    names = rows[0][2:]
    if not names:
        raise ValueError(f"{path}: no feature columns")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{path}: feature column {name!r} is repeated")
        seen.add(name)
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
    """Write a batch feature table in the layout ``read_features_csv``
    reads, quoting cells as ``write_performance_csv`` does; missing features
    are empty cells."""
    keys = sorted(features)
    names = list(features[keys[0]].names())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fid", "iid", *names])
        for key in keys:
            values = [features[key][name] for name in names]
            writer.writerow([*key, *("" if v is None else repr(float(v)) for v in values)])
