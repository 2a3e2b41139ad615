"""Preprocessing: hierarchy relaxation, objective normalization, encoding, scaling.

The pipeline runs in a fixed order — relax_hierarchy, normalize_objective,
encode (one-hot or target), normalize_decision — and produces a fully numeric
matrix in the unit cube plus a unit-range objective.  Landscape features are
computed on this processed form only, which is what makes them invariant to
shifting and scaling of the raw objective: any strictly monotone affine map
a*y + b (a > 0) is cancelled by the min-max normalization.

The cancellation is exact, not approximate.  ``normalize_objective`` converts
each input value to an exact integer ratio, forms (y_i - min) / (max - min) in
arbitrary-precision integer arithmetic, and rounds once to float64.  Two input
vectors that are exact affine images of each other therefore normalize to
bit-identical outputs; pairing this with the exact rationals returned by
``apply_transform`` makes the invariance a theorem rather than a tolerance.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .sampling import Design, with_objective
from .space import SearchSpace

ENCODINGS = ("none", "one_hot", "target")

# Elements per temporary block of pairwise_distances: small enough to stay in
# cache, large enough that per-call overhead is negligible.
_DISTANCE_BLOCK = 1 << 15


def _exact_ratio(value) -> tuple[int, int]:
    try:
        if isinstance(value, (int, float)):
            return value.as_integer_ratio()
        if hasattr(value, "as_integer_ratio"):
            return value.as_integer_ratio()
        return Fraction(value).as_integer_ratio()
    except (ValueError, OverflowError) as e:
        raise ValueError(f"objective values must be finite: {value!r}") from e


def minmax_unit(values) -> np.ndarray:
    """Min-max rescale a real vector to [0, 1], exactly; constant input -> zeros.

    Accepts floats, ints, or exact rationals.  The ratio (v - min) / (max - min)
    is computed in exact integer arithmetic with a single correctly rounded
    float64 division at the end, so vectors related by an exact affine map with
    positive scale produce bit-identical results.
    """
    seq = list(values)
    if len(seq) == 0:
        raise ValueError("cannot normalize an empty vector")
    pairs = [_exact_ratio(v) for v in seq]
    denom_lcm = math.lcm(*(d for _, d in pairs))
    nums = [nu * (denom_lcm // de) for nu, de in pairs]
    lo = min(nums)
    hi = max(nums)
    if hi == lo:
        return np.zeros(len(nums))
    span = hi - lo
    return np.array([(x - lo) / span for x in nums])


def normalize_objective(y) -> np.ndarray:
    """Normalize objective values to [0, 1] by exact min-max; see minmax_unit."""
    return minmax_unit(y)


@dataclass
class ProcessedDesign:
    """A numeric view of an evaluated design.

    ``matrix`` is n-by-D' float64; ``objective`` is the normalized objective;
    ``column_names`` and ``column_map`` (variable -> column indices) describe
    how variables were expanded; ``provenance`` records the pipeline stages and
    parameters.  After ``normalize_decision`` every matrix entry lies in
    [0, 1] and ``decision_normalized`` is True.
    """

    matrix: np.ndarray
    objective: np.ndarray
    column_names: tuple[str, ...]
    column_map: dict[str, tuple[int, ...]]
    encoding: str
    space: SearchSpace
    provenance: dict = field(default_factory=dict)
    decision_normalized: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.objective = np.asarray(self.objective, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        n, width = self.matrix.shape
        if self.objective.shape != (n,):
            raise ValueError("objective must have one value per row")
        if len(self.column_names) != width:
            raise ValueError("column_names must match the matrix width")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix entries must be finite")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective entries must be finite")
        if self.objective.size and (self.objective.min() < 0 or self.objective.max() > 1):
            raise ValueError("objective must be normalized to [0, 1]")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.decision_normalized:
            if self.matrix.size and (self.matrix.min() < 0 or self.matrix.max() > 1):
                raise ValueError("decision-normalized matrix must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """Read-only n-by-n Euclidean distances between the rows of ``matrix``,
        computed on first use and shared by every feature set and map that
        needs them (see :func:`pairwise_distances`)."""
        dm = pairwise_distances(self.matrix)
        dm.setflags(write=False)
        return dm

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def pairwise_distances(X) -> np.ndarray:
    """Euclidean distances between all rows of ``X`` as an n-by-n matrix.

    Each distance sums the squared coordinate differences column by column,
    in column order, then takes the square root.  That is scipy's summation
    order, so the result is bit-equal to ``scipy.spatial.distance.cdist(X, X)``
    and its upper triangle, read row-major, to ``pdist(X)``.  Rows are taken
    in blocks over the upper triangle, each block's temporaries holding about
    ``_DISTANCE_BLOCK`` elements, and every block is mirrored below the
    diagonal.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    dm = np.empty((n, n))
    columns = np.ascontiguousarray(X.T)
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, _DISTANCE_BLOCK // (n - i0)))
        acc = np.zeros((i1 - i0, n - i0))
        diff = np.empty_like(acc)
        for col in columns:
            np.subtract(col[i0:i1, None], col[None, i0:], out=diff)
            np.multiply(diff, diff, out=diff)
            acc += diff
        np.sqrt(acc, out=acc)
        dm[i0:i1, i0:] = acc
        dm[i0:, i0:i1] = acc.T
        i0 = i1
    return dm


# ── hierarchy relaxation ─────────────────────────────────────────────────────


def _is_missing(v, kind: str) -> bool:
    if kind == "categorical":
        return v is None
    return v != v  # NaN


def _activity_mask(design: Design) -> np.ndarray:
    """Row-by-variable activity: unconditioned variables are always active; a
    conditioned variable is active where its parent is active and takes an
    activating value.  Evaluated in dependency order (the graph is acyclic)."""
    space = design.space
    n = design.n
    mask = np.ones((n, space.dimension), dtype=bool)
    index = {name: j for j, name in enumerate(space.names)}
    resolved: dict[str, np.ndarray] = {}

    def resolve(name: str) -> np.ndarray:
        if name in resolved:
            return resolved[name]
        v = space[name]
        if v.condition is None:
            active = np.ones(n, dtype=bool)
        else:
            parent_active = resolve(v.condition.parent)
            parent_col = design.columns[v.condition.parent]
            hits = np.array([cell in v.condition.values for cell in parent_col], dtype=bool)
            active = parent_active & hits
        resolved[name] = active
        return active

    for name in space.names:
        mask[:, index[name]] = resolve(name)
    return mask


def relax_hierarchy(design: Design) -> Design:
    """Fill hierarchically inactive cells so every variable is fully populated.

    Missing inactive cells are imputed with the variable's midpoint (integer
    midpoints round ties toward the lower value) or first category; a missing
    cell for an *active* variable is an error.  The activity mask is kept in
    the design meta under ``active_mask`` (row-major, variable order).  A
    design without conditions and without missing cells passes through
    unchanged.
    """
    space = design.space
    has_conditions = any(v.condition is not None for v in space.variables)
    has_missing = any(
        any(_is_missing(cell, v.kind) for cell in design.columns[v.name])
        for v in space.variables
    )
    if not has_conditions and not has_missing:
        return design
    mask = _activity_mask(design)
    columns: dict[str, np.ndarray] = {}
    for j, v in enumerate(space.variables):
        col = np.array(design.columns[v.name], dtype=object if v.kind == "categorical" else float)
        for i in range(design.n):
            if not _is_missing(col[i], v.kind):
                continue
            if mask[i, j]:
                raise ValueError(f"row {i}: missing value for active variable {v.name!r}")
            if v.kind == "categorical":
                col[i] = v.categories[0]
            elif v.kind == "integer":
                col[i] = float(math.ceil((v.lower + v.upper) / 2 - 0.5))
            else:
                col[i] = (v.lower + v.upper) / 2
        columns[v.name] = col
    meta = dict(design.meta)
    meta["active_mask"] = mask
    return Design(space=space, columns=columns, y=design.y, meta=meta)


# ── encodings ────────────────────────────────────────────────────────────────


def _numeric_column(design: Design, name: str) -> np.ndarray:
    col = np.asarray(design.columns[name], dtype=float)
    if np.any(~np.isfinite(col)):
        raise ValueError(f"{name}: missing cells; run relax_hierarchy first")
    return col


def _require_evaluated(design: Design) -> None:
    if not design.evaluated:
        raise ValueError("design must be evaluated before encoding")


def _objective_as_float(design: Design) -> np.ndarray:
    return np.array([float(v) for v in design.y])


def encode_none(design: Design) -> ProcessedDesign:
    """Pass-through encoding for purely numeric spaces."""
    _require_evaluated(design)
    if not design.space.is_numeric():
        raise ValueError("encoding 'none' requires a space without categorical variables")
    cols = [_numeric_column(design, name) for name in design.space.names]
    column_map = {name: (j,) for j, name in enumerate(design.space.names)}
    return ProcessedDesign(
        matrix=np.column_stack(cols) if cols else np.empty((design.n, 0)),
        objective=_objective_as_float(design),
        column_names=design.space.names,
        column_map=column_map,
        encoding="none",
        space=design.space,
    )


def encode_one_hot(design: Design) -> ProcessedDesign:
    """Expand each categorical variable into one indicator column per category.

    Numeric variables pass through.  Column names are ``<var>`` for numeric
    columns and ``<var>=<category>`` for indicators.  Produced indicator
    columns sum to exactly one per row.
    """
    _require_evaluated(design)
    names: list[str] = []
    cols: list[np.ndarray] = []
    column_map: dict[str, tuple[int, ...]] = {}
    for v in design.space.variables:
        if v.kind == "categorical":
            raw = design.columns[v.name]
            start = len(cols)
            for cat in v.categories:
                names.append(f"{v.name}={cat}")
                cols.append(np.array([1.0 if cell == cat else 0.0 for cell in raw]))
            for i, cell in enumerate(raw):
                if cell is None:
                    raise ValueError(f"{v.name}: missing cells; run relax_hierarchy first")
                if cell not in v.categories:
                    raise ValueError(f"{v.name}: unseen label {cell!r}")
            column_map[v.name] = tuple(range(start, len(cols)))
        else:
            column_map[v.name] = (len(cols),)
            names.append(v.name)
            cols.append(_numeric_column(design, v.name))
    return ProcessedDesign(
        matrix=np.column_stack(cols),
        objective=_objective_as_float(design),
        column_names=tuple(names),
        column_map=column_map,
        encoding="one_hot",
        space=design.space,
    )


def encode_target(design: Design, smoothing: float = 0.0) -> ProcessedDesign:
    """Replace each category label with a smoothed mean of the normalized objective.

    A cell in category c becomes (sum of y over rows in c + m * ybar) /
    (count(c) + m), where ybar is the global mean and m >= 0 the smoothing
    strength; m = 0 gives the plain per-category mean, and as m grows every
    category shrinks toward ybar.  Requires the objective to be normalized
    already (the pipeline guarantees this).  Dimensionality is preserved: one
    column per variable.
    """
    _require_evaluated(design)
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    y = _objective_as_float(design)
    if y.min() < 0 or y.max() > 1:
        raise ValueError("target encoding requires a normalized objective")
    ybar = float(y.mean())
    names: list[str] = []
    cols: list[np.ndarray] = []
    column_map: dict[str, tuple[int, ...]] = {}
    for j, v in enumerate(design.space.variables):
        names.append(v.name)
        column_map[v.name] = (j,)
        if v.kind != "categorical":
            cols.append(_numeric_column(design, v.name))
            continue
        raw = design.columns[v.name]
        table: dict = {}
        for cat in v.categories:
            hits = np.array([cell == cat for cell in raw], dtype=bool)
            count = int(hits.sum())
            if count == 0:
                if smoothing == 0:
                    raise ValueError(
                        f"{v.name}: category {cat!r} has zero rows and smoothing is zero"
                    )
                table[cat] = ybar
            else:
                table[cat] = (float(y[hits].sum()) + smoothing * ybar) / (count + smoothing)
        encoded = np.empty(design.n)
        for i, cell in enumerate(raw):
            if cell is None:
                raise ValueError(f"{v.name}: missing cells; run relax_hierarchy first")
            encoded[i] = table[cell]
        cols.append(encoded)
    return ProcessedDesign(
        matrix=np.column_stack(cols),
        objective=y,
        column_names=tuple(names),
        column_map=column_map,
        encoding="target",
        space=design.space,
    )


# ── decision normalization ───────────────────────────────────────────────────


def normalize_decision(pd: ProcessedDesign) -> ProcessedDesign:
    """Scale the decision matrix into the unit cube.

    Continuous and integer columns are scaled by the declared bounds (values
    outside their bounds are an error); one-hot indicator columns are already
    0/1 and pass through; target-encoded categorical columns are min-max
    scaled over the sample (constant -> zeros).
    """
    matrix = pd.matrix.copy()
    for v in pd.space.variables:
        idxs = pd.column_map[v.name]
        if v.kind == "categorical":
            if pd.encoding == "one_hot":
                continue
            if pd.encoding == "target":
                for j in idxs:
                    matrix[:, j] = minmax_unit(matrix[:, j])
                continue
            raise ValueError("categorical variables require one_hot or target encoding")
        (j,) = idxs
        col = matrix[:, j]
        if col.min() < v.lower or col.max() > v.upper:
            raise ValueError(f"{v.name}: value outside declared bounds [{v.lower}, {v.upper}]")
        if v.upper == v.lower:
            matrix[:, j] = 0.0
        else:
            matrix[:, j] = (col - v.lower) / (v.upper - v.lower)
    provenance = dict(pd.provenance)
    return ProcessedDesign(
        matrix=matrix,
        objective=pd.objective,
        column_names=pd.column_names,
        column_map=dict(pd.column_map),
        encoding=pd.encoding,
        space=pd.space,
        provenance=provenance,
        decision_normalized=True,
    )


# ── the pipeline ─────────────────────────────────────────────────────────────


def preprocess_pipeline(
    design: Design, encoding: str = "none", smoothing: float = 0.0
) -> ProcessedDesign:
    """Run relax_hierarchy -> normalize_objective -> encode -> normalize_decision.

    The output matrix and objective lie in [0, 1]; provenance records the
    stages, the encoding, the smoothing strength, and the source design meta.
    Objective vectors that are exact affine images of each other (positive
    scale) yield bit-identical outputs.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}; choose from {ENCODINGS}")
    _require_evaluated(design)
    if encoding == "none" and not design.space.is_numeric():
        raise ValueError("encoding 'none' requires a purely numeric space")
    relaxed = relax_hierarchy(design)
    yn = normalize_objective(relaxed.y)
    normalized = with_objective(relaxed, yn)
    if encoding == "one_hot":
        pd = encode_one_hot(normalized)
    elif encoding == "target":
        pd = encode_target(normalized, smoothing)
    else:
        pd = encode_none(normalized)
    out = normalize_decision(pd)
    out.provenance = {
        "stages": ["relax_hierarchy", "normalize_objective", f"encode_{encoding}", "normalize_decision"],
        "encoding": encoding,
        "smoothing": smoothing,
        "source_meta": {
            k: v for k, v in design.meta.items() if k in ("seed", "strategy", "n", "evaluations_spent")
        },
    }
    if encoding == "one_hot":
        for v in design.space.variables:
            if v.kind != "categorical":
                continue
            sums = out.matrix[:, list(out.column_map[v.name])].sum(axis=1)
            if not np.all(sums == 1.0):
                raise ValueError(f"{v.name}: indicator columns must sum to one per row")
    return out


# ── CSV export ───────────────────────────────────────────────────────────────


def processed_to_csv(pd: ProcessedDesign, path: str | Path) -> None:
    """Write the processed matrix plus objective as CSV with a provenance sidecar."""
    path = Path(path)
    lines = [",".join(list(pd.column_names) + ["y"])]
    for i in range(pd.n):
        cells = [repr(float(x)) for x in pd.matrix[i]]
        cells.append(repr(float(pd.objective[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    sidecar = path.with_name(path.stem + ".provenance.json")
    doc = {
        "provenance": pd.provenance,
        "encoding": pd.encoding,
        "column_names": list(pd.column_names),
        "column_map": {k: list(v) for k, v in pd.column_map.items()},
        "decision_normalized": pd.decision_normalized,
    }
    sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
