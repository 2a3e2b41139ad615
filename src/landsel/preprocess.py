"""Preprocessing: hierarchy relaxation, objective normalization, encoding, scaling.

``preprocess_pipeline`` fills hierarchically inactive cells
(``relax_hierarchy``), min-max normalizes the objective, then takes each
variable in one pass straight to its unit-cube column or columns: numeric
variables scaled by their bounds, categorical ones one-hot or target
encoded.  The result is a fully numeric matrix in the unit cube plus a
unit-range objective.  Landscape features are computed on this processed
form only, which is what makes them invariant to shifting and scaling of the
raw objective: any strictly monotone affine map a*y + b (a > 0) is cancelled
by the min-max normalization.

The cancellation is exact, not approximate.  ``minmax_unit`` converts
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
from pathlib import Path

import numpy as np

from .sampling import Design
from .space import SearchSpace, exact_ratio

ENCODINGS = ("none", "one_hot", "target")

# Elements per temporary block of pairwise_distances: small enough to stay in
# cache, large enough that per-call overhead is negligible.
_DISTANCE_BLOCK = 1 << 15
# Largest float64 distance matrix a design may allocate: 1 GiB, that is at
# most 11,585 rows.  A (40, 2000) design needs 32 MB.
MAX_DISTANCE_BYTES = 1 << 30


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
    pairs = [exact_ratio(v) for v in seq]
    denom_lcm = math.lcm(*(d for _, d in pairs))
    nums = [nu * (denom_lcm // de) for nu, de in pairs]
    lo = min(nums)
    hi = max(nums)
    if hi == lo:
        return np.zeros(len(nums))
    span = hi - lo
    return np.array([(x - lo) / span for x in nums])


@dataclass
class ProcessedDesign:
    """A numeric view of an evaluated design.

    ``matrix`` is n-by-D' float64; ``objective`` is the normalized objective;
    ``column_names`` and ``column_map`` (variable -> column indices) describe
    how variables were expanded; ``provenance`` records the pipeline stages and
    parameters.  Every matrix entry lies in the unit cube [0, 1].
    """

    matrix: np.ndarray
    objective: np.ndarray
    column_names: tuple[str, ...]
    column_map: dict[str, tuple[int, ...]]
    encoding: str
    space: SearchSpace
    provenance: dict = field(default_factory=dict)

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
        if self.matrix.size and (self.matrix.min() < 0 or self.matrix.max() > 1):
            raise ValueError("matrix must lie in the unit cube [0, 1]")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """Read-only n-by-n Euclidean distances between the rows of ``matrix``,
        computed on first use and shared by every feature set and map that
        needs them (see :func:`pairwise_distances`).  A matrix over
        ``MAX_DISTANCE_BYTES`` is refused before it is allocated."""
        need = 8 * self.n * self.n
        if need > MAX_DISTANCE_BYTES:
            raise ValueError(
                f"{self.n} rows need a {need / 2**20:.0f} MiB distance matrix,"
                f" over the {MAX_DISTANCE_BYTES >> 20} MiB cap"
            )
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


# ── the pipeline ─────────────────────────────────────────────────────────────


def preprocess_pipeline(
    design: Design, encoding: str = "none", smoothing: float = 0.0
) -> ProcessedDesign:
    """Relax the hierarchy, normalize the objective, then put every variable
    into the unit cube in one pass.

    The objective becomes ``minmax_unit(y)``.  Continuous and integer
    variables are scaled by their declared bounds (equal bounds give zeros).
    Categorical variables depend on ``encoding``:

    * ``one_hot``: one 0/1 indicator column per category, named
      ``<var>=<category>``; the indicators of a row sum to exactly one;
    * ``target``: one column; a cell in category c takes (sum of the
      normalized objective over rows in c + m * ybar) / (count(c) + m), where
      ybar is its mean and m = ``smoothing`` >= 0, and the column is then
      min-max scaled over the sample.  With m = 0 every category needs a row;
      with m > 0 an empty category takes ybar;
    * ``none``: only for spaces without categorical variables.

    Provenance records the stages, the encoding, the smoothing strength, and
    the source design meta.  Objective vectors that are exact affine images of
    each other (positive scale) yield bit-identical outputs.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}; choose from {ENCODINGS}")
    if not design.evaluated:
        raise ValueError("design must be evaluated before encoding")
    if encoding == "none" and not design.space.is_numeric():
        raise ValueError("encoding 'none' requires a purely numeric space")
    if encoding == "target" and smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    relaxed = relax_hierarchy(design)
    y = minmax_unit(design.y)
    ybar = float(y.mean())
    names: list[str] = []
    cols: list[np.ndarray] = []
    column_map: dict[str, tuple[int, ...]] = {}
    for v in design.space.variables:
        raw = relaxed.columns[v.name]
        start = len(cols)
        if v.kind != "categorical":
            names.append(v.name)
            if v.upper == v.lower:
                cols.append(np.zeros(design.n))
            else:
                cols.append((np.asarray(raw, dtype=float) - v.lower) / (v.upper - v.lower))
        elif encoding == "one_hot":
            indicators = [
                np.array([1.0 if cell == cat else 0.0 for cell in raw]) for cat in v.categories
            ]
            # a category that equals none of its own cells (a NaN label, say)
            # leaves rows without an indicator
            if not np.all(sum(indicators) == 1.0):
                raise ValueError(f"{v.name}: indicator columns must sum to one per row")
            names.extend(f"{v.name}={cat}" for cat in v.categories)
            cols.extend(indicators)
        else:
            means = {}
            for cat in v.categories:
                hits = np.array([cell == cat for cell in raw], dtype=bool)
                count = int(hits.sum())
                if count == 0:
                    if smoothing == 0:
                        raise ValueError(
                            f"{v.name}: category {cat!r} has zero rows and smoothing is zero"
                        )
                    means[cat] = ybar
                else:
                    means[cat] = (float(y[hits].sum()) + smoothing * ybar) / (count + smoothing)
            names.append(v.name)
            cols.append(minmax_unit([means[cell] for cell in raw]))
        column_map[v.name] = tuple(range(start, len(cols)))
    return ProcessedDesign(
        matrix=np.column_stack(cols),
        objective=y,
        column_names=tuple(names),
        column_map=column_map,
        encoding=encoding,
        space=design.space,
        provenance={
            "stages": [
                "relax_hierarchy", "normalize_objective", f"encode_{encoding}", "normalize_decision"
            ],
            "encoding": encoding,
            "smoothing": smoothing,
            "source_meta": {
                k: v
                for k, v in design.meta.items()
                if k in ("seed", "strategy", "n", "evaluations_spent")
            },
        },
    )


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
        # every ProcessedDesign lies in the unit cube; the key stays so that
        # sidecars keep their format
        "decision_normalized": True,
    }
    sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
