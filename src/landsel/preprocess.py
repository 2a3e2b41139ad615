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

The cancellation is exact, not approximate.  The objective has one exact
form, :class:`~landsel.space.ExactColumn`: Python-int numerators over one
shared denominator.  ``apply_transform`` returns one, ``Design`` keeps it,
and ``minmax_unit`` takes any input to one, forms (y_i - min) / (max - min)
in arbitrary-precision integer arithmetic, and rounds once to float64.  Two
input vectors that are exact affine images of each other therefore normalize
to bit-identical outputs, which makes the invariance a theorem rather than a
tolerance.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sampling import Design, staged
from .space import ExactColumn, SearchSpace, check_bytes

ENCODINGS = ("none", "one_hot", "target")

# Elements per temporary block of pairwise_distances and of the row blocks
# that readers of the matrix walk (ProcessedDesign.distance_blocks): small
# enough to stay in cache, large enough that per-call overhead is negligible.
_DISTANCE_BLOCK = 1 << 15


def minmax_unit(values) -> np.ndarray:
    """Min-max rescale a real vector to [0, 1], exactly; constant input -> zeros.

    ``values`` is anything ``ExactColumn.of`` takes, an ``ExactColumn``
    included.  Each (v - min) / (max - min) is one correctly rounded division
    of exact integers, so vectors related by an exact affine map with positive
    scale give bit-identical results.
    """
    return ExactColumn.of(values).minmax()


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
        ``space.MAX_BYTES`` (1 GiB, 11,585 rows) is refused before it is
        allocated."""
        check_bytes(8 * self.n * self.n, f"the distances between {self.n} rows")
        dm = pairwise_distances(self.matrix)
        dm.setflags(write=False)
        return dm

    def distance_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``distances`` as ``(i0, block)`` pairs of consecutive rows from
        row i0 on, each block a writable copy of about ``_DISTANCE_BLOCK``
        elements whose entries on the diagonal (a row's distance to itself)
        are infinity.  Readers that walk these blocks need no second n-by-n
        array."""
        dm = self.distances
        n = self.n
        step = max(1, _DISTANCE_BLOCK // n)
        for i0 in range(0, n, step):
            block = dm[i0 : i0 + step].copy()
            block.reshape(-1)[i0 :: n + 1] = np.inf
            yield i0, block

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


def _missing_cells(col: np.ndarray, kind: str) -> np.ndarray:
    """Boolean mask of a column's missing cells: None or NaN."""
    if kind == "categorical":
        return np.array([cell is None for cell in col], dtype=bool)
    return np.isnan(col)


def _activity_mask(design: Design) -> np.ndarray:
    """Row-by-variable activity: unconditioned variables are always active; a
    conditioned variable is active where its parent is active and takes an
    activating value.  Filled in the space's ``resolution_order``, so every
    parent's column is final before its children read it."""
    space = design.space
    index = {name: j for j, name in enumerate(space.names)}
    mask = np.ones((design.n, space.dimension), dtype=bool)
    for j in space.resolution_order:
        cond = space.variables[j].condition
        if cond is not None:
            hits = [cell in cond.values for cell in design.columns[cond.parent]]
            mask[:, j] = mask[:, index[cond.parent]] & hits
    return mask


def relax_hierarchy(design: Design) -> dict[str, np.ndarray]:
    """The design's columns with hierarchically inactive cells filled, so
    every variable is fully populated.

    Missing inactive cells are imputed with the variable's midpoint (integer
    midpoints round ties toward the lower value) or first category; a missing
    cell for an *active* variable is an error.  A design without conditions
    and without missing cells returns its own ``columns`` unchanged.
    """
    space = design.space
    has_conditions = any(v.condition is not None for v in space.variables)
    missing = {v.name: _missing_cells(design.columns[v.name], v.kind) for v in space.variables}
    if not has_conditions and not any(m.any() for m in missing.values()):
        return design.columns
    mask = _activity_mask(design)
    columns: dict[str, np.ndarray] = {}
    for j, v in enumerate(space.variables):
        gaps = missing[v.name]
        active = np.flatnonzero(gaps & mask[:, j])
        if active.size:
            raise ValueError(f"row {active[0]}: missing value for active variable {v.name!r}")
        col = np.array(design.columns[v.name], dtype=object if v.kind == "categorical" else float)
        if v.kind == "categorical":
            col[gaps] = v.categories[0]
        elif v.kind == "integer":
            col[gaps] = float(math.ceil((v.lower + v.upper) / 2 - 0.5))
        else:
            col[gaps] = (v.lower + v.upper) / 2
        columns[v.name] = col
    return columns


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

    A non-finite ``smoothing`` is refused under every encoding.

    Provenance records the stages, the encoding, the smoothing strength, and
    the source design meta.  Objective vectors that are exact affine images of
    each other (positive scale) yield bit-identical outputs.
    """
    if not math.isfinite(smoothing):
        raise ValueError(f"smoothing must be finite, got {smoothing}")
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}; choose from {ENCODINGS}")
    if not design.evaluated:
        raise ValueError("design must be evaluated before encoding")
    if encoding == "none" and not design.space.is_numeric():
        raise ValueError("encoding 'none' requires a purely numeric space")
    if encoding == "target" and smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    one_hot = encoding == "one_hot"  # only a one-hot categorical variable takes more than one column
    width = sum(len(v.categories) if one_hot and v.kind == "categorical" else 1 for v in design.space.variables)
    check_bytes(8 * design.n * width, f"n = {design.n} rows of {width} encoded columns")
    relaxed = relax_hierarchy(design)
    y = minmax_unit(design.y)
    ybar = float(y.mean())
    names: list[str] = []
    cols: list[np.ndarray] = []
    column_map: dict[str, tuple[int, ...]] = {}
    for v in design.space.variables:
        raw = relaxed[v.name]
        start = len(cols)
        if v.kind != "categorical":
            names.append(v.name)
            if v.upper == v.lower:
                cols.append(np.zeros(design.n))
            else:
                cols.append((np.asarray(raw, dtype=float) - v.lower) / (v.upper - v.lower))
        elif encoding == "one_hot":
            # every relaxed cell is one of the distinct string labels, so
            # the indicators of a row sum to one
            indicators = [(raw == cat).astype(float) for cat in v.categories]
            names.extend(f"{v.name}={cat}" for cat in v.categories)
            cols.extend(indicators)
        else:
            means = {}
            for cat in v.categories:
                hits = raw == cat
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


def processed_paths(path: str | Path) -> tuple[Path, Path]:
    """The processed CSV and its ``<stem>.provenance.json`` sidecar."""
    p = Path(path)
    return p, p.with_name(p.stem + ".provenance.json")


def processed_to_csv(pd: ProcessedDesign, path: str | Path) -> None:
    """Write the processed CSV plus its provenance sidecar, staged together."""
    with staged(*processed_paths(path)) as pair:
        write_processed(pd, *pair)


def write_processed(pd: ProcessedDesign, rows_path: str | Path, sidecar_path: str | Path) -> None:
    """Write the processed matrix plus objective as CSV, and its provenance
    sidecar, where they are told; a column name that needs quoting is
    quoted."""
    doc = {
        "provenance": pd.provenance,
        "encoding": pd.encoding,
        "column_names": list(pd.column_names),
        "column_map": {k: list(v) for k, v in pd.column_map.items()},
        # every ProcessedDesign lies in the unit cube; the key stays so that
        # sidecars keep their format
        "decision_normalized": True,
    }
    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*pd.column_names, "y"])
        for row, y in zip(pd.matrix.tolist(), pd.objective.tolist()):
            writer.writerow([*map(repr, row), repr(y)])
    with open(sidecar_path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
