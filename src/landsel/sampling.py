"""Initial-design sampling and evaluation.

Designs are immutable row tables over a search space: one typed column per
variable plus an optional objective column.  Sampling strategies (uniform,
Latin hypercube, Sobol) fill numeric variables through a unit-cube sample that
is affinely mapped to the declared bounds; integer variables are additionally
rounded to the nearest admissible value (ties toward the lower value) and
clamped; categorical variables are drawn uniformly but stratified, so that for
n >= |categories| every category count deviates from n / |categories| by at
most one.

The Sobol strategy is backed by scipy.stats.qmc.Sobol (Joe & Kuo direction
numbers, dimensions up to 21201) with seeded scrambling; balance properties
are best when n is a power of two, but arbitrary n >= 2 is accepted.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .space import ExactColumn, Problem, SearchSpace, space_from_obj, space_to_obj

STRATEGIES = ("uniform", "latin_hypercube", "sobol")
DEFAULT_POINTS_PER_DIMENSION = 50


@dataclass(frozen=True, eq=False)
class Design:
    """A sample of the search space, optionally evaluated.

    ``columns`` maps variable name to a length-n array: float64 for continuous
    and integer variables (NaN marks a missing cell), object/str for
    categorical ones (None marks a missing cell).  ``y`` is None until the
    design is evaluated; then it is either a read-only float64 array of
    finite values or an :class:`~landsel.space.ExactColumn` of exact
    rationals, as ``apply_transform`` returns them.  An object-dtype ``y``
    (Fractions, say) is kept exact as an ``ExactColumn``.  Treat instances as
    immutable: operations return new designs.
    """

    space: SearchSpace
    columns: dict[str, np.ndarray]
    y: np.ndarray | ExactColumn | None = None
    meta: dict = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.meta is None:
            object.__setattr__(self, "meta", {})
        if set(self.columns) != set(self.space.names):
            raise ValueError("columns must cover exactly the space's variables")
        lengths = {len(self.columns[name]) for name in self.space.names}
        if len(lengths) != 1:
            raise ValueError("all columns must have equal length")
        (n,) = lengths
        if n < 1:
            raise ValueError("a design needs at least one row")
        for v in self.space.variables:
            col = np.asarray(self.columns[v.name])
            if v.kind == "categorical":
                col = col.astype(object)
                for cell in col:
                    if cell is not None and cell not in v.categories:
                        raise ValueError(f"{v.name}: label {cell!r} is not a declared category")
            else:
                col = col.astype(float)
                finite = col[np.isfinite(col)]
                if np.any(np.isinf(col)):
                    raise ValueError(f"{v.name}: cells must be finite or missing")
                if finite.size and (finite.min() < v.lower or finite.max() > v.upper):
                    raise ValueError(f"{v.name}: cell outside declared bounds")
                if v.kind == "integer" and finite.size and np.any(finite != np.round(finite)):
                    raise ValueError(f"{v.name}: integer cells must be integral")
            col.setflags(write=False)
            self.columns[v.name] = col
        if self.y is not None:
            object.__setattr__(self, "y", _objective_column(self.y, n))

    @property
    def n(self) -> int:
        return len(self.columns[self.space.names[0]])

    @property
    def evaluated(self) -> bool:
        return self.y is not None

    def row(self, i: int) -> tuple:
        """Cell values of row i in variable order, typed (int for integer cells)."""
        out = []
        for v in self.space.variables:
            cell = self.columns[v.name][i]
            if v.kind == "integer" and cell == cell:  # not NaN
                out.append(int(cell))
            elif v.kind == "continuous":
                out.append(float(cell))
            else:
                out.append(cell)
        return tuple(out)


def _objective_column(y, n: int) -> np.ndarray | ExactColumn:
    """``y`` as n finite objective values: an exact column stays exact, any
    other input becomes a read-only float64 array."""
    if not isinstance(y, ExactColumn):
        yarr = np.asarray(y)
        if yarr.dtype == object:
            y = ExactColumn.of(yarr)
        else:
            y = yarr.astype(float)
            if not np.all(np.isfinite(y)):
                raise ValueError("objective values must all be finite")
            y.setflags(write=False)
    if len(y) != n:
        raise ValueError("y must have one value per row")
    return y


def _unit_sample(strategy: str, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """An n-by-k sample of [0, 1); one column per numeric variable."""
    if k == 0:
        return np.empty((n, 0))
    if strategy == "uniform":
        return rng.random((n, k))
    if strategy == "latin_hypercube":
        cols = []
        for _ in range(k):
            perm = rng.permutation(n)
            cols.append((perm + rng.random(n)) / n)
        return np.column_stack(cols)
    if strategy == "sobol":
        from scipy.stats import qmc

        try:
            engine = qmc.Sobol(d=k, scramble=True, seed=rng)
        except ValueError as e:
            raise ValueError(f"sobol strategy unavailable for dimension {k}: {e}") from e
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pts = engine.random(n)
        return np.clip(pts, 0.0, np.nextafter(1.0, 0.0))
    raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def _stratified_categories(categories: tuple, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform stratified draw: counts of any two categories differ by at most 1."""
    c = len(categories)
    order = rng.permutation(c)
    reps = -(-n // c)
    pool = [categories[j] for j in order] * reps
    seq = pool[:n]
    out = np.empty(n, dtype=object)
    for slot, j in enumerate(rng.permutation(n)):
        out[j] = seq[slot]
    return out


def _round_ties_down(values: np.ndarray) -> np.ndarray:
    """Round to the nearest integer; exact halves go to the lower value."""
    return np.ceil(values - 0.5)


def create_initial_design(
    space: SearchSpace,
    n: int | None = None,
    strategy: str = "latin_hypercube",
    seed: int = 0,
) -> Design:
    """Draw an unevaluated initial design.

    ``n`` defaults to 50 per dimension.  Identical (space, n, strategy, seed)
    reproduce the identical design.  Hierarchically inactive variables are
    filled like any other (relaxation happens later in preprocessing).
    """
    if n is None:
        n = DEFAULT_POINTS_PER_DIMENSION * space.dimension
    if n < 2:
        raise ValueError("a design needs at least two rows")
    rng = np.random.default_rng(seed)
    numeric = [v for v in space.variables if v.kind != "categorical"]
    unit = _unit_sample(strategy, n, len(numeric), rng)
    columns: dict[str, np.ndarray] = {}
    uc = 0
    for v in space.variables:
        if v.kind == "categorical":
            columns[v.name] = _stratified_categories(v.categories, n, rng)
            continue
        u = unit[:, uc]
        uc += 1
        mapped = v.lower + u * (v.upper - v.lower)
        if v.kind == "integer":
            mapped = np.clip(_round_ties_down(mapped), v.lower, v.upper)
        columns[v.name] = mapped
    meta = {"seed": seed, "strategy": strategy, "n": n, "evaluations_spent": 0}
    return Design(space=space, columns=columns, y=None, meta=meta)


def evaluate_design(problem: Problem, design: Design) -> Design:
    """Evaluate every row of an unevaluated design against the problem.

    Returns a new design carrying y and an evaluations_spent count; the input
    rows are unchanged.  A non-finite objective value aborts with the
    offending row index.
    """
    if problem.space != design.space:
        raise ValueError("design space does not match problem space")
    if design.evaluated:
        raise ValueError("design is already evaluated")
    y = np.empty(design.n, dtype=float)
    for i in range(design.n):
        value = float(problem.objective(design.row(i)))
        if not math.isfinite(value):
            raise ValueError(f"objective returned a non-finite value at row {i}")
        y[i] = value
    meta = dict(design.meta)
    meta["evaluations_spent"] = meta.get("evaluations_spent", 0) + design.n
    return replace(design, columns=dict(design.columns), y=y, meta=meta)


def with_objective(design: Design, y) -> Design:
    """A copy of the design with its objective column replaced.

    The columns were validated when ``design`` was built and are read-only,
    so only the new objective is checked.
    """
    out = object.__new__(Design)
    for name, value in (
        ("space", design.space),
        ("columns", dict(design.columns)),
        ("y", _objective_column(y, design.n)),
        ("meta", dict(design.meta)),
    ):
        object.__setattr__(out, name, value)
    return out


# ── CSV round-trip ────────────────────────────────────────────────────────────


def _format_cell(value, kind: str) -> str:
    if kind == "categorical":
        if value is None:
            return ""
        return '"' + str(value).replace('"', '""') + '"'
    if value != value:  # NaN: missing
        return ""
    if kind == "integer":
        return str(int(value))
    return repr(float(value))


def _sidecar_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def design_to_csv(design: Design, path: str | Path) -> None:
    """Write the design as CSV plus a JSON sidecar.

    Header is ``x.<name>`` per variable plus ``y``, quoted where a name needs
    it; categorical cells are quoted labels; a missing objective is an empty
    field.  The sidecar (``<stem>.meta.json``) carries the sampling meta and
    the space document so the file round-trips without external context.
    """
    path = Path(path)
    header = [f"x.{name}" for name in design.space.names] + ["y"]
    if design.y is None:
        y = [""] * design.n
    else:  # one conversion of the whole column, exact or not
        y = [repr(v) for v in np.asarray(design.y, dtype=float).tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for i in range(design.n):
            cells = [
                _format_cell(design.columns[v.name][i], v.kind) for v in design.space.variables
            ]
            cells.append(y[i])
            fh.write(",".join(cells) + "\n")
    sidecar = {"meta": _jsonable_meta(design.meta), "space": space_to_obj(design.space)}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def _jsonable_meta(meta: dict) -> dict:
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in meta.items()}


def design_from_csv(path: str | Path) -> Design:
    """Read a design written by :func:`design_to_csv`.

    The space is taken from the sidecar.  The objective column must be
    entirely present or entirely absent.  Errors name the design file or its
    sidecar, and the line of a faulty row.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"design file not found: {path}")
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise ValueError(f"sidecar {sidecar} not found")
    try:
        doc = json.loads(sidecar.read_text())
        if not isinstance(doc, dict) or not isinstance(doc.get("meta", {}), dict):
            raise ValueError("sidecar must be an object whose 'meta' is an object")
        if "space" not in doc:
            raise ValueError("sidecar has no 'space' key")
        space = space_from_obj(doc["space"])
    except (ValueError, RecursionError) as e:  # also undecodable or too deeply nested JSON
        raise ValueError(f"{sidecar}: {e}") from None
    meta = dict(doc.get("meta", {}))
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as e:
            raise ValueError(f"{path}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: empty design file")
    header = rows[0]
    expected = [f"x.{name}" for name in space.names] + ["y"]
    if header != expected:
        raise ValueError(f"{path}: header {header} does not match expected {expected}")
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: design has no rows")
    columns: dict[str, list] = {name: [] for name in space.names}
    y_cells: list[float | None] = []
    for lineno, cells in enumerate(body, start=2):
        try:
            if len(cells) != len(expected):
                raise ValueError(f"expected {len(expected)} fields")
            for v, cell in zip(space.variables, cells[:-1]):
                if cell == "":
                    columns[v.name].append(None if v.kind == "categorical" else np.nan)
                else:
                    columns[v.name].append(cell if v.kind == "categorical" else float(cell))
            y_cells.append(float(cells[-1]) if cells[-1] != "" else None)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    present = [c is not None for c in y_cells]
    if any(present) and not all(present):
        raise ValueError(f"{path}: objective column must be all present or all missing")
    y = np.array(y_cells) if all(present) else None
    cols = {
        v.name: np.array(columns[v.name], dtype=object if v.kind == "categorical" else float)
        for v in space.variables
    }
    try:
        return Design(space=space, columns=cols, y=y, meta=meta)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
