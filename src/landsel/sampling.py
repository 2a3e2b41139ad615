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
import errno
import json
import math
import os
import stat
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .space import ExactColumn, Problem, SearchSpace, check_bytes, space_from_obj, space_to_obj

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
        columns = {}  # the caller's dict and arrays stay as they were
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
            columns[v.name] = col
        object.__setattr__(self, "columns", columns)
        if self.y is not None:
            object.__setattr__(self, "y", _objective_column(self.y, n))

    @property
    def n(self) -> int:
        return len(self.columns[self.space.names[0]])

    @property
    def evaluated(self) -> bool:
        return self.y is not None


def _rows(design: Design):
    """The design's rows as tuples in variable order, each column read once:
    a float per continuous cell, an int per integer cell and the label per
    categorical cell; a missing cell stays NaN or None."""
    lists = []
    for v in design.space.variables:
        cells = design.columns[v.name].tolist()
        lists.append([int(c) if c == c else c for c in cells] if v.kind == "integer" else cells)
    return zip(*lists)


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
    check_bytes(8 * n * space.dimension, f"n = {n} rows of {space.dimension} variables")
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

    A problem with a ``batch`` (every built-in) scores the whole (n, D) array
    of columns in space order in one call, with the bits its row objective
    gives; any other problem's ``objective`` is called once per row, on the
    typed tuples of ``_rows``.  Returns a new design carrying y and an
    evaluations_spent count; the input rows are unchanged.  A non-finite
    objective value aborts with the first offending row index.
    """
    if problem.space != design.space:
        raise ValueError("design space does not match problem space")
    if design.evaluated:
        raise ValueError("design is already evaluated")
    if problem.batch is not None:
        y = problem.batch(np.column_stack([design.columns[name] for name in design.space.names]))
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise ValueError(f"objective returned a non-finite value at row {bad[0]}")
    else:
        y = np.empty(design.n, dtype=float)
        for i, row in enumerate(_rows(design)):
            value = float(problem.objective(row))
            if not math.isfinite(value):
                raise ValueError(f"objective returned a non-finite value at row {i}")
            y[i] = value
    out = with_objective(design, y)
    out.meta["evaluations_spent"] = out.meta.get("evaluations_spent", 0) + design.n
    return out


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
    """A cell of a typed row: a quoted label or the number's repr; a missing
    cell (None or NaN) is an empty field."""
    if value is None or value != value:
        return ""
    if kind == "categorical":
        return '"' + value.replace('"', '""') + '"'
    return repr(value)


def design_paths(path: str | Path) -> tuple[Path, Path]:
    """The design CSV and its ``<stem>.meta.json`` sidecar."""
    p = Path(path)
    return p, p.with_name(p.stem + ".meta.json")


def design_to_csv(design: Design, path: str | Path) -> None:
    """Write the design as CSV plus a JSON sidecar, staged together."""
    with staged(*design_paths(path)) as pair:
        write_design(design, *pair)


def write_design(design: Design, rows_path: str | Path, sidecar_path: str | Path) -> None:
    """Write the design's CSV and JSON sidecar where they are told.

    Header is ``x.<name>`` per variable plus ``y``, quoted where a name needs
    it; categorical cells are quoted labels; a missing objective is an empty
    field.  The sidecar carries the sampling meta and the space document so
    the file round-trips without external context.
    """
    header = [f"x.{name}" for name in design.space.names] + ["y"]
    if design.y is None:
        y = [""] * design.n
    else:  # one conversion of the whole column, exact or not
        y = [repr(v) for v in np.asarray(design.y, dtype=float).tolist()]
    meta = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in design.meta.items()}
    sidecar = {"meta": meta, "space": space_to_obj(design.space)}
    with open(rows_path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        kinds = [v.kind for v in design.space.variables]
        for row, y_cell in zip(_rows(design), y):
            fh.write(",".join([*map(_format_cell, row, kinds), y_cell]) + "\n")
    with open(sidecar_path, "w") as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_csv_rows(path: str | Path) -> list[list[str]]:
    """Every row of a CSV file.  Bytes that do not decode and malformed CSV
    are ValueErrors that name the file; a file that cannot be opened raises
    the ``OSError`` of ``open``, which names it too."""
    with open(path, newline="") as fh:
        try:
            return list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as e:
            raise ValueError(f"{path}: {e}") from None


@contextmanager
def staged(*paths: str | Path):
    """Yield one stand-in path per output path: each output is whole or absent.

    A new or regular-file output gets an empty stand-in ``.<name>.<pid>`` beside
    it on entry, so a missing or unwritable directory fails first, naming the
    output; the stand-ins replace their outputs, in the order given, on a clean
    exit, and are removed on an exception (a killed process leaves them).  An
    output that is a directory can never be written: it raises
    ``IsADirectoryError`` naming it on entry.  Any other output (a device, a
    FIFO, a symlink) is written in place.
    """
    targets = [os.fspath(p) for p in paths]
    stand_ins: list[str] = []
    try:
        for target in targets:
            with suppress(FileNotFoundError):
                mode = os.lstat(target).st_mode
                if stat.S_ISDIR(mode):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
                if not stat.S_ISREG(mode):
                    stand_ins.append(target)
                    continue
            head, name = os.path.split(target)  # a plain string, not a Path
            stand_ins.append(os.path.join(head, f".{name}.{os.getpid()}"))
            try:
                open(stand_ins[-1], "wb").close()  # mode 0o666 less the umask, as any new file
            except OSError as e:
                raise type(e)(e.errno, e.strerror, target) from None
        yield stand_ins
        # a failure between two replaces leaves the outputs before it new
        # and the rest as they were
        for stand_in, target in zip(stand_ins, targets):
            if stand_in != target:
                os.replace(stand_in, target)
    except BaseException:
        for stand_in in set(stand_ins) - set(targets):  # not the outputs written in place
            with suppress(OSError):
                os.unlink(stand_in)
        raise


def design_from_csv(path: str | Path) -> Design:
    """Read a design written by :func:`design_to_csv`.

    The space is taken from the sidecar.  The objective column must be
    entirely present or entirely absent.  Errors name the design file or its
    sidecar, and the line of a faulty row; the design's rows are read first,
    so a missing design is reported as itself, not as a missing sidecar.
    """
    path, sidecar = design_paths(path)
    rows = read_csv_rows(path)
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
