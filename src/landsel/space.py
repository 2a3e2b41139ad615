"""Search-space definitions, benchmark problems, and objective transforms.

A search space is an ordered list of typed variables (continuous, integer,
categorical), optionally hierarchical: a variable may carry an activation
condition on an integer or categorical parent, and is considered inactive in
rows where the parent does not take one of the activating values.

Built-in benchmark problems are purely continuous, live on [-5, 5]^D, and come
in seeded instances: instance ``iid`` deterministically draws an input shift
and a strictly monotone objective transform a*y + b, so that every instance of
a function shares its structure but not its raw objective values.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

VARIABLE_KINDS = ("continuous", "integer", "categorical")

BUILTIN_FUNCTIONS = ("sphere", "ellipsoid", "rastrigin", "rosenbrock", "linear_slope")
BUILTIN_LOWER = -5.0
BUILTIN_UPPER = 5.0

_SHIFT_RANGE = (-4.0, 4.0)
_SCALE_RANGE = (0.1, 10.0)       # log-uniform
_OFFSET_RANGE = (-1000.0, 1000.0)
# A built-in space holds about 460 bytes per variable (measured at D = 200,000).
_VARIABLE_BYTES = 512
# The most bytes one allocation or written output whose size the input sets
# may take; every such size is refused over it by check_bytes before it is made.
MAX_BYTES = 1 << 30


def check_bytes(need: int, what: str) -> None:
    """Refuse ``need`` bytes over ``MAX_BYTES``, read at each call; ``what``
    names what needs them, in MiB rounded up, so never as 0 MiB."""
    if need > MAX_BYTES:
        raise ValueError(f"{what} need {-(-need >> 20)} MiB, over the {MAX_BYTES >> 20} MiB cap")


@dataclass(frozen=True)
class Condition:
    """Activation rule: the owning variable is active only in rows where the
    parent variable takes one of ``values``."""

    parent: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.parent or not isinstance(self.parent, str):
            raise ValueError("condition parent name must be a non-empty string")
        if len(self.values) == 0:
            raise ValueError("condition needs at least one activating value")
        if len(set(self.values)) != len(self.values):
            raise ValueError("condition values must be distinct")


def _finite(x: numbers.Real) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


@dataclass(frozen=True)
class VariableSpec:
    """One typed decision variable.

    Continuous and integer variables carry box bounds (numbers, not bools);
    categorical variables carry a non-empty tuple of distinct labels, each a
    non-empty string, as a design file reads them back.  ``condition`` makes
    the variable hierarchical.
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    categories: tuple | None = None
    condition: Condition | None = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("variable name must be a non-empty string")
        if self.kind not in VARIABLE_KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "categorical":
            if self.lower is not None or self.upper is not None:
                raise ValueError(f"{self.name}: categorical variables take no bounds")
            if not self.categories:
                raise ValueError(f"{self.name}: categories must be non-empty")
            cats = tuple(self.categories)
            for c in cats:
                if not isinstance(c, str) or not c:
                    raise ValueError(f"{self.name}: a category label must be a non-empty string, got {c!r}")
            if len(set(cats)) != len(cats):
                raise ValueError(f"{self.name}: categories must be pairwise distinct")
            object.__setattr__(self, "categories", cats)
        else:
            if self.categories is not None:
                raise ValueError(f"{self.name}: only categorical variables take categories")
            if self.lower is None or self.upper is None:
                raise ValueError(f"{self.name}: bounds are required")
            for label, bound in (("lower", self.lower), ("upper", self.upper)):
                if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                    raise ValueError(f"{self.name}: {label} bound must be a number, got {bound!r}")
            if not (_finite(self.lower) and _finite(self.upper)):
                raise ValueError(f"{self.name}: bounds must be finite")
            if self.kind == "continuous":
                if not self.lower < self.upper:
                    raise ValueError(f"{self.name}: continuous bounds need lower < upper")
                object.__setattr__(self, "lower", float(self.lower))
                object.__setattr__(self, "upper", float(self.upper))
            else:
                if self.lower != int(self.lower) or self.upper != int(self.upper):
                    raise ValueError(f"{self.name}: integer bounds must be integral")
                if not self.lower <= self.upper:
                    raise ValueError(f"{self.name}: integer bounds need lower <= upper")
                object.__setattr__(self, "lower", int(self.lower))
                object.__setattr__(self, "upper", int(self.upper))


@dataclass(frozen=True)
class SearchSpace:
    """An ordered, validated collection of variables.

    Validation covers name uniqueness, condition parents (must exist, must be
    integer or categorical, activating values must be admissible for the
    parent), and acyclicity of the condition graph.  ``resolution_order``
    lists the variable indices so that every parent precedes its children.
    """

    variables: tuple[VariableSpec, ...]
    resolution_order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) == 0:
            raise ValueError("a search space needs at least one variable")
        counts = Counter(v.name for v in self.variables)
        twice = sorted(name for name, count in counts.items() if count > 1)
        if twice:
            raise ValueError(f"variable names must be unique; repeated: {', '.join(twice)}")
        index = {v.name: j for j, v in enumerate(self.variables)}
        children: list[list[int]] = [[] for _ in self.variables]
        for j, v in enumerate(self.variables):
            cond = v.condition
            if cond is None:
                continue
            if cond.parent not in index:
                raise ValueError(f"{v.name}: condition parent {cond.parent!r} does not exist")
            if cond.parent == v.name:
                raise ValueError(f"{v.name}: variable cannot condition on itself")
            parent = self.variables[index[cond.parent]]
            if parent.kind == "continuous":
                raise ValueError(
                    f"{v.name}: conditions are only supported on integer or categorical parents"
                )
            if parent.kind == "categorical":
                bad = [x for x in cond.values if x not in parent.categories]
                if bad:
                    raise ValueError(f"{v.name}: activating values {bad!r} not in parent categories")
            else:
                for x in cond.values:
                    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
                        raise ValueError(f"{v.name}: integer parent needs integer activating values")
                    if not parent.lower <= x <= parent.upper:
                        raise ValueError(f"{v.name}: activating value {x} outside parent bounds")
            children[index[cond.parent]].append(j)
        # the unconditioned variables, each followed by its children as the
        # list grows; what is left out lies on or below a condition cycle
        order = [j for j, v in enumerate(self.variables) if v.condition is None]
        for j in order:
            order.extend(children[j])
        if len(order) < len(self.variables):
            placed = set(order)
            name = next(v.name for j, v in enumerate(self.variables) if j not in placed)
            raise ValueError(f"{name}: condition parents form a cycle")
        object.__setattr__(self, "resolution_order", tuple(order))

    @property
    def dimension(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __getitem__(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def is_numeric(self) -> bool:
        """True when the space has no categorical variables."""
        return all(v.kind != "categorical" for v in self.variables)


@dataclass(frozen=True)
class ObjectiveTransform:
    """Strictly monotone affine map y -> scale * y + shift, scale > 0."""

    scale: float
    shift: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and math.isfinite(self.shift)):
            raise ValueError("transform parameters must be finite")
        if self.scale <= 0:
            raise ValueError("transform scale must be strictly positive")


@dataclass(frozen=True, eq=False)
class ExactColumn:
    """Exact rationals ``numerators[i] / denominator``: Python ints over one
    shared positive denominator, so affine maps and min-max ratios take no
    per-value gcd.  Indexing yields a ``Fraction``, ``np.asarray(col)`` the
    correctly rounded float64 values.  Finite by construction."""

    numerators: tuple[int, ...]
    denominator: int

    @classmethod
    def of(cls, values) -> ExactColumn:
        """Floats, ints, numpy scalars or Fractions, exactly, over the lcm of
        their denominators; a non-finite value raises ``ValueError``."""
        if isinstance(values, cls):
            return values
        seq = values.tolist() if isinstance(values, np.ndarray) else values
        try:  # numpy integers go through int, so no fixed-width product wraps
            ratios = [(int(v), 1) if isinstance(v, np.integer) else v.as_integer_ratio() for v in seq]
        except (ValueError, OverflowError) as e:  # NaN or infinity
            raise ValueError(f"objective values must be finite: {e}") from None
        den = math.lcm(*(d for _, d in ratios))
        return cls(tuple(n * (den // d) for n, d in ratios), den)

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.numerators[i], self.denominator)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        try:
            return np.array([n / self.denominator for n in self.numerators], dtype=dtype)
        except OverflowError:
            raise ValueError("objective value is beyond the float64 range") from None

    def minmax(self) -> np.ndarray:
        """(v - min) / (max - min) per value in exact integer arithmetic, one
        correctly rounded division each."""
        if not self.numerators:
            raise ValueError("cannot normalize an empty vector")
        lo = min(self.numerators)
        span = max(self.numerators) - lo or 1  # a constant column: all zeros
        return np.array([(x - lo) / span for x in self.numerators])


def apply_transform(transform: ObjectiveTransform, values: Sequence) -> ExactColumn:
    """Apply ``scale * y + shift`` elementwise, exactly.

    Returns an :class:`ExactColumn`, not rounded floats: every float is an
    exact rational, so the transform loses no information, and the exact
    min-max normalization downstream cancels it bit-for-bit.  Indexing the
    result yields ``Fraction``s; ``np.asarray(out)`` gives rounded floats.
    """
    an, ad = transform.scale.as_integer_ratio()
    bn, bd = transform.shift.as_integer_ratio()
    col = ExactColumn.of(values)
    # (an/ad) * (n/den) + bn/bd over the denominator ad * bd * den: no gcd
    p, q = an * bd, bn * ad * col.denominator
    return ExactColumn(tuple(p * n + q for n in col.numerators), ad * bd * col.denominator)


@dataclass(frozen=True, eq=False)
class Problem:
    """An objective over a search space.

    ``objective`` maps a row of cell values (a tuple in variable order) to a
    real number.  ``known_optimum``, ``shift`` and ``transform`` expose a
    built-in instance's optimum value and seeded parameters and are None for
    user problems; ``shift`` is held as a read-only copy, so the caller's
    array stays writable.  ``batch``, set for built-ins only, maps an (m, D)
    float array of rows in variable order to their m values, each with the
    bits ``objective`` gives that row.
    """

    space: SearchSpace
    objective: Callable[[tuple], float]
    known_optimum: float | None = None
    shift: np.ndarray | None = None
    transform: ObjectiveTransform | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.shift is not None:
            arr = np.array(self.shift, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "shift", arr)


# Each base function maps an (m, D) array of rows to m values.  A row sum is
# ``.sum(axis=1)`` of a fresh C-contiguous array, which numpy reduces row by
# row with the same pairwise summation that ``np.sum`` runs on one row, and a
# dot product is ``np.vecdot``, one BLAS ``ddot`` per row as ``np.dot`` calls
# it; so every row's value has the same bits in a batch of any size.
def _sphere(z: np.ndarray) -> np.ndarray:
    return np.vecdot(z, z)


def _ellipsoid(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    if d == 1:
        return z[:, 0] * z[:, 0]
    weights = 10.0 ** (6.0 * np.arange(d) / (d - 1))
    return (weights * z * z).sum(axis=1)


def _rastrigin(z: np.ndarray) -> np.ndarray:
    return 10.0 * (z.shape[1] - np.cos(2.0 * np.pi * z).sum(axis=1)) + np.vecdot(z, z)


def _rosenbrock(z: np.ndarray) -> np.ndarray:
    # classic sum over adjacent pairs; constant zero in one dimension
    return (100.0 * (z[:, :-1] ** 2 - z[:, 1:]) ** 2 + (z[:, :-1] - 1.0) ** 2).sum(axis=1)


def _linear_slope(z: np.ndarray) -> np.ndarray:
    return z.sum(axis=1)


_BASE_FUNCTIONS = {
    "sphere": _sphere,
    "ellipsoid": _ellipsoid,
    "rastrigin": _rastrigin,
    "rosenbrock": _rosenbrock,
    "linear_slope": _linear_slope,
}


def builtin_space(dimension: int) -> SearchSpace:
    """The [-5, 5]^D continuous box shared by all built-in problems."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    return SearchSpace(
        tuple(
            VariableSpec(f"x{i}", "continuous", lower=BUILTIN_LOWER, upper=BUILTIN_UPPER)
            for i in range(dimension)
        )
    )


def builtin_problem(fid: str, iid: int, dimension: int) -> Problem:
    """Construct a seeded instance of a built-in benchmark function.

    Instance 0 is the canonical function (zero shift, identity transform).
    For iid >= 1, a PCG64 generator seeded from SeedSequence([fid_index, iid])
    draws, in this order: an input shift uniform on [-4, 4]^D, the transform
    scale log-uniform on [0.1, 10], and the transform offset uniform on
    [-1000, 1000].  The objective is scale * f(x - shift) + offset.  The same
    (fid, iid, dimension) triple reproduces the same instance on every run
    and platform.

    The problem's ``batch`` is that definition over an (m, D) array of rows,
    and its ``objective`` is ``batch`` of the one row, so a row has the same
    bits whether it is scored alone or in a design of any size.
    """
    if fid not in _BASE_FUNCTIONS:
        raise ValueError(f"unknown builtin function {fid!r}; choose from {BUILTIN_FUNCTIONS}")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if iid < 0:
        raise ValueError("instance id must be non-negative")
    check_bytes(dimension * _VARIABLE_BYTES, f"the variables of dimension D = {dimension}")
    space = builtin_space(dimension)
    if iid == 0:
        shift = np.zeros(dimension)
        transform = ObjectiveTransform(1.0, 0.0)
    else:
        seq = np.random.SeedSequence([BUILTIN_FUNCTIONS.index(fid), iid])
        rng = np.random.Generator(np.random.PCG64(seq))
        shift = rng.uniform(_SHIFT_RANGE[0], _SHIFT_RANGE[1], size=dimension)
        log_a = rng.uniform(math.log10(_SCALE_RANGE[0]), math.log10(_SCALE_RANGE[1]))
        transform = ObjectiveTransform(
            float(10.0 ** log_a), float(rng.uniform(_OFFSET_RANGE[0], _OFFSET_RANGE[1]))
        )
    base = _BASE_FUNCTIONS[fid]
    a, b = transform.scale, transform.shift

    def batch(x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != dimension:
            raise ValueError(f"expected rows of {dimension} values, got shape {x.shape}")
        return a * base(x - shift) + b

    def objective(row: tuple) -> float:
        x = np.asarray(row, dtype=float)
        if x.shape != (dimension,):
            raise ValueError(f"expected a row of {dimension} values, got shape {x.shape}")
        return float(batch(x[None, :])[0])

    if fid == "rosenbrock":
        argmin = shift + 1.0
    elif fid == "linear_slope":
        argmin = np.full(dimension, BUILTIN_LOWER)
    else:
        argmin = shift
    known_optimum = objective(tuple(argmin))
    return Problem(
        space=space,
        objective=objective,
        batch=batch,
        known_optimum=known_optimum,
        shift=shift,
        transform=transform,
    )


# ── JSON serialization ────────────────────────────────────────────────────────

def space_to_obj(space: SearchSpace) -> list[dict]:
    out = []
    for v in space.variables:
        obj: dict = {"name": v.name, "kind": v.kind}
        if v.kind == "categorical":
            obj["categories"] = list(v.categories)
        else:
            obj["lower"] = v.lower
            obj["upper"] = v.upper
        if v.condition is not None:
            obj["condition"] = {"parent": v.condition.parent, "values": list(v.condition.values)}
        out.append(obj)
    return out


def _labels(value, what: str) -> tuple:
    """A JSON array of category labels or activating values, as a tuple."""
    if not isinstance(value, list) or not all(isinstance(x, (str, int, float)) for x in value):
        raise ValueError(f"{what} must be an array of strings or numbers")
    return tuple(value)


def _variable_from_obj(entry) -> VariableSpec:
    if not isinstance(entry, dict):
        raise ValueError("each variable must be an object")
    known = {"name", "kind", "lower", "upper", "categories", "condition"}
    unknown = set(entry) - known
    if unknown:
        raise ValueError(f"unknown variable keys {sorted(unknown)}")
    cond = None
    if entry.get("condition") is not None:
        c = entry["condition"]
        if not isinstance(c, dict) or set(c) - {"parent", "values"}:
            raise ValueError("condition must be an object with keys parent, values")
        cond = Condition(parent=c.get("parent", ""), values=_labels(c.get("values", []), "condition values"))
    cats = entry.get("categories")
    return VariableSpec(
        name=entry.get("name", ""),
        kind=entry.get("kind", ""),
        lower=entry.get("lower"),
        upper=entry.get("upper"),
        categories=_labels(cats, "categories") if cats is not None else None,
        condition=cond,
    )


def space_from_obj(obj: Sequence[dict]) -> SearchSpace:
    """A search space from its JSON form; a fault in one variable's entry is
    reported with that entry's index."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError("space document must be an array of variable objects")
    variables = []
    for i, entry in enumerate(obj):
        try:
            variables.append(_variable_from_obj(entry))
        except ValueError as e:
            raise ValueError(f"variable {i}: {e}") from None
    return SearchSpace(tuple(variables))


def space_from_json(text: str) -> SearchSpace:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # malformed or too deeply nested
        raise ValueError(f"invalid space JSON: {e}") from None
    return space_from_obj(obj)
