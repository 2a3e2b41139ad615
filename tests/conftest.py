"""Shared test helpers: hypothesis profile, design and performance-table
builders and the ``landsel`` console script."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from landsel.aas import ErtTable, PerformanceRecord, read_performance_csv, write_performance_csv
from landsel.preprocess import ProcessedDesign
from landsel.sampling import create_initial_design, evaluate_design
from landsel.space import Problem, SearchSpace, VariableSpec

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Cells a fuzzed CSV draws from: valid values, edge cases and junk.
FUZZ_CELLS = st.sampled_from(
    ["", "f", "g", "0", "1", "2", "a", "b", "-1", "10", "100", "1e3", "1.5", "nan", "inf", "x",
     " 1", "1_0", str(2**63), str(10**30), '"', "\x00", "fid", "iid"]
)


def fuzz_files(header, cells=FUZZ_CELLS):
    """CSV text: the valid header or a mutated one, then rows of fuzzed
    cells, mostly of the header's width; or free text."""
    row = st.one_of(
        st.lists(cells, min_size=len(header), max_size=len(header)),
        st.lists(cells, max_size=len(header) + 1),
    )
    head = st.one_of(st.just(header), st.lists(cells, max_size=len(header) + 1))
    structured = st.builds(
        lambda h, rows: "\n".join(",".join(r) for r in [h, *rows]) + "\n", head, st.lists(row, max_size=8)
    )
    return st.one_of(structured, st.text(alphabet=",\n\r\"01abf.-e\x00", max_size=60))


def check_fuzzed_read(reader, tmp_path_factory, text):
    """Write ``text`` to a fresh file and read it: the result, or None when
    the reader refused it with a ValueError that starts with the path."""
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_bytes(text.encode())
    try:
        return reader(path)
    except ValueError as e:
        assert str(e).startswith(str(path)), str(e)
        return None


def chain_doc(depth: int) -> list[dict]:
    """A space document of ``depth`` 0/1 integers listed children first:
    v_k (k > 0) is active where v_(k-1) is active and equals 1."""
    return [
        {"name": f"v{k}", "kind": "integer", "lower": 0, "upper": 1}
        | ({"condition": {"parent": f"v{k - 1}", "values": [1]}} if k else {})
        for k in reversed(range(depth))
    ]


@st.composite
def hierarchy_docs(draw, labels=st.just(["r", "g"])) -> list[dict]:
    """A hierarchical space document in a drawn listing order, so that
    conditioned variables often come before their parents.  Variable ``vk``
    is an integer on [0, 2] or a categorical over a drawn ``labels`` list
    (r, g by default, which keeps the document valid); it may condition on
    one of v0 .. v(k-1) with one or two of that parent's values."""
    variables = []
    for k in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            v = {"name": f"v{k}", "kind": "integer", "lower": 0, "upper": 2}
        else:
            v = {"name": f"v{k}", "kind": "categorical", "categories": draw(labels)}
        if k and draw(st.booleans()):
            parent = variables[draw(st.integers(0, k - 1))]
            choices = parent.get("categories", [0, 1, 2])
            values = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=2, unique=True))
            v["condition"] = {"parent": parent["name"], "values": values}
        variables.append(v)
    return draw(st.permutations(variables))


def ert_table(records: list[PerformanceRecord]) -> ErtTable:
    """The table of ``records`` as the library reads it: written with
    ``write_performance_csv`` and parsed back by ``read_performance_csv``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "performance.csv"
        write_performance_csv(records, path)
        return read_performance_csv(path)


# dimensions on both sides of numpy's 8-element unrolled and 128-element
# pairwise summation blocks, for the batched builtin objectives
BATCH_DIMENSIONS = (1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 300)


def unit_space(width: int) -> SearchSpace:
    """A continuous search space with ``width`` variables on [0, 1]."""
    return SearchSpace(
        variables=tuple(
            VariableSpec(name=f"x{j}", kind="continuous", lower=0.0, upper=1.0)
            for j in range(width)
        )
    )


def rgb_space() -> SearchSpace:
    """A mixed space: one continuous, one three-way categorical and one
    integer variable."""
    return SearchSpace(
        variables=(
            VariableSpec(name="x", kind="continuous", lower=-2.0, upper=2.0),
            VariableSpec(name="c", kind="categorical", categories=("r", "g", "b")),
            VariableSpec(name="k", kind="integer", lower=0, upper=4),
        )
    )


def evaluate_design_on_mixed(seed: int):
    """A 24-row design over ``rgb_space``, evaluated on a separable objective."""
    s = rgb_space()
    d = create_initial_design(s, n=24, seed=seed)

    def objective(row):
        x, c, k = row
        return x * x + {"r": 0.0, "g": 1.0, "b": 2.0}[c] + 0.1 * k

    return evaluate_design(Problem(space=s, objective=objective), d)


def make_processed(X, y, encoding: str = "none") -> ProcessedDesign:
    """Wrap a unit-cube matrix and normalized objective as a ProcessedDesign."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    names = tuple(f"x{j}" for j in range(X.shape[1]))
    return ProcessedDesign(
        matrix=X,
        objective=np.asarray(y, dtype=float),
        column_names=names,
        column_map={name: (j,) for j, name in enumerate(names)},
        encoding=encoding,
        provenance={"stages": ["handmade"]},
    )


def tied_lattice() -> ProcessedDesign:
    """The 350 points of a 14 x 25 lattice, each listed twice: 700 rows,
    which ``distance_blocks`` splits into 16 row blocks.  Rows tie in their
    distances (a duplicate at 0, lattice neighbours at equal steps) and in
    their objective, which takes eight levels."""
    X = np.array([(a / 13, b / 24) for a in range(14) for b in range(25)] * 2)
    return make_processed(X, np.round(3.5 * X.sum(axis=1)) / 7)


@pytest.fixture(scope="module")
def built_distances() -> ProcessedDesign:
    """A (20, 1200) design whose 11.5 MB distance matrix is already built,
    so that tracing a stage counts only what the stage allocates."""
    rng = np.random.default_rng(41)
    pd = make_processed(rng.random((1200, 20)), rng.random(1200))
    pd.distances
    return pd


def traced_peak(fn):
    """The result of ``fn()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="class")
def landsel_on_path(tmp_path_factory):
    """Make the ``landsel`` console script runnable by name.

    An installed ``landsel`` is used unchanged.  In a source checkout with
    nothing installed, a launcher is written the way pip writes one, for the
    entry point declared under ``[project.scripts]`` in ``pyproject.toml``,
    and its directory goes first on PATH until the tests using it finish.
    """
    if shutil.which("landsel") is not None:
        yield
        return
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["landsel"]
    module, _, attr = target.partition(":")
    bindir = tmp_path_factory.mktemp("bin")
    launcher = bindir / "landsel"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
        yield
