"""Initial designs: sampling strategies, evaluation, CSV round-trips."""

from __future__ import annotations

import hashlib
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from landsel.sampling import (
    STRATEGIES,
    Design,
    _round_ties_down,
    create_initial_design,
    design_from_csv,
    design_to_csv,
    evaluate_design,
    staged,
    with_objective,
)
from landsel.preprocess import preprocess_pipeline
from landsel.space import (
    ExactColumn,
    ObjectiveTransform,
    Problem,
    SearchSpace,
    VariableSpec,
    apply_transform,
    builtin_problem,
    space_from_obj,
)

from conftest import hierarchy_docs, traced_peak, unit_space


def mixed_space():
    return SearchSpace(
        variables=(
            VariableSpec(name="x", kind="continuous", lower=-2.0, upper=2.0),
            VariableSpec(name="k", kind="integer", lower=0, upper=5),
            VariableSpec(name="c", kind="categorical", categories=("a", "b")),
        )
    )


def test_round_ties_down():
    values = np.array([0.5, 1.5, -0.5, 2.49, 2.51])
    assert _round_ties_down(values).tolist() == [0.0, 1.0, -1.0, 2.0, 3.0]


class TestCreateInitialDesign:
    def test_default_size_is_fifty_per_dimension(self):
        d = create_initial_design(unit_space(3))
        assert d.n == 150
        assert d.meta["n"] == 150

    def test_needs_at_least_two_rows(self):
        with pytest.raises(ValueError):
            create_initial_design(unit_space(1), n=1)

    def test_oversized_design_is_refused_before_allocation(self):
        # 10^10 rows of two variables would take 149 GiB of cells
        def refuse():
            with pytest.raises(ValueError, match=r"^n = 10000000000 rows of 2 variables need 152588 MiB, over the 1024 MiB cap$"):
                create_initial_design(unit_space(2), n=10_000_000_000)

        _, peak = traced_peak(refuse)
        assert peak < 2**20

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            create_initial_design(unit_space(1), n=4, strategy="grid")

    def test_rows_respect_bounds_and_types(self):
        d = create_initial_design(mixed_space(), n=40, seed=5)
        x = d.columns["x"]
        k = d.columns["k"]
        assert x.min() >= -2.0 and x.max() <= 2.0
        assert k.min() >= 0 and k.max() <= 5
        assert np.all(k == np.round(k))
        assert set(d.columns["c"]) <= {"a", "b"}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_seed_same_design(self, strategy):
        a = create_initial_design(mixed_space(), n=16, strategy=strategy, seed=9)
        b = create_initial_design(mixed_space(), n=16, strategy=strategy, seed=9)
        for name in a.space.names:
            assert np.array_equal(a.columns[name], b.columns[name])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_different_seed_different_design(self, strategy):
        a = create_initial_design(unit_space(2), n=32, strategy=strategy, seed=0)
        b = create_initial_design(unit_space(2), n=32, strategy=strategy, seed=1)
        assert not np.array_equal(a.columns["x0"], b.columns["x0"])

    def test_latin_hypercube_fills_every_bin(self):
        # one sample per interval [i/n, (i+1)/n) in each coordinate
        n = 20
        d = create_initial_design(unit_space(2), n=n, strategy="latin_hypercube", seed=3)
        for name in ("x0", "x1"):
            bins = np.floor(d.columns[name] * n).astype(int)
            assert sorted(bins.tolist()) == list(range(n))

    def test_categorical_counts_balanced_exactly(self):
        d = create_initial_design(mixed_space(), n=10, seed=2)
        labels = list(d.columns["c"])
        assert labels.count("a") == 5
        assert labels.count("b") == 5

    def test_categorical_counts_balanced_with_remainder(self):
        d = create_initial_design(mixed_space(), n=11, seed=2)
        labels = list(d.columns["c"])
        counts = {lab: labels.count(lab) for lab in ("a", "b")}
        assert sum(counts.values()) == 11
        assert max(counts.values()) - min(counts.values()) <= 1


class TestDesignValidation:
    def test_columns_must_match_space(self):
        s = unit_space(1)
        with pytest.raises(ValueError):
            Design(space=s, columns={"x0": np.zeros(3), "bogus": np.zeros(3)})

    def test_cells_must_respect_bounds(self):
        s = unit_space(1)
        with pytest.raises(ValueError):
            Design(space=s, columns={"x0": np.array([0.0, 1.5])})

    def test_unknown_label_rejected(self):
        s = SearchSpace(variables=(VariableSpec(name="c", kind="categorical", categories=("a",)),))
        with pytest.raises(ValueError):
            Design(space=s, columns={"c": np.array(["z"], dtype=object)})

    def test_y_must_be_finite(self):
        s = unit_space(1)
        with pytest.raises(ValueError):
            Design(space=s, columns={"x0": np.array([0.0, 1.0])}, y=np.array([0.0, np.inf]))


class TestEvaluateDesign:
    def test_sphere_values(self):
        p = builtin_problem("sphere", 0, 2)
        d = Design(
            space=p.space,
            columns={"x0": np.array([0.0, 1.0]), "x1": np.array([0.0, -1.0])},
        )
        out = evaluate_design(p, d)
        assert out.y.tolist() == [0.0, 2.0]

    def test_linear_slope_values(self):
        p = builtin_problem("linear_slope", 0, 2)
        d = Design(
            space=p.space,
            columns={"x0": np.array([1.0, 0.0]), "x1": np.array([2.0, 0.0])},
        )
        out = evaluate_design(p, d)
        assert out.y.tolist() == [3.0, 0.0]

    def test_evaluations_spent_accumulates(self):
        p = builtin_problem("sphere", 0, 2)
        d = create_initial_design(p.space, n=12, seed=0)
        out = evaluate_design(p, d)
        assert out.meta["evaluations_spent"] == 12
        assert d.meta["evaluations_spent"] == 0  # input untouched

    def test_evaluations_spent_adds_up_over_two_evaluations(self):
        p = builtin_problem("sphere", 0, 2)
        first = evaluate_design(p, create_initial_design(p.space, n=12, seed=0))
        again = Design(space=p.space, columns=dict(first.columns), meta=dict(first.meta))
        assert evaluate_design(p, again).meta["evaluations_spent"] == 24
        assert first.meta["evaluations_spent"] == again.meta["evaluations_spent"] == 12

    def test_objective_sees_rows_typed_cell_by_cell(self):
        d = create_initial_design(mixed_space(), n=12, seed=3)
        rows = []
        evaluate_design(Problem(space=d.space, objective=lambda row: rows.append(row) or 0.0), d)
        x, k, c = (d.columns[name] for name in ("x", "k", "c"))
        assert rows == [(float(x[i]), int(k[i]), c[i]) for i in range(d.n)]
        assert all(type(row) is tuple and list(map(type, row)) == [float, int, str] for row in rows)

    def test_objective_sees_missing_cells_as_nan_and_none(self):
        s = mixed_space()
        d = Design(space=s, columns={"x": [0.5, 1.0], "k": [np.nan, 2.0], "c": ["a", None]})
        rows = []
        evaluate_design(Problem(space=s, objective=lambda row: rows.append(row) or 0.0), d)
        assert math.isnan(rows[0][1]) and rows[0][::2] == (0.5, "a")
        assert rows[1] == (1.0, 2, None)

    def test_space_mismatch(self):
        p = builtin_problem("sphere", 0, 2)
        d = create_initial_design(unit_space(2), n=4)
        with pytest.raises(ValueError, match="does not match"):
            evaluate_design(p, d)

    def test_already_evaluated(self):
        p = builtin_problem("sphere", 0, 2)
        d = evaluate_design(p, create_initial_design(p.space, n=4))
        with pytest.raises(ValueError, match="already evaluated"):
            evaluate_design(p, d)

    def test_non_finite_objective_names_the_row(self):
        s = unit_space(1)
        p = Problem(space=s, objective=lambda row: float("nan") if row[0] > 0.5 else 0.0)
        d = Design(space=s, columns={"x0": np.array([0.0, 0.9])})
        with pytest.raises(ValueError, match="row 1"):
            evaluate_design(p, d)

    def test_with_objective_replaces_y(self):
        d = create_initial_design(unit_space(1), n=3)
        out = with_objective(d, [1.0, 2.0, 3.0])
        assert out.y.tolist() == [1.0, 2.0, 3.0]
        assert d.y is None

    def test_with_objective_shares_columns_and_validates_y(self):
        d = create_initial_design(mixed_space(), n=4, seed=2)
        out = with_objective(d, np.arange(4.0))
        assert out.columns is not d.columns and out.meta is not d.meta
        assert all(out.columns[name] is d.columns[name] for name in d.space.names)
        assert not out.y.flags.writeable
        with pytest.raises(ValueError, match="must all be finite"):
            with_objective(d, [0.0, 1.0, float("inf"), 2.0])
        with pytest.raises(ValueError, match="one value per row"):
            with_objective(d, [0.0, 1.0])

    def test_object_dtype_y_stays_exact(self):
        d = create_initial_design(unit_space(1), n=4, seed=1)
        y = np.array([Fraction(1, 3), Fraction(2, 3), Fraction(-1, 10**400), Fraction(1, 7)], dtype=object)
        for out in (with_objective(d, y), Design(space=d.space, columns=dict(d.columns), y=y)):
            assert isinstance(out.y, ExactColumn)
            assert list(out.y) == list(y)
            lo, hi = min(y), max(y)
            expected = [float((v - lo) / (hi - lo)) for v in y]
            assert preprocess_pipeline(out).objective.tolist() == expected

    def test_exact_objective_is_kept_and_checked(self):
        d = create_initial_design(unit_space(1), n=3, seed=1)
        col = apply_transform(ObjectiveTransform(scale=3.0, shift=0.1), [0.0, 1.0, 2.0])
        assert with_objective(d, col).y is col
        with pytest.raises(ValueError, match="one value per row"):
            with_objective(d, ExactColumn.of([1.0, 2.0]))
        with pytest.raises(ValueError, match="must be finite"):
            with_objective(d, np.array([1.0, float("nan"), 2.0], dtype=object))


class TestCsvRoundTrip:
    def test_unevaluated_design(self, tmp_path):
        d = create_initial_design(mixed_space(), n=15, seed=4)
        path = tmp_path / "design.csv"
        design_to_csv(d, path)
        back = design_from_csv(path)
        assert back.space == d.space
        assert back.y is None
        assert back.meta["seed"] == 4
        for name in d.space.names:
            a, b = d.columns[name], back.columns[name]
            if d.space[name].kind == "categorical":
                assert list(a) == list(b)
            else:
                assert np.array_equal(a, b)

    def test_evaluated_design(self, tmp_path):
        p = builtin_problem("rastrigin", 1, 2)
        d = evaluate_design(p, create_initial_design(p.space, n=10, seed=1))
        path = tmp_path / "design.csv"
        design_to_csv(d, path)
        back = design_from_csv(path)
        assert np.array_equal(back.y, d.y)
        assert back.meta["evaluations_spent"] == 10

    def test_labels_with_commas_survive(self, tmp_path):
        s = SearchSpace(
            variables=(VariableSpec(name="c", kind="categorical", categories=("p,q", 'r"s')),)
        )
        d = Design(space=s, columns={"c": np.array(["p,q", 'r"s', "p,q"], dtype=object)})
        path = tmp_path / "design.csv"
        design_to_csv(d, path)
        back = design_from_csv(path)
        assert list(back.columns["c"]) == ["p,q", 'r"s', "p,q"]

    def test_names_with_commas_quotes_and_newlines_survive(self, tmp_path):
        names = ("a,b", 'q"r', "l\nm", "plain")
        s = SearchSpace(
            variables=tuple(VariableSpec(name=n, kind="integer", lower=0, upper=3) for n in names)
        )
        d = evaluate_design(
            Problem(space=s, objective=lambda row: float(sum(row))), create_initial_design(s, n=6, seed=2)
        )
        path = tmp_path / "design.csv"
        design_to_csv(d, path)
        assert path.read_text().startswith('"x.a,b","x.q""r","x.l\nm",x.plain,y\n')
        back = design_from_csv(path)
        assert back.space == s
        assert all(np.array_equal(back.columns[n], d.columns[n]) for n in names)
        assert np.array_equal(back.y, d.y)

    def test_blank_integer_and_categorical_cells_write_as_before(self, tmp_path):
        # the bytes that the cell-by-cell writer wrote for this design
        d = Design(
            space=mixed_space(),
            columns={"x": [-2.0, 0.1, 1e-05], "k": [0.0, np.nan, 5.0], "c": ["a", "b", None]},
        )
        path = tmp_path / "blank.csv"
        design_to_csv(d, path)
        assert path.read_text() == 'x.x,x.k,x.c,y\n-2.0,0,"a",\n0.1,,"b",\n1e-05,5,,\n'
        design_to_csv(with_objective(d, [1.5, 0.0, -3.25]), path)
        assert path.read_text() == 'x.x,x.k,x.c,y\n-2.0,0,"a",1.5\n0.1,,"b",0.0\n1e-05,5,,-3.25\n'

    # categories that space_from_obj once accepted but a design file could not
    # read back: numbers, booleans and the empty label
    @given(
        hierarchy_docs(
            st.lists(
                st.one_of(
                    st.text(alphabet='rg ,"', max_size=2), st.integers(-2, 2), st.floats(-2, 2), st.booleans()
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    @example([{"name": "c", "kind": "categorical", "categories": [1, 2, 3]}])
    def test_every_accepted_space_survives_a_design_file(self, tmp_path_factory, doc):
        try:
            s = space_from_obj(doc)
        except ValueError:
            return
        d = create_initial_design(s, n=6, seed=0)
        path = tmp_path_factory.mktemp("round_trip") / "design.csv"
        design_to_csv(d, path)
        back = design_from_csv(path)
        assert back.space == s
        assert all(list(back.columns[name]) == list(d.columns[name]) for name in s.names)

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            design_from_csv(tmp_path / "nope.csv")

    @staticmethod
    def write_beside_sidecar(path, text, space):
        """``text`` as a design file, next to the sidecar that
        ``design_to_csv`` writes for a design over ``space``."""
        design_to_csv(create_initial_design(space, n=2, seed=0), path)
        path.write_text(text)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_beside_sidecar(path, "x.a,y\n0.0,1.0\n", unit_space(1))
        with pytest.raises(ValueError, match="header"):
            design_from_csv(path)

    @pytest.mark.parametrize(
        "cell,reason", [("1.5", "integer cells must be integral"), ("inf", "cells must be finite or missing")]
    )
    def test_bad_integer_cell_refused_not_truncated(self, tmp_path, cell, reason):
        path = tmp_path / "ints.csv"
        self.write_beside_sidecar(path, f"x.k,y\n2,\n{cell},\n", SearchSpace((mixed_space()["k"],)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: k: {reason}"):
            design_from_csv(path)

    def test_space_comes_from_the_sidecar(self, tmp_path):
        d = create_initial_design(unit_space(2), n=5, seed=0)
        path = tmp_path / "design.csv"
        design_to_csv(d, path)
        back = design_from_csv(path)
        assert back.space == d.space
        path.with_name("design.meta.json").unlink()
        with pytest.raises(FileNotFoundError, match=r"design\.meta\.json"):
            design_from_csv(path)

    # digests of the same files written when apply_transform built Fractions
    @pytest.mark.parametrize(
        "scale, shift, digest",
        [
            (0.1, 0.2, "ad3d0298d9adb4093c86b86dfc64b9f92e100310baab85ce2bf6a8ca1c5d900b"),
            (1e-320, 0.0, "6f37ccd8f0569176eec24b77522883b63f7dc8f7bd73d8b0fa77c82d48c00796"),
            (7.5e300, -1e6, "a90d7f5151f0442d889819b8f3cfba83bb9c22c128c6a7da7e056e43ec641d62"),
            (1.0, 0.0, "71a4f54d3ef5704a3b2747483cec2430f8aa5771c16ee134c436e1c79c2b5fd9"),
        ],
    )
    def test_rescaled_design_writes_each_value_rounded_once(self, tmp_path, scale, shift, digest):
        p = builtin_problem("rastrigin", 2, 2)
        d = evaluate_design(p, create_initial_design(p.space, n=12, seed=5))
        path = tmp_path / "rescaled.csv"
        design_to_csv(with_objective(d, apply_transform(ObjectiveTransform(scale, shift), d.y)), path)
        a, b = Fraction(scale), Fraction(shift)
        fields = [line.split(",")[-1] for line in path.read_text().splitlines()[1:]]
        assert fields == [repr(float(a * Fraction(v) + b)) for v in d.y]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_objective_beyond_float64_range_refused_before_writing(self, tmp_path):
        # the exact column holds 1e305 * y with y up to about 1e7, which no
        # float64 can hold; the refusal is a ValueError and no file is left
        p = builtin_problem("ellipsoid", 0, 2)
        d = evaluate_design(p, create_initial_design(p.space, n=20, seed=0))
        huge = with_objective(d, apply_transform(ObjectiveTransform(1e305, 0.0), d.y))
        path = tmp_path / "huge.csv"
        with pytest.raises(ValueError, match="beyond the float64 range"):
            design_to_csv(huge, path)
        assert list(tmp_path.iterdir()) == []


class TestStaged:
    def test_outputs_appear_together_on_a_clean_exit(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.json"
        a.write_text("old\n")
        with staged(a, b) as (sa, sb):
            pid = os.getpid()
            assert sorted(os.listdir(tmp_path)) == [f".a.csv.{pid}", f".b.json.{pid}", "a.csv"]
            assert a.read_text() == "old\n" and not b.exists()
            for stand_in in (sa, sb):
                with open(stand_in, "w") as fh:
                    fh.write("new\n")
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.json"]
        assert a.read_text() == b.read_text() == "new\n"

    def test_an_exception_removes_every_stand_in(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("old\n")
        with pytest.raises(RuntimeError), staged(a, tmp_path / "b.csv") as (sa, _):
            with open(sa, "w") as fh:
                fh.write("new\n")
            raise RuntimeError
        assert os.listdir(tmp_path) == ["a.csv"]
        assert a.read_text() == "old\n"

    def test_a_missing_directory_fails_on_entry_naming_the_output(self, tmp_path):
        out = tmp_path / "missing" / "b.csv"
        with pytest.raises(FileNotFoundError) as caught, staged(tmp_path / "a.csv", out):
            raise AssertionError("the block ran")
        assert caught.value.filename == str(out)
        assert os.listdir(tmp_path) == []

    def test_a_directory_fails_on_entry_naming_it(self, tmp_path):
        out = tmp_path / "b.json"
        out.mkdir()
        with pytest.raises(IsADirectoryError) as caught, staged(tmp_path / "a.csv", out):
            raise AssertionError("the block ran")
        assert caught.value.filename == str(out)
        assert os.listdir(tmp_path) == ["b.json"]  # the stand-in of a.csv is gone

    def test_a_fifo_or_a_symlink_is_written_in_place(self, tmp_path):
        fifo, link = tmp_path / "fifo", tmp_path / "link"
        os.mkfifo(fifo)
        link.symlink_to(tmp_path / "target")
        with staged(fifo, link) as stand_ins:
            assert stand_ins == [str(fifo), str(link)]
        assert sorted(os.listdir(tmp_path)) == ["fifo", "link"]
