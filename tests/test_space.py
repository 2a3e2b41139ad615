"""Search spaces, builtin problems, and objective transforms."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from landsel import space
from landsel.space import (
    BUILTIN_FUNCTIONS,
    Condition,
    ExactColumn,
    ObjectiveTransform,
    Problem,
    SearchSpace,
    VariableSpec,
    apply_transform,
    builtin_problem,
    builtin_space,
    check_bytes,
    space_from_json,
    space_from_obj,
    space_to_obj,
)

from conftest import BATCH_DIMENSIONS, chain_doc, hierarchy_docs


def cont(name, lower=-5.0, upper=5.0, condition=None):
    return VariableSpec(name=name, kind="continuous", lower=lower, upper=upper, condition=condition)


class TestVariableSpec:
    def test_continuous_needs_strict_bounds(self):
        with pytest.raises(ValueError):
            VariableSpec(name="x", kind="continuous", lower=1.0, upper=1.0)

    def test_integer_allows_equal_bounds(self):
        v = VariableSpec(name="k", kind="integer", lower=3, upper=3)
        assert v.lower == v.upper == 3

    def test_integer_bounds_must_be_integral(self):
        with pytest.raises(ValueError):
            VariableSpec(name="k", kind="integer", lower=0.5, upper=3)

    def test_categories_must_be_distinct(self):
        with pytest.raises(ValueError):
            VariableSpec(name="c", kind="categorical", categories=("a", "a"))

    def test_categories_must_be_nonempty(self):
        with pytest.raises(ValueError):
            VariableSpec(name="c", kind="categorical", categories=())

    @pytest.mark.parametrize("label", [1, True, 0.5, ""])
    def test_a_label_is_a_non_empty_string(self, label):
        with pytest.raises(ValueError, match=f"^c: a category label must be a non-empty string, got {label!r}$"):
            VariableSpec(name="c", kind="categorical", categories=("a", label))

    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    def test_a_bool_bound_is_not_a_number(self, kind):
        with pytest.raises(ValueError, match="^x: lower bound must be a number, got False$"):
            VariableSpec(name="x", kind=kind, lower=False, upper=True)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            VariableSpec(name="x", kind="ordinal", lower=0, upper=1)


class TestSearchSpace:
    def test_names_must_be_unique(self):
        with pytest.raises(ValueError):
            SearchSpace(variables=(cont("x"), cont("x")))

    def test_condition_parent_must_exist(self):
        child = cont("c", condition=Condition(parent="nope", values=("on",)))
        with pytest.raises(ValueError):
            SearchSpace(variables=(child,))

    def test_condition_parent_must_be_discrete(self):
        parent = cont("p")
        child = cont("c", condition=Condition(parent="p", values=(1.0,)))
        with pytest.raises(ValueError):
            SearchSpace(variables=(parent, child))

    def test_condition_values_must_be_admissible(self):
        parent = VariableSpec(name="p", kind="categorical", categories=("on", "off"))
        child = cont("c", condition=Condition(parent="p", values=("maybe",)))
        with pytest.raises(ValueError):
            SearchSpace(variables=(parent, child))

    def test_condition_cycle_detected(self):
        a = VariableSpec(
            name="a", kind="integer", lower=0, upper=1,
            condition=Condition(parent="b", values=(1,)),
        )
        b = VariableSpec(
            name="b", kind="integer", lower=0, upper=1,
            condition=Condition(parent="a", values=(1,)),
        )
        with pytest.raises(ValueError, match="a: condition parents form a cycle"):
            SearchSpace(variables=(a, b))
        # a variable below the cycle, listed first, is the one named
        c = cont("c", condition=Condition(parent="a", values=(1,)))
        with pytest.raises(ValueError, match="c: condition parents form a cycle"):
            SearchSpace(variables=(c, a, b))

    @given(hierarchy_docs())
    @example(chain_doc(1200))  # deeper than Python's default recursion limit
    def test_resolution_order_puts_parents_first(self, doc):
        s = space_from_obj(doc)
        order = s.resolution_order
        assert sorted(order) == list(range(s.dimension))
        position = {s.variables[j].name: p for p, j in enumerate(order)}
        for v in s.variables:
            if v.condition is not None:
                assert position[v.condition.parent] < position[v.name]

    def test_dimension_and_lookup(self):
        s = SearchSpace(variables=(cont("x"), cont("z")))
        assert s.dimension == 2
        assert s.names == ("x", "z")
        assert s["z"].name == "z"

    def test_json_round_trip_with_condition(self):
        parent = VariableSpec(name="opt", kind="categorical", categories=("sgd", "adam"))
        child = VariableSpec(
            name="momentum", kind="continuous", lower=0.0, upper=1.0,
            condition=Condition(parent="opt", values=("sgd",)),
        )
        s = SearchSpace(variables=(parent, child, VariableSpec(name="k", kind="integer", lower=1, upper=8)))
        assert space_from_json(json.dumps(space_to_obj(s), indent=2)) == s

    def test_json_unknown_key_rejected(self):
        text = '[{"name": "x", "kind": "continuous", "lower": 0, "upper": 1, "scale": "log"}]'
        with pytest.raises(ValueError, match="scale"):
            space_from_json(text)


class TestBuiltinProblems:
    def test_sphere_identity_instance_at_origin(self):
        p = builtin_problem("sphere", 0, 2)
        assert p.objective((0.0, 0.0)) == 0.0

    def test_sphere_sum_of_squares(self):
        p = builtin_problem("sphere", 0, 3)
        assert p.objective((1.0, 2.0, 2.0)) == 9.0

    def test_instance_transform_read_back(self):
        # instance 7's objective at its own shift equals the transform offset b
        p = builtin_problem("sphere", 7, 2)
        assert p.objective(tuple(p.shift)) == p.transform.shift
        assert p.known_optimum == p.transform.shift

    def test_instance_seeding_is_pinned(self):
        # frozen values guard the documented seeding convention: regenerating
        # instances on another platform or after a refactor must not move them
        p = builtin_problem("sphere", 7, 2)
        assert p.transform.scale == 3.9658701724092915
        assert p.transform.shift == -46.986375229732175
        assert tuple(p.shift) == (-3.6891115032198716, 2.21701981728064)

    def test_identity_instance_has_no_transform(self):
        p = builtin_problem("rastrigin", 0, 4)
        assert p.transform.scale == 1.0
        assert p.transform.shift == 0.0
        assert np.all(p.shift == 0.0)

    def test_evaluation_is_deterministic(self):
        p = builtin_problem("rosenbrock", 3, 5)
        point = (0.3, -1.2, 4.9, 0.0, 2.5)
        assert p.objective(point) == p.objective(point)

    def test_linear_slope_is_sum(self):
        p = builtin_problem("linear_slope", 0, 3)
        assert p.objective((1.0, 2.0, 3.0)) == 6.0

    def test_every_builtin_every_dimension_has_finite_known_optimum(self):
        for fid in BUILTIN_FUNCTIONS:
            for d in (1, 2, 6):
                p = builtin_problem(fid, 2, d)
                assert np.isfinite(p.known_optimum)
                assert p.space.dimension == d

    def test_unknown_fid(self):
        with pytest.raises(ValueError):
            builtin_problem("ackley", 0, 2)

    def test_bad_dimension_and_iid(self):
        with pytest.raises(ValueError):
            builtin_problem("sphere", 0, 0)
        with pytest.raises(ValueError):
            builtin_problem("sphere", -1, 2)

    def test_dimension_cap_is_inclusive_and_refuses_before_any_variable(self, monkeypatch):
        monkeypatch.setattr(space, "MAX_BYTES", 3 * space._VARIABLE_BYTES)
        assert builtin_problem("sphere", 1, 3).space.dimension == 3

        def no_variable(*args, **kwargs):
            raise AssertionError("a variable was built")

        monkeypatch.setattr(space, "VariableSpec", no_variable)
        with pytest.raises(ValueError, match=r"^the variables of dimension D = 4 need 1 MiB, over the 0 MiB cap$"):
            builtin_problem("sphere", 1, 4)


def reference_addends(fid: str, z: list[float]) -> list[float]:
    """The signed terms whose sum is the base function at the row ``z``,
    in plain Python floats."""
    d = len(z)
    if fid == "sphere":
        return [v * v for v in z]
    if fid == "ellipsoid":
        return [10.0 ** (6.0 * i / (d - 1) if d > 1 else 0.0) * v * v for i, v in enumerate(z)]
    if fid == "rastrigin":
        return [t for v in z for t in (10.0, -10.0 * math.cos(2.0 * math.pi * v), v * v)]
    if fid == "rosenbrock":
        return [t for u, v in zip(z, z[1:]) for t in (100.0 * (u * u - v) ** 2, (u - 1.0) ** 2)]
    assert fid == "linear_slope"
    return list(z)


class TestBatchedBuiltins:
    @pytest.mark.parametrize("fid", BUILTIN_FUNCTIONS)
    def test_batch_rows_and_reference_agree(self, fid):
        rng = np.random.default_rng(BUILTIN_FUNCTIONS.index(fid))
        for d in BATCH_DIMENSIONS:
            for iid in (0, 3):
                p = builtin_problem(fid, iid, d)
                x = rng.uniform(-5.0, 5.0, size=(24, d))
                y = p.batch(x)
                assert y.shape == (24,)
                # one m-row call and m one-row calls give the same bits
                rows = np.array([p.objective(tuple(row)) for row in x])
                assert y.tobytes() == rows.tobytes(), (d, iid)
                a, b = p.transform.scale, p.transform.shift
                for row, value in zip(x - p.shift, y.tolist()):
                    addends = reference_addends(fid, row.tolist())
                    magnitude = a * sum(map(abs, addends)) + abs(b)
                    assert abs(value - (a * math.fsum(addends) + b)) <= 1e-13 * magnitude, (d, iid)

    def test_objective_is_one_row_of_batch(self):
        p = builtin_problem("rastrigin", 2, 3)
        row = (0.5, -4.25, 3.0)
        assert type(p.objective(row)) is float
        assert p.objective(row) == p.batch(np.array([row]))[0]
        assert p.known_optimum == p.transform.shift

    def test_wrong_shapes_are_refused(self):
        p = builtin_problem("sphere", 0, 3)
        for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="expected rows of 3 values"):
                p.batch(bad)
        with pytest.raises(ValueError, match="expected a row of 3 values"):
            p.objective((0.0, 1.0))

    def test_user_problems_have_no_batch(self):
        assert Problem(space=builtin_space(2), objective=lambda row: 0.0).batch is None

    def test_shift_is_a_read_only_copy(self):
        s = np.array([1.0, -2.0])
        p = Problem(space=builtin_space(2), objective=lambda row: 0.0, shift=s)
        assert s.flags.writeable
        assert not p.shift.flags.writeable
        s[0] = 3.0
        assert p.shift.tolist() == [1.0, -2.0]


class TestCheckBytes:
    def test_admits_exactly_the_cap_and_refuses_one_byte_more(self):
        assert space.MAX_BYTES == 1 << 30
        check_bytes(space.MAX_BYTES, "the whole cap")
        with pytest.raises(ValueError, match=r"^one byte too many need 1025 MiB, over the 1024 MiB cap$"):
            check_bytes(space.MAX_BYTES + 1, "one byte too many")

    def test_reads_the_cap_when_called_and_rounds_up(self, monkeypatch):
        monkeypatch.setattr(space, "MAX_BYTES", 10)
        check_bytes(10, "ten bytes")
        # a refusal never reads "need 0 MiB"
        with pytest.raises(ValueError, match=r"^eleven bytes need 1 MiB, over the 0 MiB cap$"):
            check_bytes(11, "eleven bytes")


class TestObjectiveTransform:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            ObjectiveTransform(scale=0.0, shift=1.0)

    def test_identity(self):
        out = apply_transform(ObjectiveTransform(scale=1.0, shift=0.0), [1.0, 2.0])
        assert list(out) == [1, 2]

    def test_direct_arithmetic(self):
        out = apply_transform(ObjectiveTransform(scale=2.0, shift=3.0), [0.0, 1.0])
        assert list(out) == [3, 5]
        out = apply_transform(ObjectiveTransform(scale=0.5, shift=-1.0), [4.0, 8.0, 0.0])
        assert list(out) == [1, 3, -1]

    def test_results_are_exact_rationals(self):
        out = apply_transform(ObjectiveTransform(scale=0.1, shift=0.2), [0.3])
        assert isinstance(out[0], Fraction)
        # exact: Fraction(0.1) * Fraction(0.3) + Fraction(0.2), no rounding
        assert out[0] == Fraction(0.1) * Fraction(0.3) + Fraction(0.2)

    def test_equals_four_operation_formula(self):
        # the formula apply_transform replaced: four Fraction operations per
        # value.  It built Fraction(np.int64(v)) with a fixed-width numerator
        # that wrapped silently in the products, so numpy integers are taken
        # as Python ints here.
        def as_fraction(v):
            if isinstance(v, Fraction):
                return v
            if isinstance(v, np.integer):
                return Fraction(int(v))
            if isinstance(v, (int, float)):
                return Fraction(v)
            return Fraction(*v.as_integer_ratio())

        def reference(transform, values):
            a, b = Fraction(transform.scale), Fraction(transform.shift)
            return [a * as_fraction(v) + b for v in values]

        rng = np.random.default_rng(20)
        for _ in range(200):
            scale = float(np.exp(rng.uniform(-20, 20)))
            shift = float(rng.choice([0.0, -1.0, 1.0])) * float(np.exp(rng.uniform(-30, 30)))
            t = ObjectiveTransform(scale=scale, shift=shift)
            values = [
                *(rng.standard_normal(5) * np.exp(rng.uniform(-40, 40, 5))).tolist(),
                *rng.standard_normal(3),  # numpy floats
                np.float32(rng.standard_normal()),
                int(rng.integers(-10**6, 10**6)),
                np.int64(rng.integers(-10**6, 10**6)),
                np.int32(rng.integers(-1000, 1000)),
                Fraction(int(rng.integers(-1000, 1000)), int(rng.integers(1, 1000))),
                0.0,
                -0.0,
                5e-324,
            ]
            out = apply_transform(t, values)
            assert all(type(v) is Fraction for v in out)
            assert list(out) == reference(t, values)

    def test_numpy_integers_are_exact(self):
        out = apply_transform(ObjectiveTransform(scale=0.1, shift=0.3), [np.int64(123456)])
        assert out[0] == Fraction(0.1) * 123456 + Fraction(0.3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="objective values must be finite"):
            apply_transform(ObjectiveTransform(scale=2.0, shift=1.0), [1.0, bad])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
        st.floats(1e-3, 1e3),
        st.floats(-1e6, 1e6),
    )
    def test_argmin_set_preserved(self, y, a, b):
        out = apply_transform(ObjectiveTransform(scale=a, shift=b), y)
        y = np.asarray(y)
        lo = min(out)
        assert {i for i, v in enumerate(out) if v == lo} == set(
            np.flatnonzero(y == y.min()).tolist()
        )


class TestExactColumn:
    def test_empty_column(self):
        col = ExactColumn.of([])
        assert len(col) == 0 and col.denominator == 1
        assert np.asarray(col).dtype == np.float64 and np.asarray(col).shape == (0,)
        with pytest.raises(ValueError, match="empty"):
            col.minmax()

    @pytest.mark.parametrize("values", [[2.5], [2.5] * 4, [np.int64(-3)] * 3, [Fraction(1, 3)] * 2])
    def test_constant_column_gives_zeros(self, values):
        zeros = np.zeros(len(values)).tobytes()
        assert ExactColumn.of(values).minmax().tobytes() == zeros
        t = ObjectiveTransform(scale=0.1, shift=-7.3)
        assert apply_transform(t, values).minmax().tobytes() == zeros

    def test_smallest_subnormal_and_largest_magnitudes_in_one_column(self):
        values = [5e-324, 1e308, -1e308, 0.0, -5e-324]
        col = ExactColumn.of(values)
        assert col.denominator == 2**1074
        assert np.asarray(col).tobytes() == np.array(values).tobytes()
        assert list(col) == [Fraction(v) for v in values]
        lo, hi = Fraction(-1e308), Fraction(1e308)
        expected = [float((Fraction(v) - lo) / (hi - lo)) for v in values]
        assert col.minmax().tolist() == expected
        # half the smallest subnormal is a tie that rounds to even, zero
        halved = apply_transform(ObjectiveTransform(scale=0.5, shift=0.0), values)
        assert np.asarray(halved).tolist() == [float(Fraction(v) / 2) for v in values]
        assert np.asarray(halved)[0] == 0.0

    def test_beyond_float64_range_is_a_value_error(self):
        largest = float(np.finfo(np.float64).max)
        assert np.asarray(ExactColumn.of([largest, -largest])).tolist() == [largest, -largest]
        doubled = apply_transform(ObjectiveTransform(scale=2.0, shift=0.0), [largest, 1.0])
        assert doubled[0] == 2 * Fraction(largest)  # still exact, only not a float
        with pytest.raises(ValueError, match="beyond the float64 range"):
            np.asarray(doubled)

    def test_numpy_integers_take_no_fixed_width_product(self):
        values = [np.int64(2**62), np.int32(-7), np.uint8(200), 3]
        col = ExactColumn.of(values)
        assert col.numerators == (2**62, -7, 200, 3) and col.denominator == 1
        out = apply_transform(ObjectiveTransform(scale=4.0, shift=1.0), np.array(values[:2]))
        assert list(out) == [2**64 + 1, -27]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("container", [list, lambda v: np.array(v, dtype=object), np.array])
    def test_non_finite_values_rejected(self, bad, container):
        with pytest.raises(ValueError, match="objective values must be finite"):
            ExactColumn.of(container([1.0, bad]))

    def test_floats_are_rounded_once(self):
        rng = np.random.default_rng(3)
        values = [
            Fraction(int(rng.integers(-2**62, 2**62)) * 10**12, int(rng.integers(1, 2**62)))
            for _ in range(50)
        ]
        values += [Fraction(1, 3), Fraction(2, 3), Fraction(-1, 10**400)]
        col = ExactColumn.of(values)
        assert all(type(v) is Fraction for v in col) and list(col) == values
        assert np.asarray(col).tolist() == [float(v) for v in values]
        assert np.asarray(col, dtype=np.float32).dtype == np.float32
