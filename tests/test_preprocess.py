"""Preprocessing: hierarchy relaxation, encodings, normalization, pipeline."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from landsel import preprocess, space
from landsel.ela import compute_all
from landsel.fitmap import knn_cloud
from landsel.preprocess import (
    _activity_mask,
    minmax_unit,
    pairwise_distances,
    preprocess_pipeline,
    processed_paths,
    relax_hierarchy,
    write_processed,
)
from landsel.sampling import Design, create_initial_design, evaluate_design, with_objective
from landsel.space import (
    Condition,
    ObjectiveTransform,
    SearchSpace,
    VariableSpec,
    apply_transform,
    builtin_problem,
    space_from_obj,
)

from conftest import evaluate_design_on_mixed, hierarchy_docs, make_processed, rgb_space, unit_space


class TestMinmaxUnit:
    def test_basic(self):
        assert minmax_unit([2.0, 4.0, 6.0]).tolist() == [0.0, 0.5, 1.0]

    def test_constant_goes_to_zero(self):
        assert minmax_unit([5.0, 5.0, 5.0]).tolist() == [0.0, 0.0, 0.0]

    def test_exact_affine_cancellation(self):
        # the min-max ratio is computed in exact integer arithmetic, so an
        # exact affine image of y normalizes to the bit-identical vector
        y = [1.3, -0.7, 2.9, 0.0, 1.1]
        t = ObjectiveTransform(scale=0.1, shift=-7.3)
        again = minmax_unit(apply_transform(t, y))
        assert np.array_equal(minmax_unit(y), again)

    @given(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=40))
    def test_stays_in_unit_interval(self, y):
        out = minmax_unit(y)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out[int(np.argmin(y))] == 0.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=25),
        st.floats(1e-3, 1e3),
        st.floats(-1e6, 1e6),
    )
    def test_affine_invariance_property(self, y, a, b):
        t = ObjectiveTransform(scale=a, shift=b)
        assert np.array_equal(minmax_unit(y), minmax_unit(apply_transform(t, y)))


class TestRelaxHierarchy:
    def hier_space(self):
        parent = VariableSpec(name="opt", kind="categorical", categories=("on", "off"))
        child = VariableSpec(
            name="w", kind="continuous", lower=0.0, upper=10.0,
            condition=Condition(parent="opt", values=("on",)),
        )
        count = VariableSpec(
            name="m", kind="integer", lower=0, upper=5,
            condition=Condition(parent="opt", values=("on",)),
        )
        return SearchSpace(variables=(parent, child, count))

    def test_inactive_cells_get_midpoints(self):
        s = self.hier_space()
        d = Design(
            space=s,
            columns={
                "opt": np.array(["on", "off"], dtype=object),
                "w": np.array([3.0, np.nan]),
                "m": np.array([1.0, np.nan]),
            },
        )
        out = relax_hierarchy(d)
        assert out["w"].tolist() == [3.0, 5.0]
        # integer midpoint of [0, 5] is 2.5; exact halves round down
        assert out["m"].tolist() == [1.0, 2.0]
        assert _activity_mask(d).tolist() == [[True, True, True], [True, False, False]]

    def test_missing_active_cell_is_an_error(self):
        s = self.hier_space()
        d = Design(
            space=s,
            columns={
                "opt": np.array(["on"], dtype=object),
                "w": np.array([np.nan]),
                "m": np.array([0.0]),
            },
        )
        with pytest.raises(ValueError, match="active variable 'w'"):
            relax_hierarchy(d)

    def test_unconditioned_complete_design_passes_through(self):
        d = create_initial_design(unit_space(2), n=6, seed=0)
        assert relax_hierarchy(d) is d.columns

    @given(hierarchy_docs(), st.integers(0, 3))
    def test_activity_mask_equals_parent_chain_walk(self, doc, seed):
        d = create_initial_design(space_from_obj(doc), n=8, seed=seed)
        space = d.space
        expected = np.ones((d.n, space.dimension), dtype=bool)
        for i in range(d.n):
            for j, v in enumerate(space.variables):
                # active while every condition up the parent chain holds
                while v.condition is not None and expected[i, j]:
                    expected[i, j] = d.columns[v.condition.parent][i] in v.condition.values
                    v = space[v.condition.parent]
        assert _activity_mask(d).tolist() == expected.tolist()


class TestEncodings:
    def mixed_design(self):
        # raw objective 0, 1, 3, 4 normalizes to 0, 1/4, 3/4, 1 (mean 1/2);
        # category counts are r: 1, g: 2, b: 1
        s = rgb_space()
        return Design(
            space=s,
            columns={
                "x": np.array([-2.0, 0.0, 2.0, 1.0]),
                "c": np.array(["r", "g", "b", "g"], dtype=object),
                "k": np.array([0.0, 2.0, 4.0, 1.0]),
            },
            y=np.array([0.0, 1.0, 3.0, 4.0]),
        )

    def test_encode_none_keeps_columns(self):
        p = builtin_problem("sphere", 0, 2)
        d = evaluate_design(p, create_initial_design(p.space, n=8, seed=0))
        pd = preprocess_pipeline(d, encoding="none")
        assert pd.column_names == ("x0", "x1")
        assert pd.column_map == {"x0": (0,), "x1": (1,)}
        assert pd.matrix.shape == (8, 2)

    def test_one_hot_indicators(self):
        pd = preprocess_pipeline(self.mixed_design(), encoding="one_hot")
        assert pd.column_names == ("x", "c=r", "c=g", "c=b", "k")
        assert pd.column_map == {"x": (0,), "c": (1, 2, 3), "k": (4,)}
        # x scaled from [-2, 2], k from [0, 4]; row 1 holds label g
        assert pd.matrix.tolist() == [
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 1.0, 0.0, 0.5],
            [1.0, 0.0, 0.0, 1.0, 1.0],
            [0.75, 0.0, 1.0, 0.0, 0.25],
        ]
        assert pd.objective.tolist() == [0.0, 0.25, 0.75, 1.0]

    def test_nan_label_is_refused_before_one_hot(self):
        # a NaN label would equal no cell, not even itself, and leave its row
        # without an indicator; the space refuses it where it is declared
        with pytest.raises(ValueError, match="^c: a category label must be a non-empty string, got nan$"):
            VariableSpec(name="c", kind="categorical", categories=("a", float("nan")))

    def test_target_encoding_means(self):
        d = self.mixed_design()
        # smoothing 0: per-category means r 0, g (1/4 + 1) / 2 = 5/8, b 3/4,
        # then min-max over the sample divides by 3/4
        pd = preprocess_pipeline(d, encoding="target", smoothing=0.0)
        assert pd.matrix[:, 1].tolist() == [0.0, 5 / 6, 1.0, 5 / 6]
        # smoothing 2 pulls toward the mean 1/2: r (0 + 1) / 3 = 1/3,
        # g (5/4 + 1) / 4 = 9/16, b (3/4 + 1) / 3 = 7/12; min-max over
        # [1/3, 7/12] moves g from 5/6 to 11/12
        pd2 = preprocess_pipeline(d, encoding="target", smoothing=2.0)
        expected = [0.0, 11 / 12, 1.0, 11 / 12]
        assert pd2.matrix[:, 1].tolist() == pytest.approx(expected, abs=1e-15)
        # numeric columns are scaled by their bounds as under one_hot
        assert pd.matrix[:, 0].tolist() == [0.0, 0.5, 1.0, 0.75]
        assert pd.matrix[:, 2].tolist() == [0.0, 0.5, 1.0, 0.25]

    def test_target_encoding_single_category_is_global_mean(self):
        # the only category's mean is the global mean, a constant column
        # that the min-max step maps to zeros
        s = SearchSpace(variables=(VariableSpec(name="c", kind="categorical", categories=("only",)),))
        d = Design(
            space=s,
            columns={"c": np.array(["only", "only"], dtype=object)},
            y=np.array([0.0, 1.0]),
        )
        pd = preprocess_pipeline(d, encoding="target")
        assert pd.matrix[:, 0].tolist() == [0.0, 0.0]

    def test_target_encoding_empty_category(self):
        s = SearchSpace(
            variables=(VariableSpec(name="c", kind="categorical", categories=("a", "b", "e")),)
        )
        d = Design(
            space=s,
            columns={"c": np.array(["a", "a", "b"], dtype=object)},
            y=np.array([0.0, 2.0, 4.0]),
        )
        with pytest.raises(ValueError, match="zero rows"):
            preprocess_pipeline(d, encoding="target", smoothing=0.0)
        # with smoothing the empty category falls back to the mean 1/2; a
        # becomes (1/2 + 1/2) / 3 = 1/3 and b (1 + 1/2) / 2 = 3/4
        pd = preprocess_pipeline(d, encoding="target", smoothing=1.0)
        assert pd.matrix[:, 0].tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "encoding, smoothing, message",
        [("target", -0.5, "smoothing must be non-negative")]
        + [(e, s, "smoothing must be finite") for e in preprocess.ENCODINGS for s in (math.nan, math.inf)],
    )
    def test_target_encoding_rejects_negative_smoothing(self, encoding, smoothing, message):
        # a non-finite strength is refused under every encoding, before the
        # encoding is checked against the space
        with pytest.raises(ValueError, match=message):
            preprocess_pipeline(self.mixed_design(), encoding=encoding, smoothing=smoothing)

    def test_target_encoding_keeps_dimension(self):
        pd = preprocess_pipeline(self.mixed_design(), encoding="target")
        assert pd.matrix.shape == (4, 3)
        assert pd.column_names == ("x", "c", "k")


class TestNormalizeDecision:
    def test_bound_scaling(self):
        s = rgb_space()
        d = Design(
            space=s,
            columns={
                "x": np.array([-2.0, 0.0, 2.0]),
                "c": np.array(["r", "g", "b"], dtype=object),
                "k": np.array([0.0, 2.0, 4.0]),
            },
            y=np.array([0.0, 0.5, 1.0]),
        )
        out = preprocess_pipeline(d, encoding="one_hot")
        x = out.matrix[:, 0]
        assert x.tolist() == [0.0, 0.5, 1.0]
        k = out.matrix[:, 4]
        assert k.tolist() == [0.0, 0.5, 1.0]
        assert np.array_equal(out.matrix[:, 1:4], np.eye(3))

    def test_fixed_integer_becomes_zeros(self):
        s = SearchSpace(
            variables=(
                VariableSpec(name="x", kind="continuous", lower=0.0, upper=1.0),
                VariableSpec(name="k", kind="integer", lower=3, upper=3),
            )
        )
        d = Design(space=s, columns={"x": [0.25, 1.0], "k": [3.0, 3.0]}, y=[1.0, 2.0])
        assert preprocess_pipeline(d).matrix.tolist() == [[0.25, 0.0], [1.0, 0.0]]


class TestProcessedDesign:
    @pytest.mark.parametrize("bad", [-0.25, 1.5])
    def test_matrix_outside_unit_cube_rejected(self, bad):
        X = np.random.default_rng(3).random((4, 2))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="unit cube"):
            make_processed(X, np.linspace(0, 1, 4))


class TestPipeline:
    def test_matches_manual_stage_composition(self):
        # relax (nothing to do), normalize y, scale x and k by their bounds,
        # expand c into indicators, all by hand
        d = evaluate_design_on_mixed(seed=7)
        auto = preprocess_pipeline(d, encoding="one_hot")
        c = d.columns["c"]
        manual = np.column_stack(
            [(d.columns["x"] + 2.0) / 4.0]
            + [(c == label).astype(float) for label in ("r", "g", "b")]
            + [d.columns["k"] / 4.0]
        )
        assert auto.matrix.tobytes() == manual.tobytes()
        assert auto.objective.tobytes() == minmax_unit(d.y).tobytes()

    def test_output_lies_in_unit_cube(self):
        d = evaluate_design_on_mixed(seed=3)
        for encoding in ("one_hot", "target"):
            pd = preprocess_pipeline(d, encoding=encoding)
            assert pd.matrix.min() >= 0.0 and pd.matrix.max() <= 1.0
            assert pd.objective.min() >= 0.0 and pd.objective.max() <= 1.0

    def test_exact_invariance_field_by_field(self):
        p = builtin_problem("rosenbrock", 4, 3)
        d = evaluate_design(p, create_initial_design(p.space, n=40, seed=11))
        t = ObjectiveTransform(scale=0.37, shift=-19.1)
        d2 = with_objective(d, apply_transform(t, d.y))
        a = preprocess_pipeline(d, encoding="none")
        b = preprocess_pipeline(d2, encoding="none")
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.objective, b.objective)
        assert a.column_names == b.column_names

    def test_unknown_encoding(self):
        p = builtin_problem("sphere", 0, 1)
        d = evaluate_design(p, create_initial_design(p.space, n=4, seed=0))
        with pytest.raises(ValueError, match="unknown encoding"):
            preprocess_pipeline(d, encoding="ordinal")

    def test_none_on_categorical_space_rejected(self):
        d = evaluate_design_on_mixed(seed=0)
        with pytest.raises(ValueError, match="numeric"):
            preprocess_pipeline(d, encoding="none")

    def test_idempotent_on_unit_space(self):
        # feed the pipeline its own output (as a fresh design on the unit
        # cube): a second pass must change nothing
        p = builtin_problem("sphere", 1, 2)
        d = evaluate_design(p, create_initial_design(p.space, n=20, seed=5))
        pd = preprocess_pipeline(d, encoding="none")
        s = unit_space(2)
        again = preprocess_pipeline(
            Design(
                space=s,
                columns={"x0": pd.matrix[:, 0], "x1": pd.matrix[:, 1]},
                y=pd.objective,
            ),
            encoding="none",
        )
        assert np.array_equal(again.matrix, pd.matrix)
        assert np.array_equal(again.objective, pd.objective)

    def test_provenance_records_stages(self):
        d = evaluate_design_on_mixed(seed=1)
        pd = preprocess_pipeline(d, encoding="target", smoothing=0.5)
        assert pd.provenance["stages"] == [
            "relax_hierarchy",
            "normalize_objective",
            "encode_target",
            "normalize_decision",
        ]
        assert pd.provenance["encoding"] == "target"
        assert pd.provenance["smoothing"] == 0.5
        assert pd.provenance["source_meta"]["seed"] == 1

    def test_csv_export(self, tmp_path):
        d = evaluate_design_on_mixed(seed=2)
        pd = preprocess_pipeline(d, encoding="one_hot")
        path = tmp_path / "processed.csv"
        write_processed(pd, *processed_paths(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(list(pd.column_names) + ["y"])
        assert len(lines) == pd.n + 1
        doc = json.loads((tmp_path / "processed.provenance.json").read_text())
        assert doc["encoding"] == "one_hot"
        assert doc["column_map"]["c"] == [1, 2, 3]


    def test_csv_header_quotes_one_hot_names(self, tmp_path):
        s = SearchSpace(
            variables=(
                VariableSpec(name="c", kind="categorical", categories=("x,y", 'q"r')),
                VariableSpec(name="k", kind="integer", lower=0, upper=2),
            )
        )
        d = Design(
            space=s,
            columns={"c": np.array(["x,y", 'q"r', "x,y"], dtype=object), "k": np.array([0.0, 1.0, 2.0])},
            y=np.array([3.0, 1.0, 2.0]),
        )
        pd = preprocess_pipeline(d, encoding="one_hot")
        path = tmp_path / "processed.csv"
        write_processed(pd, *processed_paths(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c=x,y", 'c=q"r', "k", "y"]
        table = np.column_stack([pd.matrix, pd.objective])
        assert [[float(x) for x in row] for row in rows[1:]] == table.tolist()


class TestEncodedWidthCap:
    def test_one_hot_width_refused_before_any_column(self, monkeypatch):
        design = evaluate_design_on_mixed(0)
        # one_hot: x, three indicators of c, k; 24 rows of 5 columns are 960 bytes
        monkeypatch.setattr(space, "MAX_BYTES", 8 * 24 * 5)
        assert preprocess_pipeline(design, encoding="one_hot").width == 5
        monkeypatch.setattr(space, "MAX_BYTES", 8 * 24 * 5 - 1)
        assert preprocess_pipeline(design, encoding="target").width == 3

        def no_allocation(*args, **kwargs):
            raise AssertionError("a processed matrix was allocated")

        monkeypatch.setattr(preprocess.np, "column_stack", no_allocation)
        with pytest.raises(ValueError, match="^n = 24 rows of 5 encoded columns need 1 MiB, over the 0 MiB cap$"):
            preprocess_pipeline(design, encoding="one_hot")


class TestPairwiseDistances:
    @staticmethod
    def assert_matches_scipy(X):
        dm = pairwise_distances(X)
        assert dm.tobytes() == cdist(X, X).tobytes()
        upper = dm[np.triu_indices(X.shape[0], 1)]
        assert upper.tobytes() == pdist(X).tobytes()

    # the default block holds 32Ki elements: 181 rows fit in one block, 182 do not
    @pytest.mark.parametrize("n", [0, 1, 2, 181, 182, 300])
    def test_bit_equal_to_scipy(self, n):
        rng = np.random.default_rng(n)
        self.assert_matches_scipy(rng.random((n, 3)))

    def test_single_column_and_duplicate_rows(self):
        rng = np.random.default_rng(5)
        X = rng.random((40, 1))
        X[10:20] = X[0]
        self.assert_matches_scipy(X)
        wide = rng.random((40, 9))
        wide[::3] = wide[1]
        self.assert_matches_scipy(wide)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_change_bits(self, monkeypatch, block):
        monkeypatch.setattr(preprocess, "_DISTANCE_BLOCK", block)
        rng = np.random.default_rng(block)
        self.assert_matches_scipy(rng.random((50, 12)))

    def test_one_hot_mixed_matrix(self):
        pd = preprocess_pipeline(evaluate_design_on_mixed(3), encoding="one_hot")
        self.assert_matches_scipy(pd.matrix)

    # 300 rows: blocks of 109 rows, the last one short
    @pytest.mark.parametrize(("n", "block"), [(1, 1 << 15), (300, 1 << 15), (7, 1), (7, 20)])
    def test_distance_blocks_tile_the_matrix_with_an_infinite_diagonal(self, monkeypatch, n, block):
        monkeypatch.setattr(preprocess, "_DISTANCE_BLOCK", block)
        pd = make_processed(np.random.default_rng(n).random((n, 2)), np.zeros(n))
        expected = pd.distances.copy()
        np.fill_diagonal(expected, np.inf)
        blocks = list(pd.distance_blocks())
        assert [i0 for i0, _ in blocks] == list(range(0, n, max(1, block // n)))
        assert np.concatenate([b for _, b in blocks]).tobytes() == expected.tobytes()

    def test_oversized_matrix_refused_before_allocation(self, monkeypatch):
        # 20000 rows would need a 3052 MiB matrix; the design itself is 160 kB
        pd = make_processed(np.linspace(0.0, 1.0, 20_000), np.linspace(0.0, 1.0, 20_000))

        def no_allocation(X):
            raise AssertionError("a distance matrix was allocated")

        monkeypatch.setattr(preprocess, "pairwise_distances", no_allocation)
        with pytest.raises(ValueError, match="the distances between 20000 rows need 3052 MiB, over the 1024 MiB cap"):
            pd.distances
        with pytest.raises(ValueError, match="20000 rows"):
            knn_cloud(pd, k=8)

    def test_cap_is_inclusive(self, monkeypatch):
        rows = math.isqrt(space.MAX_BYTES // 8)
        assert rows == 11_585
        sentinel = np.zeros((1, 1))
        monkeypatch.setattr(preprocess, "pairwise_distances", lambda X: sentinel)
        column = np.linspace(0.0, 1.0, rows + 1)
        assert make_processed(column[:rows], column[:rows]).distances is sentinel
        with pytest.raises(ValueError, match=f"{rows + 1} rows"):
            make_processed(column, column).distances

    def test_shared_matrix_is_read_only_and_unchanged_by_consumers(self):
        pd = preprocess_pipeline(evaluate_design_on_mixed(4), encoding="one_hot")
        dm = pd.distances
        assert pd.distances is dm
        assert not dm.flags.writeable
        with pytest.raises(ValueError):
            dm[0, 1] = 1.0
        before = dm.copy()
        compute_all(pd)
        knn_cloud(pd, k=3)
        assert pd.distances is dm
        assert dm.tobytes() == before.tobytes()
