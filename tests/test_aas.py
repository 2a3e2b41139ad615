"""Algorithm selection: ERT aggregation, baselines, selectors, cross-validation."""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from landsel.aas import (
    _column_medians,
    _fit,
    FeatureVector,
    PerformanceRecord,
    cross_validate,
    f1_macro,
    gap_closure,
    impute_table,
    instance_labels,
    read_features_csv,
    read_performance_csv,
    sbs,
    vbs_performance,
    write_features_csv,
    write_performance_csv,
)

from conftest import check_fuzzed_read, ert_table, fuzz_files

DATA = Path(__file__).parent / "data"


def rec(fid="f", iid="0", algorithm="a", run=1, evaluations=100, success=True, budget=1000):
    return PerformanceRecord(fid, iid, algorithm, run, evaluations, success, budget)


def fv(**values) -> FeatureVector:
    reasons = {k: "undefined" for k, v in values.items() if v is None}
    return FeatureVector(values=dict(values), reasons=reasons, meta={})


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern matching ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


def cell(table, fid, iid, algorithm):
    """The table's ERT at (fid, iid) under ``algorithm``."""
    return table.ert[table.instances.index((fid, iid)), table.algorithms.index(algorithm)]


def table_from(rows):
    """rows: (fid, iid, algorithm, ert) with a single synthetic successful run."""
    records = []
    for fid, iid, algorithm, ert in rows:
        records.append(
            PerformanceRecord(fid, iid, algorithm, 1, int(ert), True, max(int(ert), 1000))
        )
    return ert_table(records)


def only_ert(records) -> float:
    """The ERT of a table holding one (instance, algorithm) cell."""
    return ert_table(records).ert.item()


class TestPerformanceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            rec(evaluations=0)
        with pytest.raises(ValueError):
            rec(budget=0)
        with pytest.raises(ValueError):
            rec(evaluations=1001, budget=1000)


class TestComputeErt:
    def test_hand_example(self):
        runs = [
            rec(run=1, evaluations=100, success=True),
            rec(run=2, evaluations=200, success=False),
            rec(run=3, evaluations=300, success=True),
        ]
        assert only_ert(runs) == 300.0

    def test_no_success_is_infinite(self):
        runs = [rec(run=1, success=False), rec(run=2, success=False)]
        assert only_ert(runs) == math.inf

    @given(
        st.lists(
            st.tuples(st.integers(1, 10_000), st.booleans()),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_definition(self, runs):
        records = [
            rec(run=i, evaluations=e, success=s, budget=10_000)
            for i, (e, s) in enumerate(runs)
        ]
        expected = (
            sum(e for e, _ in runs) / sum(1 for _, s in runs if s)
            if any(s for _, s in runs)
            else math.inf
        )
        assert only_ert(records) == expected

    @given(
        st.lists(
            st.tuples(st.integers(1, 10_000), st.booleans()),
            min_size=2,
            max_size=15,
        ),
        st.randoms(use_true_random=False),
    )
    def test_run_order_is_irrelevant(self, runs, rnd):
        records = [
            rec(run=i, evaluations=e, success=s, budget=10_000)
            for i, (e, s) in enumerate(runs)
        ]
        shuffled = list(records)
        rnd.shuffle(shuffled)
        assert only_ert(records) == only_ert(shuffled)


class TestImputation:
    def test_infinite_becomes_penalized_budget(self):
        table = ert_table([rec(run=run, success=False) for run in range(20)])
        assert impute_table(table, penalty=10.0)[0].ert.tolist() == [[200000.0]]

    def test_finite_passes_through(self):
        # (100 + 147) / 2 successes: 123.5
        table = ert_table([rec(run=1, evaluations=100), rec(run=2, evaluations=147)])
        imputed, log = impute_table(table)
        assert imputed.ert.tolist() == [[123.5]] and log == []

    def test_penalty_floor(self):
        with pytest.raises(ValueError, match="penalty"):
            impute_table(ert_table([rec(budget=10, evaluations=10, success=False)]), penalty=0.5)

    def test_impute_table_logs_each_cell(self):
        records = [
            rec(fid="f", iid="0", algorithm="a", run=1, evaluations=50, success=True),
            rec(fid="f", iid="0", algorithm="b", run=1, evaluations=1000, success=False),
            rec(fid="f", iid="0", algorithm="b", run=2, evaluations=1000, success=False),
        ]
        table = ert_table(records)
        imputed, log = impute_table(table, penalty=10.0)
        assert cell(imputed, "f", "0", "a") == 50.0
        assert cell(imputed, "f", "0", "b") == 20000.0
        assert math.isinf(cell(table, "f", "0", "b"))
        assert log == [
            {
                "fid": "f",
                "iid": "0",
                "algorithm": "b",
                "imputed_ert": 20000.0,
                "budget": 1000,
                "runs": 2,
                "penalty": 10.0,
            }
        ]

    def test_log_keeps_input_order(self):
        # cells appear as (g, b), (f, a), (g, a), (f, b); sorted order would
        # put (f, a) first
        cells = [("g", "b", 100), ("f", "a", 200), ("g", "a", 300), ("f", "b", 400)]
        records = [
            rec(fid=fid, algorithm=algorithm, evaluations=10, success=False, budget=budget)
            for fid, algorithm, budget in cells
        ]
        imputed, log = impute_table(ert_table(records))
        assert [(e["fid"], e["algorithm"], e["budget"]) for e in log] == cells
        assert imputed.ert.tolist() == [[2000.0, 4000.0], [3000.0, 1000.0]]
        assert all(type(e["budget"]) is int and type(e["runs"]) is int for e in log)

    def test_penalty_floor_holds_without_infinite_cells(self):
        table = table_from([("f", "0", "a", 10)])
        with pytest.raises(ValueError, match="penalty"):
            impute_table(table, penalty=0.5)
        for penalty in (math.nan, math.inf):
            with pytest.raises(ValueError, match="penalty"):
                impute_table(table, penalty=penalty)


class TestErtTable:
    def test_duplicate_run_rejected(self):
        with pytest.raises(ValueError, match="duplicate run"):
            ert_table([rec(run=1), rec(run=1)])

    def test_budget_is_max_over_runs(self):
        records = [
            rec(run=1, evaluations=10, budget=500),
            rec(run=2, evaluations=10, budget=2000),
        ]
        table = ert_table(records)
        assert table.budget.tolist() == [[2000]]
        assert table.runs.tolist() == [[2]]

    def test_sorted_enumerations(self):
        table = table_from(
            [("g", "1", "b", 10), ("f", "0", "b", 20), ("f", "1", "b", 30), ("g", "0", "b", 40),
             ("g", "1", "a", 50), ("f", "0", "a", 60), ("f", "1", "a", 70), ("g", "0", "a", 80)]
        )
        assert table.instances == [("f", "0"), ("f", "1"), ("g", "0"), ("g", "1")]
        assert table.algorithms == ["a", "b"]
        assert table.ert.tolist() == [[60.0, 20.0], [70.0, 30.0], [80.0, 40.0], [50.0, 10.0]]
        # rank is the order in which each cell first appeared
        assert table.rank.tolist() == [[5, 1], [6, 2], [7, 3], [4, 0]]

    def test_arrays_aggregate_the_runs(self):
        records = [
            rec(iid="0", algorithm="a", run=1, evaluations=100, success=True, budget=500),
            rec(iid="0", algorithm="a", run=2, evaluations=200, success=False, budget=700),
            rec(iid="0", algorithm="a", run=3, evaluations=300, success=True, budget=600),
            rec(iid="0", algorithm="b", run=1, evaluations=50, success=False, budget=50),
        ]
        table = ert_table(records)
        assert table.ert.tolist() == [[300.0, math.inf]]
        assert table.ert[0, 0] == (100 + 200 + 300) / 2
        assert table.runs.tolist() == [[3, 1]]
        assert table.budget.tolist() == [[700, 50]]
        assert table.ert.dtype == np.float64 and table.runs.dtype == table.budget.dtype == np.int64

    def test_require_complete(self):
        # completeness is checked when the table is built; the first gap in
        # sorted instance-then-algorithm order is named
        # the message follows the path of the file the table was read from
        with pytest.raises(ValueError, match=re.escape(": table is missing 'b' on ('f', '1')") + "$"):
            table_from([("f", "0", "a", 10), ("f", "1", "a", 10), ("f", "0", "b", 10)])

    def test_require_finite(self):
        table = ert_table([rec(success=False)])
        for baseline in (sbs, vbs_performance, instance_labels):
            with pytest.raises(ValueError, match=r"infinite ERT at \('f', '0', 'a'\); impute"):
                baseline(table)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no performance records"):
            ert_table([])

    def test_budget_must_fit_in_64_bits(self):
        ert_table([rec(budget=2**63 - 1)])
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            ert_table([rec(budget=2**63)])


class TestBaselines:
    def two_by_two(self):
        return table_from(
            [
                ("f", "0", "a", 100),
                ("f", "0", "b", 900),
                ("f", "1", "a", 300),
                ("f", "1", "b", 100),
            ]
        )

    def test_sbs_minimizes_mean(self):
        # a averages 200, b averages 500
        table = self.two_by_two()
        assert sbs(table) == "a"
        assert table.ert[:, table.algorithms.index(sbs(table))].tolist() == [100.0, 300.0]
        # a has the lower mean (300 against 425) but the higher worst case
        table = table_from(
            [("f", "0", "a", 100), ("f", "0", "b", 450), ("f", "1", "a", 500), ("f", "1", "b", 400)]
        )
        assert sbs(table) == "a"

    def test_sbs_tie_is_lexicographic(self):
        table = table_from([("f", "0", "b", 100), ("f", "0", "a", 100), ("f", "1", "a", 50), ("f", "1", "b", 50)])
        assert sbs(table) == "a"

    def test_vbs_takes_per_instance_minimum(self):
        assert vbs_performance(self.two_by_two()).tolist() == [100.0, 100.0]

    def test_labels_tie_lexicographic(self):
        table = table_from(
            [("f", "0", "b", 100), ("f", "0", "a", 100), ("f", "1", "a", 300), ("f", "1", "b", 100)]
        )
        assert [table.algorithms[j] for j in instance_labels(table)] == ["a", "b"]


class TestGapClosure:
    def test_endpoints(self):
        assert gap_closure(500.0, 100.0, 100.0) == 1.0
        assert gap_closure(500.0, 100.0, 500.0) == 0.0
        assert gap_closure(500.0, 100.0, 300.0) == 0.5

    def test_worse_than_sbs_goes_negative(self):
        assert gap_closure(500.0, 100.0, 900.0) == -1.0

    def test_requires_a_gap(self):
        with pytest.raises(ValueError):
            gap_closure(100.0, 100.0, 100.0)
        with pytest.raises(ValueError):
            gap_closure(100.0, 200.0, 100.0)


class TestF1Macro:
    def test_perfect_diagonal(self):
        assert f1_macro(np.array([[3, 0], [0, 5]])) == 1.0

    def test_uniform_confusion(self):
        assert f1_macro(np.array([[1, 1], [1, 1]])) == 0.5

    def test_never_predicted_class_scores_zero(self):
        # second class is never predicted and never true-positive
        score = f1_macro(np.array([[2, 0], [2, 0]]))
        # class 0: precision 0.5, recall 1 -> f1 = 2/3; class 1: 0
        assert score == pytest.approx(1 / 3)

    def test_equals_per_class_loop_bits(self):
        # the per-class loop f1_macro replaced; zero rows and columns included
        def reference(c):
            scores = []
            for k in range(len(c)):
                col, row = c[:, k].sum(), c[k, :].sum()
                precision = c[k, k] / col if col > 0 else 0.0
                recall = c[k, k] / row if row > 0 else 0.0
                total = precision + recall
                scores.append(0.0 if total == 0.0 else 2 * precision * recall / total)
            return float(np.mean(scores))

        rng = np.random.default_rng(5)
        for trial in range(500):
            size = int(rng.integers(1, 10))
            c = rng.integers(0, 40, size=(size, size)) * (rng.random((size, size)) < rng.random())
            c[0, 0] += 1
            assert f1_macro(c) == reference(c.astype(float))

    def test_validation(self):
        with pytest.raises(ValueError):
            f1_macro(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            f1_macro(np.array([[1, 0], [-1, 0]]))
        with pytest.raises(ValueError):
            f1_macro(np.zeros((2, 2)))


def matrix_of(features, instances) -> np.ndarray:
    """One row per instance in the given order, columns in the first
    vector's name order, NaN where a feature is missing."""
    names = list(features[instances[0]].values)
    return np.array([[features[inst].values.get(name) for name in names] for inst in instances], dtype=float)


def fit(features, table, kind="knn", k=1, cost_sensitive=False):
    """A selector fitted by ``_fit`` on every instance of the table."""
    imputed = impute_table(table)[0]
    return _fit(matrix_of(features, imputed.instances), imputed.ert, imputed.algorithms, kind, k, cost_sensitive)


def pick(model, *values) -> str:
    """The algorithm the model selects for one row of raw feature values."""
    return model.algorithms[model.select(np.array([values], dtype=float))[0]]


class TestTrainSelector:
    def cluster_setup(self):
        # two well-separated clusters in one informative feature; g decides
        # the winner, noise is irrelevant, flat is constant
        features = {}
        rows = []
        for i in range(4):
            features[("f", str(i))] = fv(g=0.1 + 0.01 * i, noise=float(i), flat=1.0)
            rows += [("f", str(i), "a", 100), ("f", str(i), "b", 900)]
        for i in range(4):
            features[("g", str(i))] = fv(g=0.8 + 0.01 * i, noise=float(i), flat=1.0)
            rows += [("g", str(i), "a", 900), ("g", str(i), "b", 100)]
        return features, table_from(rows)

    def test_training_instance_predicts_its_own_label(self):
        features, table = self.cluster_setup()
        model = fit(features, table, k=1)
        selected = model.select(matrix_of(features, table.instances))
        assert [model.algorithms[j] for j in selected] == ["a"] * 4 + ["b"] * 4

    def test_constant_column_dropped_and_recorded(self):
        # columns g, noise, flat
        features, table = self.cluster_setup()
        assert fit(features, table, k=1).columns.tolist() == [0, 1]

    def test_all_missing_column_dropped_without_warning(self):
        features, table = self.cluster_setup()
        features = {key: fv(**vector.values, empty=None) for key, vector in features.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(features, table, k=1)
        assert model.columns.tolist() == [0, 1]

    def test_missing_feature_filled_with_training_median(self):
        features, table = self.cluster_setup()
        features[("f", "0")] = fv(g=None, noise=0.0, flat=1.0)
        model = fit(features, table, k=1)
        g_col = model.columns.tolist().index(0)
        # median over the remaining finite g values
        finite = [0.11, 0.12, 0.13, 0.8, 0.81, 0.82, 0.83]
        assert model.medians[g_col] == np.median(finite)
        # a fresh row with g missing is imputed the same way
        assert pick(model, None, 1.0, 1.0) in ("a", "b")

    @pytest.mark.parametrize("rows", [1, 2, 7, 40, 650])
    def test_column_medians_match_nanmedian_bits(self, rows):
        # nanmedian takes numpy.ma's sort below 600 rows and np.median per
        # column above; zeros of both signs test which zero comes out
        rng = np.random.default_rng(rows)
        for trial in range(40):
            matrix = rng.normal(size=(rows, 9)) * 10.0 ** rng.integers(-3, 4)
            matrix[:, :3] = np.round(matrix[:, :3])
            matrix[:, 3] *= 0.0
            matrix[rng.random(matrix.shape) < rng.random()] = np.nan
            matrix[:, 4] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
                expected = np.nanmedian(matrix, axis=0)
            assert _column_medians(matrix).tobytes() == expected.tobytes()

    def test_misaligned_features_rejected(self):
        features, table = self.cluster_setup()
        del features[("g", "3")]
        with pytest.raises(ValueError, match="align"):
            cross_validate(features, table)

    def test_misalignment_names_the_instance_and_its_side(self):
        features, table = self.cluster_setup()
        del features[("g", "3")]
        with pytest.raises(ValueError, match=r"\('g', '3'\) is only in the performance table"):
            cross_validate(features, table)
        features[("g", "3")] = features[("g", "2")]
        features[("e", "0")] = features[("g", "2")]
        with pytest.raises(ValueError, match=r"\('e', '0'\) is only in the features"):
            cross_validate(features, table)

    def test_k_bounds(self):
        features, table = self.cluster_setup()
        with pytest.raises(ValueError):
            fit(features, table, k=0)
        with pytest.raises(ValueError):
            fit(features, table, k=9)

    def test_all_columns_degenerate_rejected(self):
        features = {("f", "0"): fv(flat=1.0), ("f", "1"): fv(flat=1.0)}
        table = table_from([("f", "0", "a", 10), ("f", "0", "b", 20),
                            ("f", "1", "a", 10), ("f", "1", "b", 20)])
        with pytest.raises(ValueError, match="constant or missing"):
            fit(features, table, k=1)

    def test_unknown_kind(self):
        features, table = self.cluster_setup()
        with pytest.raises(ValueError, match="selector kind"):
            fit(features, table, kind="random_forest")

    def test_cost_sensitive_tie_prefers_first_algorithm(self):
        # both algorithms cost the same on every training instance, so the
        # summed costs tie and the first algorithm in sorted order wins
        features = {
            ("f", "0"): fv(g=0.1),
            ("f", "1"): fv(g=0.2),
            ("f", "2"): fv(g=0.9),
        }
        table = table_from(
            [("f", str(i), a, 100) for i in range(3) for a in ("a", "b")]
        )
        model = fit(features, table, k=3, cost_sensitive=True)
        assert pick(model, 0.5) == "a"

    def test_cost_sensitive_picks_cheaper_algorithm(self):
        features, table = self.cluster_setup()
        model = fit(features, table, k=1, cost_sensitive=True)
        assert pick(model, 0.1, 0.0, 1.0) == "a"
        assert pick(model, 0.83, 0.0, 1.0) == "b"

    def test_nearest_centroid(self):
        features, table = self.cluster_setup()
        model = fit(features, table, kind="nearest_centroid")
        assert pick(model, 0.05, 2.0, 1.0) == "a"
        assert pick(model, 0.95, 2.0, 1.0) == "b"


class TestCrossValidate:
    def toy(self):
        features = read_features_csv(DATA / "toy_features.csv")
        table = read_performance_csv(DATA / "toy_performance.csv")
        return features, table

    def test_leave_iid_out_closes_the_gap(self):
        features, table = self.toy()
        report = cross_validate(features, table, scheme="leave_iid_out", k=1)
        assert report["pooled"]["sbs_algorithm"] == "alg_a"
        assert report["pooled"]["sbs_mean"] == 500.0
        assert report["pooled"]["vbs_mean"] == 100.0
        assert report["pooled"]["model_mean"] == 100.0
        assert report["pooled"]["gap_closure"] == 1.0
        assert report["f1_macro"] == 1.0
        assert len(report["per_fold"]) == 4
        for fold in report["per_fold"]:
            assert fold["gap_closure"] == 1.0

    def test_leave_fid_out_inverts_the_toy(self):
        # the winner flips between the two functions, so training on the
        # other function always picks the wrong algorithm
        features, table = self.toy()
        report = cross_validate(features, table, scheme="leave_fid_out", k=1)
        assert report["pooled"]["model_mean"] == 900.0
        assert report["pooled"]["gap_closure"] == -1.0
        assert report["f1_macro"] == 0.0

    def test_selections_and_labels_are_flat_keys(self):
        features, table = self.toy()
        report = cross_validate(features, table, k=1)
        assert set(report["selections"]) == {f"{f}:{i}" for f in ("fa", "fb") for i in "0123"}
        assert report["true_labels"]["fa:0"] == "alg_a"
        assert report["true_labels"]["fb:0"] == "alg_b"

    def test_negative_feature_cost_rejected_before_any_fold(self):
        # the check comes first: the misaligned features are never reached
        _, table = self.toy()
        with pytest.raises(ValueError, match="design size must be non-negative"):
            cross_validate({}, table, k=1, feature_cost=-1)

    def test_feature_cost_shifts_model_mean(self):
        features, table = self.toy()
        plain = cross_validate(features, table, k=1)
        charged = cross_validate(features, table, k=1, feature_cost=100)
        assert charged["pooled"]["model_mean"] == plain["pooled"]["model_mean"] + 100.0
        assert charged["pooled"]["sbs_mean"] == plain["pooled"]["sbs_mean"]

    def test_leave_group_out(self):
        features, table = self.toy()
        groups = {inst: ("lo" if inst[1] in ("0", "1") else "hi") for inst in table.instances}
        report = cross_validate(features, table, scheme="leave_group_out", groups=groups, k=1)
        assert {f["fold"] for f in report["per_fold"]} == {"lo", "hi"}
        assert report["pooled"]["gap_closure"] == 1.0

    def test_leave_group_out_needs_labels(self):
        features, table = self.toy()
        with pytest.raises(ValueError, match="group"):
            cross_validate(features, table, scheme="leave_group_out", k=1)

    def test_single_fold_rejected(self, tmp_path):
        features, _ = self.toy()
        lines = (DATA / "toy_performance.csv").read_text().splitlines()
        small = tmp_path / "fa.csv"
        small.write_text("\n".join([lines[0]] + [line for line in lines if line.startswith("fa,")]) + "\n")
        table = read_performance_csv(small)
        small_features = {inst: features[inst] for inst in table.instances}
        with pytest.raises(ValueError, match="fewer than two folds"):
            cross_validate(small_features, table, scheme="leave_fid_out", k=1)

    def test_means_sum_instances_left_to_right(self):
        # 40 instances whose ERTs are ratios of wide-ranging integers: a
        # pairwise sum of such a column differs from a left-to-right one, and
        # the report must carry the left-to-right mean
        rng = np.random.default_rng(3)
        features, records = {}, []
        for iid in range(40):
            features[("f" if iid % 2 else "g", str(iid))] = fv(x=float(rng.normal()))
            for algorithm in ("a", "b"):
                for run in range(3):
                    budget = int(10 ** rng.integers(2, 9))
                    records.append(rec("f" if iid % 2 else "g", str(iid), algorithm, run,
                                       int(rng.integers(1, budget + 1)), run != 2 or iid % 3 == 0, budget))
        table = ert_table(records)
        report = cross_validate(features, table, k=1)
        runs = {}
        for r in records:
            runs.setdefault((r.fid, r.iid, r.algorithm), []).append(r)
        erts = {key: direct_ert(cell_runs) for key, cell_runs in runs.items()}
        column = [erts[(*inst, report["pooled"]["sbs_algorithm"])] for inst in table.instances]
        assert report["pooled"]["sbs_mean"] == sum(column) / len(column)
        assert float(np.sum(column)) != sum(column)  # the case a pairwise sum gets wrong
        vbs = [min(erts[(*inst, a)] for a in ("a", "b")) for inst in table.instances]
        assert report["pooled"]["vbs_mean"] == sum(vbs) / len(vbs)

    def test_unknown_scheme(self):
        features, table = self.toy()
        with pytest.raises(ValueError, match="scheme"):
            cross_validate(features, table, scheme="bootstrap")

    def test_report_structure(self):
        features, table = self.toy()
        report = cross_validate(features, table, k=2, cost_sensitive=True)
        assert set(report) == {
            "scheme", "selector", "algorithms", "selections", "true_labels",
            "confusion", "f1_macro", "pooled", "per_fold", "imputation_log",
        }
        assert report["selector"] == {
            "kind": "knn", "k": 2, "cost_sensitive": True,
            "feature_cost": 0, "penalty": 10.0,
        }
        assert report["algorithms"] == ["alg_a", "alg_b"]
        assert np.array(report["confusion"]).shape == (2, 2)
        assert report["imputation_log"] == []

    def test_k_clamps_to_small_training_folds(self):
        features, table = self.toy()
        # eight instances, leave_fid_out leaves four to train on
        report = cross_validate(features, table, scheme="leave_fid_out", k=4)
        assert report["selector"]["k"] == 4


def direct_ert(runs) -> float:
    """sum(evaluations) / #successes over one cell's runs; infinite when no
    run succeeded."""
    successes = sum(1 for r in runs if r.success)
    return sum(r.evaluations for r in runs) / successes if successes else math.inf


def reference_predict(model, names, train, erts, kind, k, cost_sensitive, vector) -> str:
    """The name-keyed per-vector rule that SelectorModel.select replaced,
    rebuilt from the fold's training vectors ``train`` and their imputed
    ``erts`` (one row per vector, columns in ``model.algorithms`` order);
    only the standardization is read off the model.  Missing features take
    the training median by name (``names`` is the training matrix's column
    layout), labels are name-keyed first minima, neighbours come from a
    stable argsort of the distances, knn votes count names and break ties
    with the smallest name, cost-sensitive votes take the first minimum of
    the summed ERT-over-mean rows, and centroids (regret-weighted when
    cost-sensitive) are keyed by (distance, name)."""
    kept = [names[c] for c in model.columns]

    def standardize(v):
        raw = [model.medians[c] if v.values.get(name) is None else v.values[name] for c, name in enumerate(kept)]
        return (np.array(raw) - model.center) / model.scale

    algorithms = model.algorithms
    z, points = standardize(vector), np.array([standardize(v) for v in train])
    labels = [min(algorithms, key=lambda a: (row[algorithms.index(a)], a)) for row in erts]
    if kind == "nearest_centroid":
        centroids = {}
        for a in sorted(set(labels)):
            members = [i for i, label in enumerate(labels) if label == a]
            regrets = np.array([(erts[i].mean() - erts[i].min()) / erts[i].mean() for i in members])
            if cost_sensitive and regrets.sum() > 0:
                centroids[a] = (points[members] * regrets[:, None]).sum(axis=0) / regrets.sum()
            else:
                centroids[a] = points[members].mean(axis=0)
        return min(centroids, key=lambda a: (float(np.sqrt(((centroids[a] - z) ** 2).sum())), a))
    idx = np.argsort(np.sqrt(((points - z) ** 2).sum(axis=1)), kind="stable")[:k]
    if cost_sensitive:
        sums = sum(erts[i] / erts[i].mean() for i in idx)
        return algorithms[int(np.flatnonzero(sums == sums.min())[0])]
    votes: dict[str, int] = {}
    for i in idx:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
    top = max(votes.values())
    return min(a for a, v in votes.items() if v == top)


def reference_cross_validate(records, features, scheme, kind, k, cost_sensitive, groups, feature_cost):
    """The per-fold loop cross_validate replaced, over plain dicts: ERTs,
    imputation, baselines and labels come from loops over the records, and
    each sorted fold fits ``_fit`` on a matrix and ERT array built from its
    training instances alone, then predicts its held-out instances one by
    one with reference_predict."""
    runs = {}
    for r in records:
        runs.setdefault((r.fid, r.iid, r.algorithm), []).append(r)
    ert, log = {}, []
    for (fid, iid, algorithm), cell_runs in runs.items():
        value = direct_ert(cell_runs)
        if math.isinf(value):
            budget = max(r.budget for r in cell_runs)
            value = float(budget) * len(cell_runs) * 10.0
            log.append({"fid": fid, "iid": iid, "algorithm": algorithm, "imputed_ert": value,
                        "budget": budget, "runs": len(cell_runs), "penalty": 10.0})
        ert[(fid, iid), algorithm] = value
    instances = sorted({inst for inst, _ in ert})
    algorithms = sorted({a for _, a in ert})

    fold_of = {"leave_iid_out": lambda i: i[1], "leave_fid_out": lambda i: i[0],
               "leave_group_out": lambda i: groups[i]}[scheme]
    folds = {}
    for inst in instances:
        folds.setdefault(fold_of(inst), []).append(inst)
    selections = {}
    for key in sorted(folds):
        train = [inst for inst in instances if inst not in folds[key]]
        names = list(features[train[0]].values)
        matrix = np.array([[features[inst].values[name] for name in names] for inst in train], dtype=float)
        erts = np.array([[ert[inst, a] for a in algorithms] for inst in train])
        fold_k = min(k, len(train))
        model = _fit(matrix, erts, algorithms, kind, fold_k, cost_sensitive)
        vectors = [features[inst] for inst in train]
        for inst in folds[key]:
            selections[inst] = reference_predict(model, names, vectors, erts, kind, fold_k, cost_sensitive,
                                                 features[inst])

    sbs_algorithm, best = None, math.inf
    for algorithm in algorithms:
        mean = sum(ert[inst, algorithm] for inst in instances) / len(instances)
        if mean < best:
            sbs_algorithm, best = algorithm, mean
    labels = {inst: min(algorithms, key=lambda a: (ert[inst, a], a)) for inst in instances}
    perf = {
        "sbs": {inst: ert[inst, sbs_algorithm] for inst in instances},
        "vbs": {inst: min(ert[inst, a] for a in algorithms) for inst in instances},
        "model": {inst: ert[inst, selections[inst]] + feature_cost for inst in instances},
    }
    confusion = np.zeros((len(algorithms), len(algorithms)), dtype=int)
    for inst in instances:
        confusion[algorithms.index(labels[inst]), algorithms.index(selections[inst])] += 1

    def summary(subset):
        out = {f"{name}_mean": float(sum(p[i] for i in subset) / len(subset)) for name, p in perf.items()}
        sbs_mean, vbs_mean, model_mean = out["sbs_mean"], out["vbs_mean"], out["model_mean"]
        out["gap_closure"] = gap_closure(sbs_mean, vbs_mean, model_mean) if sbs_mean > vbs_mean else None
        return out

    return {
        "scheme": scheme,
        "selector": {"kind": kind, "k": k, "cost_sensitive": cost_sensitive,
                     "feature_cost": feature_cost, "penalty": 10.0},
        "algorithms": algorithms,
        "selections": {f"{f}:{i}": a for (f, i), a in sorted(selections.items())},
        "true_labels": {f"{f}:{i}": a for (f, i), a in sorted(labels.items())},
        "confusion": confusion.tolist(),
        "f1_macro": f1_macro(confusion),
        "pooled": {"sbs_algorithm": sbs_algorithm, **summary(instances)},
        "per_fold": [{"fold": key, "instances": [list(i) for i in folds[key]], **summary(folds[key])}
                     for key in sorted(folds)],
        "imputation_log": log,
    }


class TestCrossValidateOracle:
    """cross_validate works on one imputed ERT array and one feature matrix;
    its report must equal, byte for byte, the per-fold refit over plain
    dicts above."""

    @staticmethod
    def corpus():
        # three functions x five instances, listed in an unsorted order; h is
        # missing on a third of them, "empty" on all, "flat" is constant;
        # fb:2 never succeeds with c, nor fa:3 with a, and a and b tie for the
        # best ERT on fa:1
        rng = np.random.default_rng(11)
        features, records = {}, []
        for f, fid in enumerate(("fc", "fa", "fb")):
            for iid in (3, 0, 4, 1, 2):
                h = None if (f + iid) % 3 == 0 else float(rng.normal())
                features[(fid, str(iid))] = fv(
                    g=f + 0.2 * iid + float(rng.uniform(0.0, 0.1)), h=h, empty=None, flat=2.0
                )
                for algorithm in ("b", "c", "a"):
                    for run in (1, 2):
                        evaluations = int(rng.integers(50, 1000))
                        if (fid, str(iid)) == ("fa", "1"):
                            evaluations = 900 if algorithm == "c" else 300
                        success = (fid, str(iid), algorithm) not in {("fb", "2", "c"), ("fa", "3", "a")}
                        records.append(rec(fid, str(iid), algorithm, run, evaluations, success, 1000))
        return features, records

    @pytest.mark.parametrize("scheme", ["leave_iid_out", "leave_fid_out", "leave_group_out"])
    @pytest.mark.parametrize(
        "kind, k", [("knn", 1), ("knn", 3), ("nearest_centroid", 1)]
    )
    @pytest.mark.parametrize("cost_sensitive", [False, True])
    def test_report_equals_per_fold_refit(self, scheme, kind, k, cost_sensitive):
        features, records = self.corpus()
        table = ert_table(records)
        groups = {inst: f"g{int(inst[1]) % 3}" for inst in table.instances}
        feature_cost = 100 if cost_sensitive else 0
        report = cross_validate(
            features, table, scheme=scheme, kind=kind, k=k, cost_sensitive=cost_sensitive,
            groups=groups, feature_cost=feature_cost,
        )
        reference = reference_cross_validate(
            records, features, scheme, kind, k, cost_sensitive, groups, feature_cost
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(reference, sort_keys=True)

    @pytest.mark.parametrize(
        "kind, k", [("knn", 1), ("knn", 2), ("knn", 3), ("knn", 5), ("nearest_centroid", 1)]
    )
    @pytest.mark.parametrize("cost_sensitive", [False, True])
    def test_select_on_matrix_rows_equals_reference_predict(self, kind, k, cost_sensitive):
        # each leave_iid_out fold: a model trained on the other folds picks its
        # held-out rows of one matrix (NaN where missing) as the name-keyed
        # rule picks their feature vectors; k = 2 ties votes in some folds
        features, records = self.corpus()
        imputed = impute_table(ert_table(records))[0]
        instances = imputed.instances
        names = list(features[instances[0]].values)
        matrix = matrix_of(features, instances)
        for iid in sorted({inst[1] for inst in instances}):
            held = [r for r, inst in enumerate(instances) if inst[1] == iid]
            train = [r for r, inst in enumerate(instances) if inst[1] != iid]
            model = _fit(matrix[train], imputed.ert[train], imputed.algorithms, kind, k, cost_sensitive)
            vectors = [features[instances[r]] for r in train]
            expected = [
                reference_predict(model, names, vectors, imputed.ert[train], kind, k, cost_sensitive,
                                  features[instances[r]])
                for r in held
            ]
            assert [model.algorithms[j] for j in model.select(matrix[held])] == expected

    @pytest.mark.parametrize("cost_sensitive", [False, True])
    def test_tied_neighbours_go_to_the_earlier_training_row(self, cost_sensitive):
        # fa:0's row is copied to fb:1 and fc:2, one copy in each other iid
        # fold, so every held-out copy has two training rows at distance 0.
        # At k = 1 the stable sort keeps the earlier one in instance order:
        # fb:1 (label b) for fa:0, and fa:0 (label a) for fb:1 and fc:2
        features, records = self.corpus()
        for inst in (("fb", "1"), ("fc", "2")):
            features[inst] = features[("fa", "0")]
        table = ert_table(records)
        report = cross_validate(
            features, table, scheme="leave_iid_out", k=1, cost_sensitive=cost_sensitive
        )
        reference = reference_cross_validate(
            records, features, "leave_iid_out", "knn", 1, cost_sensitive, None, 0
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(reference, sort_keys=True)
        picked = {inst: report["selections"][inst] for inst in ("fa:0", "fb:1", "fc:2")}
        assert picked == {"fa:0": "b", "fb:1": "a", "fc:2": "a"}

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("cost_sensitive", [False, True])
    def test_many_tied_neighbours_go_to_the_earliest_training_rows(self, k, cost_sensitive):
        # two far rows, then 18 rows at distance 0 from the held-out row.
        # numpy's default argsort reorders such ties (with AVX-512 sorting),
        # so only a stable sort lets the earliest tied rows, labelled c, b, c,
        # decide: c at k = 1, and two votes or the least cost sum for c at k = 3
        labels = ["a", "a", "c", "b", "c"] + ["a", "b"] * 7 + ["a"]
        features = {("f", f"{i:02d}"): fv(g=1.0 if i < 2 else 0.0) for i in range(len(labels))}
        erts = np.array([[100.0 if a == label else 900.0 for a in "abc"] for label in labels])
        model = _fit(matrix_of(features, list(features)), erts, ["a", "b", "c"], "knn", k, cost_sensitive)
        assert pick(model, 0.0) == "c"
        train = list(features.values())
        assert reference_predict(model, ["g"], train, erts, "knn", k, cost_sensitive, fv(g=0.0)) == "c"

    def test_corpus_has_the_edge_cases(self):
        features, records = self.corpus()
        table = ert_table(records)
        imputed, log = impute_table(table)
        # the log follows the input, where fb:2 comes after fa:3
        assert [(e["fid"], e["iid"], e["algorithm"]) for e in log] == [("fa", "3", "a"), ("fb", "2", "c")]
        assert cell(imputed, "fa", "1", "a") == cell(imputed, "fa", "1", "b")
        assert imputed.algorithms[instance_labels(imputed)[imputed.instances.index(("fa", "1"))]] == "a"
        # columns g, h, empty, flat: the last two are dropped
        assert fit(features, table).columns.tolist() == [0, 1]
        assert any(vector["h"] is None for vector in features.values())


class TestPerformanceCsv:
    def test_toy_corpus_round_trip(self, tmp_path):
        with open(DATA / "toy_performance.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        records = [
            PerformanceRecord(f, i, a, int(r), int(e), s == "1", int(b)) for f, i, a, r, e, s, b in rows
        ]
        assert len(records) == 32
        out = tmp_path / "perf.csv"
        write_performance_csv(records, out)
        assert out.read_text() == (DATA / "toy_performance.csv").read_text()
        table = read_performance_csv(out)
        assert table.instances == [(f, str(i)) for f in ("fa", "fb") for i in range(4)]
        assert table.algorithms == ["alg_a", "alg_b"]
        assert table.ert[:, 0].tolist() == [100.0] * 4 + [900.0] * 4
        assert table.runs.tolist() == [[2, 2]] * 8

    def test_round_trip_quotes_commas_quotes_and_newlines(self):
        instances = [("f,1", "0"), ('"f"', "i,2"), ("f\nline", '"3"')]
        algorithms = ["a,b", '"q"', "l\nm"]
        records = [
            rec(fid, iid, algorithm, evaluations=10 * (r + 1) + c, budget=100)
            for r, (fid, iid) in enumerate(instances) for c, algorithm in enumerate(algorithms)
        ]
        table = ert_table(records)
        assert table.instances == sorted(instances)
        assert table.algorithms == sorted(algorithms)
        for r, (fid, iid) in enumerate(instances):
            for c, algorithm in enumerate(algorithms):
                assert cell(table, fid, iid, algorithm) == 10 * (r + 1) + c

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="none.csv"):
            read_performance_csv(tmp_path / "none.csv")

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("fid,iid,alg\n")
        with pytest.raises(ValueError, match="expected header"):
            read_performance_csv(p)

    def test_bad_success_flag_names_the_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "fid,iid,algorithm,run,evaluations,success,budget\n"
            "f,0,a,1,10,1,100\n"
            "f,0,a,2,10,yes,100\n"
        )
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            read_performance_csv(p)

    def test_invalid_record_names_the_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "fid,iid,algorithm,run,evaluations,success,budget\n"
            "f,0,a,1,500,1,100\n"
        )
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            read_performance_csv(p)

    def test_duplicate_run_names_the_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "fid,iid,algorithm,run,evaluations,success,budget\n"
            "f,0,a,1,10,1,100\n"
            "f,0,b,1,10,1,100\n"
            "f,0,a,1,20,1,100\n"
        )
        with pytest.raises(ValueError, match=exactly(f"{p}:4: duplicate run id 1 for ('f', '0', 'a')")):
            read_performance_csv(p)

    @pytest.mark.parametrize("budget, evaluations", [(2**63, 10), (10**30, 10), (10**30, 10**29)])
    def test_budget_over_64_bits_names_the_line(self, tmp_path, budget, evaluations):
        p = tmp_path / "bad.csv"
        p.write_text(
            "fid,iid,algorithm,run,evaluations,success,budget\n"
            "f,0,a,1,10,1,100\n"
            f"f,0,a,2,{evaluations},0,{budget}\n"
        )
        with pytest.raises(ValueError, match=exactly(f"{p}:3: budget {budget} does not fit in 64 bits")):
            read_performance_csv(p)

    def test_largest_64_bit_budget_is_read(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text(
            "fid,iid,algorithm,run,evaluations,success,budget\n"
            f"f,0,a,1,{2**63 - 1},0,{2**63 - 1}\n"
        )
        table = read_performance_csv(p)
        assert table.budget.tolist() == [[2**63 - 1]]
        assert impute_table(table)[0].ert.tolist() == [[float(2**63 - 1) * 10.0]]

    def test_missing_cell_names_the_file(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text(
            "fid,iid,algorithm,run,evaluations,success,budget\n"
            "f,0,a,1,10,1,100\n"
            "f,0,b,1,10,1,100\n"
            "f,1,a,1,10,1,100\n"
        )
        with pytest.raises(ValueError, match=exactly(f"{p}: table is missing 'b' on ('f', '1')")):
            read_performance_csv(p)

    def test_no_rows(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("fid,iid,algorithm,run,evaluations,success,budget\n")
        with pytest.raises(ValueError, match=exactly(f"{p}: no performance records")):
            read_performance_csv(p)

    @pytest.mark.parametrize("content", [b"fid,iid,f\n" + b"x" * 200_000 + b"\n", b"fid,\xff\xfe\n"])
    def test_unreadable_file_names_the_file(self, tmp_path, content):
        # a field over the csv module's 128 KiB limit, and bytes that are not UTF-8
        p = tmp_path / "raw.csv"
        p.write_bytes(content)
        for reader in (read_performance_csv, read_features_csv):
            with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "):
                reader(p)


class TestReadersFuzz:
    """Every generated file either parses or is refused with a ValueError
    whose message starts with the file's path."""

    @given(fuzz_files(["fid", "iid", "algorithm", "run", "evaluations", "success", "budget"]))
    @example("fid,iid,algorithm,run,evaluations,success,budget\nf,0,a,1,1,1,1\n")
    def test_performance(self, tmp_path_factory, text):
        table = check_fuzzed_read(read_performance_csv, tmp_path_factory, text)
        if table is not None:
            shape = (len(table.instances), len(table.algorithms))
            assert table.ert.shape == table.runs.shape == table.budget.shape == table.rank.shape == shape
            assert sorted(table.rank.ravel().tolist()) == list(range(table.rank.size))
            assert (table.runs >= 1).all() and (table.budget >= 1).all()

    @given(fuzz_files(["fid", "iid", "f1", "f2"]))
    @example("fid,iid,f1,f2\nf,0,1.5,\n")
    def test_features(self, tmp_path_factory, text):
        features = check_fuzzed_read(read_features_csv, tmp_path_factory, text)
        if features is not None:
            values = [v for vector in features.values() for v in vector.values.values()]
            assert all(v is None or math.isfinite(v) for v in values)


class TestFeaturesCsv:
    def test_toy_corpus(self):
        features = read_features_csv(DATA / "toy_features.csv")
        assert len(features) == 8
        assert features[("fa", "0")]["f1"] == 0.10
        assert features[("fb", "3")]["f1"] == 0.83
        assert features[("fa", "2")]["f2"] == 1.0

    def test_round_trip_with_missing_cells(self, tmp_path):
        features = {
            ("f", "0"): fv(a=1.5, b=None),
            ("f", "1"): fv(a=2.5, b=0.25),
        }
        path = tmp_path / "features.csv"
        write_features_csv(features, path)
        back = read_features_csv(path)
        assert back[("f", "0")]["a"] == 1.5
        assert back[("f", "0")]["b"] is None
        assert back[("f", "0")].reasons["b"] == "missing_in_file"
        assert back[("f", "1")]["b"] == 0.25

    def test_round_trip_quotes_commas_quotes_and_newlines(self, tmp_path):
        features = {("f,1", "0"): fv(a=1.5, b=None), ('"f"', "i,2"): fv(a=2.5, b=0.25),
                    ("f\nline", '"3"'): fv(a=-1.0, b=4.0)}
        path = tmp_path / "features.csv"
        write_features_csv(features, path)
        back = read_features_csv(path)
        assert list(back) == sorted(features)
        assert {key: vector.values for key, vector in back.items()} == {
            key: vector.values for key, vector in features.items()
        }

    def test_duplicate_instance_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("fid,iid,f1\nf,0,1.0\nf,0,2.0\n")
        with pytest.raises(ValueError, match="duplicate instance"):
            read_features_csv(p)

    def test_repeated_feature_column_rejected(self, tmp_path):
        # read as a dict, the second cell would silently replace the first
        p = tmp_path / "repeated.csv"
        p.write_text("fid,iid,a,b,a\nf,0,1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: feature column 'a' is repeated$"):
            read_features_csv(p)

    def test_header_must_start_with_instance_key(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iid,fid,f1\nf,0,1.0\n")
        with pytest.raises(ValueError, match="fid,iid"):
            read_features_csv(p)
