"""Algorithm selection: ERT aggregation, baselines, selectors, cross-validation."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from landsel.aas import (
    ErtTable,
    FeatureVector,
    PerformanceRecord,
    compute_ert,
    cross_validate,
    f1_macro,
    feature_cost_adjust,
    gap_closure,
    impute_ert,
    impute_table,
    instance_labels,
    read_features_csv,
    read_performance_csv,
    sbs,
    sbs_performance,
    train_selector,
    vbs_performance,
    write_features_csv,
    write_performance_csv,
)

DATA = Path(__file__).parent / "data"


def rec(fid="f", iid="0", algorithm="a", run=1, evaluations=100, success=True, budget=1000):
    return PerformanceRecord(fid, iid, algorithm, run, evaluations, success, budget)


def fv(**values) -> FeatureVector:
    reasons = {k: "undefined" for k, v in values.items() if v is None}
    return FeatureVector(values=dict(values), reasons=reasons, meta={})


def table_from(rows):
    """rows: (fid, iid, algorithm, ert) with a single synthetic successful run."""
    records = []
    for fid, iid, algorithm, ert in rows:
        records.append(
            PerformanceRecord(fid, iid, algorithm, 1, int(ert), True, max(int(ert), 1000))
        )
    return ErtTable.from_records(records)


class TestPerformanceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            rec(evaluations=0)
        with pytest.raises(ValueError):
            rec(budget=0)
        with pytest.raises(ValueError):
            rec(evaluations=1001, budget=1000)

    def test_instance_key(self):
        assert rec(fid="sphere", iid="3").instance == ("sphere", "3")


class TestComputeErt:
    def test_hand_example(self):
        runs = [
            rec(run=1, evaluations=100, success=True),
            rec(run=2, evaluations=200, success=False),
            rec(run=3, evaluations=300, success=True),
        ]
        assert compute_ert(runs) == 300.0

    def test_no_success_is_infinite(self):
        runs = [rec(run=1, success=False), rec(run=2, success=False)]
        assert compute_ert(runs) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_ert([])

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
        assert compute_ert(records) == expected

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
        assert compute_ert(records) == compute_ert(shuffled)


class TestImputation:
    def test_infinite_becomes_penalized_budget(self):
        assert impute_ert(math.inf, budget=1000, runs=20, penalty=10.0) == 200000.0

    def test_finite_passes_through(self):
        assert impute_ert(123.5, budget=1000, runs=20) == 123.5

    def test_penalty_floor(self):
        with pytest.raises(ValueError):
            impute_ert(math.inf, budget=10, runs=1, penalty=0.5)

    def test_impute_table_logs_each_cell(self):
        records = [
            rec(fid="f", iid="0", algorithm="a", run=1, evaluations=50, success=True),
            rec(fid="f", iid="0", algorithm="b", run=1, evaluations=1000, success=False),
            rec(fid="f", iid="0", algorithm="b", run=2, evaluations=1000, success=False),
        ]
        table = ErtTable.from_records(records)
        imputed, log = impute_table(table, penalty=10.0)
        assert imputed.ert(("f", "0"), "a") == 50.0
        assert imputed.ert(("f", "0"), "b") == 20000.0
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


class TestErtTable:
    def test_duplicate_run_rejected(self):
        with pytest.raises(ValueError, match="duplicate run"):
            ErtTable.from_records([rec(run=1), rec(run=1)])

    def test_budget_is_max_over_runs(self):
        records = [
            rec(run=1, evaluations=10, budget=500),
            rec(run=2, evaluations=10, budget=2000),
        ]
        table = ErtTable.from_records(records)
        assert table.cells[("f", "0", "a")].budget == 2000

    def test_sorted_enumerations(self):
        table = table_from(
            [("g", "1", "b", 10), ("f", "0", "a", 20), ("f", "1", "a", 30), ("g", "0", "b", 40)]
        )
        assert table.instances() == [("f", "0"), ("f", "1"), ("g", "0"), ("g", "1")]
        assert table.algorithms() == ["a", "b"]

    def test_require_complete(self):
        table = table_from([("f", "0", "a", 10), ("f", "1", "a", 10), ("f", "0", "b", 10)])
        with pytest.raises(ValueError, match="missing"):
            table.require_complete()

    def test_require_finite(self):
        table = ErtTable.from_records([rec(success=False)])
        with pytest.raises(ValueError, match="impute"):
            table.require_finite()

    def test_restrict(self):
        table = table_from([("f", "0", "a", 10), ("f", "1", "a", 20)])
        small = table.restrict([("f", "1")])
        assert small.instances() == [("f", "1")]
        with pytest.raises(ValueError):
            table.restrict([("zzz", "9")])


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
        assert sbs(self.two_by_two()) == "a"
        assert sbs_performance(self.two_by_two()) == {("f", "0"): 100.0, ("f", "1"): 300.0}

    def test_sbs_tie_is_lexicographic(self):
        table = table_from([("f", "0", "b", 100), ("f", "0", "a", 100), ("f", "1", "a", 50), ("f", "1", "b", 50)])
        assert sbs(table) == "a"

    def test_vbs_takes_per_instance_minimum(self):
        assert vbs_performance(self.two_by_two()) == {("f", "0"): 100.0, ("f", "1"): 100.0}

    def test_labels_tie_lexicographic(self):
        table = table_from([("f", "0", "b", 100), ("f", "0", "a", 100)])
        assert instance_labels(table) == {("f", "0"): "a"}

    def test_feature_cost_adjust(self):
        perf = {("f", "0"): 100.0, ("f", "1"): 300.0}
        assert feature_cost_adjust(perf, 50) == {("f", "0"): 150.0, ("f", "1"): 350.0}
        with pytest.raises(ValueError):
            feature_cost_adjust(perf, -1)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            f1_macro(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            f1_macro(np.array([[1, 0], [-1, 0]]))
        with pytest.raises(ValueError):
            f1_macro(np.zeros((2, 2)))


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
        model = train_selector(features, table, k=1)
        for inst, vector in features.items():
            expected = "a" if inst[0] == "f" else "b"
            assert model.predict(vector) == expected

    def test_constant_column_dropped_and_recorded(self):
        features, table = self.cluster_setup()
        model = train_selector(features, table, k=1)
        assert "flat" in model.dropped_columns
        assert "flat" not in model.feature_names

    def test_missing_feature_filled_with_training_median(self):
        features, table = self.cluster_setup()
        features[("f", "0")] = fv(g=None, noise=0.0, flat=1.0)
        model = train_selector(features, table, k=1)
        g_col = model.feature_names.index("g")
        # median over the remaining finite g values
        finite = [0.11, 0.12, 0.13, 0.8, 0.81, 0.82, 0.83]
        assert model.medians[g_col] == np.median(finite)
        # a fresh vector with g missing is imputed the same way
        probe = fv(g=None, noise=1.0, flat=1.0)
        assert model.predict(probe) in ("a", "b")

    def test_misaligned_features_rejected(self):
        features, table = self.cluster_setup()
        del features[("g", "3")]
        with pytest.raises(ValueError, match="align"):
            train_selector(features, table)

    def test_misalignment_names_the_instance_and_its_side(self):
        features, table = self.cluster_setup()
        del features[("g", "3")]
        with pytest.raises(ValueError, match=r"\('g', '3'\) is only in the performance table"):
            train_selector(features, table)
        features[("g", "3")] = features[("g", "2")]
        features[("e", "0")] = features[("g", "2")]
        with pytest.raises(ValueError, match=r"\('e', '0'\) is only in the features"):
            cross_validate(features, table)

    def test_k_bounds(self):
        features, table = self.cluster_setup()
        with pytest.raises(ValueError):
            train_selector(features, table, k=0)
        with pytest.raises(ValueError):
            train_selector(features, table, k=9)

    def test_all_columns_degenerate_rejected(self):
        features = {("f", "0"): fv(flat=1.0), ("f", "1"): fv(flat=1.0)}
        table = table_from([("f", "0", "a", 10), ("f", "0", "b", 20),
                            ("f", "1", "a", 10), ("f", "1", "b", 20)])
        with pytest.raises(ValueError, match="constant or missing"):
            train_selector(features, table, k=1)

    def test_unknown_kind(self):
        features, table = self.cluster_setup()
        with pytest.raises(ValueError, match="selector kind"):
            train_selector(features, table, kind="random_forest")

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
        model = train_selector(features, table, k=3, cost_sensitive=True)
        assert model.predict(fv(g=0.5)) == "a"

    def test_cost_sensitive_picks_cheaper_algorithm(self):
        features, table = self.cluster_setup()
        model = train_selector(features, table, k=1, cost_sensitive=True)
        assert model.predict(fv(g=0.1, noise=0.0, flat=1.0)) == "a"
        assert model.predict(fv(g=0.83, noise=0.0, flat=1.0)) == "b"

    def test_nearest_centroid(self):
        features, table = self.cluster_setup()
        model = train_selector(features, table, kind="nearest_centroid")
        assert model.predict(fv(g=0.05, noise=2.0, flat=1.0)) == "a"
        assert model.predict(fv(g=0.95, noise=2.0, flat=1.0)) == "b"

    def test_infinite_cells_imputed_and_recorded(self):
        features = {("f", "0"): fv(g=0.1), ("f", "1"): fv(g=0.9)}
        records = [
            rec(fid="f", iid="0", algorithm="a", run=1, evaluations=50, success=True),
            rec(fid="f", iid="0", algorithm="b", run=1, evaluations=1000, success=False),
            rec(fid="f", iid="1", algorithm="a", run=1, evaluations=60, success=True),
            rec(fid="f", iid="1", algorithm="b", run=1, evaluations=70, success=True),
        ]
        model = train_selector(features, ErtTable.from_records(records), k=1)
        assert model.imputed_cells == [("f", "0", "b")]


class TestCrossValidate:
    def toy(self):
        features = read_features_csv(DATA / "toy_features.csv")
        table = ErtTable.from_records(read_performance_csv(DATA / "toy_performance.csv"))
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

    def test_feature_cost_shifts_model_mean(self):
        features, table = self.toy()
        plain = cross_validate(features, table, k=1)
        charged = cross_validate(features, table, k=1, feature_cost=100)
        assert charged["pooled"]["model_mean"] == plain["pooled"]["model_mean"] + 100.0
        assert charged["pooled"]["sbs_mean"] == plain["pooled"]["sbs_mean"]

    def test_leave_group_out(self):
        features, table = self.toy()
        groups = {inst: ("lo" if inst[1] in ("0", "1") else "hi") for inst in table.instances()}
        report = cross_validate(features, table, scheme="leave_group_out", groups=groups, k=1)
        assert {f["fold"] for f in report["per_fold"]} == {"lo", "hi"}
        assert report["pooled"]["gap_closure"] == 1.0

    def test_leave_group_out_needs_labels(self):
        features, table = self.toy()
        with pytest.raises(ValueError, match="group"):
            cross_validate(features, table, scheme="leave_group_out", k=1)

    def test_single_fold_rejected(self):
        features, table = self.toy()
        keep = [inst for inst in table.instances() if inst[0] == "fa"]
        small_features = {inst: features[inst] for inst in keep}
        with pytest.raises(ValueError, match="fewer than two folds"):
            cross_validate(small_features, table.restrict(keep), scheme="leave_fid_out", k=1)

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


def reference_cross_validate(features, table, scheme, kind, k, cost_sensitive, groups, feature_cost):
    """The per-fold loop cross_validate replaced: each sorted fold fits
    train_selector on the imputed table restricted to its training
    instances, then predicts its held-out instances one by one."""
    imputed, log = impute_table(table)
    instances = imputed.instances()
    fold_of = {"leave_iid_out": lambda i: i[1], "leave_fid_out": lambda i: i[0],
               "leave_group_out": lambda i: groups[i]}[scheme]
    folds = {}
    for inst in instances:
        folds.setdefault(fold_of(inst), []).append(inst)
    selections = {}
    for key in sorted(folds):
        train = [inst for inst in instances if inst not in folds[key]]
        model = train_selector(
            {inst: features[inst] for inst in train}, imputed.restrict(train),
            kind=kind, k=min(k, len(train)), cost_sensitive=cost_sensitive,
        )
        for inst in folds[key]:
            selections[inst] = model.predict(features[inst])

    sbs_algorithm = sbs(imputed)
    model_perf = {inst: imputed.ert(inst, selections[inst]) for inst in instances}
    perf = {
        "sbs": {inst: imputed.ert(inst, sbs_algorithm) for inst in instances},
        "vbs": vbs_performance(imputed),
        "model": feature_cost_adjust(model_perf, feature_cost) if feature_cost else model_perf,
    }
    labels = instance_labels(imputed)
    algorithms = imputed.algorithms()
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
    """cross_validate slices one shared feature matrix and ERT array per
    fold; its report must equal, byte for byte, the per-fold refit above."""

    @staticmethod
    def corpus():
        # three functions x five instances; h is missing on a third of them,
        # "empty" on all, "flat" is constant; fb:2 never succeeds with c, and
        # a and b tie for the best ERT on fa:1
        rng = np.random.default_rng(11)
        features, records = {}, []
        for f, fid in enumerate(("fa", "fb", "fc")):
            for iid in range(5):
                h = None if (f + iid) % 3 == 0 else float(rng.normal())
                features[(fid, str(iid))] = fv(
                    g=f + 0.2 * iid + float(rng.uniform(0.0, 0.1)), h=h, empty=None, flat=2.0
                )
                for algorithm in ("a", "b", "c"):
                    for run in (1, 2):
                        evaluations = int(rng.integers(50, 1000))
                        if (fid, str(iid)) == ("fa", "1"):
                            evaluations = 900 if algorithm == "c" else 300
                        success = (fid, str(iid), algorithm) != ("fb", "2", "c")
                        records.append(rec(fid, str(iid), algorithm, run, evaluations, success, 1000))
        return features, ErtTable.from_records(records)

    @pytest.mark.parametrize("scheme", ["leave_iid_out", "leave_fid_out", "leave_group_out"])
    @pytest.mark.parametrize(
        "kind, k", [("knn", 1), ("knn", 3), ("nearest_centroid", 1)]
    )
    @pytest.mark.parametrize("cost_sensitive", [False, True])
    def test_report_equals_per_fold_refit(self, scheme, kind, k, cost_sensitive):
        features, table = self.corpus()
        groups = {inst: f"g{int(inst[1]) % 3}" for inst in table.instances()}
        feature_cost = 100 if cost_sensitive else 0
        report = cross_validate(
            features, table, scheme=scheme, kind=kind, k=k, cost_sensitive=cost_sensitive,
            groups=groups, feature_cost=feature_cost,
        )
        reference = reference_cross_validate(
            features, table, scheme, kind, k, cost_sensitive, groups, feature_cost
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_corpus_has_the_edge_cases(self):
        features, table = self.corpus()
        imputed, log = impute_table(table)
        assert [(e["fid"], e["iid"], e["algorithm"]) for e in log] == [("fb", "2", "c")]
        assert imputed.ert(("fa", "1"), "a") == imputed.ert(("fa", "1"), "b")
        assert instance_labels(imputed)[("fa", "1")] == "a"
        model = train_selector(features, table)
        assert model.dropped_columns == ["empty", "flat"]
        assert any(vector["h"] is None for vector in features.values())


class TestPerformanceCsv:
    def test_toy_corpus_round_trip(self, tmp_path):
        records = read_performance_csv(DATA / "toy_performance.csv")
        assert len(records) == 32
        out = tmp_path / "perf.csv"
        write_performance_csv(records, out)
        assert read_performance_csv(out) == records
        assert out.read_text() == (DATA / "toy_performance.csv").read_text()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
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

    def test_duplicate_instance_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("fid,iid,f1\nf,0,1.0\nf,0,2.0\n")
        with pytest.raises(ValueError, match="duplicate instance"):
            read_features_csv(p)

    def test_header_must_start_with_instance_key(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iid,fid,f1\nf,0,1.0\n")
        with pytest.raises(ValueError, match="fid,iid"):
            read_features_csv(p)
