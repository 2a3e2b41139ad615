"""Command-line interface: subcommands, config merging, exit codes, determinism."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landsel import aas, cli, ela, fitmap, preprocess, sampling, space
from landsel.sampling import (
    Design,
    create_initial_design,
    design_from_csv,
    design_to_csv,
    evaluate_design,
    with_objective,
)
from landsel.space import (
    Problem,
    SearchSpace,
    VariableSpec,
    builtin_problem,
    space_to_obj,
)

from conftest import chain_doc

TOY_FEATURES = str(Path(__file__).parent / "data" / "toy_features.csv")
TOY_PERFORMANCE = str(Path(__file__).parent / "data" / "toy_performance.csv")


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def sample_design(tmp_path, source="builtin:sphere:d2", seed=1, n=None, name="design.csv"):
    out = tmp_path / name
    argv = ["sample", source, "--seed", seed, "--out", out]
    if n is not None:
        argv += ["--n", n]
    assert run_cli(*argv) == 0
    return out


class TestSample:
    def test_builtin_source_writes_evaluated_design(self, tmp_path):
        out = sample_design(tmp_path)
        lines = out.read_text().splitlines()
        assert len(lines) == 101  # header + 50 * 2 rows
        assert lines[0] == "x.x0,x.x1,y"
        assert all(line.split(",")[2] != "" for line in lines[1:])
        assert (tmp_path / "design.meta.json").exists()

    def test_space_file_source_stays_unevaluated(self, tmp_path):
        space_file = tmp_path / "space.json"
        s = SearchSpace(
            variables=(
                VariableSpec(name="lr", kind="continuous", lower=1e-4, upper=1.0),
                VariableSpec(name="depth", kind="integer", lower=1, upper=9),
            )
        )
        space_file.write_text(json.dumps(space_to_obj(s), indent=2))
        out = tmp_path / "design.csv"
        assert run_cli("sample", space_file, "--n", 20, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 21
        assert all(line.endswith(",") for line in lines[1:])  # no objective column values

    def test_missing_space_file_exits_two_naming_the_path(self, tmp_path, capsys):
        code = run_cli("sample", tmp_path / "absent.json", "--out", tmp_path / "d.csv")
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        a = sample_design(tmp_path, seed=7, name="a.csv")
        b = sample_design(tmp_path, seed=7, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_strategy_from_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"strategy": "grid"}')
        code = run_cli(
            "sample", "builtin:sphere:d2", "--config", config, "--out", tmp_path / "d.csv"
        )
        assert code == 2

    def test_missing_out_is_a_validation_error(self, tmp_path, capsys):
        assert run_cli("sample", "builtin:sphere:d2") == 2
        assert capsys.readouterr().err == "landsel sample: 'out' is required (flag or config)\n"

    def test_instance_field_in_source(self, tmp_path):
        out = sample_design(tmp_path, source="builtin:rastrigin:d3:i4", n=10)
        assert len(out.read_text().splitlines()) == 11

    def test_malformed_source(self, tmp_path, capsys):
        assert run_cli("sample", "builtin:sphere", "--out", tmp_path / "d.csv") == 2
        assert "builtin:<fid>:d<D>" in capsys.readouterr().err

    def test_deep_hierarchy_listed_children_first(self, tmp_path):
        # v_k is active where v_0 .. v_(k-1) all equal 1; 1,200 levels are
        # deeper than Python's default recursion limit
        space_file, out = tmp_path / "chain.json", tmp_path / "design.csv"
        space_file.write_text(json.dumps(chain_doc(1200)))
        proc = subprocess.run(
            [sys.executable, "-m", "landsel", "sample", str(space_file), "--n", "20", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        design = with_objective(design_from_csv(out), np.arange(20.0))
        assert preprocess.preprocess_pipeline(design).matrix.shape == (20, 1200)
        cells = np.column_stack([design.columns[f"v{k}"] for k in range(1200)])
        active = np.cumprod(np.hstack([np.ones((20, 1)), cells[:, :-1]]), axis=1) == 1
        assert np.array_equal(preprocess._activity_mask(design)[:, ::-1], active)

    def test_condition_cycle_exits_two(self, tmp_path, capsys):
        doc = [
            {"name": "a", "kind": "integer", "lower": 0, "upper": 1, "condition": {"parent": "b", "values": [1]}},
            {"name": "b", "kind": "integer", "lower": 0, "upper": 1, "condition": {"parent": "a", "values": [1]}},
        ]
        space_file = tmp_path / "cycle.json"
        space_file.write_text(json.dumps(doc))
        assert run_cli("sample", space_file, "--n", 4, "--out", tmp_path / "d.csv") == 2
        err = capsys.readouterr().err
        assert str(space_file) in err and "a: condition parents form a cycle" in err

    @pytest.mark.parametrize(
        "variable, reason",
        [
            ({"kind": "categorical", "categories": [1, 2, 3]}, "a category label must be a non-empty string, got 1"),
            ({"kind": "categorical", "categories": [True, False]}, "a category label must be a non-empty string, got True"),
            ({"kind": "categorical", "categories": [0.5, 1.5]}, "a category label must be a non-empty string, got 0.5"),
            ({"kind": "categorical", "categories": ["a", ""]}, "a category label must be a non-empty string, got ''"),
            ({"kind": "continuous", "lower": False, "upper": True}, "lower bound must be a number, got False"),
            ({"kind": "integer", "lower": 0, "upper": True}, "upper bound must be a number, got True"),
        ],
    )
    def test_space_a_design_file_cannot_read_back_exits_two(self, tmp_path, capsys, variable, reason):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps([{"name": "x", "kind": "continuous", "lower": 0, "upper": 1},
                                          {"name": "c", **variable}]))
        assert run_cli("sample", space_file, "--n", 4, "--out", tmp_path / "d.csv") == 2
        assert f"{space_file}: variable 1: c: {reason}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [space_file]


class TestEvaluate:
    def test_round_trip(self, tmp_path):
        p = builtin_problem("sphere", 0, 2)
        design = create_initial_design(p.space, n=8, seed=0)
        raw = tmp_path / "raw.csv"
        design_to_csv(design, raw)
        out = tmp_path / "evaluated.csv"
        assert run_cli("evaluate", raw, "--source", "builtin:sphere:d2", "--out", out) == 0
        evaluated = out.read_text().splitlines()
        assert all(line.split(",")[2] != "" for line in evaluated[1:])

    def test_bare_space_source_rejected(self, tmp_path, capsys):
        p = builtin_problem("sphere", 0, 2)
        raw = tmp_path / "raw.csv"
        design_to_csv(create_initial_design(p.space, n=4), raw)
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(space_to_obj(p.space), indent=2))
        assert run_cli("evaluate", raw, "--source", space_file, "--out", tmp_path / "o.csv") == 2
        assert "builtin problem source" in capsys.readouterr().err


class TestFeatures:
    def test_json_output_has_all_features(self, tmp_path):
        design = sample_design(tmp_path, n=40)
        out = tmp_path / "features.json"
        assert run_cli("features", design, "--seed", 5, "--out", out) == 0
        doc = json.loads(out.read_text())
        names = [k for k in doc if k != "_meta"]
        assert len(names) == 45
        assert doc["_meta"]["seed"] == 5
        assert doc["_meta"]["n"] == 40

    def test_csv_output(self, tmp_path):
        design = sample_design(tmp_path, n=30)
        out = tmp_path / "features.csv"
        assert run_cli("features", design, "--out", out) == 0
        header, row, _ = out.read_text().split("\n")
        assert len(header.split(",")) == 45
        assert len(row.split(",")) == 45

    def test_encoding_none_on_categorical_design(self, tmp_path, capsys):
        s = SearchSpace(
            variables=(
                VariableSpec(name="x", kind="continuous", lower=0.0, upper=1.0),
                VariableSpec(name="c", kind="categorical", categories=("a", "b")),
            )
        )
        p = Problem(space=s, objective=lambda row: row[0] + (0.0 if row[1] == "a" else 1.0))
        design = evaluate_design(p, create_initial_design(s, n=10, seed=0))
        path = tmp_path / "mixed.csv"
        design_to_csv(design, path)
        assert run_cli("features", path, "--out", tmp_path / "f.json") == 2
        assert "numeric" in capsys.readouterr().err
        # one-hot encoding handles the same design
        assert run_cli("features", path, "--encoding", "one_hot", "--out", tmp_path / "f.json") == 0

    @pytest.mark.parametrize(
        "doc",
        [{"twist": 3}, {"dispersion_quantiles": [0.5]}, {"epsilon_grid": [1.0, 2.0]},
         {"settling_threshold": 0.05}, {"kde_grid_points": 512}],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, doc):
        # the feature parameters are fixed, so their former keys are unknown
        design = sample_design(tmp_path, n=10)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "f.json"
        assert run_cli("features", design, "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and str(config) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("features", "seed", None),
            ("features", "smoothing", None),
            ("features", "seed", True),
            ("fitmap", "k", None),
            ("features", "encoding", "grid"),
            pytest.param("features", "smoothing", 10**400, id="features-smoothing-beyond-float"),
        ],
    )
    def test_config_value_of_wrong_type_names_file_and_key(
        self, tmp_path, capsys, command, key, value
    ):
        design = sample_design(tmp_path, n=10)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        argv = [command, design, "--config", config, "--out", tmp_path / "out"]
        if command == "fitmap":
            argv += ["--mode", "cloud"]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert str(config) in err and repr(key) in err

    @pytest.mark.parametrize(
        "argv, key",
        [(["sample", "builtin:sphere:d2"], "strategy"),
         (["fitmap", "{design}"], "mode"),
         (["aas", TOY_FEATURES, TOY_PERFORMANCE], "scheme"),
         (["aas", TOY_FEATURES, TOY_PERFORMANCE], "selector")],
        ids=["strategy", "mode", "scheme", "selector"],
    )
    def test_config_choice_outside_its_tuple_names_file_and_key(self, tmp_path, capsys, argv, key):
        design = sample_design(tmp_path, n=10)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "grid"}))
        argv = [a.format(design=design) for a in argv]
        assert run_cli(*argv, "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{config}: config key {key!r} must be one of " in err and err.endswith(', got "grid"\n')
        assert not (tmp_path / "out").exists()

    def test_flag_overrides_config(self, tmp_path):
        design = sample_design(tmp_path, n=10)
        config = tmp_path / "config.json"
        config.write_text('{"seed": 3}')
        out = tmp_path / "f.json"
        assert run_cli("features", design, "--config", config, "--out", out) == 0
        assert json.loads(out.read_text())["_meta"]["seed"] == 3
        assert run_cli("features", design, "--config", config, "--seed", 9, "--out", out) == 0
        assert json.loads(out.read_text())["_meta"]["seed"] == 9

    def test_unevaluated_design_rejected(self, tmp_path, capsys):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(space_to_obj(builtin_problem("sphere", 0, 2).space), indent=2))
        design = sample_design(tmp_path, source=space_file, n=10)
        assert run_cli("features", design, "--out", tmp_path / "f.json") == 2
        assert "evaluate" in capsys.readouterr().err

    @staticmethod
    def edit_sidecar(design, edit):
        sidecar = design.with_name(design.stem + ".meta.json")
        doc = json.loads(sidecar.read_text())
        edit(doc)
        sidecar.write_text(json.dumps(doc))

    def test_sidecar_without_space_exits_two(self, tmp_path, capsys):
        design = sample_design(tmp_path, n=10)
        self.edit_sidecar(design, lambda doc: doc.pop("space"))
        assert run_cli("features", design, "--out", tmp_path / "f.json") == 2
        assert "design.meta.json: sidecar has no 'space' key" in capsys.readouterr().err

    def test_string_bound_exits_two(self, tmp_path, capsys):
        design = sample_design(tmp_path, n=10)

        def stringify(doc):
            doc["space"][0]["lower"] = str(doc["space"][0]["lower"])

        self.edit_sidecar(design, stringify)
        assert run_cli("features", design, "--out", tmp_path / "f.json") == 2
        assert "x0: lower bound must be a number, got '" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        design = sample_design(tmp_path, n=25)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("features", design, "--out", a) == 0
        assert run_cli("features", design, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPreprocess:
    def test_writes_matrix_and_provenance(self, tmp_path):
        design = sample_design(tmp_path, n=12)
        out = tmp_path / "processed.csv"
        assert run_cli("preprocess", design, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,x1,y"
        assert len(lines) == 13
        doc = json.loads((tmp_path / "processed.provenance.json").read_text())
        assert doc["encoding"] == "none"
        assert doc["decision_normalized"] is True

    def test_non_finite_smoothing_exits_two_and_writes_nothing(self, tmp_path, capsys):
        design = sample_design(tmp_path, n=12)
        out = tmp_path / "processed.csv"
        assert run_cli("preprocess", design, "--smoothing", "nan", "--out", out) == 2
        assert "landsel preprocess: smoothing must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "processed.provenance.json").exists()


class TestFitmap:
    def test_raw2d_default_resolution(self, tmp_path):
        design = sample_design(tmp_path, n=50)
        out = tmp_path / "map.pgm"
        assert run_cli("fitmap", design, "--out", out) == 0
        assert out.read_bytes().startswith(b"P5\n224 224\n255\n")

    def test_multichannel_writes_one_file_per_pair(self, tmp_path):
        design = sample_design(tmp_path, source="builtin:sphere:d5", n=30)
        assert run_cli(
            "fitmap", design, "--mode", "mc", "--resolution", 16, "--out", tmp_path / "maps.pgm"
        ) == 0
        written = sorted(p.name for p in tmp_path.glob("maps_c*.pgm"))
        assert len(written) == 10
        assert written[0] == "maps_c0_1.pgm"
        assert written[-1] == "maps_c3_4.pgm"

    def test_rmc_single_file(self, tmp_path):
        design = sample_design(tmp_path, source="builtin:rosenbrock:d3", n=30)
        out = tmp_path / "reduced.pgm"
        assert run_cli("fitmap", design, "--mode", "rmc", "--resolution", 32, "--out", out) == 0
        assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_pca_modes(self, tmp_path):
        design = sample_design(tmp_path, source="builtin:ellipsoid:d4", n=40)
        for mode in ("pca", "pca-func"):
            out = tmp_path / f"{mode}.pgm"
            assert run_cli("fitmap", design, "--mode", mode, "--resolution", 16, "--out", out) == 0
            assert out.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_cloud_output(self, tmp_path):
        design = sample_design(tmp_path, n=20)
        out = tmp_path / "cloud.csv"
        assert run_cli("fitmap", design, "--mode", "cloud", "--k", 3, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 21
        assert lines[0].startswith("x0,x1,y,n1_x0")

    def test_cloud_rejects_k_zero(self, tmp_path, capsys):
        design = sample_design(tmp_path, n=20)
        code = run_cli("fitmap", design, "--mode", "cloud", "--k", 0, "--out", tmp_path / "c.csv")
        assert code == 2
        assert "--k >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["pca", "pca-func"])
    @pytest.mark.parametrize("resolution", [0, 1])
    def test_projection_below_two_pixels_exits_two(self, tmp_path, capsys, mode, resolution):
        design = sample_design(tmp_path, source="builtin:ellipsoid:d4", n=40)
        out = tmp_path / "map.pgm"
        code = run_cli("fitmap", design, "--mode", mode, "--resolution", resolution, "--out", out)
        assert code == 2
        assert "resolution must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_raster_refused(self, tmp_path, capsys):
        # one 100000 x 100000 grid of float64 pixels would need 75 GiB
        design = sample_design(tmp_path, source="builtin:sphere:d3", n=30)
        code = run_cli(
            "fitmap", design, "--mode", "mc", "--resolution", 100000, "--out", tmp_path / "maps.pgm"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "the pixels of one grid at resolution 100000 need 76294 MiB, over the 1024 MiB cap" in err
        assert not list(tmp_path.glob("maps*"))

    def test_wide_design_reduces_and_refuses_to_write_its_stack(self, tmp_path, capsys):
        # C(257, 2) = 32896 channels: the reduction allocates a few 224 x 224
        # grids, while writing every channel would write 1574 MiB of pixels
        design = sample_design(tmp_path, source="builtin:sphere:d257", n=20)
        out = tmp_path / "reduced.pgm"
        assert run_cli("fitmap", design, "--mode", "rmc", "--out", out) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n224 224\n255\n")
        assert len(data) == len(b"P5\n224 224\n255\n") + 224 * 224
        code = run_cli("fitmap", design, "--mode", "mc", "--out", tmp_path / "maps.pgm")
        assert code == 2
        err = capsys.readouterr().err
        assert "the written pixels of 32896 channels at resolution 224 need 1575 MiB, over the 1024 MiB cap" in err
        assert not list(tmp_path.glob("maps*"))


class TestAas:
    def test_toy_corpus_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("aas", TOY_FEATURES, TOY_PERFORMANCE, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["pooled"]["sbs_algorithm"] == "alg_a"
        assert report["pooled"]["sbs_mean"] == 500.0
        assert report["pooled"]["vbs_mean"] == 100.0
        assert report["pooled"]["model_mean"] == 100.0
        assert report["pooled"]["gap_closure"] == 1.0
        assert report["f1_macro"] == 1.0
        assert report["selections"]["fa:0"] == "alg_a"

    def test_report_is_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("aas", TOY_FEATURES, TOY_PERFORMANCE, "--out", a) == 0
        assert run_cli("aas", TOY_FEATURES, TOY_PERFORMANCE, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_function_cannot_leave_fid_out(self, tmp_path, capsys):
        perf = tmp_path / "perf.csv"
        lines = ["fid,iid,algorithm,run,evaluations,success,budget"]
        for iid in range(2):
            for alg, evals in (("alg_a", 100), ("alg_b", 900)):
                lines.append(f"fa,{iid},{alg},1,{evals},1,1000")
        perf.write_text("\n".join(lines) + "\n")
        feats = tmp_path / "features.csv"
        feats.write_text("fid,iid,f1\nfa,0,0.1\nfa,1,0.2\n")
        code = run_cli("aas", feats, perf, "--scheme", "leave_fid_out", "--out", tmp_path / "r.json")
        assert code == 2
        assert "fewer than two folds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, reason",
        [("abc", "could not convert string to float: 'abc'"), ("nan", "'nan' is not finite")],
    )
    def test_bad_feature_cell_names_file_line_and_column(self, tmp_path, capsys, cell, reason):
        feats = tmp_path / "features.csv"
        feats.write_text(f"fid,iid,f1,f2\nfa,0,0.1,1.0\nfa,1,0.2,{cell}\n")
        code = run_cli("aas", feats, TOY_PERFORMANCE, "--out", tmp_path / "r.json")
        assert code == 2
        assert f"landsel aas: {feats}:3: column f2: {reason}" in capsys.readouterr().err

    def test_repeated_feature_column_exits_two(self, tmp_path, capsys):
        feats = tmp_path / "features.csv"
        feats.write_text("fid,iid,a,a\nfa,0,0.1,1.0\nfa,1,0.2,2.0\n")
        out = tmp_path / "r.json"
        assert run_cli("aas", feats, TOY_PERFORMANCE, "--out", out) == 2
        assert f"landsel aas: {feats}: feature column 'a' is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_feature_cost_flag(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(
            "aas", TOY_FEATURES, TOY_PERFORMANCE, "--feature-cost", 100, "--out", out
        ) == 0
        report = json.loads(out.read_text())
        assert report["pooled"]["model_mean"] == 200.0
        assert report["selector"]["feature_cost"] == 100

    def test_groups_from_config(self, tmp_path):
        config = tmp_path / "config.json"
        groups = {}
        for fid in ("fa", "fb"):
            for iid in range(4):
                groups[f"{fid}:{iid}"] = "even" if iid % 2 == 0 else "odd"
        config.write_text(json.dumps({"scheme": "leave_group_out", "groups": groups}))
        out = tmp_path / "report.json"
        assert run_cli("aas", TOY_FEATURES, TOY_PERFORMANCE, "--config", config, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["scheme"] == "leave_group_out"
        assert {f["fold"] for f in report["per_fold"]} == {"even", "odd"}

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--feature-cost", -1, "aas needs --feature-cost >= 0"),
         ("--penalty", 0.5, "aas needs --penalty >= 1"),
         ("--penalty", "nan", "aas needs --penalty >= 1"),
         ("--penalty", "inf", "aas needs --penalty >= 1 and finite")],
    )
    def test_out_of_range_flag_exits_two_naming_it(self, tmp_path, capsys, flag, value, message):
        # the toy table has no infinite cell, so the penalty is never applied
        out = tmp_path / "report.json"
        assert run_cli("aas", TOY_FEATURES, TOY_PERFORMANCE, flag, value, "--out", out) == 2
        assert f"landsel aas: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [("fa,0,alg_a,1,300,1,1000", "duplicate run id 1 for ('fa', '0', 'alg_a')"),
         (f"fa,0,alg_a,3,10,0,{10**30}", f"budget {10**30} does not fit in 64 bits")],
    )
    def test_bad_performance_row_names_file_and_line(self, tmp_path, capsys, row, message):
        perf = tmp_path / "perf.csv"
        lines = Path(TOY_PERFORMANCE).read_text().splitlines()
        perf.write_text("\n".join(lines[:5] + [row] + lines[5:]) + "\n")
        assert run_cli("aas", TOY_FEATURES, perf, "--out", tmp_path / "r.json") == 2
        assert f"landsel aas: {perf}:6: {message}" in capsys.readouterr().err

    def test_cost_sensitive_flag_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(
            "aas", TOY_FEATURES, TOY_PERFORMANCE, "--cost-sensitive", "--k", 2, "--out", out
        ) == 0
        report = json.loads(out.read_text())
        assert report["selector"]["cost_sensitive"] is True
        assert report["selector"]["k"] == 2


@pytest.mark.parametrize(
    "argv, flags, config",
    [(["preprocess", "{mixed}", "--encoding", "target"], ["--smoothing", 1], {"smoothing": 1}),
     (["aas", TOY_FEATURES, TOY_PERFORMANCE], ["--penalty", 10], {"penalty": 10}),
     (["sample", "builtin:rastrigin:d3", "--n", 20], ["--seed", 5], {"seed": 5}),
     (["features", "{design}"], ["--seed", 5], {"seed": 5}),
     (["fitmap", "{design}"], ["--resolution", 16], {"resolution": 16}),
     (["fitmap", "{design}", "--mode", "cloud"], ["--k", 3], {"k": 3}),
     (["aas", TOY_FEATURES, TOY_PERFORMANCE], ["--cost-sensitive"], {"cost_sensitive": True})],
    ids=["smoothing", "penalty", "sample-seed", "features-seed", "resolution", "k", "cost_sensitive"],
)
def test_flag_and_config_give_the_same_bytes(tmp_path, argv, flags, config):
    mixed = tmp_path / "mixed.csv"
    s = SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=1.0),
                     VariableSpec("c", "categorical", categories=("a", "b", "z"))))
    p = Problem(space=s, objective=lambda row: row[0] + "abz".index(row[1]))
    design_to_csv(evaluate_design(p, create_initial_design(s, n=12, seed=0)), mixed)
    argv = [str(a).format(design=sample_design(tmp_path, n=20), mixed=mixed) for a in argv]
    (tmp_path / "config.json").write_text(json.dumps(config))
    outputs = []
    for name, extra in (("flag", flags), ("config", ["--config", tmp_path / "config.json"])):
        (tmp_path / name).mkdir()
        assert run_cli(*argv, *extra, "--out", tmp_path / name / "out.csv") == 0
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) in (1, 2)


@pytest.mark.parametrize("argv", [["features"], ["fitmap", "--mode", "cloud"]])
def test_oversized_distance_matrix_exits_two_naming_n(tmp_path, capsys, monkeypatch, argv):
    design = sample_design(tmp_path, n=30)
    # the cap admits 29 rows, and the 30-row matrix must never be computed
    monkeypatch.setattr(space, "MAX_BYTES", 8 * 29 * 29)

    def no_allocation(X):
        raise AssertionError("a distance matrix was allocated")

    monkeypatch.setattr(preprocess, "pairwise_distances", no_allocation)
    out = tmp_path / "out.csv"
    assert run_cli(argv[0], design, *argv[1:], "--out", out) == 2
    assert f"landsel {argv[0]}: the distances between 30 rows need 1 MiB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["pca", "rmc"])
def test_wide_design_refused_at_the_cap_within_a_2_gib_address_space(tmp_path, mode):
    # 12,000 columns: a 1099 MiB covariance (pca), or 1099 MiB of pair
    # indices for 72 M channels (rmc); neither may be attempted
    design = sample_design(tmp_path, source="builtin:sphere:d12000", n=3)
    before = sorted(tmp_path.iterdir())

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "landsel", "fitmap", str(design), "--mode", mode, "--out", str(tmp_path / "m.pgm")],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_address_space,
        # one BLAS thread: thread stacks and buffers must not use up the address space
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert "cap" in proc.stderr
    assert sorted(tmp_path.iterdir()) == before


def test_cli_import_loads_no_scipy():
    # scipy is needed only by the Sobol sampler, which imports it on demand
    code = "import sys, landsel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["aas {features} {performance}", "features {design}"])
def test_cli_loads_no_numpy_ma(named_paths, command):
    # the selector's training medians are read off a sort and the KDE
    # bandwidth's quartiles off a partition; np.nanmedian and np.quantile
    # would import numpy.ma (about 2 MiB) on every run
    argv = [*command.format(**named_paths).split(), "--out", str(named_paths["tmp"] / "out.json")]
    code = f"import sys; from landsel import cli; print(cli.main({argv!r}), 'numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# Subcommands that write, as argv templates without --out, with the suffix
# of their output; {design} is an evaluated design, {raw} an unevaluated one
_WRITERS = {
    "sample": ("sample builtin:sphere:d3 --n 20", ".csv"),
    "evaluate": ("evaluate {raw} --source builtin:sphere:d3", ".csv"),
    "preprocess": ("preprocess {design}", ".csv"),
    "features-json": ("features {design}", ".json"),
    "features-csv": ("features {design}", ".csv"),
    "fitmap-raw2d": ("fitmap {design} --resolution 8", ".pgm"),
    "fitmap-mc": ("fitmap {design} --mode mc --resolution 8", ".pgm"),
    "fitmap-cloud": ("fitmap {design} --mode cloud --k 2", ".csv"),
    "aas": ("aas {features} {performance}", ".json"),
}

# (argv template, the path the message must name); {dir} is a directory,
# {dir_design} a directory beside a real sidecar, {dir_sidecar} a directory
# in place of the sidecar of the design {sidecarless}
_UNOPENABLE = {
    "config-dir": ("features {design} --config {dir} --out {tmp}/f.json", "{dir}"),
    "space-dir": ("sample {dir} --n 20 --out {tmp}/d.csv", "{dir}"),
    "features-csv-dir": ("aas {dir} {performance} --out {tmp}/r.json", "{dir}"),
    "performance-csv-dir": ("aas {features} {dir} --out {tmp}/r.json", "{dir}"),
    "design-dir": ("features {dir_design} --out {tmp}/f.json", "{dir_design}"),
    "sidecar-dir": ("features {sidecarless} --out {tmp}/f.json", "{dir_sidecar}"),
    **{
        f"{name}-out-under-missing-parent": (f"{template} --out {{tmp}}/missing/out{suffix}", "{tmp}/missing/out")
        for name, (template, suffix) in _WRITERS.items()
    },
    **{
        f"{name}-out-is-a-directory": (f"{template} --out {{tmp}}/taken{suffix}", f"{{tmp}}/taken{suffix}")
        for name, (template, suffix) in _WRITERS.items()
        if name != "fitmap-mc"  # writes <stem>_c<i>_<j>.pgm beside the directory
    },
}


@pytest.fixture
def named_paths(tmp_path):
    """The placeholders of ``_UNOPENABLE``, as files and directories under ``tmp_path``."""
    problem = builtin_problem("sphere", 0, 3)
    raw = create_initial_design(problem.space, n=20, seed=0)
    paths = {name: tmp_path / f"{name}.csv" for name in ("design", "raw", "sidecarless", "dir_design")}
    design_to_csv(raw, paths["raw"])
    evaluated = evaluate_design(problem, raw)
    for name in ("design", "sidecarless", "dir_design"):
        design_to_csv(evaluated, paths[name])
    paths["dir_design"].unlink()
    paths["dir_design"].mkdir()
    paths["dir_sidecar"] = tmp_path / "sidecarless.meta.json"
    paths["dir_sidecar"].unlink()
    paths["dir_sidecar"].mkdir()
    paths["dir"] = tmp_path / "dir"
    paths["dir"].mkdir()
    for suffix in (".csv", ".json", ".pgm"):
        (tmp_path / f"taken{suffix}").mkdir()
    return {"tmp": tmp_path, "features": TOY_FEATURES, "performance": TOY_PERFORMANCE, **paths}


@pytest.mark.parametrize("case", sorted(_UNOPENABLE))
def test_unopenable_path_exits_two_naming_it(named_paths, capsys, case):
    template, named = _UNOPENABLE[case]
    assert run_cli(*(token.format(**named_paths) for token in template.split())) == 2
    err = capsys.readouterr().err
    assert named.format(**named_paths) in err
    assert "internal error" not in err
    assert not list(named_paths["tmp"].rglob(".*"))  # no stand-in is left


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
def test_write_error_without_a_filename_exits_two(named_paths, capsys):
    # the failed write of a full device carries no filename
    assert run_cli("features", named_paths["design"], "--out", "/dev/full") == 2
    assert capsys.readouterr().err == "landsel features: No space left on device\n"


def test_module_run_with_out_under_missing_parent_prints_no_traceback(named_paths):
    out = named_paths["tmp"] / "missing" / "f.json"
    proc = subprocess.run(
        [sys.executable, "-m", "landsel", "features", str(named_paths["design"]), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"landsel features: {out}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, sidecar",
    [
        ("sample builtin:sphere:d2 --n 10 --out {tmp}/x.csv", "x.meta.json"),
        ("evaluate {raw} --source builtin:sphere:d3 --out {tmp}/x.csv", "x.meta.json"),
        ("preprocess {design} --out {tmp}/x.csv", "x.provenance.json"),
    ],
)
@pytest.mark.parametrize("existing", [False, True])
def test_pair_with_an_unwritable_sidecar_leaves_its_csv_as_it_was(named_paths, capsys, argv, sidecar, existing):
    tmp = named_paths["tmp"]
    (tmp / sidecar).mkdir()
    if existing:
        (tmp / "x.csv").write_text("old bytes\n")
    before = sorted(tmp.iterdir())
    assert run_cli(*argv.format(**named_paths).split()) == 2
    assert str(tmp / sidecar) in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before  # no file is added, no stand-in is left
    if existing:
        assert (tmp / "x.csv").read_text() == "old bytes\n"


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the output was opened")


def _forbid_work(monkeypatch, template):
    """Make every work function of ``template`` raise, except what
    ``fitmap --mode mc`` runs before it can name its files."""
    if "--mode mc" not in template:  # mc names its files from the processed width
        monkeypatch.setattr(preprocess, "preprocess_pipeline", _no_work)
    monkeypatch.setattr(sampling, "create_initial_design", _no_work)
    monkeypatch.setattr(sampling, "evaluate_design", _no_work)
    monkeypatch.setattr(ela, "compute_all", _no_work)
    monkeypatch.setattr(aas, "cross_validate", _no_work)
    for name in ("rasterize_2d", "rasterize_projection", "reduce_mean", "knn_cloud", "write_pgm"):
        monkeypatch.setattr(fitmap, name, _no_work)


@pytest.mark.parametrize(
    "template, suffix",
    list(_WRITERS.values())
    + [(f"fitmap {{design}} --mode {mode} --resolution 8", ".pgm") for mode in ("pca", "pca-func", "rmc")],
)
def test_out_under_missing_parent_fails_before_any_work(named_paths, capsys, monkeypatch, template, suffix):
    _forbid_work(monkeypatch, template)
    out = named_paths["tmp"] / "missing" / f"out{suffix}"
    assert run_cli(*template.format(**named_paths).split(), "--out", out) == 2
    err = capsys.readouterr().err
    assert str(out.with_suffix("")) in err
    assert "internal error" not in err


# (writer, the directory's name beside --out dir/x<suffix>): the output
# itself, the first file of an mc stack, or the sidecar of a pair
_DIRECTORY_CASES = [
    *((name, "x_c0_1.pgm" if name == "fitmap-mc" else f"x{suffix}") for name, (_, suffix) in _WRITERS.items()),
    ("sample", "x.meta.json"),
    ("evaluate", "x.meta.json"),
    ("preprocess", "x.provenance.json"),
]


@pytest.mark.parametrize("name, directory", _DIRECTORY_CASES)
def test_directory_output_fails_before_any_work(named_paths, capsys, monkeypatch, name, directory):
    template, suffix = _WRITERS[name]
    _forbid_work(monkeypatch, template)
    tmp = named_paths["tmp"]
    (tmp / directory).mkdir()
    before = sorted(tmp.iterdir())
    assert run_cli(*template.format(**named_paths).split(), "--out", tmp / f"x{suffix}") == 2
    assert capsys.readouterr().err.endswith(f"{tmp / directory}: Is a directory\n")
    assert sorted(tmp.iterdir()) == before  # no file is added, no stand-in is left


def test_new_outputs_take_the_mode_of_a_plain_open(named_paths):
    umask = os.umask(0)
    os.umask(umask)
    tmp = named_paths["tmp"]
    assert run_cli("sample", "builtin:sphere:d2", "--n", 10, "--out", tmp / "d.csv") == 0
    assert run_cli("features", named_paths["design"], "--out", tmp / "f.json") == 0
    for name in ("d.csv", "d.meta.json", "f.json"):
        assert (tmp / name).stat().st_mode & 0o777 == 0o666 & ~umask


def test_out_to_dev_stdout_is_written_in_place(named_paths):
    proc = subprocess.run(
        [sys.executable, "-m", "landsel", "features", str(named_paths["design"]), "--out", "/dev/stdout"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len([k for k in json.loads(proc.stdout) if k != "_meta"]) == 45


@pytest.mark.parametrize("command", ["sample builtin:sphere:d2", "features {design}"])
@pytest.mark.parametrize("via_config", [False, True])
def test_negative_seed_exits_two_naming_seed(named_paths, capsys, command, via_config):
    argv = command.format(**named_paths).split() + ["--out", named_paths["tmp"] / "out.csv"]
    if via_config:
        config = named_paths["tmp"] / "config.json"
        config.write_text('{"seed": -1}')
        argv += ["--config", config]
    else:
        argv += ["--seed", -1]
    assert run_cli(*argv) == 2
    assert "'seed' must be >= 0, got -1" in capsys.readouterr().err
    assert not (named_paths["tmp"] / "out.csv").exists()


def test_absurd_sample_size_exits_two_naming_n(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("sample", "builtin:sphere:d2", "--n", 10_000_000_000, "--out", out) == 2
    assert capsys.readouterr().err == "landsel sample: n = 10000000000 rows of 2 variables need 152588 MiB, over the 1024 MiB cap\n"
    assert not out.exists()


def test_absurd_builtin_dimension_exits_two_naming_d(tmp_path, capsys, monkeypatch):
    def no_variable(*args, **kwargs):
        raise AssertionError("a variable was built")

    monkeypatch.setattr(space, "VariableSpec", no_variable)
    out = tmp_path / "d.csv"
    assert run_cli("sample", "builtin:sphere:d100000000", "--n", 3, "--out", out) == 2
    assert capsys.readouterr().err == (
        "landsel sample: the variables of dimension D = 100000000 need 48829 MiB, over the 1024 MiB cap\n"
    )
    assert not out.exists()


@pytest.mark.usefixtures("landsel_on_path")
class TestInstalledEntryPoints:
    def test_console_script(self, tmp_path):
        out = tmp_path / "design.csv"
        proc = subprocess.run(
            ["landsel", "sample", "builtin:sphere:d2", "--n", "10", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_module_invocation_matches_script(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target, path in ((["landsel"], a), ([sys.executable, "-m", "landsel"], b)):
            proc = subprocess.run(
                target + ["sample", "builtin:sphere:d2", "--n", "10", "--out", str(path)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_validation_failure_exit_code(self, tmp_path):
        proc = subprocess.run(
            ["landsel", "features", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "f.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "missing.csv" in proc.stderr

    def test_log_env_var_controls_stderr_only(self, tmp_path):
        # both runs keep the caller's environment (PATH, PYTHONPATH) and
        # differ only in LANDSEL_LOG
        quiet_env = {k: v for k, v in os.environ.items() if k != "LANDSEL_LOG"}
        quiet = subprocess.run(
            ["landsel", "sample", "builtin:sphere:d2", "--n", "10", "--out", str(tmp_path / "q.csv")],
            capture_output=True,
            text=True,
            env=quiet_env,
        )
        chatty = subprocess.run(
            ["landsel", "sample", "builtin:sphere:d2", "--n", "10", "--out", str(tmp_path / "v.csv")],
            capture_output=True,
            text=True,
            env={**os.environ, "LANDSEL_LOG": "INFO"},
        )
        assert quiet.returncode == 0 and chatty.returncode == 0
        assert quiet.stderr == ""
        assert "design" in chatty.stderr
        # verbosity never leaks into outputs
        assert (tmp_path / "q.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()

    @pytest.mark.parametrize("command", ["features", "evaluate"])
    def test_info_log_names_the_output_file(self, tmp_path, command):
        problem = builtin_problem("sphere", 0, 2)
        design = create_initial_design(problem.space, n=20, seed=0)
        if command == "features":
            design = evaluate_design(problem, design)
            extra, suffix = [], ".json"
        else:
            extra, suffix = ["--source", "builtin:sphere:d2"], ".csv"
        path = tmp_path / "design.csv"
        design_to_csv(design, path)
        quiet_env = {k: v for k, v in os.environ.items() if k != "LANDSEL_LOG"}
        runs = {}
        for name, env in (("quiet", quiet_env), ("chatty", {**os.environ, "LANDSEL_LOG": "INFO"})):
            out = tmp_path / f"{name}{suffix}"
            proc = subprocess.run(
                ["landsel", command, str(path), *extra, "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            runs[name] = (proc.stderr, out)
        assert runs["quiet"][0] == ""
        assert f"to {runs['chatty'][1]}" in runs["chatty"][0]
        assert runs["quiet"][1].read_bytes() == runs["chatty"][1].read_bytes()
