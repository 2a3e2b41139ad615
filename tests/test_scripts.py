"""Smoke tests for the scripts under ``scripts/``."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("scheme", ["leave_iid_out", "leave_fid_out"])
def test_run_selector_benchmark_on_the_toy_corpus(capsys, scheme):
    main = runpy.run_path(str(ROOT / "scripts" / "run_selector_benchmark.py"))["main"]
    argv = [str(DATA / "toy_features.csv"), str(DATA / "toy_performance.csv"), "--scheme", scheme,
            "--k-values", "1", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"8 instances, 2 algorithms, scheme {scheme}, feature cost 0"
    # knn at k = 1 and 3 plus nearest_centroid once, each with both voting modes
    rows = [line.split() for line in lines[2:]]
    assert [row[:3] for row in rows] == [
        [kind, k, voting] for kind, k in (("knn", "1"), ("knn", "3"), ("nearest_centroid", "1"))
        for voting in ("majority", "cost")
    ]
    # the toy's winner depends on the iid-invariant function: leaving an iid
    # out closes the whole gap, leaving a function out inverts it
    gap = "1.0000" if scheme == "leave_iid_out" else "-1.0000"
    assert all(row[3] == gap for row in rows)


def test_stage_memory_smoke(capsys):
    main = runpy.run_path(str(ROOT / "scripts" / "stage_memory.py"))["main"]
    assert main(["--fid", "sphere", "--d", "3", "--n", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sphere d=3 n=60 seed=0: distance matrix")
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [
        "design", "evaluate", "ela_meta", "ela_distr", "dispersion", "information_content", "nearest_better_clustering",
        "fitness_distance_correlation", "knn_cloud", "cloud_to_csv", "rmc", "pca_func",
    ]
    assert all(float(row[1]) > 0.0 and float(row[2]) >= 0.0 and int(row[4]) >= 0 for row in rows)
    # evaluating the sampled design holds a few n x d arrays, less than the n x n matrix
    assert float(rows[1][3]) < 1.0


def test_make_map_gallery_smoke(tmp_path, capsys):
    main = runpy.run_path(str(ROOT / "scripts" / "make_map_gallery.py"))["main"]
    argv = ["--functions", "sphere", "--dimension", "3", "--n", "30", "--resolution", "16",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 6 maps to {tmp_path}/ (manifest.tsv lists fill counts)\n"
    rows = [line.split("\t") for line in (tmp_path / "manifest.tsv").read_text().splitlines()]
    stem = "sphere_d3_i0"
    assert [name for name, _ in rows] == [
        f"{stem}_{part}.pgm" for part in ("raw", "c0_1", "c0_2", "c1_2", "mean", "pca")
    ]
    # the stack's channels carry no fill count; the others have filled pixels
    assert [fill == "" for _, fill in rows] == [False, True, True, True, False, False]
    assert all(int(fill) > 0 for _, fill in rows if fill)
    assert sorted(p.name for p in tmp_path.glob("*.pgm")) == sorted(name for name, _ in rows)
    assert all(p.read_bytes().startswith(b"P5\n16 16\n255\n") for p in tmp_path.glob("*.pgm"))
