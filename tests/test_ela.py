"""Landscape features: surrogate fits, distribution, dispersion, information
content, nearest-better clustering, fitness-distance correlation."""

from __future__ import annotations

import json
import math
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from landsel import ela, space
from landsel.ela import (
    _canonical_order,
    _deletion_states,
    _entropy_terms,
    _greedy_tour,
    _kde_density,
    _nearest_better,
    _quartiles,
    compute_all,
    dispersion,
    ela_distr,
    ela_meta,
    feature_names,
    fit_least_squares,
    fitness_distance_correlation,
    information_content,
    nearest_better_clustering,
)
from landsel.preprocess import preprocess_pipeline
from landsel.sampling import Design, create_initial_design, design_from_csv, design_to_csv, evaluate_design
from landsel.space import BUILTIN_FUNCTIONS, builtin_problem

from conftest import make_processed, tied_lattice, traced_peak

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_fixed_parameters_are_pinned():
    levels = ela._EPSILON_LEVELS
    assert levels.tobytes() == np.array([0.0, *np.logspace(-5.0, 15.0, 1000)]).tobytes()
    assert not levels.flags.writeable
    assert ela._QUANTILES == (0.02, 0.05, 0.10, 0.25)
    assert ela._SETTLING_THRESHOLD == 0.05
    assert ela._KDE_GRID_POINTS == 512
    assert len([name for name in feature_names() if name.startswith("disp.")]) == 16


class TestFitLeastSquares:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        Z = rng.random((30, 3))
        y = rng.random(30)
        fit = fit_least_squares(Z, y)
        A = np.column_stack([np.ones(30), Z])
        beta = np.linalg.solve(A.T @ A, A.T @ y)
        assert abs(fit.intercept - beta[0]) < 1e-10
        assert np.allclose(fit.coefficients, beta[1:], atol=1e-10)
        resid = y - A @ beta
        sst = float(np.sum((y - y.mean()) ** 2))
        assert abs(fit.adjusted_r2 - (1 - float(resid @ resid) / sst * 29 / 26)) < 1e-10

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(2)
        Z = rng.random((25, 2))
        y = 2.0 * Z[:, 0] + 3.0 * Z[:, 1]
        fit = fit_least_squares(Z, y)
        assert np.allclose(fit.coefficients, [2.0, 3.0], atol=1e-9)
        assert abs(fit.intercept) < 1e-9
        assert fit.adjusted_r2 > 1 - 1e-12

    def test_dependent_columns_take_the_minimum_norm(self):
        rng = np.random.default_rng(3)
        z = rng.random(20)
        Z = np.column_stack([z, 2.0 * z])
        fit = fit_least_squares(Z, rng.random(20))
        assert fit.coefficients[1] == pytest.approx(2.0 * fit.coefficients[0], rel=1e-10)

    def test_constant_response(self):
        Z = np.random.default_rng(4).random((10, 1))
        fit = fit_least_squares(Z, np.full(10, 0.5))
        assert fit.adjusted_r2 == 1.0 - 9 / 8  # R^2 = 0 at n = 10, p = 1
        assert fit.coefficients.tolist() == [0.0]
        assert fit.intercept == 0.5

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError, match="more rows"):
            fit_least_squares(np.zeros((3, 3)), np.zeros(3))


def linear_case():
    rng = np.random.default_rng(3)
    X = rng.random((60, 2))
    y = 2.0 * X[:, 0] + 3.0 * X[:, 1]
    yn = (y - y.min()) / (y.max() - y.min())
    return make_processed(X, yn)


class TestElaMeta:
    def test_linear_objective(self):
        out = ela_meta(linear_case())
        assert out.values["ela_meta.lin_simple.adj_r2"] == 1.0
        # normalization rescales both coefficients by the same factor, so the
        # magnitude ratio stays 3/2 up to roundoff
        assert out.values["ela_meta.lin_simple.coef.max_by_min"] == pytest.approx(1.5, abs=1e-9)
        assert out.values["ela_meta.lin_w_interact.adj_r2"] == pytest.approx(1.0, abs=1e-9)

    def test_sphere_condition_number(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 2))
        y = ((X - 0.5) ** 2).sum(axis=1)
        yn = (y - y.min()) / (y.max() - y.min())
        out = ela_meta(make_processed(X, yn))
        assert out.values["ela_meta.quad_simple.cond"] == pytest.approx(1.0, abs=1e-6)
        assert out.values["ela_meta.quad_simple.adj_r2"] == pytest.approx(1.0, abs=1e-9)

    def test_small_sample_goes_missing(self):
        X = np.random.default_rng(0).random((3, 2))
        out = ela_meta(make_processed(X, np.array([0.0, 0.5, 1.0])))
        assert out.values["ela_meta.lin_simple.adj_r2"] is None
        assert out.reasons["ela_meta.lin_simple.adj_r2"] == "insufficient_sample"

    def test_constant_objective_zero_coefficients(self):
        X = np.random.default_rng(5).random((30, 2))
        out = ela_meta(make_processed(X, np.zeros(30)))
        assert out.values["ela_meta.lin_simple.coef.max_by_min"] is None
        assert out.reasons["ela_meta.lin_simple.coef.max_by_min"] == "zero_coefficient"


def lstsq_interaction_r2(pd):
    """Oracle for the two interaction features: adjusted R^2 of minimum-norm
    ``lstsq`` fits on [1, X, inter] and [1, X, X**2, inter], p counting
    every column; None when n <= p + 1."""
    X, y = pd.matrix, pd.objective
    n, d = X.shape
    inter = [X[:, i] * X[:, j] for i in range(d) for j in range(i + 1, d)]
    out = []
    for Z in (np.column_stack([X, *inter]), np.column_stack([X, X**2, *inter])):
        p = Z.shape[1]
        if n <= p + 1:
            out.append(None)
            continue
        A = np.column_stack([np.ones(n), Z])
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        sst = float(np.sum((y - y.mean()) ** 2))
        r2 = 0.0 if sst == 0.0 else 1.0 - float(np.sum((y - A @ beta) ** 2)) / sst
        out.append(1.0 - (1.0 - r2) * (n - 1) / (n - p - 1))
    return out


def interaction_deviation(pd) -> float:
    """Largest |ela_meta - oracle| over the two interaction adjusted R^2
    values; both must be missing exactly when the oracle's are."""
    values = ela_meta(pd).values
    got = [values["ela_meta.lin_w_interact.adj_r2"], values["ela_meta.quad_w_interact.adj_r2"]]
    expected = lstsq_interaction_r2(pd)
    assert [g is None for g in got] == [e is None for e in expected]
    return max((abs(g - e) for g, e in zip(got, expected) if g is not None), default=0.0)


def builtin_processed(fid: str, d: int, n: int, seed: int, repeats: int = 0):
    problem = builtin_problem(fid, seed % 5, d)
    pd = preprocess_pipeline(evaluate_design(problem, create_initial_design(problem.space, n, seed=seed)))
    if repeats:
        rows = np.random.default_rng(seed).integers(0, n, repeats)
        pd = make_processed(np.vstack([pd.matrix, pd.matrix[rows]]),
                            np.concatenate([pd.objective, pd.objective[rows]]))
    return pd


class TestInteractionBufferCap:
    def test_refused_before_the_buffer_is_allocated(self, monkeypatch):
        rng = np.random.default_rng(3)
        pd = make_processed(rng.random((30, 3)), rng.random(30))
        # rows 1, three columns, three products, three squares and y: 11 x 30
        monkeypatch.setattr(space, "MAX_BYTES", 8 * 11 * 30)
        assert ela.ela_meta(pd).values["ela_meta.quad_w_interact.adj_r2"] is not None

        def no_allocation(*args, **kwargs):
            raise AssertionError("the interaction buffer was allocated")

        monkeypatch.setattr(ela.np, "empty", no_allocation)
        monkeypatch.setattr(space, "MAX_BYTES", 8 * 11 * 30 - 1)
        with pytest.raises(ValueError, match="^n = 30 rows of 11 interaction columns need 1 MiB, over the 0 MiB cap$"):
            ela.ela_meta(pd)


@pytest.fixture(params=["dgeqrf", "np.linalg.qr"])
def qr_branch(request, monkeypatch):
    """Each branch of ``ela._householder``: numpy's OpenBLAS ``dgeqrf`` in
    place, and ``np.linalg.qr`` as in builds without that library."""
    if request.param == "np.linalg.qr":
        monkeypatch.setattr(ela, "_openblas", lambda: None)
    return request.param


def mixed_digest_design(encoding: str, n: int):
    """The mixed design of ``scripts/output_digest.py``, seed 0, processed."""
    mixed_problem = runpy.run_path(str(SCRIPTS / "output_digest.py"))["mixed_problem"]
    problem = mixed_problem(0)
    design = evaluate_design(problem, create_initial_design(problem.space, n, seed=0))
    return preprocess_pipeline(design, encoding=encoding)


@pytest.mark.usefixtures("qr_branch")
class TestInteractionFitsMatchLstsq:
    """``lin_w_interact`` and ``quad_w_interact`` come from one QR; an
    ``lstsq`` fit per design is the reference."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_continuous_builtins(self, d):
        p_lin, p_quad = d + d * (d - 1) // 2, 2 * d + d * (d - 1) // 2
        for i, n in enumerate((p_lin + 2, p_quad + 2, p_quad + 9, 3 * p_quad + 5)):
            fid = BUILTIN_FUNCTIONS[(d + i) % len(BUILTIN_FUNCTIONS)]
            assert interaction_deviation(builtin_processed(fid, d, n, seed=10 * d + i)) <= 1e-12
            repeated = builtin_processed(fid, d, n, seed=10 * d + i, repeats=max(1, n // 4))
            assert interaction_deviation(repeated) <= 1e-12

    @pytest.mark.parametrize(("encoding", "n"), [("one_hot", 300), ("target", 300), ("one_hot", 1200)])
    def test_mixed_digest_design(self, encoding, n):
        # one-hot indicators sum to the intercept, x**2 == x on them and two
        # indicators of one variable multiply to zero: 456 of the 1176
        # columns collapse at n = 1200
        assert interaction_deviation(mixed_digest_design(encoding, n)) <= 1e-12

    def test_dependent_columns(self):
        rng = np.random.default_rng(21)
        x = rng.random((60, 2))
        binary = (rng.random(60) < 0.4).astype(float)
        X = np.column_stack([x, x[:, 0], np.zeros(60), binary])  # duplicate, zero, 0/1
        y = rng.random(60)
        y = (y - y.min()) / (y.max() - y.min())
        assert interaction_deviation(make_processed(X, y)) <= 1e-12

    def test_near_collinear_column_is_kept(self):
        # x3 is x0 moved by at most 1e-2, so x3**2 lies within about 1e-4 of
        # the span of x0**2 and x0*x3; closer copies leave the problem so
        # ill-conditioned that lstsq itself is no 1e-12 reference
        rng = np.random.default_rng(22)
        x = rng.random((80, 3))
        X = np.column_stack([x, 0.99 * x[:, 0] + 0.01 * rng.random(80)])
        y = np.sin(5.0 * X[:, 3]) + x[:, 1]
        y = (y - y.min()) / (y.max() - y.min())
        pd = make_processed(X, y)
        assert interaction_deviation(pd) <= 1e-12
        # dropping the near copy would change the fit
        values = ela_meta(pd).values
        without = lstsq_interaction_r2(make_processed(np.column_stack([x, x[:, 0]]), y))
        assert abs(values["ela_meta.quad_w_interact.adj_r2"] - without[1]) > 1e-9

    def test_rank_cut_side_is_pinned(self):
        # x3 is x0 moved by at most 1e-5: the pivot of x3**2 sits at about
        # 1.6e-11 of its norm, under _COLLAPSE_TOL, so that column is
        # dropped; any change to how the fit's columns are built or factored
        # that moves it across the cut changes these bits
        rng = np.random.default_rng(22)
        x = rng.random((80, 3))
        X = np.column_stack([x, (1 - 1e-5) * x[:, 0] + 1e-5 * rng.random(80)])
        y = np.sin(5.0 * X[:, 3]) + x[:, 1]
        values = ela_meta(make_processed(X, (y - y.min()) / (y.max() - y.min()))).values
        assert values["ela_meta.lin_w_interact.adj_r2"].hex() == "0x1.d40e360bfae36p-1"
        assert values["ela_meta.quad_w_interact.adj_r2"].hex() == "0x1.ddc2bd72b9c68p-1"

    def test_constant_objective(self):
        X = np.random.default_rng(23).random((30, 3))
        assert interaction_deviation(make_processed(X, np.zeros(30))) == 0.0

    @pytest.mark.parametrize(("d", "n", "seed"), [(1, 12, 0), (3, 40, 1), (6, 90, 2), (12, 300, 3)])
    def test_simple_fits_are_fit_least_squares(self, d, n, seed):
        pd = builtin_processed("rastrigin", d, n, seed)
        X, y = pd.matrix, pd.objective
        lin, quad = fit_least_squares(X, y), fit_least_squares(np.column_stack([X, X**2]), y)
        mags, qmags = np.abs(lin.coefficients), np.abs(quad.coefficients[d:])
        expected = {
            "ela_meta.lin_simple.adj_r2": lin.adjusted_r2,
            "ela_meta.lin_simple.intercept": lin.intercept,
            "ela_meta.lin_simple.coef.min": float(mags.min()),
            "ela_meta.lin_simple.coef.max": float(mags.max()),
            "ela_meta.lin_simple.coef.max_by_min": float(mags.max()) / float(mags.min()),
            "ela_meta.quad_simple.adj_r2": quad.adjusted_r2,
            "ela_meta.quad_simple.cond": float(qmags.max()) / float(qmags.min()),
        }
        values = ela_meta(pd).values
        assert {name: values[name].hex() for name in expected} == {
            name: value.hex() for name, value in expected.items()
        }


class TestInPlaceFactorization:
    """``_householder`` factors the interaction buffer in place with numpy's
    own ``dgeqrf``; its results are those of ``np.linalg.qr``, bit for bit,
    and ``ela_meta`` holds OpenBLAS at one thread."""

    @pytest.mark.parametrize(("n", "k"), [(7, 7), (100, 7), (500, 67), (300, 232)])
    def test_r_equals_numpy_qr_bits(self, n, k):
        A = np.random.default_rng(k).standard_normal((k, n))
        R = np.linalg.qr(A.T, mode="r")
        diagonal, last = ela._householder(A)
        assert np.array_equal(diagonal, np.diagonal(R))
        assert np.array_equal(last, R[:, -1])

    @pytest.mark.parametrize("shape", [(7, 7), (11, 100), (46, 1200), (861, 2000)])
    def test_row_norms_equal_numpy_norm_bits(self, shape):
        rng = np.random.default_rng(shape[0])
        W = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, (shape[0], 1))
        assert np.array_equal(ela._row_norms(W), np.linalg.norm(W, axis=1))

    @pytest.mark.parametrize("case", ["rastrigin-20-1000", "one_hot-300"])
    def test_branches_give_equal_bytes(self, monkeypatch, case):
        # the one-hot design collapses columns, so its buffer is written and
        # factored twice
        pd = builtin_processed("rastrigin", 20, 1000, seed=0) if case.startswith("rastrigin") \
            else mixed_digest_design("one_hot", 300)
        in_place = compute_all(pd).to_json()
        with ela._one_blas_thread():  # np.linalg.qr pins nothing itself
            monkeypatch.setattr(ela, "_openblas", lambda: None)
            assert compute_all(pd).to_json() == in_place

    def test_features_do_not_follow_the_blas_thread_count(self):
        # rastrigin (20, 1000), seed 0: lin_w_interact.adj_r2 differed between
        # one and two OpenBLAS threads while the fits ran unpinned
        code = (
            "from landsel.ela import compute_all\n"
            "from landsel.preprocess import preprocess_pipeline\n"
            "from landsel.sampling import create_initial_design, evaluate_design\n"
            "from landsel.space import builtin_problem\n"
            "p = builtin_problem('rastrigin', 0, 20)\n"
            "print(compute_all(preprocess_pipeline(evaluate_design(p, create_initial_design(p.space, 1000, seed=0)))).to_json())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_thread_count_is_restored(self):
        lib = ela._openblas()
        if lib is None:
            pytest.skip("numpy is not built against OpenBLAS")
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            with pytest.raises(RuntimeError), ela._one_blas_thread():
                assert lib.scipy_openblas_get_num_threads64_() == 1
                raise RuntimeError
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(before)


def whole_grid_density(y, sd):
    """Kernel density of y on the whole 512-by-n grid at once, by the
    bandwidth rule of ``ela_distr``."""
    n = y.size
    q1, q3 = np.quantile(y, (0.25, 0.75))
    iqr = float(q3 - q1)
    scale = sd if iqr == 0.0 else min(sd, iqr / 1.34)
    bandwidth = 0.9 * scale * n ** (-1 / 5)
    grid = np.linspace(0.0, 1.0, ela._KDE_GRID_POINTS)
    z = (grid[:, None] - y[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (n * bandwidth * math.sqrt(2 * math.pi))


class TestElaDistr:
    def test_frozen_moments(self):
        X = np.linspace(0.0, 1.0, 4)
        out = ela_distr(make_processed(X, np.array([0.0, 0.0, 0.0, 1.0])))
        # population estimators: skewness 2/sqrt(3), excess kurtosis -2/3
        assert out.values["ela_distr.skewness"] == 1.1547005383792515
        assert out.values["ela_distr.kurtosis"] == -0.6666666666666665

    def test_symmetric_sample_has_zero_skewness(self):
        X = np.linspace(0.0, 1.0, 5)
        out = ela_distr(make_processed(X, np.array([0.0, 0.25, 0.5, 0.75, 1.0])))
        assert out.values["ela_distr.skewness"] == 0.0

    def test_constant_objective(self):
        X = np.linspace(0.0, 1.0, 6)
        out = ela_distr(make_processed(X, np.zeros(6)))
        assert out.values["ela_distr.skewness"] is None
        assert out.reasons["ela_distr.skewness"] == "zero_variance"
        assert out.values["ela_distr.number_of_peaks"] == 1.0

    def test_bimodal_peak_count_matches_direct_kde(self):
        rng = np.random.default_rng(7)
        y = np.clip(
            np.concatenate([rng.normal(0.06, 0.01, 50), rng.normal(0.94, 0.01, 50)]), 0, 1
        )
        X = np.linspace(0.0, 1.0, 100)
        out = ela_distr(make_processed(X, y))
        # independent density estimate: direct gaussian sum on the same grid
        sd = y.std()
        iqr = np.quantile(y, 0.75) - np.quantile(y, 0.25)
        h = 0.9 * min(sd, iqr / 1.34) * y.size ** (-0.2)
        grid = np.linspace(0.0, 1.0, 512)
        dens = np.exp(-0.5 * ((grid[:, None] - y[None, :]) / h) ** 2).sum(axis=1) / (
            y.size * h * math.sqrt(2 * math.pi)
        )
        expected = int(np.sum((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])))
        assert expected == 2
        assert out.values["ela_distr.number_of_peaks"] == float(expected)

    @pytest.mark.parametrize("n", [4, 5, 100, 8191, 8192, 8193])
    def test_row_blocks_equal_whole_grid_reference(self, n):
        # one row per block from 8192 points on, and a short last block below
        y = np.random.default_rng(n).random(n) ** 3
        sd = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
        assert _kde_density(y, sd).tobytes() == whole_grid_density(y, sd).tobytes()

    def test_quartiles_equal_numpy_quantile_bits(self):
        # every fraction of (n - 1) / 4 and 3 (n - 1) / 4, with ties, a
        # constant vector and magnitudes from 1e-300 to 1e300
        rng = np.random.default_rng(5)
        for n in [*range(4, 301), 1000, 4097, 10001]:
            for y in (rng.random(n), np.round(rng.normal(size=n)), np.full(n, 0.3),
                      rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n)):
                before = y.tobytes()
                assert np.array(_quartiles(y)).tobytes() == np.quantile(y, (0.25, 0.75)).tobytes()
                assert y.tobytes() == before

    def test_zero_iqr_equals_whole_grid_reference(self):
        y = np.zeros(100)
        y[-10:] = np.linspace(0.5, 1.0, 10)
        q1, q3 = np.quantile(y, (0.25, 0.75))
        assert q1 == q3  # the bandwidth falls back to the standard deviation
        sd = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
        assert _kde_density(y, sd).tobytes() == whole_grid_density(y, sd).tobytes()

    def test_tiny_bandwidth_equals_whole_grid_reference(self):
        y = 0.5 + 0.01 * np.random.default_rng(3).random(200)
        sd = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
        density = _kde_density(y, sd)
        # a bandwidth near 1e-3: every term underflows more than 0.04 from y
        assert 0 < np.count_nonzero(density) < 100
        assert density.tobytes() == whole_grid_density(y, sd).tobytes()


class TestDispersion:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        X = rng.random((40, 2))
        y = rng.random(40)
        out = dispersion(make_processed(X, y))
        for q, suffix in ((0.10, "10"), (0.25, "25")):
            k = math.ceil(q * 40)
            best = np.argsort(y, kind="stable")[:k]
            sub = pdist(X[best])
            full = pdist(X)
            assert out.values[f"disp.ratio_mean_{suffix}"] == pytest.approx(
                sub.mean() / full.mean(), abs=1e-12
            )
            assert out.values[f"disp.ratio_median_{suffix}"] == pytest.approx(
                np.median(sub) / np.median(full), abs=1e-12
            )
            assert out.values[f"disp.diff_mean_{suffix}"] == pytest.approx(
                sub.mean() - full.mean(), abs=1e-12
            )
            assert out.values[f"disp.diff_median_{suffix}"] == pytest.approx(
                np.median(sub) - np.median(full), abs=1e-12
            )

    @pytest.mark.parametrize("n", [41, 258, 1102])
    def test_equals_pdist_and_numpy_median(self, n):
        # subsets of up to 256 rows are read through the mask, larger ones
        # and the full sample above 256 rows by row tails; the pair counts
        # are odd and even
        rng = np.random.default_rng(n)
        pd = make_processed(rng.random((n, 3)), rng.random(n))
        out = dispersion(pd)
        full = squareform(pd.distances, checks=False)
        order = np.argsort(pd.objective, kind="stable")
        for q in ela._QUANTILES:
            best = order[: math.ceil(q * n)]
            if best.size < 2:
                continue
            sub = squareform(pd.distances[np.ix_(best, best)], checks=False)
            ratio_mean, ratio_median, diff_mean, diff_median = ela._quantile_names(q)
            assert out.values[ratio_mean] == sub.mean() / full.mean()
            assert out.values[ratio_median] == np.median(sub) / np.median(full)
            assert out.values[diff_mean] == sub.mean() - full.mean()
            assert out.values[diff_median] == np.median(sub) - np.median(full)

    def test_names_cover_all_quantiles(self):
        names = ela._DISP_NAMES
        assert len(names) == 16
        assert names[0] == "disp.ratio_mean_02"
        assert names[-1] == "disp.diff_median_25"

    def test_tiny_subset_goes_missing(self):
        rng = np.random.default_rng(12)
        out = dispersion(make_processed(rng.random((20, 2)), rng.random(20)))
        # ceil(0.02 * 20) = 1 point: no pairwise distances in the subset
        assert out.values["disp.ratio_mean_02"] is None
        assert out.reasons["disp.ratio_mean_02"] == "subset_too_small"
        assert out.values["disp.ratio_mean_25"] is not None

    def test_identical_points_ratios_missing(self):
        X = np.zeros((10, 2))
        out = dispersion(make_processed(X, np.linspace(0, 1, 10)))
        assert out.values["disp.ratio_mean_25"] is None
        assert out.reasons["disp.ratio_mean_25"] == "zero_distances"
        # differences stay defined: 0 - 0
        assert out.values["disp.diff_mean_25"] == 0.0

    def test_sphere_best_points_cluster(self):
        rng = np.random.default_rng(13)
        X = rng.random((500, 2))
        y = ((X - 0.5) ** 2).sum(axis=1)
        yn = (y - y.min()) / (y.max() - y.min())
        out = dispersion(make_processed(X, yn))
        assert out.values["disp.ratio_mean_05"] < 1.0

    def test_pure_noise_ratio_near_one(self):
        rng = np.random.default_rng(14)
        X = rng.random((500, 2))
        out = dispersion(make_processed(X, rng.random(500)))
        assert abs(out.values["disp.ratio_mean_25"] - 1.0) < 0.15


def oracle_tour(X, seed):
    """Seeded nearest-neighbor tour from scipy distances: the same random start
    as the library, then the nearest unvisited row, ties to the lowest index."""
    n = X.shape[0]
    dm = cdist(X, X)
    visited = np.zeros(n, dtype=bool)
    current = int(np.random.default_rng(seed).integers(n))
    order = [current]
    visited[current] = True
    for _ in range(n - 1):
        current = int(np.argmin(np.where(visited, np.inf, dm[current])))
        order.append(current)
        visited[current] = True
    return np.array(order)


def pair_counts(symbols):
    """3x3 counts of consecutive symbol pairs, indexed by symbol + 1."""
    counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for a, b in zip(symbols[:-1], symbols[1:]):
        counts[a + 1][b + 1] += 1
    return counts


def entropy_from_counts(counts, total):
    """-sum over unequal symbol pairs of p * log6 p."""
    terms = _entropy_terms(total)
    h = 0.0
    for a in range(3):
        for b in range(3):
            if a != b:
                h -= terms[counts[a][b]]
    return h


def ic_scan(pd, seed=0):
    """Brute-force (epsilon, H, M) arrays behind the information-content
    features, epsilon zero first: every level recomputed from scratch."""
    canon = _canonical_order(pd.matrix, pd.objective)
    X = pd.matrix[canon]
    y = pd.objective[canon]
    n = X.shape[0]
    tour = oracle_tour(X, seed)
    steps = np.diff(X[tour], axis=0)
    lengths = np.sqrt((steps**2).sum(axis=1))
    dy = np.diff(y[tour])
    keep = lengths > 0.0
    phi = dy[keep] / lengths[keep]
    grid = ela._EPSILON_LEVELS
    h = np.empty(grid.size)
    mvals = np.empty(grid.size)
    for gi, eps in enumerate(grid):
        symbols = np.where(np.abs(phi) > eps, np.sign(phi), 0.0).astype(int)
        h[gi] = entropy_from_counts(pair_counts(symbols.tolist()), symbols.size - 1)
        nz = symbols[symbols != 0]
        runs = 0 if nz.size == 0 else 1 + int(np.count_nonzero(nz[1:] != nz[:-1]))
        mvals[gi] = runs / (n - 1)
    return grid, h, mvals


def ic_summarize(grid, h, m, threshold=0.05):
    """Derive the five summary features from a raw scan, by the stated rules."""
    out = {}
    out["ic.h.max"] = float(h.max())
    m0 = float(m[0])
    out["ic.m0"] = m0
    positive, h_pos, m_pos = grid[1:], h[1:], m[1:]
    settled = np.nonzero(h_pos < threshold)[0]
    out["ic.eps.s"] = None if settled.size == 0 else math.log10(positive[settled[0]])
    argmax = int(np.argmax(h))
    out["ic.eps.max"] = None if argmax == 0 else math.log10(grid[argmax])
    half = np.nonzero(m_pos <= m0 / 2.0)[0]
    out["ic.eps.ratio"] = None if half.size == 0 else math.log10(positive[half[0]])
    return out


def brute_deletion_states(phi, events, n):
    """H and M after each prefix of ``events``, every state recomputed from
    the zeroed symbol string."""
    h, m = [], []
    for k in range(len(events) + 1):
        symbols = np.sign(phi).astype(int)
        symbols[events[:k]] = 0
        h.append(entropy_from_counts(pair_counts(symbols.tolist()), symbols.size - 1))
        nz = symbols[symbols != 0]
        runs = 0 if nz.size == 0 else 1 + int(np.count_nonzero(nz[1:] != nz[:-1]))
        m.append(runs / (n - 1))
    return h, m


# Slope arrays built from runs of one sign (zero included), each slope's
# magnitude drawn from a few values, so magnitudes repeat and runs are long.
RUN_MAGNITUDES = st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=9)
SLOPE_RUNS = st.lists(
    st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), RUN_MAGNITUDES), min_size=1, max_size=8
).map(lambda runs: np.array([sign * mag for sign, mags in runs for mag in mags]))


class TestInformationContent:
    @given(SLOPE_RUNS, st.randoms(use_true_random=False))
    def test_deletion_states_equal_per_state_brute_force(self, phi, rnd):
        # the feature's order (|phi| ascending, ties by index) and an
        # arbitrary order of the nonzero slopes
        mags = np.abs(phi)
        by_magnitude = [i for i in np.argsort(mags, kind="stable").tolist() if mags[i] > 0]
        shuffled = rnd.sample(by_magnitude, len(by_magnitude))
        n = phi.size + 1
        for events in (by_magnitude, shuffled):
            assert _deletion_states(phi, events, n) == brute_deletion_states(phi, events, n)

    def test_alternating_signs(self):
        # a strictly alternating slope sequence realizes the maximal
        # two-symbol entropy log6(2); seed 23 starts the tour at the left end
        X = np.linspace(0.0, 1.0, 12)
        y = np.tile([0.0, 1.0], 6)
        out = information_content(make_processed(X, y), seed=23)
        assert abs(out.values["ic.h.max"] - math.log(2) / math.log(6)) < 1e-9
        assert out.values["ic.m0"] == 1.0

    def test_monotone_slope(self):
        X = np.linspace(0.0, 1.0, 12)
        out = information_content(make_processed(X, X.copy()), seed=23)
        assert out.values["ic.h.max"] == 0.0
        assert out.values["ic.m0"] == 1.0 / 11.0
        # entropy is already below the threshold at the grid's smallest epsilon
        assert out.values["ic.eps.s"] == -5.0
        assert out.values["ic.eps.max"] is None
        assert out.reasons["ic.eps.max"] == "maximum_at_zero"

    def test_constant_objective(self):
        X = np.linspace(0.0, 1.0, 10)
        out = information_content(make_processed(X, np.zeros(10)))
        assert out.values["ic.h.max"] == 0.0
        assert out.values["ic.m0"] == 0.0

    @staticmethod
    def assert_matches_brute_force(pd, seeds=range(5)):
        # the feature path scans deletion events; ic_scan recomputes every
        # epsilon level from scratch — both must agree bit for bit
        for seed in seeds:
            out = information_content(pd, seed=seed)
            grid, h, m = ic_scan(pd, seed=seed)
            derived = ic_summarize(grid, h, m, ela._SETTLING_THRESHOLD)
            for name, expected in derived.items():
                assert out.values[name] == expected, (seed, name)

    @pytest.mark.parametrize("seed", range(4))
    def test_tour_on_tied_lattice_equals_oracle(self, seed):
        pd = tied_lattice()
        canon = _canonical_order(pd.matrix, pd.objective)
        tour = _greedy_tour(pd.distances, canon, seed)
        assert tour.tolist() == oracle_tour(pd.matrix[canon], seed).tolist()

    def test_incremental_scan_equals_brute_force(self):
        rng = np.random.default_rng(21)
        X = rng.random((40, 2))
        y = rng.random(40)
        self.assert_matches_brute_force(make_processed(X, y), seeds=(3,))

    def test_event_scan_with_tied_slopes(self):
        # steps of exactly 1/32 and objective steps of exactly 1/4: every
        # |phi| along the line is 8, so many deletion events share one level
        X = np.arange(33) / 32
        y = np.tile([0.0, 0.25, 0.5, 0.25], 9)[:33]
        self.assert_matches_brute_force(make_processed(X, y))

    def test_event_scan_with_zero_slopes(self):
        rng = np.random.default_rng(24)
        X = rng.random((40, 2))
        y = rng.random(40)
        y[5:25] = 0.5  # a constant stretch gives slopes that are zero at epsilon zero
        self.assert_matches_brute_force(make_processed(X, y))

    def test_event_scan_with_duplicate_rows(self):
        rng = np.random.default_rng(25)
        X = rng.random((20, 2))
        y = rng.random(20)
        pd = make_processed(np.vstack([X, X[:12]]), np.concatenate([y, y[:12]]))
        self.assert_matches_brute_force(pd)

    @staticmethod
    def use_levels(monkeypatch, *positive):
        levels = np.array([0.0, *positive])
        levels.setflags(write=False)
        monkeypatch.setattr(ela, "_EPSILON_LEVELS", levels)

    def test_epsilon_equal_to_a_slope_deletes_it(self, monkeypatch):
        # |phi| takes the values 8, 16, 24 and 32 exactly; a level equal to a
        # slope magnitude turns that slope into a zero symbol (|phi| > eps fails)
        rng = np.random.default_rng(26)
        X = np.arange(33) / 32
        y = rng.integers(0, 5, 33) / 4
        self.use_levels(monkeypatch, 1.0, 8.0, 16.0, 24.0, 32.0, 64.0)
        self.assert_matches_brute_force(make_processed(X, y))
        # all slopes tie at 8: H is positive below 8 and zero from 8 on
        tied = make_processed(X, np.tile([0.0, 0.25, 0.5, 0.25], 9)[:33])
        self.use_levels(monkeypatch, 7.0, 8.0)
        out = information_content(tied, seed=23)
        assert out.values["ic.eps.s"] == math.log10(8.0)

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(22)
        X = rng.random((30, 2))
        y = rng.random(30)
        perm = rng.permutation(30)
        a = information_content(make_processed(X, y), seed=0)
        b = information_content(make_processed(X[perm], y[perm]), seed=0)
        assert a.values == b.values

    def test_duplicate_points_only(self):
        X = np.zeros((5, 1))
        out = information_content(make_processed(X, np.linspace(0, 1, 5)))
        assert out.values["ic.h.max"] is None
        assert out.reasons["ic.h.max"] == "duplicate_points"

    def test_too_small_sample(self):
        out = information_content(make_processed(np.array([0.0, 1.0]), np.array([0.0, 1.0])))
        assert out.values["ic.m0"] is None
        assert out.reasons["ic.m0"] == "insufficient_sample"


def reference_nearest_better(pd):
    """The full-matrix formulation that ``_nearest_better`` replaced: the
    ranks, then dnn, dnb and nb_target from one masked n-by-n copy."""
    dm = pd.distances.copy()
    np.fill_diagonal(dm, np.inf)
    order = np.argsort(pd.objective, kind="stable")
    rank = np.empty(pd.n, dtype=int)
    rank[order] = np.arange(pd.n)
    masked = np.where(rank[None, :] < rank[:, None], dm, np.inf)
    return rank, dm.min(axis=1), masked.min(axis=1), masked.argmin(axis=1)


class TestNearestBetterClustering:
    @pytest.mark.parametrize("build", [
        tied_lattice,
        lambda: make_processed(np.random.default_rng(33).random((300, 3)), np.random.default_rng(34).random(300)),
        lambda: builtin_processed("rastrigin", 10, 500, seed=4, repeats=60),
    ], ids=["tied_lattice", "random", "repeated_rastrigin"])
    def test_row_blocks_equal_full_matrix_reference(self, build):
        pd = build()
        rank, dnn, dnb, nb_target = reference_nearest_better(pd)
        got = _nearest_better(pd, rank)
        assert [a.tobytes() for a in got] == [dnn.tobytes(), dnb.tobytes(), nb_target.astype(np.intp).tobytes()]

    def test_equispaced_line(self):
        X = np.array([0.0, 0.25, 0.5, 0.75])
        y = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        out = nearest_better_clustering(make_processed(X, y))
        assert out.values["nbc.nn_nb.mean_ratio"] == 1.0
        assert out.values["nbc.nn_nb.sd_ratio"] is None
        assert out.reasons["nbc.nn_nb.sd_ratio"] == "zero_variance"
        assert out.values["nbc.nn_nb.cor"] is None
        assert out.values["nbc.dist_ratio.coeff_var"] == 0.0
        # indegrees (1, 1, 1, 0) against rising fitness: r = -sqrt(3/5)
        assert out.values["nbc.nb_fitness.cor"] == -0.7745966692414834

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        X = rng.random((25, 2))
        y = rng.random(25)
        out = nearest_better_clustering(make_processed(X, y))
        dm = cdist(X, X)
        np.fill_diagonal(dm, np.inf)
        order = np.argsort(y, kind="stable")
        rank = np.empty(25, dtype=int)
        rank[order] = np.arange(25)
        dnn, dnb = [], []
        for i in range(25):
            if rank[i] == 0:
                continue
            better = [j for j in range(25) if rank[j] < rank[i]]
            dnn.append(dm[i].min())
            dnb.append(dm[i, better].min())
        dnn, dnb = np.array(dnn), np.array(dnb)
        assert out.values["nbc.nn_nb.mean_ratio"] == pytest.approx(
            dnn.mean() / dnb.mean(), abs=1e-12
        )
        assert out.values["nbc.nn_nb.sd_ratio"] == pytest.approx(
            np.std(dnn, ddof=1) / np.std(dnb, ddof=1), abs=1e-12
        )

    def test_constant_objective(self):
        rng = np.random.default_rng(32)
        out = nearest_better_clustering(make_processed(rng.random((10, 2)), np.full(10, 0.5)))
        assert out.values["nbc.nn_nb.mean_ratio"] is None
        assert out.reasons["nbc.nn_nb.mean_ratio"] == "constant_objective"

    def test_duplicate_points_coeff_var_missing(self):
        X = np.array([0.0, 0.0, 0.5, 1.0])
        y = np.array([0.0, 0.5, 0.75, 1.0])
        out = nearest_better_clustering(make_processed(X, y))
        assert out.values["nbc.dist_ratio.coeff_var"] is None
        assert out.reasons["nbc.dist_ratio.coeff_var"] == "duplicate_points"


class TestDistanceReadersMemory:
    """Peak traced bytes of each feature set that reads the shared distance
    matrix, as a share of the matrix: none may build a second one.  The
    kernel-density grid of ``ela_distr`` is held to the same scale."""

    @pytest.mark.parametrize(("stage", "share"), [
        (information_content, 0.25),
        (nearest_better_clustering, 0.25),
        (dispersion, 0.55),  # the condensed upper triangle is half the matrix
        (ela_distr, 0.15),  # the 512-by-n grid in blocks of 8Ki elements
    ], ids=["ic", "nbc", "disp", "distr"])
    def test_peak_below_share_of_matrix(self, built_distances, stage, share):
        _, peak = traced_peak(lambda: stage(built_distances))
        assert peak < share * built_distances.distances.nbytes

    def test_interaction_fit_holds_one_design_buffer(self, built_distances):
        n, d = built_distances.matrix.shape
        design_bytes = (2 * d + d * (d - 1) // 2 + 2) * n * 8  # [1, X, products, X**2, y]
        _, peak = traced_peak(lambda: ela_meta(built_distances))
        assert peak < 1.25 * design_bytes  # factored in place: no copy of the buffer


class TestFitnessDistanceCorrelation:
    def test_fitness_equal_to_distance(self):
        X = np.random.default_rng(8).random((50, 2))
        best = 17
        d = np.sqrt(((X - X[best]) ** 2).sum(axis=1))
        y = d / d.max()
        out = fitness_distance_correlation(make_processed(X, y))
        assert out.values["fdc.coef"] == 1.0
        assert out.values["fdc.dist.max"] == d.max()
        assert out.values["fdc.fitness.mean"] == y.mean()

    def test_independent_objective_uncorrelated(self):
        y = np.random.default_rng(9).random(1000)
        X = np.random.default_rng(10).random((1000, 2))
        out = fitness_distance_correlation(make_processed(X, y))
        assert abs(out.values["fdc.coef"]) < 0.1

    def test_coef_never_exceeds_one(self):
        # float rounding may push the raw quotient an ulp past 1; the clamped
        # value must sit at or just under the bound
        X = np.linspace(0.0, 1.0, 20)
        out = fitness_distance_correlation(make_processed(X, X.copy()))
        assert out.values["fdc.coef"] <= 1.0
        assert out.values["fdc.coef"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_objective_coef_missing(self):
        X = np.random.default_rng(33).random((10, 2))
        out = fitness_distance_correlation(make_processed(X, np.zeros(10)))
        assert out.values["fdc.coef"] is None
        assert out.reasons["fdc.coef"] == "zero_variance"
        assert out.values["fdc.dist.mean"] is not None

    def test_covariance_matches_numpy(self):
        rng = np.random.default_rng(34)
        X = rng.random((40, 2))
        y = rng.random(40)
        out = fitness_distance_correlation(make_processed(X, y))
        best = int(np.argmin(y))
        d = np.sqrt(((X - X[best]) ** 2).sum(axis=1))
        assert out.values["fdc.cov"] == pytest.approx(np.cov(y, d)[0, 1], abs=1e-12)


class TestComputeAll:
    def make_pd(self, n=50, width=2, seed=41):
        rng = np.random.default_rng(seed)
        X = rng.random((n, width))
        y = rng.random(n)
        return make_processed(X, y)

    def test_forty_five_features_in_canonical_order(self):
        fv = compute_all(self.make_pd())
        names = feature_names()
        assert len(names) == 45
        assert list(fv.names()) == names
        groups = [n.split(".")[0] for n in names]
        assert groups == (
            ["ela_meta"] * 9 + ["ela_distr"] * 3 + ["disp"] * 16 + ["ic"] * 5
            + ["nbc"] * 5 + ["fdc"] * 7
        )

    def test_deterministic(self):
        a = compute_all(self.make_pd(), seed=0)
        b = compute_all(self.make_pd(), seed=0)
        assert a.values == b.values
        assert a.reasons == b.reasons

    def test_seed_touches_only_the_tour(self):
        a = compute_all(self.make_pd(), seed=0)
        b = compute_all(self.make_pd(), seed=99)
        for name in feature_names():
            if not name.startswith("ic."):
                assert a.values[name] == b.values[name], name

    def test_meta_records_context(self):
        fv = compute_all(self.make_pd(n=30, width=3), seed=7)
        assert fv.meta["n"] == 30
        assert fv.meta["dimension"] == 3
        assert fv.meta["seed"] == 7
        assert fv.meta["set_versions"]["ic"] == "1"

    def test_json_round_trip(self):
        fv = compute_all(self.make_pd(n=12))
        doc = json.loads(fv.to_json())
        assert set(doc) == set(feature_names()) | {"_meta"}
        for name, value in fv.values.items():
            assert doc[name] == value
        assert doc["_meta"]["missing_reasons"] == fv.reasons

    def test_csv_shape(self):
        fv = compute_all(self.make_pd())
        text = fv.to_csv()
        header, row, tail = text.split("\n")
        assert tail == ""
        assert header.split(",") == feature_names()
        cells = row.split(",")
        assert len(cells) == 45
        for name, cell in zip(feature_names(), cells):
            if fv.values[name] is None:
                assert cell == ""
            else:
                assert float(cell) == fv.values[name]


def tiny_design(n: int, tmp_path):
    """An n-row sphere design read back from its CSV, processed: n = 1 comes
    only from a file, since ``create_initial_design`` draws at least two."""
    problem = builtin_problem("sphere", 1, 2)
    X = np.array([[0.5, -1.0], [2.0, 3.5], [-4.0, 1.0]])[:n]
    design = Design(space=problem.space, columns={"x0": X[:, 0], "x1": X[:, 1]})
    path = tmp_path / "tiny.csv"
    design_to_csv(evaluate_design(problem, design), path)
    return preprocess_pipeline(design_from_csv(path))


FEATURE_SETS = {
    "ela_meta": ela_meta,
    "ela_distr": ela_distr,
    "disp": dispersion,
    "ic": information_content,
    "nbc": nearest_better_clustering,
    "fdc": fitness_distance_correlation,
}


class TestDegenerateDesigns:
    @pytest.mark.parametrize("n, defined, reasons", [
        (1, 0, {"insufficient_sample": 45}),
        (2, 0, {"insufficient_sample": 29, "subset_too_small": 16}),
        (3, 16, {"insufficient_sample": 12, "subset_too_small": 16, "maximum_at_zero": 1}),
    ])
    def test_tiny_design_reasons(self, tmp_path, n, defined, reasons):
        """At n = 2 only ``disp`` reads its subsets (all too small); at n = 3
        ``ic``, ``nbc`` and ``fdc`` are defined and the rest are not."""
        fv = compute_all(tiny_design(n, tmp_path))
        assert sum(v is not None for v in fv.values.values()) == defined
        assert dict(Counter(fv.reasons.values())) == reasons
        by_set = {prefix: set() for prefix in FEATURE_SETS}
        for name, reason in fv.reasons.items():
            by_set[name.split(".")[0]].add(reason)
        if n == 2:
            assert by_set["disp"] == {"subset_too_small"}
        if n == 3:
            assert by_set["nbc"] == by_set["fdc"] == set() and by_set["ic"] == {"maximum_at_zero"}

    def test_coincident_points(self):
        out = nearest_better_clustering(make_processed(np.full((5, 2), 0.5), np.linspace(0.0, 1.0, 5)))
        assert {name: out.reasons.get(name) for name in out.names()} == {
            "nbc.nn_nb.mean_ratio": "zero_distances",
            "nbc.nn_nb.sd_ratio": "zero_variance",
            "nbc.nn_nb.cor": "zero_variance",
            "nbc.dist_ratio.coeff_var": "duplicate_points",
            "nbc.nb_fitness.cor": None,
        }

    @pytest.mark.parametrize("build", [
        lambda tmp_path: tiny_design(1, tmp_path),
        lambda tmp_path: tiny_design(2, tmp_path),
        lambda tmp_path: tiny_design(3, tmp_path),
        lambda tmp_path: make_processed(np.full((5, 2), 0.5), np.linspace(0.0, 1.0, 5)),
        lambda tmp_path: make_processed(np.random.default_rng(42).random((20, 3)), np.full(20, 0.5)),
        lambda tmp_path: make_processed(np.random.default_rng(43).random((50, 2)), np.random.default_rng(44).random(50)),
    ], ids=["n1", "n2", "n3", "coincident", "constant_objective", "random"])
    def test_each_set_puts_its_names_in_canonical_order(self, tmp_path, build):
        """``compute_all`` joins the sets as they come, with no re-sort."""
        pd = build(tmp_path)
        for prefix, feature_set in FEATURE_SETS.items():
            block = [name for name in feature_names() if name.split(".")[0] == prefix]
            assert list(feature_set(pd).names()) == block, prefix
