"""Landscape features: surrogate fits, distribution, dispersion, information
content, nearest-better clustering, fitness-distance correlation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from landsel.ela import (
    ElaConfig,
    _canonical_order,
    _entropy_from_counts,
    _pair_counts,
    compute_all,
    dispersion,
    dispersion_feature_names,
    ela_distr,
    ela_meta,
    feature_names,
    fit_least_squares,
    fitness_distance_correlation,
    information_content,
    nearest_better_clustering,
)

from conftest import make_processed


class TestElaConfig:
    def test_defaults(self):
        cfg = ElaConfig()
        assert cfg.dispersion_quantiles == (0.02, 0.05, 0.10, 0.25)
        assert len(cfg.epsilon_grid) == 1000
        assert cfg.epsilon_grid[0] == pytest.approx(1e-5, rel=1e-12)
        assert cfg.settling_threshold == 0.05
        assert cfg.kde_grid_points == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            ElaConfig(dispersion_quantiles=(0.0,))
        with pytest.raises(ValueError):
            ElaConfig(epsilon_grid=(1e-3, 1e-3))
        with pytest.raises(ValueError):
            ElaConfig(epsilon_grid=(-1.0, 1.0))
        with pytest.raises(ValueError):
            ElaConfig(settling_threshold=1.5)
        with pytest.raises(ValueError):
            ElaConfig(kde_grid_points=4)


def test_default_epsilon_grid_is_logspace():
    grid = ElaConfig().epsilon_grid
    assert type(grid) is tuple and all(type(e) is float for e in grid)
    assert grid == tuple(float(x) for x in np.logspace(-5.0, 15.0, 1000))


@pytest.mark.parametrize("grid", [(), (0.0, 1.0), (2.0, 1.0), (1.0, float("nan"))])
def test_invalid_epsilon_grid_rejected(grid):
    with pytest.raises(ValueError):
        ElaConfig(epsilon_grid=grid)


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
        assert abs(fit.r2 - (1 - float(resid @ resid) / sst)) < 1e-10

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(2)
        Z = rng.random((25, 2))
        y = 2.0 * Z[:, 0] + 3.0 * Z[:, 1]
        fit = fit_least_squares(Z, y)
        assert np.allclose(fit.coefficients, [2.0, 3.0], atol=1e-9)
        assert abs(fit.intercept) < 1e-9
        assert fit.r2 > 1 - 1e-12
        assert not fit.rank_deficient

    def test_rank_deficiency_flagged(self):
        rng = np.random.default_rng(3)
        z = rng.random(20)
        Z = np.column_stack([z, 2.0 * z])
        fit = fit_least_squares(Z, rng.random(20))
        assert fit.rank_deficient

    def test_constant_response(self):
        Z = np.random.default_rng(4).random((10, 1))
        fit = fit_least_squares(Z, np.full(10, 0.5))
        assert fit.r2 == 0.0
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

    def test_names_cover_all_quantiles(self):
        names = dispersion_feature_names()
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


def ic_scan(pd, cfg, seed=0):
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
    grid = np.array((0.0,) + cfg.epsilon_grid)
    h = np.empty(grid.size)
    mvals = np.empty(grid.size)
    for gi, eps in enumerate(grid):
        symbols = np.where(np.abs(phi) > eps, np.sign(phi), 0.0).astype(int)
        h[gi] = _entropy_from_counts(_pair_counts(symbols.tolist()), symbols.size - 1)
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


class TestInformationContent:
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
    def assert_matches_brute_force(pd, cfg, seeds=range(5)):
        # the feature path scans deletion events; ic_scan recomputes every
        # epsilon level from scratch — both must agree bit for bit
        for seed in seeds:
            out = information_content(pd, cfg, seed=seed)
            grid, h, m = ic_scan(pd, cfg, seed=seed)
            derived = ic_summarize(grid, h, m, cfg.settling_threshold)
            for name, expected in derived.items():
                assert out.values[name] == expected, (seed, name)

    def test_incremental_scan_equals_brute_force(self):
        rng = np.random.default_rng(21)
        X = rng.random((40, 2))
        y = rng.random(40)
        self.assert_matches_brute_force(make_processed(X, y), ElaConfig(), seeds=(3,))

    def test_event_scan_with_tied_slopes(self):
        # steps of exactly 1/32 and objective steps of exactly 1/4: every
        # |phi| along the line is 8, so many deletion events share one level
        X = np.arange(33) / 32
        y = np.tile([0.0, 0.25, 0.5, 0.25], 9)[:33]
        self.assert_matches_brute_force(make_processed(X, y), ElaConfig())

    def test_event_scan_with_zero_slopes(self):
        rng = np.random.default_rng(24)
        X = rng.random((40, 2))
        y = rng.random(40)
        y[5:25] = 0.5  # a constant stretch gives slopes that are zero at epsilon zero
        self.assert_matches_brute_force(make_processed(X, y), ElaConfig())

    def test_event_scan_with_duplicate_rows(self):
        rng = np.random.default_rng(25)
        X = rng.random((20, 2))
        y = rng.random(20)
        pd = make_processed(np.vstack([X, X[:12]]), np.concatenate([y, y[:12]]))
        self.assert_matches_brute_force(pd, ElaConfig())

    def test_epsilon_equal_to_a_slope_deletes_it(self):
        # |phi| takes the values 8, 16, 24 and 32 exactly; a level equal to a
        # slope magnitude turns that slope into a zero symbol (|phi| > eps fails)
        rng = np.random.default_rng(26)
        X = np.arange(33) / 32
        y = rng.integers(0, 5, 33) / 4
        cfg = ElaConfig(epsilon_grid=(1.0, 8.0, 16.0, 24.0, 32.0, 64.0))
        self.assert_matches_brute_force(make_processed(X, y), cfg)
        # all slopes tie at 8: H is positive below 8 and zero from 8 on
        tied = make_processed(X, np.tile([0.0, 0.25, 0.5, 0.25], 9)[:33])
        out = information_content(tied, ElaConfig(epsilon_grid=(7.0, 8.0)), seed=23)
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


class TestNearestBetterClustering:
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

    def test_custom_quantiles_resize_the_vector(self):
        cfg = ElaConfig(dispersion_quantiles=(0.5,))
        fv = compute_all(self.make_pd(), cfg)
        assert len(fv.names()) == 9 + 3 + 4 + 5 + 5 + 7
