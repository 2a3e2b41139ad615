"""Fitness maps (rasters, stacks, projections, clouds) and PGM export."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from landsel import fitmap
from landsel.fitmap import (
    DEFAULT_RESOLUTION,
    MAX_RASTER_BYTES,
    FitnessMap,
    check_raster_size,
    cloud_to_csv,
    knn_cloud,
    multichannel,
    pca_project,
    rasterize_2d,
    rasterize_projection,
    reduce_mean,
    write_pgm,
    write_stack,
)
from landsel.preprocess import preprocess_pipeline
from landsel.sampling import create_initial_design, evaluate_design
from landsel.space import BUILTIN_FUNCTIONS, builtin_problem

from conftest import evaluate_design_on_mixed, make_processed, tied_lattice, traced_peak


def grid_map(values, resolution=None):
    px = np.asarray(values, dtype=float)
    r = resolution or px.shape[0]
    return FitnessMap(pixels=px, resolution=r)


class TestRasterize2d:
    def test_single_point_lands_in_its_cell(self):
        pd = make_processed(np.array([[0.5, 0.5]]), np.array([0.0]))
        fmap = rasterize_2d(pd, resolution=4)
        assert fmap.non_empty == 1
        assert fmap.pixels[2, 2] == 0.0
        assert np.all(np.isnan(np.delete(fmap.pixels.ravel(), 2 * 4 + 2)))

    def test_default_resolution(self):
        pd = make_processed(np.random.default_rng(0).random((5, 2)), np.linspace(0, 1, 5))
        fmap = rasterize_2d(pd)
        assert DEFAULT_RESOLUTION == 224
        assert fmap.pixels.shape == (224, 224)

    def test_collision_keeps_better_value(self):
        X = np.array([[0.1, 0.1], [0.12, 0.12], [0.9, 0.9]])
        pd = make_processed(X, np.array([0.8, 0.2, 1.0]))
        fmap = rasterize_2d(pd, resolution=4)
        assert fmap.non_empty == 2
        assert fmap.pixels[0, 0] == 0.2

    def test_coordinate_one_clamps_to_last_pixel(self):
        pd = make_processed(np.array([[1.0, 1.0]]), np.array([0.5]))
        fmap = rasterize_2d(pd, resolution=8)
        assert fmap.pixels[7, 7] == 0.5

    def test_non_empty_bounded_by_sample_size(self):
        rng = np.random.default_rng(1)
        pd = make_processed(rng.random((300, 2)), rng.random(300))
        fmap = rasterize_2d(pd, resolution=16)
        assert fmap.non_empty <= 300

    def test_column_pair_validation(self):
        pd = make_processed(np.random.default_rng(2).random((4, 2)), np.linspace(0, 1, 4))
        with pytest.raises(ValueError):
            rasterize_2d(pd, columns=(0, 0))
        with pytest.raises(ValueError):
            rasterize_2d(pd, columns=(0, 2))
        with pytest.raises(ValueError):
            rasterize_2d(pd, resolution=1)


class TestMultichannel:
    def test_channel_per_coordinate_pair(self):
        rng = np.random.default_rng(4)
        pd = make_processed(rng.random((10, 3)), rng.random(10))
        stack = multichannel(pd, resolution=8)
        assert [ch.channel for ch in stack.channels] == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("width,count", [(2, 1), (3, 3), (4, 6), (5, 10)])
    def test_channel_count(self, width, count):
        rng = np.random.default_rng(5)
        pd = make_processed(rng.random((6, width)), rng.random(6))
        assert len(multichannel(pd, resolution=4).channels) == count

    def test_two_columns_equals_plain_raster(self):
        rng = np.random.default_rng(6)
        pd = make_processed(rng.random((20, 2)), rng.random(20))
        stack = multichannel(pd, resolution=16)
        direct = rasterize_2d(pd, resolution=16)
        assert np.array_equal(stack.channels[0].pixels, direct.pixels, equal_nan=True)

    def test_needs_two_columns(self):
        pd = make_processed(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            multichannel(pd)


class TestRasterCap:
    def test_admits_the_40_column_stack(self):
        # C(40, 2) = 780 channels of 224 x 224 float64 pixels: 313 MB
        check_raster_size(780, 224)
        assert 780 * 224 * 224 * 8 < MAX_RASTER_BYTES

    def test_cap_is_inclusive(self):
        side = int((MAX_RASTER_BYTES // 8) ** 0.5)
        check_raster_size(1, side)
        with pytest.raises(ValueError, match="raster cap"):
            check_raster_size(1, side + 1)

    def test_refused_before_any_allocation(self, monkeypatch):
        pd = make_processed(np.random.default_rng(0).random((20, 3)), np.linspace(0, 1, 20))
        projection = pca_project(pd)

        def no_allocation(*args, **kwargs):
            raise AssertionError("a pixel grid was allocated")

        monkeypatch.setattr(fitmap.np, "full", no_allocation)
        with pytest.raises(ValueError, match=r"1 channel\(s\) at resolution 100000 .* raster cap"):
            multichannel(pd, resolution=100_000)
        with pytest.raises(ValueError, match="raster cap"):
            rasterize_2d(pd, resolution=100_000)
        with pytest.raises(ValueError, match="raster cap"):
            rasterize_projection(projection, pd.objective, resolution=100_000)


    def test_write_stack_refused_before_the_first_file(self, tmp_path):
        # 600 columns give 179,700 channels; one 96 x 96 grid is 72 KiB, and
        # reads and reductions are admitted, but the written pixels are 1579 MiB
        rng = np.random.default_rng(18)
        stack = multichannel(make_processed(rng.random((20, 600)), rng.random(20)), 96)
        assert len(stack.channels) == 179_700
        with pytest.raises(ValueError, match=r"179700 channel\(s\) at resolution 96 need 1579 MiB"):
            write_stack(stack, tmp_path / "maps")
        assert list(tmp_path.iterdir()) == []

    def test_write_stack_counts_one_byte_per_written_pixel(self, tmp_path, monkeypatch):
        # 15 channels of 8 x 8 write 960 bytes of pixels, where their float64
        # grids would be 7680 bytes and the one grid a read allocates is 512
        rng = np.random.default_rng(19)
        stack = multichannel(make_processed(rng.random((20, 6)), rng.random(20)), 8)
        monkeypatch.setattr(fitmap, "MAX_RASTER_BYTES", 15 * 8 * 8 - 1)
        with pytest.raises(ValueError, match=r"15 channel\(s\) at resolution 8 need 0 MiB"):
            write_stack(stack, tmp_path / "maps")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(fitmap, "MAX_RASTER_BYTES", 15 * 8 * 8)
        assert len(write_stack(stack, tmp_path / "maps")) == 15

    def test_write_stack_writes_every_file_or_none(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(19)
        stack = multichannel(make_processed(rng.random((20, 4)), rng.random(20)), 8)
        (tmp_path / "maps_c1_3.pgm").mkdir()  # the fifth of six files cannot be written
        with pytest.raises(IsADirectoryError):
            write_stack(stack, tmp_path / "maps")
        assert [p.name for p in tmp_path.iterdir()] == ["maps_c1_3.pgm"]

        def no_raster(*args, **kwargs):
            raise AssertionError("a channel was rasterized")

        monkeypatch.setattr(fitmap, "rasterize_2d", no_raster)
        with pytest.raises(FileNotFoundError, match="missing/maps_c0_1.pgm"):
            write_stack(stack, tmp_path / "missing" / "maps")


def reference_reduce_mean(channels) -> np.ndarray:
    """The dense reduction that the point-wise ``reduce_mean`` replaced: every
    channel's full grid in turn, summed relative to the first channel."""
    first, *rest = (ch.pixels for ch in channels)
    all_empty = np.isnan(first)
    base = np.where(all_empty, 1.0, first)
    acc = np.zeros_like(base)
    for px in rest:
        empty = np.isnan(px)
        acc += np.where(empty, 1.0, px) - base
        all_empty &= empty
    mean = np.clip(base + acc / len(channels), 0.0, 1.0)
    mean[all_empty] = np.nan
    return mean


class TestReferenceReduceMean:
    """The oracle on hand-made grids; ``TestPointBackedStack`` holds
    ``reduce_mean`` to the oracle."""

    def test_identical_channels_reduce_to_themselves(self):
        rng = np.random.default_rng(7)
        px = rng.random((6, 6))
        px[rng.random((6, 6)) < 0.3] = np.nan
        out = reference_reduce_mean((grid_map(px), grid_map(px.copy()), grid_map(px.copy())))
        assert np.array_equal(out, px, equal_nan=True)

    def test_mean_of_zero_and_one(self):
        a = grid_map(np.zeros((3, 3)))
        b = grid_map(np.ones((3, 3)))
        out = reference_reduce_mean((a, b))
        assert np.all(out == 0.5)

    def test_partially_empty_counts_as_worst(self):
        a = grid_map(np.full((2, 2), 0.3))
        b = grid_map(np.full((2, 2), np.nan))
        out = reference_reduce_mean((a, b))
        assert out == pytest.approx(np.full((2, 2), 0.65), abs=1e-12)

    def test_fully_empty_pixels_stay_empty(self):
        a = grid_map(np.full((2, 2), np.nan))
        b = grid_map(np.full((2, 2), np.nan))
        out = reference_reduce_mean((a, b))
        assert np.all(np.isnan(out))


UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


@st.composite
def edge_designs(draw):
    """Small processed designs with the raster edge cases: coordinates of
    exactly 0 and 1, 0/1 (one-hot-like) columns, repeated rows, and a
    constant objective."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(2, 6))
    X = draw(arrays(float, (n, width), elements=UNIT))
    binary = draw(st.integers(0, width))
    X[:, :binary] = np.round(X[:, :binary])
    X = np.concatenate([X, X[: draw(st.integers(0, n))]])
    y = np.zeros(len(X)) if draw(st.booleans()) else draw(arrays(float, len(X), elements=UNIT))
    return make_processed(X, y)


def assert_point_backed_stack_exact(pd, resolution):
    """Every channel equals ``rasterize_2d`` of its pair, and the reduction
    has the dense reference's exact bytes."""
    stack = multichannel(pd, resolution)
    pairs = list(itertools.combinations(range(pd.width), 2))
    assert len(stack.channels) == len(pairs)
    for k, pair in enumerate(pairs):
        ch = stack.channels[k]
        assert ch.channel == pair
        assert ch.pixels.tobytes() == rasterize_2d(pd, pair, resolution).pixels.tobytes()
    expected = reference_reduce_mean(stack).tobytes()
    assert reduce_mean(stack).pixels.tobytes() == expected


class TestPointBackedStack:
    @given(edge_designs(), st.sampled_from([2, 3, 17, 224]))
    @example(make_processed(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]), np.zeros(3)), 2)
    @example(make_processed(np.array([[0.5, 0.0, 1.0], [0.5, 1.0, 0.0]]), np.array([1.0, 0.0])), 3)
    def test_matches_dense_reference(self, pd, resolution):
        assert_point_backed_stack_exact(pd, resolution)

    @pytest.mark.parametrize("fid", BUILTIN_FUNCTIONS)
    @pytest.mark.parametrize("resolution", [8, 224])
    def test_continuous_builtins(self, fid, resolution):
        problem = builtin_problem(fid, 1, 6)
        design = evaluate_design(problem, create_initial_design(problem.space, n=300, seed=3))
        assert_point_backed_stack_exact(preprocess_pipeline(design), resolution)

    @pytest.mark.parametrize("encoding", ["one_hot", "target"])
    @pytest.mark.parametrize("resolution", [2, 3, 16, 224])
    def test_mixed_encodings(self, encoding, resolution):
        pd = preprocess_pipeline(evaluate_design_on_mixed(seed=2), encoding=encoding)
        assert_point_backed_stack_exact(pd, resolution)

    def test_channels_read_like_a_tuple(self):
        rng = np.random.default_rng(14)
        pd = make_processed(rng.random((20, 4)), rng.random(20))
        channels = multichannel(pd, resolution=8).channels
        assert [ch.channel for ch in channels[1:3]] == [(0, 2), (0, 3)]
        assert channels[-1].channel == (2, 3)
        with pytest.raises(IndexError):
            channels[6]


class TestStackMemory:
    def test_largest_reduction_builds_no_stack(self):
        # the dense 780-channel 224 x 224 stack alone would take 313 MB
        rng = np.random.default_rng(15)
        pd = make_processed(rng.random((2000, 40)), rng.random(2000))
        reduced, peak = traced_peak(lambda: reduce_mean(multichannel(pd, 224)))
        assert reduced.non_empty > 0
        assert peak < 16 * 2**20

    def test_multichannel_allocates_no_grid(self):
        rng = np.random.default_rng(16)
        pd = make_processed(rng.random((50, 3)), rng.random(50))
        stack, peak = traced_peak(lambda: multichannel(pd, 4096))
        assert len(stack.channels) == 3
        assert peak < 2**20  # one 4096 x 4096 grid is 128 MiB

    def test_wide_stack_holds_its_pairs_as_two_index_arrays(self):
        # 179,700 pairs: two int64 arrays take 2.74 MiB, a list of tuples 11 MiB
        rng = np.random.default_rng(18)
        pd = make_processed(rng.random((20, 600)), rng.random(20))
        stack, peak = traced_peak(lambda: multichannel(pd, 32))
        assert len(stack.channels) == 179_700
        assert peak < 4 * 2**20

    def test_write_stack_holds_one_grid_at_a_time(self, tmp_path):
        rng = np.random.default_rng(17)
        pd = make_processed(rng.random((200, 12)), rng.random(200))
        paths, peak = traced_peak(lambda: write_stack(multichannel(pd, 224), tmp_path / "m"))
        assert len(paths) == 66
        assert peak < 4 * 224 * 224 * 8  # the dense stack would hold 66 grids


class TestPcaProject:
    def test_line_explains_everything(self):
        t = np.linspace(0.0, 1.0, 30)
        pd = make_processed(np.column_stack([t, t]), t.copy())
        proj = pca_project(pd)
        assert proj.explained == (1.0, 0.0)
        # the projection spreads the line along the first axis
        spread0 = proj.coordinates[:, 0].max() - proj.coordinates[:, 0].min()
        assert spread0 == 1.0

    def test_coordinates_land_in_unit_square(self):
        rng = np.random.default_rng(8)
        pd = make_processed(rng.random((50, 4)), rng.random(50))
        proj = pca_project(pd)
        assert proj.coordinates.min() >= 0.0 and proj.coordinates.max() <= 1.0
        assert proj.coordinates.shape == (50, 2)

    def test_explained_fractions_ordered(self):
        rng = np.random.default_rng(9)
        pd = make_processed(rng.random((80, 5)), rng.random(80))
        proj = pca_project(pd)
        assert proj.explained[0] >= proj.explained[1] >= 0.0
        assert proj.explained[0] + proj.explained[1] <= 1.0 + 1e-12

    def test_objective_column_steers_the_projection(self):
        # duplicating x0's signal in the objective makes it dominate: the
        # first axis tracks x0 and soaks up about two thirds of the variance
        rng = np.random.default_rng(4)
        x1 = rng.random(200)
        x2 = rng.random(200)
        pd = make_processed(np.column_stack([x1, x2]), x1.copy())
        proj = pca_project(pd, include_objective=True)
        corr = abs(np.corrcoef(proj.coordinates[:, 0], x1)[0, 1])
        assert corr > 0.95
        assert abs(proj.explained[0] - 2 / 3) < 0.05

    def test_single_column_rejected(self):
        pd = make_processed(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="two input columns"):
            pca_project(pd)

    def test_all_constant_rejected(self):
        pd = make_processed(np.full((5, 2), 0.5), np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="zero variance"):
            pca_project(pd)

    def test_rasterize_projection(self):
        rng = np.random.default_rng(10)
        pd = make_processed(rng.random((30, 3)), rng.random(30))
        proj = pca_project(pd)
        fmap = rasterize_projection(proj, pd.objective, resolution=16)
        assert fmap.pixels.shape == (16, 16)
        assert 0 < fmap.non_empty <= 30

    @pytest.mark.parametrize("resolution", [-1, 0, 1])
    def test_rasterize_projection_needs_two_pixels_a_side(self, resolution):
        rng = np.random.default_rng(10)
        pd = make_processed(rng.random((30, 3)), rng.random(30))
        with pytest.raises(ValueError, match="resolution must be at least 2"):
            rasterize_projection(pca_project(pd), pd.objective, resolution=resolution)


def reference_cloud_csv(pd, k) -> str:
    """The per-record cloud writer that the columnar ``cloud_to_csv``
    replaced: every row flattens and re-formats all of its k + 1 points, and
    neighbors come from a full stable argsort of scipy's distance matrix."""
    dm = cdist(pd.matrix, pd.matrix)
    np.fill_diagonal(dm, np.inf)
    header = [f"x{j}" for j in range(pd.width)] + ["y"]
    for m in range(1, k + 1):
        header += [f"n{m}_x{j}" for j in range(pd.width)] + [f"n{m}_y"]
    lines = [",".join(header)]
    for i in range(pd.n):
        order = np.argsort(dm[i], kind="stable")[:k]
        parts = [pd.matrix[i], [pd.objective[i]]]
        for j in order:
            parts += [pd.matrix[j], [pd.objective[j]]]
        flat = np.concatenate([np.asarray(p, dtype=float) for p in parts])
        lines.append(",".join(repr(float(v)) for v in flat))
    return "\n".join(lines) + "\n"


def doubled_lattice():
    """A 4 x 4 lattice listed twice: every row has many equal distances, and
    a zero distance to its own duplicate."""
    g = np.arange(4) / 3
    X = np.array([(a, b) for a in g for b in g] * 2)
    return make_processed(X, np.linspace(0.0, 1.0, len(X)))


class TestKnnCloud:
    def test_three_point_line(self):
        X = np.array([0.0, 0.4, 1.0])
        y = np.array([0.0, 0.5, 1.0])
        cloud = knn_cloud(make_processed(X, y), k=1)
        assert cloud.neighbors.tolist() == [[1], [0], [1]]
        assert cloud.points.shape == (3, 2)
        assert cloud.points.tolist() == [[0.0, 0.0], [0.4, 0.5], [1.0, 1.0]]
        assert cloud.distances[0, 0] == 0.4

    def test_distance_tie_prefers_lower_index(self):
        X = np.array([0.5, 0.0, 1.0])
        y = np.array([0.0, 0.5, 1.0])
        cloud = knn_cloud(make_processed(X, y), k=1)
        assert cloud.neighbors[0].tolist() == [1]

    def test_neighbor_distances_non_decreasing(self):
        rng = np.random.default_rng(11)
        pd = make_processed(rng.random((20, 2)), rng.random(20))
        d = knn_cloud(pd, k=5).distances
        assert d.shape == (20, 5)
        assert np.all(d[:, 1:] >= d[:, :-1])

    @pytest.mark.parametrize("build", [doubled_lattice, tied_lattice], ids=["doubled_lattice", "tied_lattice"])
    def test_neighbor_order_equals_full_stable_argsort(self, build):
        # duplicates and equal lattice steps tie many rows at their k-th
        # distance; the 700 rows of tied_lattice span 16 row blocks
        pd = build()
        dm = cdist(pd.matrix, pd.matrix)
        np.fill_diagonal(dm, np.inf)
        order = np.argsort(dm, axis=1, kind="stable")
        for k in sorted({1, 2, 3, 5, 8, 9, pd.n // 2, pd.n - 1}):
            cloud = knn_cloud(pd, k=k)
            assert cloud.neighbors.dtype == np.intp
            assert np.array_equal(cloud.neighbors, order[:, :k]), k
            assert cloud.distances.tobytes() == np.take_along_axis(dm, order[:, :k], axis=1).tobytes()

    def test_k_bounds(self):
        pd = make_processed(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
        with pytest.raises(ValueError):
            knn_cloud(pd, k=0)
        with pytest.raises(ValueError):
            knn_cloud(pd, k=4)

    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(12)
        pd = make_processed(rng.random((6, 2)), rng.random(6))
        cloud = knn_cloud(pd, k=2)
        path = tmp_path / "cloud.csv"
        cloud_to_csv(cloud, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,x1,y,n1_x0,n1_x1,n1_y,n2_x0,n2_x1,n2_y"
        assert len(lines) == 7
        first = np.array([float(c) for c in lines[1].split(",")])
        assert np.array_equal(first, cloud.points[[0, *cloud.neighbors[0]]].ravel())


class TestCloudCsvMatchesPerRecordWriter:
    @staticmethod
    def assert_same_bytes(pd, k, tmp_path):
        path = tmp_path / f"cloud_k{k}.csv"
        cloud_to_csv(knn_cloud(pd, k), path)
        assert path.read_bytes() == reference_cloud_csv(pd, k).encode()

    @pytest.mark.parametrize("k", [1, 3, 31])
    def test_doubled_lattice(self, tmp_path, k):
        self.assert_same_bytes(doubled_lattice(), k, tmp_path)

    @pytest.mark.parametrize("k", [1, 24])
    def test_k_one_and_n_minus_one(self, tmp_path, k):
        rng = np.random.default_rng(13)
        self.assert_same_bytes(make_processed(rng.random((25, 3)), rng.random(25)), k, tmp_path)

    def test_one_hot_mixed_design(self, tmp_path):
        pd = preprocess_pipeline(evaluate_design_on_mixed(seed=5), encoding="one_hot")
        assert pd.width == 5
        for k in (1, 8, pd.n - 1):
            self.assert_same_bytes(pd, k, tmp_path)


class TestCloudMemory:
    """Neither the cloud nor its writer may build an n-by-n array next to
    the shared distance matrix."""

    def test_knn_cloud(self, built_distances):
        cloud, peak = traced_peak(lambda: knn_cloud(built_distances, 8))
        assert cloud.neighbors.shape == (1200, 8)
        assert peak < built_distances.distances.nbytes / 4

    def test_cloud_to_csv(self, built_distances, tmp_path):
        cloud = knn_cloud(built_distances, 8)
        _, peak = traced_peak(lambda: cloud_to_csv(cloud, tmp_path / "cloud.csv"))
        assert peak < built_distances.distances.nbytes / 4


class TestPgmExport:
    def test_byte_layout(self, tmp_path):
        px = np.array([[0.0, 0.5], [np.nan, 1.0]])
        path = tmp_path / "map.pgm"
        write_pgm(grid_map(px), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        body = data[len(b"P5\n2 2\n255\n"):]
        # 0 -> black, 0.5 -> round-half-even 128, empty -> white
        assert list(body) == [0, 128, 255, 255]

    def test_gray_levels_monotone_in_value(self, tmp_path):
        values = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        path = tmp_path / "ramp.pgm"
        write_pgm(grid_map(values), path)
        body = path.read_bytes()[len(b"P5\n4 4\n255\n"):]
        levels = list(body)
        assert levels[0] == 0
        assert levels[-1] == 255
        assert levels == sorted(levels)

    def test_stack_file_naming(self, tmp_path):
        rng = np.random.default_rng(13)
        pd = make_processed(rng.random((8, 3)), rng.random(8))
        stack = multichannel(pd, resolution=4)
        paths = write_stack(stack, tmp_path / "maps")
        assert [p.name for p in paths] == ["maps_c0_1.pgm", "maps_c0_2.pgm", "maps_c1_2.pgm"]
        for p in paths:
            assert p.read_bytes().startswith(b"P5\n4 4\n255\n")


class TestFitnessMapValidation:
    def test_shape_must_match_resolution(self):
        with pytest.raises(ValueError):
            FitnessMap(pixels=np.zeros((2, 3)), resolution=2)

    def test_filled_pixels_must_be_normalized(self):
        with pytest.raises(ValueError):
            FitnessMap(pixels=np.full((2, 2), 1.5), resolution=2)
