"""Feature-free landscape representations: fitness maps and fitness clouds.

A fitness map rasterizes two processed decision columns onto an R-by-R pixel
grid: each sample point lands in the pixel floor(x * R) (clamped), carrying
its normalized objective as a gray level where 0 is best; pixel collisions
keep the better (smaller) value and untouched pixels stay empty.  Higher
dimensional samples become multi-channel stacks (one channel per coordinate
pair, lexicographic) that can be reduced to a single channel by per-pixel
averaging, or are first projected to two dimensions by PCA (optionally with
the objective as an extra input column).  A fitness cloud skips rasterization
entirely: each sample point is recorded next to its k nearest neighbors,
found in the design's shared distance matrix ``ProcessedDesign.distances``.

PGM export uses the binary P5 format with maxval 255; filled pixels map to
round(255 * value) so that better is darker (the best possible value black),
and empty pixels are white.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .preprocess import ProcessedDesign, minmax_unit

DEFAULT_RESOLUTION = 224
# Largest float64 pixel buffer one raster call may allocate: 1 GiB.  The
# 780-channel 224 x 224 stack of a 40-column design needs 313 MB.
MAX_RASTER_BYTES = 1 << 30


@dataclass(frozen=True)
class FitnessMap:
    """A single-channel raster: R-by-R float grid, NaN marks empty pixels,
    filled pixels hold normalized objective values in [0, 1] (0 = best)."""

    pixels: np.ndarray
    resolution: int
    channel: tuple[int, int] | None = None

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.shape != (self.resolution, self.resolution):
            raise ValueError("pixel grid must be resolution x resolution")
        filled = px[~np.isnan(px)]
        if filled.size and (filled.min() < 0 or filled.max() > 1):
            raise ValueError("filled pixels must lie in [0, 1]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def non_empty(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.pixels)))


@dataclass(frozen=True)
class MapStack:
    """Channels of a multi-channel fitness map, one per coordinate pair."""

    channels: tuple[FitnessMap, ...]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("a map stack needs at least one channel")
        res = {ch.resolution for ch in self.channels}
        if len(res) != 1:
            raise ValueError("all channels must share one resolution")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def resolution(self) -> int:
        return self.channels[0].resolution


def check_raster_size(channels: int, resolution: int) -> None:
    """Refuse, before anything is allocated, ``channels`` R-by-R float64
    grids whose pixels would exceed ``MAX_RASTER_BYTES``."""
    need = channels * resolution * resolution * 8
    if need > MAX_RASTER_BYTES:
        raise ValueError(
            f"{channels} channel(s) at resolution {resolution} need {need / 2**20:.0f} MiB"
            f" of pixels, over the {MAX_RASTER_BYTES >> 20} MiB raster cap"
        )


def rasterize_2d(
    pd: ProcessedDesign,
    columns: tuple[int, int] = (0, 1),
    resolution: int = DEFAULT_RESOLUTION,
) -> FitnessMap:
    """Rasterize two matrix columns of a processed design onto a pixel grid.

    Pixel (i, j) covers the half-open cell [i/R, (i+1)/R) x [j/R, (j+1)/R);
    coordinates exactly at 1.0 fall into the last cell.  Collisions keep the
    smaller objective value.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    check_raster_size(1, resolution)
    if len(columns) != 2:
        raise ValueError("exactly two columns are required")
    c0, c1 = columns
    if not (0 <= c0 < pd.width and 0 <= c1 < pd.width) or c0 == c1:
        raise ValueError(f"column pair {columns} invalid for width {pd.width}")
    x0 = pd.matrix[:, c0]
    x1 = pd.matrix[:, c1]
    ix = np.minimum((x0 * resolution).astype(int), resolution - 1)
    iy = np.minimum((x1 * resolution).astype(int), resolution - 1)
    grid = np.full((resolution, resolution), np.nan)
    np.fmin.at(grid, (ix, iy), pd.objective)
    return FitnessMap(pixels=grid, resolution=resolution, channel=(c0, c1))


@dataclass(frozen=True)
class PcaProjection:
    """Two-dimensional principal-component scores rescaled to the unit square,
    with the fraction of variance explained by each kept component."""

    coordinates: np.ndarray
    explained: tuple[float, float]

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coordinates must be n x 2")
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)


def pca_project(pd: ProcessedDesign, include_objective: bool = False) -> PcaProjection:
    """Project the processed matrix (optionally plus the objective column)
    onto its top two principal components.

    Columns are centered and unit-scaled (constant columns stay at zero);
    components come from an eigendecomposition of the covariance matrix,
    ordered by descending eigenvalue, each signed so its largest-magnitude
    loading is positive.  Scores are min-max rescaled to [0, 1] per axis.
    """
    data = pd.matrix
    if include_objective:
        data = np.column_stack([data, pd.objective])
    n, width = data.shape
    if width < 2:
        raise ValueError("projection needs at least two input columns")
    if n <= 2:
        raise ValueError("projection needs more than two points")
    centered = data - data.mean(axis=0)
    sds = centered.std(axis=0, ddof=1)
    if np.all(sds == 0.0):
        raise ValueError("all input columns have zero variance")
    scale = np.where(sds == 0.0, 1.0, sds)
    Z = centered / scale
    cov = np.cov(Z, rowvar=False)
    cov = np.atleast_2d(cov)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:2]
    eigvals = np.maximum(eigvals, 0.0)
    total = float(eigvals.sum())
    explained = (float(eigvals[order[0]]) / total, float(eigvals[order[1]]) / total)
    components = eigvecs[:, order]
    for k in range(2):
        v = components[:, k]
        lead = int(np.argmax(np.abs(v)))
        if v[lead] < 0:
            components[:, k] = -v
    scores = Z @ components
    coords = np.column_stack([minmax_unit(scores[:, 0]), minmax_unit(scores[:, 1])])
    return PcaProjection(coordinates=coords, explained=explained)


def rasterize_projection(
    projection: PcaProjection, objective: np.ndarray, resolution: int = DEFAULT_RESOLUTION
) -> FitnessMap:
    """Rasterize PCA coordinates with their objective values."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    check_raster_size(1, resolution)
    coords = projection.coordinates
    ix = np.minimum((coords[:, 0] * resolution).astype(int), resolution - 1)
    iy = np.minimum((coords[:, 1] * resolution).astype(int), resolution - 1)
    grid = np.full((resolution, resolution), np.nan)
    np.fmin.at(grid, (ix, iy), np.asarray(objective, dtype=float))
    return FitnessMap(pixels=grid, resolution=resolution, channel=None)


def multichannel(pd: ProcessedDesign, resolution: int = DEFAULT_RESOLUTION) -> MapStack:
    """One channel per coordinate pair (i < j) in lexicographic order."""
    if pd.width < 2:
        raise ValueError("a multi-channel map needs at least two columns")
    check_raster_size(pd.width * (pd.width - 1) // 2, resolution)
    channels = tuple(
        rasterize_2d(pd, columns=(i, j), resolution=resolution)
        for i, j in itertools.combinations(range(pd.width), 2)
    )
    return MapStack(channels=channels)


def reduce_mean(stack: MapStack) -> FitnessMap:
    """Average a stack into one channel, treating empty pixels as worst (1).

    A pixel of the reduction is empty only where every channel is empty.  The
    mean is computed relative to the first channel so that identical channels
    reduce to exactly themselves.
    """
    first, *rest = (ch.pixels for ch in stack.channels)
    all_empty = np.isnan(first)
    base = np.where(all_empty, 1.0, first)
    acc = np.zeros_like(base)
    for px in rest:
        empty = np.isnan(px)
        acc += np.where(empty, 1.0, px) - base
        all_empty &= empty
    mean = np.clip(base + acc / len(stack.channels), 0.0, 1.0)
    mean[all_empty] = np.nan
    return FitnessMap(pixels=mean, resolution=stack.resolution, channel=None)


# ── fitness clouds ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class FitnessCloud:
    """Every sample point with its k nearest neighbors, as three arrays.

    ``points`` is n x (D' + 1): each row's processed coordinates, then its
    objective.  ``neighbors`` (n x k, intp) holds each row's neighbor indices,
    nearest first, and ``distances`` (n x k) the matching distances.
    """

    points: np.ndarray
    neighbors: np.ndarray
    distances: np.ndarray


def knn_cloud(pd: ProcessedDesign, k: int) -> FitnessCloud:
    """The k nearest neighbors of every sample point.

    Neighbors are ordered by distance, ties broken by row index; the point
    itself is excluded.  Requires 1 <= k < n.  Distances are read from the
    shared matrix ``pd.distances``.
    """
    n = pd.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n (k={k}, n={n})")
    dm = pd.distances
    # a row's distance to itself is exactly 0, its minimum, so the entry at
    # index k of the partitioned row is the k-th smallest distance to another
    # point; every row's k nearest lie among the other entries <= it, and a
    # stable sort of just those gives argsort(kind="stable")[:k]
    kth = np.partition(dm, k, axis=1)[:, k]
    neighbors = np.empty((n, k), dtype=np.intp)
    for i, row in enumerate(dm):
        candidates = np.flatnonzero(row <= kth[i])
        candidates = candidates[candidates != i]
        neighbors[i] = candidates[np.argsort(row[candidates], kind="stable")[:k]]
    return FitnessCloud(
        points=np.column_stack([pd.matrix, pd.objective]),
        neighbors=neighbors,
        distances=np.take_along_axis(dm, neighbors, axis=1),
    )


def cloud_to_csv(cloud: FitnessCloud, path: str | Path) -> None:
    """Write a cloud as CSV, one row per point: x0..x{D'-1},y, then
    n<m>_x*,n<m>_y per neighbor, nearest first."""
    width = cloud.points.shape[1] - 1
    n, k = cloud.neighbors.shape
    header = [f"x{j}" for j in range(width)] + ["y"]
    for m in range(1, k + 1):
        header += [f"n{m}_x{j}" for j in range(width)] + [f"n{m}_y"]
    # each point is formatted once and reused in every row that lists it
    cells = [",".join(map(repr, row)) for row in cloud.points.tolist()]
    rows = np.column_stack([np.arange(n), cloud.neighbors]).tolist()
    lines = [",".join(header)] + [",".join([cells[j] for j in row]) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


# ── PGM export ───────────────────────────────────────────────────────────────


def _to_gray(fmap: FitnessMap) -> np.ndarray:
    """Gray levels for export: better (smaller) objective values render
    darker, the best possible value black; empty pixels render white."""
    px = fmap.pixels
    gray = np.where(np.isnan(px), 255.0, np.rint(255.0 * px))
    return gray.astype(np.uint8)


def write_pgm(fmap: FitnessMap, path: str | Path) -> None:
    """Write one channel as a binary (P5) PGM file, empty pixels white."""
    gray = _to_gray(fmap)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def write_stack(stack: MapStack, stem: str | Path) -> list[Path]:
    """Write each channel as <stem>_c<i>_<j>.pgm; returns the paths."""
    stem = Path(stem)
    paths = []
    for ch in stack.channels:
        if ch.channel is None:
            raise ValueError("stack channels must carry their column pair")
        i, j = ch.channel
        path = stem.with_name(f"{stem.name}_c{i}_{j}.pgm")
        write_pgm(ch, path)
        paths.append(path)
    return paths
