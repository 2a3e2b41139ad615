"""Feature-free landscape representations: fitness maps and fitness clouds.

A fitness map rasterizes two processed decision columns onto an R-by-R pixel
grid: each sample point lands in the pixel floor(x * R) (clamped), carrying
its normalized objective as a gray level where 0 is best; pixel collisions
keep the better (smaller) value and untouched pixels stay empty.  Higher
dimensional samples become a ``MapStack``: one channel per coordinate pair,
lexicographic, held as each point's pixel cells and rasterized only when
read.  A stack can be reduced to a single channel by per-pixel averaging over
those points, or the sample is first projected to two dimensions by PCA
(optionally with the objective as an extra input column).  A fitness cloud
skips rasterization entirely: each sample point is recorded next to its k
nearest neighbors, found in the design's shared distance matrix
``ProcessedDesign.distances``.

The raster cap ``MAX_RASTER_BYTES`` bounds the one float64 grid that a 2-D
raster, a stack channel's read or a reduction allocates, and the C * R * R
bytes of pixels that ``write_stack`` writes for a C-channel stack.

PGM export uses the binary P5 format with maxval 255; filled pixels map to
round(255 * value) so that better is darker (the best possible value black),
and empty pixels are white.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .preprocess import ProcessedDesign, minmax_unit
from .sampling import staged

DEFAULT_RESOLUTION = 224
# Largest float64 pixel buffer one raster call may allocate, and the most
# pixel bytes one ``write_stack`` may write: 1 GiB.  The 780 channels of a
# 40-column design at 224 x 224 write 39 MB.
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


class MapStack(Sequence):
    """A multi-channel fitness map: one channel per column pair (i < j) in
    lexicographic order, kept as every point's pixel cells (``cells``) and
    rasterized when read.  ``channels`` is the stack itself, a sequence of
    ``FitnessMap``s."""

    def __init__(self, pd: ProcessedDesign, cells: np.ndarray, resolution: int):
        self.pd = pd
        self.cells = cells
        self.resolution = resolution
        self.pairs = np.triu_indices(pd.width, 1)  # (i, j) index arrays, lexicographic

    @property
    def channels(self) -> MapStack:
        return self

    def __len__(self) -> int:
        return self.pairs[0].size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        i, j = self.pairs
        return rasterize_2d(self.pd, (int(i[k]), int(j[k])), self.resolution)


def check_raster_size(channels: int, resolution: int, pixel_bytes: int = 8) -> None:
    """Refuse, before anything is allocated or written, ``channels`` R-by-R
    grids of ``pixel_bytes`` per pixel (8 for float64, 1 for a PGM gray
    level) whose pixels would exceed ``MAX_RASTER_BYTES``."""
    need = channels * resolution * resolution * pixel_bytes
    if need > MAX_RASTER_BYTES:
        raise ValueError(
            f"{channels} channel(s) at resolution {resolution} need {need / 2**20:.0f} MiB"
            f" of pixels, over the {MAX_RASTER_BYTES >> 20} MiB raster cap"
        )


def _pixel_cells(coords: np.ndarray, resolution: int) -> np.ndarray:
    """The pixel cell floor(x * R) of every coordinate, 1.0 in the last."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    return np.minimum((coords * resolution).astype(int), resolution - 1)


def _raster(points: np.ndarray, columns: tuple[int, int], objective, resolution: int, channel) -> FitnessMap:
    """Map two columns of ``points`` (in [0, 1]); shared pixels keep the smaller objective."""
    check_raster_size(1, resolution)
    if len(columns) != 2:
        raise ValueError("exactly two columns are required")
    (c0, c1), width = columns, points.shape[1]
    if not (0 <= c0 < width and 0 <= c1 < width) or c0 == c1:
        raise ValueError(f"column pair {columns} invalid for width {width}")
    cells = (_pixel_cells(points[:, c0], resolution), _pixel_cells(points[:, c1], resolution))
    grid = np.full((resolution, resolution), np.nan)
    np.fmin.at(grid, cells, np.asarray(objective, dtype=float))
    return FitnessMap(pixels=grid, resolution=resolution, channel=channel)


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
    return _raster(pd.matrix, columns, pd.objective, resolution, tuple(columns))


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
    return _raster(projection.coordinates, (0, 1), objective, resolution, None)


def multichannel(pd: ProcessedDesign, resolution: int = DEFAULT_RESOLUTION) -> MapStack:
    """One channel per coordinate pair (i < j) in lexicographic order; channel
    (a, b) has the pixels of ``rasterize_2d(pd, (a, b))``, made when read."""
    if pd.width < 2:
        raise ValueError("a multi-channel map needs at least two columns")
    check_raster_size(1, resolution)  # the grid of a read, or of a reduction
    return MapStack(pd, _pixel_cells(pd.matrix, resolution), resolution)


def reduce_mean(stack: MapStack) -> FitnessMap:
    """Average a stack into one channel, treating empty pixels as worst (1).

    A pixel of the reduction is empty only where every channel is empty.  The
    mean is computed relative to the first channel so that identical channels
    reduce to exactly themselves.  Channels are read as points, O(n) each.
    """
    R, cells, values = stack.resolution, stack.cells, stack.pd.objective
    flats = (cells[:, a] * R + cells[:, b] for a, b in zip(*stack.pairs))  # each channel's pixels
    scratch = np.ones(R * R)  # values lie in [0, 1], so fmin against 1 fills empty pixels
    first = next(flats)
    np.fmin.at(scratch, first, values)
    base, base0 = scratch.copy(), scratch[first]
    scratch[first] = 1.0
    all_empty = np.ones(R * R, dtype=bool)
    all_empty[first] = False
    # acc0 sums at the first channel's points; acc elsewhere, where the base is 1
    acc, acc0 = np.zeros(R * R), np.zeros(first.size)
    for flat in flats:
        np.fmin.at(scratch, flat, values)
        # skipping a pixel neither channel fills (its addend 1 - 1 is +0.0) keeps every bit:
        # acc starts at +0.0 and a sum is -0.0 only if both terms are, so acc is never -0.0
        acc0 += scratch[first] - base0
        acc[flat] += scratch[flat] - 1.0
        all_empty[flat] = False
        scratch[flat] = 1.0
    acc[first] = acc0  # replaces the base-1 sums made there
    mean = np.clip(base + acc / len(stack.channels), 0.0, 1.0)
    mean[all_empty] = np.nan
    return FitnessMap(pixels=mean.reshape(R, R), resolution=R, channel=None)


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
    itself is excluded.  Requires 1 <= k < n.  Memory: distances are read
    from the shared matrix ``pd.distances`` in row blocks
    (``distance_blocks``), and no second n-by-n array is allocated.
    """
    n = pd.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n (k={k}, n={n})")
    neighbors = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    for i0, block in pd.distance_blocks():  # a row's own entry is inf, never a neighbor
        # any k smallest entries of a row, sorted by index, then stably by
        # distance; that is argsort(kind="stable")[:k] unless entries tied
        # with the k-th distance were left out, and such rows are redone
        nearest = np.sort(np.argpartition(block, k - 1, axis=1)[:, :k], axis=1)
        by_distance = np.argsort(np.take_along_axis(block, nearest, axis=1), axis=1, kind="stable")
        nearest = np.take_along_axis(nearest, by_distance, axis=1)
        kth = np.take_along_axis(block, nearest[:, -1:], axis=1)
        for r in np.flatnonzero(np.count_nonzero(block <= kth, axis=1) > k).tolist():
            candidates = np.flatnonzero(block[r] <= kth[r])
            nearest[r] = candidates[np.argsort(block[r, candidates], kind="stable")[:k]]
        rows = slice(i0, i0 + len(block))
        neighbors[rows] = nearest
        distances[rows] = np.take_along_axis(block, nearest, axis=1)
    return FitnessCloud(
        points=np.column_stack([pd.matrix, pd.objective]),
        neighbors=neighbors,
        distances=distances,
    )


def cloud_to_csv(cloud: FitnessCloud, path: str | Path) -> None:
    """Write a cloud as CSV, one row per point: x0..x{D'-1},y, then
    n<m>_x*,n<m>_y per neighbor, nearest first.

    Memory: rows are written one at a time through one open file; only each
    point's formatted cells are kept, one string per point.
    """
    width = cloud.points.shape[1] - 1
    k = cloud.neighbors.shape[1]
    header = [f"x{j}" for j in range(width)] + ["y"]
    for m in range(1, k + 1):
        header += [f"n{m}_x{j}" for j in range(width)] + [f"n{m}_y"]
    # each point is formatted once and reused in every row that lists it
    cells = [",".join(map(repr, row)) for row in cloud.points.tolist()]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(cloud.neighbors.tolist()):
            fh.write(",".join([cells[i], *[cells[j] for j in row]]) + "\n")


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
    """Write each channel as <stem>_c<i>_<j>.pgm; returns the paths.  The
    written pixels, one byte each, are refused over the raster cap before the
    first file is opened, and the files are staged together: all are written
    or none."""
    check_raster_size(len(stack.channels), stack.resolution, pixel_bytes=1)
    stem = Path(stem)
    i, j = stack.pairs
    paths = [stem.with_name(f"{stem.name}_c{a}_{b}.pgm") for a, b in zip(i.tolist(), j.tolist())]
    with staged(*paths) as outs:
        for ch, out in zip(stack.channels, outs):
            write_pgm(ch, out)
    return paths
