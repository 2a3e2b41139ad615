"""Landscape features over processed designs.

Six feature sets, 45 features total, computed exclusively on the processed
(normalized) form of a design so that every feature is invariant to shifting
and scaling of the raw objective:

* ``ela_meta``   (9)  — goodness of fit and coefficient structure of linear and
  quadratic surrogate models, with and without pairwise interactions.  The
  two without interactions are ``np.linalg.lstsq`` fits; the two with them
  share one Householder QR, factored in place in the design buffer, which
  drops every column whose pivot is at most ``_COLLAPSE_TOL`` (1e-10) of its
  norm as spanned by the columns before it.  All four run at one BLAS
  thread, so no feature depends on the thread count.
* ``ela_distr``  (3)  — skewness, excess kurtosis, and modality (kernel-density
  peak count on a 512-point grid) of the objective distribution.  The grid
  is summed in row blocks of at most 8Ki elements; each row is still one
  sum over the same n terms, so the densities are those of the whole grid.
* ``disp``       (16) — dispersion of the best-q fraction of the sample versus
  the full sample, q in (0.02, 0.05, 0.10, 0.25), as ratios and differences
  of mean/median Euclidean pairwise distances.
* ``ic``         (5)  — information content of a seeded nearest-neighbor tour:
  entropy of consecutive slope-symbol pairs over epsilon zero and 1,000
  log-spaced levels from 1e-5 to 1e15, with settling threshold 0.05, plus the
  symbol-string complexity at epsilon zero.
* ``nbc``        (5)  — nearest-better clustering: statistics of
  nearest-neighbor versus nearest-better distances and the in-degree structure
  of the nearest-better digraph.
* ``fdc``        (7)  — fitness-distance correlation to the sample-best point
  and the moments feeding it.

These parameters are fixed module constants (``_QUANTILES``,
``_EPSILON_LEVELS``, ``_SETTLING_THRESHOLD``, ``_KDE_GRID_POINTS``), the
usual flacco settings: every design is described by the same 45 names.

Dispersion, the information-content tour and nearest-better clustering all
read the design's one shared distance matrix, ``ProcessedDesign.distances``,
which is computed on first use and then reused (also by ``fitmap.knn_cloud``);
each reads it by rows or row blocks and builds no second n-by-n array.

Each feature set fills one ``FeatureVector`` with its names in canonical
order, and ``compute_all`` joins the six.  Missing values never appear as NaN
or infinity: a feature that is undefined on the given sample is put as an
explicit missing entry with a reason code.

Estimator conventions: skewness and kurtosis use biased (population) moment
estimators; standard deviations and covariances elsewhere are sample
estimators (ddof=1); Pearson correlations of a constant vector are undefined
and reported missing.  The kernel-density peak count uses a Gaussian kernel
with Silverman's rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5)
on a uniform grid over [0, 1]; a peak is a grid point strictly greater than
both neighbors.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .space import check_bytes

FEATURE_SET_VERSIONS = {
    "ela_meta": "1",
    "ela_distr": "1",
    "disp": "1",
    "ic": "1",
    "nbc": "1",
    "fdc": "1",
}

# Best-fraction levels of the dispersion features, four features each.
_QUANTILES = (0.02, 0.05, 0.10, 0.25)

# Information-content scan levels: epsilon zero, then 1,000 log-spaced values
# from 1e-5 to 1e15.
_EPSILON_LEVELS = np.concatenate(([0.0], np.logspace(-5.0, 15.0, 1000)))
_EPSILON_LEVELS.setflags(write=False)

# Entropy level below which the landscape counts as settled (``ic.eps.s``).
_SETTLING_THRESHOLD = 0.05

# Points of the uniform density grid on which KDE peaks are counted.
_KDE_GRID_POINTS = 512

# Elements per block of a temporary (the density grid, the squares of the
# interaction design's rows in ``_row_norms``): 64 KiB temporaries stay below glibc's 128 KiB
# mmap threshold, so they are not mapped and returned on every call.
_BLOCK = 8192


class ElaConfig:
    """Unused name, not a setting: the parameters are the constants above.
    ``bench/tracing.py`` wraps ``ElaConfig.__init__``, and its tracer fails
    on a class that no longer exists; delete this once it tolerates that."""


@dataclass
class FeatureVector:
    """Ordered feature map with explicit missing entries.

    ``values`` maps feature name to a finite float or None; every None has a
    reason string in ``reasons``.  ``meta`` records the sample size, processed
    dimension, tour seed, and estimator conventions.  Each feature set fills
    one through ``put``, which routes a None, NaN or infinite result to an
    explicit missing entry.
    """

    values: dict[str, float | None] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, v in self.values.items():
            if v is None:
                if name not in self.reasons:
                    raise ValueError(f"missing feature {name!r} has no reason")
            elif not math.isfinite(v):
                raise ValueError(f"feature {name!r} is not finite")

    def names(self) -> tuple[str, ...]:
        return tuple(self.values)

    def __getitem__(self, name: str) -> float | None:
        return self.values[name]

    def to_json(self) -> str:
        meta = {**self.meta, "missing_reasons": dict(self.reasons)}
        return json.dumps({**self.values, "_meta": meta}, indent=2, sort_keys=False)

    def to_csv(self) -> str:
        """Header line plus one value row; missing features are empty fields."""
        header = ",".join(self.values)
        row = ",".join("" if v is None else repr(float(v)) for v in self.values.values())
        return header + "\n" + row + "\n"

    def put(self, name: str, value, reason: str = "undefined") -> None:
        if value is None:
            self.values[name] = None
            self.reasons[name] = reason
            return
        value = float(value)
        if not math.isfinite(value):
            self.values[name] = None
            self.reasons[name] = "non_finite_result"
        else:
            self.values[name] = value

    def put_all_missing(self, names: tuple[str, ...] | list[str], reason: str) -> None:
        for name in names:
            self.put(name, None, reason)


def _pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    """Pearson correlation; None when either vector has zero variance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.sqrt(np.dot(da, da)))
    nb = float(np.sqrt(np.dot(db, db)))
    if na == 0.0 or nb == 0.0:
        return None
    # mathematically |r| <= 1; rounding can overshoot by an ulp
    return min(1.0, max(-1.0, float(np.dot(da, db) / (na * nb))))


# ── surrogate-model fits ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class LeastSquaresFit:
    coefficients: np.ndarray
    intercept: float
    adjusted_r2: float


def _adjusted_r2(r2: float, n: int, p: int) -> float:
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


def fit_least_squares(Z: np.ndarray, y: np.ndarray) -> LeastSquaresFit:
    """Ordinary least squares with intercept.

    Rank-deficient systems are solved in the minimum-norm sense.
    Adjusted R^2 = 1 - (1 - R^2)(n - 1)/(n - p - 1); a constant response gives
    R^2 = 0 with zero coefficients.  Requires n > p + 1.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = Z.shape
    if n <= p + 1:
        raise ValueError(f"need more rows than parameters: n={n}, p={p}")
    ybar = float(y.mean())
    sst = float(np.sum((y - ybar) ** 2))
    X = np.column_stack([np.ones(n), Z])
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    if sst == 0.0:
        return LeastSquaresFit(np.zeros(p), ybar, _adjusted_r2(0.0, n, p))
    ssr = float(np.sum((y - X @ beta) ** 2))
    return LeastSquaresFit(beta[1:], float(beta[0]), _adjusted_r2(1.0 - ssr / sst, n, p))


# A column w_j whose Householder pivot |R[j, j]| is at most this fraction of
# ||w_j|| lies in the span of the columns before it: one-hot indicators that
# sum to the intercept, x**2 == x on 0/1 columns, zero products of two
# indicators of one variable.  Kept, such a column would turn rounding noise
# into a fitted direction.  On one-hot and target-encoded mixed designs the
# pivots of exactly dependent columns stay below 1e-14 of the norm and all
# others above 1e-2, so the cut sits far from both.
_COLLAPSE_TOL = 1e-10


@functools.cache
def _openblas():
    """numpy's own OpenBLAS (ILP64: ``scipy_`` prefix, ``64_`` suffix, 64-bit
    LAPACK integers), the library ``np.linalg`` calls, or None where numpy is
    built against another one.  ``dlsym`` on ``_umath_linalg`` searches that
    extension's dependencies too.  Looked up on first use, so that importing
    landsel loads nothing."""
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    try:
        geqrf = lib.scipy_dgeqrf_64_
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    integer = ctypes.POINTER(ctypes.c_int64)
    geqrf.argtypes = [integer, integer, ctypes.c_void_p, integer, ctypes.c_void_p, ctypes.c_void_p, integer, integer]
    geqrf.restype = None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return lib


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, restoring its count on exit.

    Blocked LAPACK routines split their sums by thread, so a fit's bits
    would follow the thread count; at one thread they are those of a
    one-thread process.  Without numpy's OpenBLAS nothing is pinned."""
    lib = _openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def _householder(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal and the last column of R in the Householder QR of
    ``A.T``, for a C-contiguous ``A`` with no more rows than columns.

    With numpy's OpenBLAS, ``dgeqrf`` factors ``A.T`` (column-major, with
    ``lda`` = A's row length) in place, after the same workspace query that
    ``np.linalg.qr`` makes, so R is bit-equal to ``np.linalg.qr(A.T,
    mode="r")`` and is read out of ``A``: R[j, j] is ``A[j, j]`` and
    R[:, -1] is ``A[-1, :k]``.  ``A`` is destroyed.  Elsewhere
    ``np.linalg.qr`` returns both from its own copies and leaves ``A``.
    """
    lib = _openblas()
    if lib is None:
        R = np.linalg.qr(A.T, mode="r")
        return np.diagonal(R), R[:, -1]
    k, n = A.shape
    if A.dtype != np.float64 or not A.flags.c_contiguous or k > n:
        raise ValueError(f"need a C-contiguous float64 array with no more rows than columns, got {A.shape}")
    rows, cols, lwork, info = ctypes.c_int64(n), ctypes.c_int64(k), ctypes.c_int64(-1), ctypes.c_int64(0)
    a = A.ctypes.data

    def geqrf(tau, work) -> None:
        lib.scipy_dgeqrf_64_(rows, cols, a, rows, tau, work, lwork, info)
        if info.value != 0:
            raise RuntimeError(f"dgeqrf failed with info = {info.value}")

    # the workspace query first: given less than it asks for, dgeqrf would
    # take a smaller block than np.linalg.qr does
    query = ctypes.c_double()
    geqrf(ctypes.byref(query), ctypes.byref(query))
    lwork.value = max(1, k, int(query.value))
    buffer = np.empty(k + lwork.value)  # tau, then the workspace; named until the call returns
    tau = buffer.ctypes.data
    geqrf(tau, tau + 8 * k)
    return np.diagonal(A), A[-1, :k]


def _fill_interactions(M: np.ndarray, X: np.ndarray, y: np.ndarray) -> None:
    """Write the interaction design into ``M`` transposed, one row per
    column: 1, X, the products x_i * x_j (i < j, lexicographic), X**2 when
    ``M`` has room for it, and y last."""
    d = X.shape[1]
    M[0] = 1.0
    Xt = M[1 : d + 1]
    Xt[:] = X.T
    row = d + 1
    for i in range(d - 1):
        np.multiply(Xt[i], Xt[i + 1 :], out=M[row : row + d - 1 - i])
        row += d - 1 - i
    if row + d < len(M):
        np.multiply(Xt, Xt, out=M[row : row + d])
    M[-1] = y


def _row_norms(W: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(W, axis=1)`` bit for bit, with no W-sized temporary:
    the squares are summed in row blocks of at most ``_BLOCK`` elements, each
    row still one sum over its own n terms."""
    sums = np.empty(len(W))
    rows = max(1, _BLOCK // W.shape[1])
    for r0 in range(0, len(W), rows):
        b = W[r0 : r0 + rows]
        (b * b).sum(axis=1, out=sums[r0 : r0 + rows])
    return np.sqrt(sums, out=sums)


def _prefix_residuals(M: np.ndarray, X: np.ndarray, y: np.ndarray, prefixes: list[int]) -> list[float]:
    """Residual sum of squares of y regressed on the first k columns of the
    interaction design W of X (``_fill_interactions``), for each k in
    ``prefixes``, from one Householder QR of ``[W, y]``.

    ``M`` is the buffer for ``[W, y]`` transposed, one row per column with y
    last, so that ``M.T`` is column-major, the layout LAPACK works in; it is
    filled here and factored in place (``_householder``), so the design
    exists once.  Row k of R's last column is y's component along the k-th
    orthogonalised column, so the residual of the first k columns is
    ``sum(R[k:, -1]**2)``.  Collapsed columns (see ``_COLLAPSE_TOL``) are
    dropped: the design is written again, its kept rows are moved to the
    front of ``M`` and factored once more; dropping a spanned column can
    only enlarge the later pivots, so that pass collapses nothing.  The
    column norms are taken before the factorization overwrites ``M``.
    Requires more rows than columns.
    """
    _fill_interactions(M, X, y)
    norms = _row_norms(M[:-1])
    diagonal, last = _householder(M)
    kept = np.abs(diagonal[:-1]) > _COLLAPSE_TOL * norms
    if not kept.all():
        rows = np.append(np.flatnonzero(kept), len(kept))  # y stays last
        _fill_interactions(M, X, y)
        for dst, src in enumerate(rows.tolist()):  # dst <= src: nothing is overwritten before it is read
            M[dst] = M[src]
        diagonal, last = _householder(M[: rows.size])
    kept_before = np.concatenate(([0], np.cumsum(kept)))
    return [float(np.sum(last[kept_before[k]:] ** 2)) for k in prefixes]


_META_NAMES = (
    "ela_meta.lin_simple.adj_r2", "ela_meta.lin_simple.intercept", "ela_meta.lin_simple.coef.min",
    "ela_meta.lin_simple.coef.max", "ela_meta.lin_simple.coef.max_by_min", "ela_meta.lin_w_interact.adj_r2",
    "ela_meta.quad_simple.adj_r2", "ela_meta.quad_simple.cond", "ela_meta.quad_w_interact.adj_r2",
)


def ela_meta(pd) -> FeatureVector:
    """Surrogate-model features: four OLS fits on the processed sample.

    ``lin`` (on X) and ``quad`` (on X and X**2) report coefficients and go
    through ``fit_least_squares``.  Of ``lin_int`` (X plus the pairwise
    products) and ``quad_int`` (X, X**2 and the products) only the adjusted
    R^2 is reported; both residual sums come from one QR of
    ``[1, X, inter, X**2, y]``, in which ``lin_int`` is a prefix, with
    collapsed columns dropped (``_prefix_residuals``).  Each adjusted R^2
    counts every column of its design in p, dependent or not, and a fit
    with n <= p + 1 is missing.

    Memory: that design and y are written into one (p + 2)-by-n buffer,
    cut to the widest fit and refused over ``space.MAX_BYTES``, which the
    QR factors in place: the design exists once, and the fits allocate no
    n-by-n array.  As n > p + 1, the buffer is never larger than the
    distance matrix, but ``compute_all`` runs this set first, before that
    matrix is capped or held.

    All four fits run with OpenBLAS held at one thread
    (``_one_blas_thread``), so their bits do not follow the process's BLAS
    thread count.
    """
    out = FeatureVector()
    X = pd.matrix
    y = pd.objective
    n, d = X.shape
    pairs = d * (d - 1) // 2
    widths = [p for p in (d + pairs, 2 * d + pairs) if n > p + 1]
    interact_r2 = [None, None]
    with _one_blas_thread():
        fits = {
            key: fit_least_squares(Z, y) if n > Z.shape[1] + 1 else None
            for key, Z in (("lin", X), ("quad", np.column_stack([X, X**2])))
        }
        if widths:
            check_bytes(8 * (widths[-1] + 2) * n, f"n = {n} rows of {widths[-1] + 2} interaction columns")
            M = np.empty((widths[-1] + 2, n))
            ssrs = _prefix_residuals(M, X, y, [p + 1 for p in widths])
            sst = float(np.sum((y - float(y.mean())) ** 2))
            for i, (p, ssr) in enumerate(zip(widths, ssrs)):
                interact_r2[i] = _adjusted_r2(0.0 if sst == 0.0 else 1.0 - ssr / sst, n, p)

    lin = fits["lin"]
    if lin is None:
        out.put_all_missing(_META_NAMES[:5], "insufficient_sample")  # lin_simple
    else:
        out.put("ela_meta.lin_simple.adj_r2", lin.adjusted_r2)
        out.put("ela_meta.lin_simple.intercept", lin.intercept)
        mags = np.abs(lin.coefficients)
        cmin, cmax = float(mags.min()), float(mags.max())
        out.put("ela_meta.lin_simple.coef.min", cmin)
        out.put("ela_meta.lin_simple.coef.max", cmax)
        if cmin == 0.0:
            out.put("ela_meta.lin_simple.coef.max_by_min", None, "zero_coefficient")
        else:
            out.put("ela_meta.lin_simple.coef.max_by_min", cmax / cmin)

    out.put("ela_meta.lin_w_interact.adj_r2", interact_r2[0], "insufficient_sample")

    quad = fits["quad"]
    if quad is None:
        out.put_all_missing(_META_NAMES[6:8], "insufficient_sample")  # quad_simple
    else:
        out.put("ela_meta.quad_simple.adj_r2", quad.adjusted_r2)
        qmag = np.abs(quad.coefficients[d:])
        qmin, qmax = float(qmag.min()), float(qmag.max())
        if qmin == 0.0:
            out.put("ela_meta.quad_simple.cond", None, "zero_coefficient")
        else:
            out.put("ela_meta.quad_simple.cond", qmax / qmin)

    out.put("ela_meta.quad_w_interact.adj_r2", interact_r2[1], "insufficient_sample")
    return out


# ── objective-distribution features ──────────────────────────────────────────


def _quartiles(y: np.ndarray) -> list[float]:
    """``np.quantile(y, (0.25, 0.75))`` bit for bit for a NaN-free ``y``, n >= 2,
    with no ``numpy.ma`` import: a copy partitioned at numpy's kth (both ends
    too, so signed zeros land alike), interpolated as numpy's ``_lerp``."""
    positions = [(y.size - 1) * q for q in (0.25, 0.75)]
    below = [math.floor(p) for p in positions]
    v = np.partition(y, sorted({0, y.size - 1, *below, *(i + 1 for i in below)}))
    out = []
    for p, i in zip(positions, below):
        a, b, t = v[i], v[i + 1], p - i
        out.append(float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t))
    return out


def _kde_density(y: np.ndarray, sd: float) -> np.ndarray:
    """Gaussian kernel density of ``y`` on the ``_KDE_GRID_POINTS`` grid.

    The grid is evaluated in blocks of at most ``_BLOCK`` elements, whole
    rows each; every row is still one sum over the same n terms, so the
    densities equal those of the whole 512-by-n grid.
    """
    n = y.size
    q1, q3 = _quartiles(y)
    iqr = q3 - q1
    scale = sd if iqr == 0.0 else min(sd, iqr / 1.34)
    bandwidth = 0.9 * scale * n ** (-1 / 5)
    grid = np.linspace(0.0, 1.0, _KDE_GRID_POINTS)
    sums = np.empty(_KDE_GRID_POINTS)
    rows = max(1, _BLOCK // n)
    for g0 in range(0, _KDE_GRID_POINTS, rows):
        z = (grid[g0 : g0 + rows, None] - y[None, :]) / bandwidth
        np.exp(-0.5 * z * z).sum(axis=1, out=sums[g0 : g0 + rows])
    return sums / (n * bandwidth * math.sqrt(2 * math.pi))


_DISTR_NAMES = ("ela_distr.skewness", "ela_distr.kurtosis", "ela_distr.number_of_peaks")


def ela_distr(pd) -> FeatureVector:
    """Skewness, excess kurtosis (population estimators), and KDE peak count."""
    out = FeatureVector()
    y = pd.objective
    if y.size < 4:
        out.put_all_missing(_DISTR_NAMES, "insufficient_sample")
        return out
    centered = y - y.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        out.put("ela_distr.skewness", None, "zero_variance")
        out.put("ela_distr.kurtosis", None, "zero_variance")
        out.put("ela_distr.number_of_peaks", 1.0)
        return out
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    out.put("ela_distr.skewness", m3 / m2**1.5)
    out.put("ela_distr.kurtosis", m4 / m2**2 - 3.0)
    density = _kde_density(y, math.sqrt(m2))
    interior = density[1:-1]
    peaks = (interior > density[:-2]) & (interior > density[2:])
    out.put("ela_distr.number_of_peaks", float(np.count_nonzero(peaks)))
    return out


# ── dispersion ───────────────────────────────────────────────────────────────


def _quantile_names(q: float) -> tuple[str, ...]:
    """The four dispersion features of quantile q, suffixed with q in percent."""
    s = f"{int(round(q * 100)):02d}"
    return (f"disp.ratio_mean_{s}", f"disp.ratio_median_{s}", f"disp.diff_mean_{s}", f"disp.diff_median_{s}")


_DISP_NAMES = tuple(name for q in _QUANTILES for name in _quantile_names(q))


_TRIANGLE = np.triu(np.ones((256, 256), dtype=bool), 1)
_TRIANGLE.setflags(write=False)


def _condensed(dm: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
    """Distances between the rows ``idx`` of ``dm`` (all rows when None),
    the pairs i < j in row-major (pdist) order.  Up to 256 rows they are
    read through a block of one read-only mask built at import; above that,
    row tail by row tail into one new array, with no n-by-n mask."""
    m = len(dm) if idx is None else idx.size
    if m <= len(_TRIANGLE):
        square = dm if idx is None else dm[np.ix_(idx, idx)]
        return square[_TRIANGLE[:m, :m]]
    out = np.empty(m * (m - 1) // 2)
    end = 0
    for i in range(m - 1):
        start, end = end, end + m - 1 - i
        if idx is None:
            out[start:end] = dm[i, i + 1 :]
        else:
            dm[idx[i]].take(idx[i + 1 :], out=out[start:end])
    return out


def _median(v: np.ndarray) -> float:
    """Median of a NaN-free vector, reordering it in place: the middle
    element, or ``(a + b) / 2`` of the two middle ones, as ``np.median``
    computes it."""
    k = v.size // 2
    if v.size % 2:
        v.partition(k)
        return float(v[k])
    v.partition((k - 1, k))
    return float((v[k - 1] + v[k]) / 2)


def dispersion(pd) -> FeatureVector:
    """Best-subset versus full-sample pairwise-distance statistics.

    For each quantile q the subset holds the ceil(q*n) rows with the smallest
    objective (ties broken by row index).  Ratios are subset/full and are
    undefined when the full-sample statistic is zero (all points identical);
    differences are subset - full.  Distances are read from the shared
    matrix ``pd.distances``.
    """
    out = FeatureVector()
    y = pd.objective
    n = pd.n
    if n < 2:
        out.put_all_missing(_DISP_NAMES, "insufficient_sample")
        return out
    dm = pd.distances
    full = _condensed(dm)
    full_mean = float(full.mean())
    full_median = _median(full)  # reorders full, after its mean
    order = np.argsort(y, kind="stable")
    for q in _QUANTILES:
        names = _quantile_names(q)
        size = math.ceil(q * n)
        if size < 2:
            out.put_all_missing(names, "subset_too_small")
            continue
        sub = _condensed(dm, order[:size])
        sub_mean = float(sub.mean())
        sub_median = _median(sub)
        if full_mean == 0.0:
            out.put(names[0], None, "zero_distances")
        else:
            out.put(names[0], sub_mean / full_mean)
        if full_median == 0.0:
            out.put(names[1], None, "zero_distances")
        else:
            out.put(names[1], sub_median / full_median)
        out.put(names[2], sub_mean - full_mean)
        out.put(names[3], sub_median - full_median)
    return out


# ── information content ──────────────────────────────────────────────────────


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row order sorted lexicographically by coordinates, then objective.

    The tour below starts from this canonical order, so the resulting
    features do not depend on how the design rows happened to be arranged.
    """
    keys = (y,) + tuple(X[:, c] for c in reversed(range(X.shape[1])))
    return np.lexsort(keys)


def _greedy_tour(dm: np.ndarray, canon: np.ndarray, seed: int) -> np.ndarray:
    """Seeded random-start nearest-neighbor tour visiting every point once,
    over the points in the order ``canon`` and in positions of that order;
    distance ties go to the lowest position.

    Memory: each step reads one row of the distance matrix ``dm`` through
    ``canon`` and adds a penalty that is infinity at visited points and 0.0
    elsewhere (which leaves every distance unchanged), so the tour reads
    ``dm`` row by row and allocates no second n-by-n array.
    """
    n = canon.size
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    order = np.empty(n, dtype=int)
    order[0] = current = start
    penalty = np.zeros(n)
    penalty[start] = np.inf  # a visited point is never nearest
    rows = canon.tolist()
    for step in range(1, n):
        row = dm[rows[current]].take(canon)
        row += penalty
        current = int(row.argmin())
        order[step] = current
        penalty[current] = np.inf
    return order


_PAIR_LOG_BASE = math.log(6.0)


@functools.lru_cache(maxsize=16)
def _entropy_terms(total: int) -> np.ndarray:
    """p * log6 p for p = c / total, indexed by c = 0..total (zero at c = 0);
    read-only, since every caller shares it."""
    terms = np.array([0.0, *((c / total) * math.log(c / total) / _PAIR_LOG_BASE
                             for c in range(1, total + 1))])
    terms.setflags(write=False)
    return terms


# Pair codes 3 * (a + 1) + (b + 1) of the six unequal symbol pairs (a, b),
# in the order their entropy terms are subtracted.
_UNEQUAL_PAIRS = (1, 2, 3, 5, 6, 7)


def _deletion_states(phi: np.ndarray, events: list[int], n: int) -> tuple[list[float], list[float]]:
    """H and M of the symbol string sign(phi) before any deletion, then after
    each deletion in ``events`` (distinct indices of nonzero slopes).

    H: slope i turns into 0 at its deletion step (0 for a zero slope, past
    the last state when never deleted), so the pair (i, i + 1) changes code
    only at the smaller and the larger step of its two ends.  A difference
    array over the steps, summed cumulatively, gives the 3x3 pair counts of
    every state at once; H subtracts the six unequal pairs' terms in a fixed
    order.

    M: the surviving nonzero slopes stay in one sorted list; deleting one
    drops a run when its sign differs from both surviving neighbours, and
    one more when those neighbours exist and agree.
    """
    signs = np.sign(phi).astype(np.intp)
    states = len(events) + 1
    step = np.where(signs != 0, states, 0)
    step[events] = np.arange(1, states)
    first, second = step[:-1], step[1:]
    lo, hi = np.minimum(first, second), np.maximum(first, second)
    a, b = signs[:-1] + 1, signs[1:] + 1
    before = 3 * a + b
    between = np.where(first < second, 3 + b, 3 * a + 1)  # the end deleted first reads 0
    # code (0, 0) from step hi on is left out: it holds no entropy term
    cells = (states + 1) * 9
    diff = np.bincount(np.concatenate((before, 9 * lo + between)), minlength=cells)
    diff -= np.bincount(np.concatenate((9 * lo + before, 9 * hi + between)), minlength=cells)
    counts = diff.reshape(states + 1, 9).cumsum(axis=0)[:states]
    terms = _entropy_terms(signs.size - 1)
    h = np.zeros(states)
    for code in _UNEQUAL_PAIRS:
        h -= terms[counts[:, code]]

    symbols = signs.tolist()
    alive = [i for i, sign in enumerate(symbols) if sign]
    nonzero = [symbols[i] for i in alive]
    runs = sum(p != q for p, q in zip([0] + nonzero, nonzero))
    m_states = [runs / (n - 1)]
    for i in events:
        old = symbols[i]
        symbols[i] = 0
        k = bisect.bisect_left(alive, i)
        del alive[k]
        left = symbols[alive[k - 1]] if k > 0 else 0
        right = symbols[alive[k]] if k < len(alive) else 0
        if left != old and right != old:
            runs -= 1
            if left and left == right:
                runs -= 1
        m_states.append(runs / (n - 1))
    return h.tolist(), m_states


_IC_NAMES = ("ic.h.max", "ic.eps.s", "ic.eps.max", "ic.eps.ratio", "ic.m0")


def information_content(pd, seed: int = 0) -> FeatureVector:
    """Information content of the slope-sign sequence along a seeded tour.

    Rows are first sorted canonically (lexicographically by coordinates, then
    objective) so the tour — and with it every emitted feature — is identical
    no matter how the design rows were ordered.  Consecutive tour steps yield
    slopes phi = (y_next - y_prev) / ||x_next - x_prev|| (zero-length steps
    are skipped); at level epsilon each slope maps to a symbol sign(phi) if
    |phi| > epsilon else 0.  H(eps) is the entropy
    (base 6) of unequal consecutive symbol pairs; M(eps) is the length of the
    symbol string after deleting zeros and collapsing repeats, divided by
    n - 1.  Emitted features:

    * ``ic.h.max``     — max of H over the grid (epsilon zero included),
    * ``ic.eps.s``     — log10 of the smallest positive epsilon with H below
      the settling threshold,
    * ``ic.eps.max``   — log10 of the epsilon attaining the maximum of H
      (smallest such epsilon; missing when that is epsilon zero),
    * ``ic.eps.ratio`` — log10 of the smallest positive epsilon at which M
      has decayed to half its epsilon-zero value,
    * ``ic.m0``        — M at epsilon zero.

    H and M change only when a slope turns into a zero symbol, so the scan
    runs over these deletion events rather than over the grid: slopes are
    deleted in order of |phi| (:func:`_deletion_states`), and H and M are
    recorded once per event.  Each grid level then reads the state after
    deleting every slope with |phi| <= eps.  The tour walks the shared
    matrix ``pd.distances`` in canonical order.
    """
    out = FeatureVector()
    n = pd.n
    if n < 3:
        out.put_all_missing(_IC_NAMES, "insufficient_sample")
        return out
    canon = _canonical_order(pd.matrix, pd.objective)
    path = canon[_greedy_tour(pd.distances, canon, seed)]
    steps = np.diff(pd.matrix[path], axis=0)
    lengths = np.sqrt((steps**2).sum(axis=1))
    dy = np.diff(pd.objective[path])
    keep = lengths > 0.0
    if not np.any(keep):
        out.put_all_missing(_IC_NAMES, "duplicate_points")
        return out
    phi = dy[keep] / lengths[keep]
    mags = np.abs(phi)
    # deletion events sorted by |phi| ascending, ties in index order
    events = np.argsort(mags, kind="stable")
    events = events[mags[events] > 0.0]
    h_states, m_states = _deletion_states(phi, events.tolist(), n)

    # level eps has deleted exactly the events with |phi| <= eps
    grid = _EPSILON_LEVELS
    reached = np.searchsorted(mags[events], grid, side="right")
    h_values = np.asarray(h_states)[reached]
    m_values = np.asarray(m_states)[reached]

    out.put("ic.h.max", float(h_values.max()))
    m0 = float(m_values[0])

    positive = grid[1:]
    h_pos = h_values[1:]
    m_pos = m_values[1:]

    settled = np.nonzero(h_pos < _SETTLING_THRESHOLD)[0]
    if settled.size == 0:
        out.put("ic.eps.s", None, "never_settles")
    else:
        out.put("ic.eps.s", math.log10(positive[settled[0]]))

    argmax = int(np.argmax(h_values))  # first maximum over the full grid
    if argmax == 0:
        out.put("ic.eps.max", None, "maximum_at_zero")
    else:
        out.put("ic.eps.max", math.log10(grid[argmax]))

    half = np.nonzero(m_pos <= m0 / 2.0)[0]
    if half.size == 0:
        out.put("ic.eps.ratio", None, "no_half_decay")
    else:
        out.put("ic.eps.ratio", math.log10(positive[half[0]]))
    out.put("ic.m0", m0)
    return out


# ── nearest-better clustering ────────────────────────────────────────────────


_NBC_NAMES = (
    "nbc.nn_nb.mean_ratio", "nbc.nn_nb.sd_ratio", "nbc.nn_nb.cor",
    "nbc.dist_ratio.coeff_var", "nbc.nb_fitness.cor",
)


def _nearest_better(pd, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's distance to its nearest other point, its distance to the
    nearest point of lower ``rank``, and that point's index (ties to the
    lowest index).  The sample best (rank 0) has no better point: infinity
    and index 0.

    Memory: reads ``pd.distances`` in row blocks (``distance_blocks``) and
    allocates no second n-by-n array.
    """
    n = pd.n
    dnn = np.empty(n)
    dnb = np.empty(n)
    nb_target = np.empty(n, dtype=np.intp)
    for i0, block in pd.distance_blocks():
        rows = slice(i0, i0 + len(block))
        block.min(axis=1, out=dnn[rows])
        block[rank >= rank[rows, None]] = np.inf  # keep the better points only
        block.min(axis=1, out=dnb[rows])
        block.argmin(axis=1, out=nb_target[rows])
    return dnn, dnb, nb_target


def nearest_better_clustering(pd) -> FeatureVector:
    """Nearest-neighbor versus nearest-better distance structure.

    "Better" is strict on the objective with ties broken by row index, so
    every point except the sample best has a non-empty better set.  The sample
    best is excluded from the ratio statistics; the in-degree correlation uses
    all points.  Distances come from the shared matrix ``pd.distances``, read
    in row blocks (``_nearest_better``): no second n-by-n array is allocated.
    """
    out = FeatureVector()
    y = pd.objective
    n = pd.n
    if n < 3:
        out.put_all_missing(_NBC_NAMES, "insufficient_sample")
        return out
    if float(y.min()) == float(y.max()):
        out.put_all_missing(_NBC_NAMES, "constant_objective")
        return out
    order = np.argsort(y, kind="stable")
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    dnn, dnb, nb_target = _nearest_better(pd, rank)

    nonbest = rank > 0
    dnn_nb = dnn[nonbest]
    dnb_nb = dnb[nonbest]

    mean_nb = float(dnb_nb.mean())
    if mean_nb == 0.0:
        out.put("nbc.nn_nb.mean_ratio", None, "zero_distances")
    else:
        out.put("nbc.nn_nb.mean_ratio", float(dnn_nb.mean()) / mean_nb)

    sd_nn = float(np.std(dnn_nb, ddof=1)) if dnn_nb.size > 1 else 0.0
    sd_nb = float(np.std(dnb_nb, ddof=1)) if dnb_nb.size > 1 else 0.0
    if sd_nb == 0.0:
        out.put("nbc.nn_nb.sd_ratio", None, "zero_variance")
    else:
        out.put("nbc.nn_nb.sd_ratio", sd_nn / sd_nb)

    cor = _pearson(dnn_nb, dnb_nb)
    out.put("nbc.nn_nb.cor", cor, "zero_variance")

    if np.any(dnn_nb == 0.0):
        out.put("nbc.dist_ratio.coeff_var", None, "duplicate_points")
    else:
        ratio = dnb_nb / dnn_nb  # dnb >= dnn > 0 here, so every ratio is at least 1
        out.put("nbc.dist_ratio.coeff_var", float(np.std(ratio, ddof=1)) / float(ratio.mean()))

    indegree = np.bincount(nb_target[nonbest], minlength=n).astype(float)
    out.put("nbc.nb_fitness.cor", _pearson(y, indegree), "zero_variance")
    return out


# ── fitness-distance correlation ─────────────────────────────────────────────


_FDC_NAMES = (
    "fdc.coef", "fdc.dist.mean", "fdc.dist.sd", "fdc.dist.max",
    "fdc.fitness.mean", "fdc.fitness.sd", "fdc.cov",
)


def fitness_distance_correlation(pd) -> FeatureVector:
    """Correlation between objective value and distance to the sample best."""
    out = FeatureVector()
    X = pd.matrix
    y = pd.objective
    n = X.shape[0]
    if n < 3:
        out.put_all_missing(_FDC_NAMES, "insufficient_sample")
        return out
    best = int(np.argmin(y))  # ties: lowest row index
    d = np.sqrt(((X - X[best]) ** 2).sum(axis=1))
    out.put("fdc.coef", _pearson(y, d), "zero_variance")
    out.put("fdc.dist.mean", float(d.mean()))
    out.put("fdc.dist.sd", float(np.std(d, ddof=1)))
    out.put("fdc.dist.max", float(d.max()))
    out.put("fdc.fitness.mean", float(y.mean()))
    out.put("fdc.fitness.sd", float(np.std(y, ddof=1)))
    dy = y - y.mean()
    dd = d - d.mean()
    out.put("fdc.cov", float(np.dot(dy, dd) / (n - 1)))
    return out


# ── the full vector ──────────────────────────────────────────────────────────


def feature_names() -> list[str]:
    """Canonical feature order: ela_meta, ela_distr, disp, ic, nbc, fdc."""
    return [*_META_NAMES, *_DISTR_NAMES, *_DISP_NAMES, *_IC_NAMES, *_NBC_NAMES, *_FDC_NAMES]


def compute_all(pd, seed: int = 0) -> FeatureVector:
    """All feature sets on one processed design, in canonical order: each
    set puts its names in their ``feature_names`` order, so the six are
    joined as they come, with no re-sort.

    Deterministic given (pd, seed); the seed steers only the
    information-content tour.
    """
    fv = ela_meta(pd)
    for features in (ela_distr(pd), dispersion(pd), information_content(pd, seed),
                     nearest_better_clustering(pd), fitness_distance_correlation(pd)):
        fv.values.update(features.values)
        fv.reasons.update(features.reasons)
    fv.meta = {
        "n": pd.n,
        "dimension": pd.width,
        "seed": seed,
        "encoding": pd.encoding,
        "set_versions": dict(FEATURE_SET_VERSIONS),
        "estimators": {
            "moments": "population",
            "sd": "sample (ddof=1)",
            "bandwidth": "silverman rule of thumb",
        },
    }
    return fv
