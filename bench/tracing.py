"""Per-layer tracing for the benchmark, installed from outside the program.

Timing wrappers replace the module attributes that landsel's own callers look
up at call time (``landsel.ela.information_content``,
``landsel.preprocess.normalize_objective``, ``SelectorModel.predict`` and so
on), so nothing under ``src/`` is edited.  Each wrapped call records a span
``[name, start, end, parent]``; spans stay in memory and are aggregated (or
dumped) when the traced pass ends.  A span's self time is its duration minus
the durations of its direct children; calls run on one thread, so children
never overlap.

The distance functions ``cdist``/``pdist`` are counted, not timed, so their
cost stays in the self time of the feature set or map that asked for them.

Importing this module imports nothing from landsel or numpy, so a launcher
can time ``import landsel.cli`` first.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  Several attributes may share a span name;
# their self times add up under that name.
SPANS = (
    ("landsel.space", "apply_transform", "space.apply_transform"),
    ("landsel.sampling", "create_initial_design", "sampling.create_initial_design"),
    ("landsel.sampling", "evaluate_design", "sampling.evaluate_design"),
    ("landsel.sampling", "design_from_csv", "sampling.design_from_csv"),
    ("landsel.preprocess", "preprocess_pipeline", "preprocess.pipeline"),
    ("landsel.preprocess", "relax_hierarchy", "preprocess.relax_hierarchy"),
    ("landsel.preprocess", "normalize_objective", "preprocess.normalize_objective"),
    ("landsel.preprocess", "encode_none", "preprocess.encode"),
    ("landsel.preprocess", "encode_one_hot", "preprocess.encode"),
    ("landsel.preprocess", "encode_target", "preprocess.encode"),
    ("landsel.preprocess", "normalize_decision", "preprocess.normalize_decision"),
    ("landsel.ela", "compute_all", "ela.compute_all"),
    ("landsel.ela", "ElaConfig.__init__", "ela.config"),
    ("landsel.ela", "ela_meta", "ela.ela_meta"),
    ("landsel.ela", "fit_least_squares", "ela.fit_least_squares"),
    ("landsel.ela", "ela_distr", "ela.ela_distr"),
    ("landsel.ela", "dispersion", "ela.dispersion"),
    ("landsel.ela", "information_content", "ela.information_content"),
    ("landsel.ela", "nearest_better_clustering", "ela.nearest_better_clustering"),
    ("landsel.ela", "fitness_distance_correlation", "ela.fitness_distance_correlation"),
    ("landsel.fitmap", "multichannel", "fitmap.multichannel"),
    ("landsel.fitmap", "reduce_mean", "fitmap.reduce_mean"),
    ("landsel.fitmap", "pca_project", "fitmap.pca_project"),
    ("landsel.fitmap", "rasterize_2d", "fitmap.rasterize"),
    ("landsel.fitmap", "rasterize_projection", "fitmap.rasterize"),
    ("landsel.fitmap", "knn_cloud", "fitmap.knn_cloud"),
    ("landsel.fitmap", "write_pgm", "fitmap.write"),
    ("landsel.fitmap", "write_stack", "fitmap.write"),
    ("landsel.fitmap", "cloud_to_csv", "fitmap.write"),
    ("landsel.aas", "read_features_csv", "aas.read"),
    ("landsel.aas", "read_performance_csv", "aas.read"),
    ("landsel.aas", "cross_validate", "aas.cross_validate"),
    ("landsel.aas", "train_selector", "aas.train_selector"),
    ("landsel.aas", "impute_table", "aas.impute_table"),
    ("landsel.aas", "SelectorModel.predict", "aas.predict"),
    ("landsel.cli", "main", "cli.main"),
)

# Distance-matrix builders, counted per module: (module, attribute, counter).
DISTANCES = (
    ("landsel.ela", "cdist", "ela"),
    ("landsel.ela", "pdist", "ela"),
    ("landsel.fitmap", "cdist", "fitmap"),
)

# Per-layer metrics in output order: (name, unit).  ``.ms`` is self time summed
# over the traced pass, ``.calls`` a span count.
PER_LAYER = (
    ("ela.compute_all.ms", "ms"),
    ("ela.config.ms", "ms"),
    ("ela.ela_meta.ms", "ms"),
    ("ela.fit_least_squares.ms", "ms"),
    ("ela.fit_least_squares.calls", "count"),
    ("ela.ela_distr.ms", "ms"),
    ("ela.dispersion.ms", "ms"),
    ("ela.information_content.ms", "ms"),
    ("ela.nearest_better_clustering.ms", "ms"),
    ("ela.fitness_distance_correlation.ms", "ms"),
    ("ela.distance_matrices", "count"),
    ("ela.distance_mb", "MB"),
    ("ela.defined_ratio", "ratio"),
    ("space.apply_transform.ms", "ms"),
    ("space.apply_transform.calls", "count"),
    ("sampling.create_initial_design.ms", "ms"),
    ("sampling.evaluate_design.ms", "ms"),
    ("sampling.evaluate_design.rows", "count"),
    ("sampling.design_from_csv.ms", "ms"),
    ("preprocess.pipeline.ms", "ms"),
    ("preprocess.relax_hierarchy.ms", "ms"),
    ("preprocess.normalize_objective.ms", "ms"),
    ("preprocess.encode.ms", "ms"),
    ("preprocess.normalize_decision.ms", "ms"),
    ("preprocess.width", "columns"),
    ("fitmap.multichannel.ms", "ms"),
    ("fitmap.reduce_mean.ms", "ms"),
    ("fitmap.pca_project.ms", "ms"),
    ("fitmap.rasterize.ms", "ms"),
    ("fitmap.knn_cloud.ms", "ms"),
    ("fitmap.write.ms", "ms"),
    ("fitmap.channels", "count"),
    ("fitmap.raster_mb", "MB"),
    ("fitmap.fill_ratio", "ratio"),
    ("fitmap.distance_matrices", "count"),
    ("aas.read.ms", "ms"),
    ("aas.cross_validate.ms", "ms"),
    ("aas.train_selector.ms", "ms"),
    ("aas.train_selector.calls", "count"),
    ("aas.impute_table.ms", "ms"),
    ("aas.impute_table.calls", "count"),
    ("aas.predict.ms", "ms"),
    ("aas.imputed_cells", "count"),
    ("cli.import.ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.exit_1", "count"),
    ("cli.exit_2", "count"),
    ("trace.ops", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _resolve(module_name: str, attribute: str):
    """(owner, leaf attribute) for 'name' or 'Class.name' inside a module;
    the owner is None when a class on the path no longer exists."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, leaf


class Tracer:
    """Span recorder plus counters, fed by wrappers that :meth:`install` puts
    on landsel's module attributes and :meth:`uninstall` takes off again."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ── wrappers ────────────────────────────────────────────────────────────

    def _span(self, name: str, original, observe):
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        timed.__wrapped__ = original
        return timed

    def _distance(self, prefix: str, original):
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[f"{prefix}.distance_matrices"] += 1
            counts[f"{prefix}.distance_bytes"] += result.nbytes
            return result

        counted.__wrapped__ = original
        return counted

    def install(self) -> None:
        """Wrap every attribute in SPANS and DISTANCES.  An attribute that a
        later version of landsel no longer has is listed in ``missing`` and
        its metrics read 0, rather than stopping the traced run."""
        for module_name, attribute, name in SPANS:
            self._replace(module_name, attribute, lambda f: self._span(name, f, _OBSERVERS.get(name)))
        for module_name, attribute, prefix in DISTANCES:
            self._replace(module_name, attribute, lambda f: self._distance(prefix, f))

    def _replace(self, module_name: str, attribute: str, wrap) -> None:
        owner, leaf = _resolve(module_name, attribute)
        original = getattr(owner, leaf, None)
        if original is None:
            self.missing.append(f"{module_name}.{attribute}")
            return
        self._installed.append((owner, leaf, original))
        setattr(owner, leaf, wrap(original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # ── aggregation ─────────────────────────────────────────────────────────

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time in seconds and call count, per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_s[name] += end - start - covered
            calls[name] += 1
        return self_s, calls

    def merge(self, dump: dict) -> None:
        """Add a child process's :meth:`dump` to this tracer (spans re-based)."""
        offset = len(self.spans)
        for name, start, end, parent in dump["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for key, value in dump["counts"].items():
            self.counts[key] += value

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict[str, dict]:
    """The PER_LAYER metrics of one traced pass, in the result format."""
    self_s, calls = tracer.self_times()
    c = tracer.counts
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".ms") and name != "cli.import.ms":
            values[name] = self_s.get(name[: -len(".ms")], 0.0) * 1000.0
        elif name.endswith(".calls"):
            values[name] = float(calls.get(name[: -len(".calls")], 0))
    values.update(
        {
            "ela.distance_matrices": c["ela.distance_matrices"],
            "ela.distance_mb": c["ela.distance_bytes"] / 1e6,
            "ela.defined_ratio": _ratio(c["ela.features_defined"], c["ela.features_attempted"]),
            "sampling.evaluate_design.rows": c["sampling.rows"],
            "preprocess.width": _ratio(c["preprocess.width_sum"], calls.get("preprocess.pipeline", 0)),
            "fitmap.channels": c["fitmap.channels"],
            "fitmap.raster_mb": c["fitmap.raster_bytes"] / 1e6,
            "fitmap.fill_ratio": _ratio(c["fitmap.pixels_filled"], c["fitmap.pixels"]),
            "fitmap.distance_matrices": c["fitmap.distance_matrices"],
            "aas.imputed_cells": c["aas.imputed_cells"],
            "cli.import.ms": c["cli.import_s"] * 1000.0,
            "cli.exit_1": c["cli.exit_1"],
            "cli.exit_2": c["cli.exit_2"],
            "trace.ops": float(ops),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ── observers: counts taken from a wrapped call's result ─────────────────────


def _observe_features(counts, fv) -> None:
    counts["ela.features_attempted"] += len(fv.values)
    counts["ela.features_defined"] += sum(v is not None for v in fv.values.values())


def _observe_rows(counts, design) -> None:
    counts["sampling.rows"] += design.n


def _observe_width(counts, pd) -> None:
    counts["preprocess.width_sum"] += pd.width


def _observe_stack(counts, stack) -> None:
    counts["fitmap.channels"] += len(stack.channels)


def _observe_raster(counts, fmap) -> None:
    counts["fitmap.raster_bytes"] += fmap.pixels.nbytes
    counts["fitmap.pixels"] += fmap.pixels.size
    counts["fitmap.pixels_filled"] += fmap.non_empty


def _observe_imputed(counts, result) -> None:
    counts["aas.imputed_cells"] += len(result[1])


def observe_exit(counts, code) -> None:
    if code in (1, 2):
        counts[f"cli.exit_{code}"] += 1


_OBSERVERS = {
    "ela.compute_all": _observe_features,
    "sampling.evaluate_design": _observe_rows,
    "preprocess.pipeline": _observe_width,
    "fitmap.multichannel": _observe_stack,
    "fitmap.rasterize": _observe_raster,
    "aas.impute_table": _observe_imputed,
    "cli.main": observe_exit,
}
