"""Batch command-line front end.

Subcommands wire the library into reproducible pipelines::

    landsel sample builtin:sphere:d2 --seed 1 --out design.csv
    landsel features design.csv --encoding none --out features.json
    landsel fitmap design.csv --mode mc --out maps.pgm
    landsel aas features.csv perf.csv --scheme leave_iid_out --out report.json

Problem sources are either ``builtin:<fid>:d<D>[:i<iid>]`` or a path to a
search-space JSON file.  Sampling a builtin source also evaluates the design;
sampling a bare search space writes an unevaluated design for external
evaluation.

Every command is deterministic given its flags and inputs: all randomness
flows through explicit ``--seed`` values and outputs carry no timestamps, so
repeated invocations are byte-identical.  A JSON config file (``--config``)
supplies defaults that flags override; unknown config keys are a hard error.
The only environment variable consulted is ``LANDSEL_LOG`` (stderr log
verbosity; never affects outputs).

Exit codes: 0 success, 2 validation error or a path that cannot be read or
written, 1 internal error.  Each output is whole or absent: ``sampling.staged``
claims it before any feature, fold or map is computed, and moves it into place
on success; a device such as ``/dev/stdout`` is written in place.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from pathlib import Path

from . import aas as aas_mod
from . import ela, fitmap, preprocess, sampling, space

log = logging.getLogger("landsel")

FITMAP_MODES = ("raw2d", "pca", "pca-func", "mc", "rmc", "cloud")

# Documented config defaults per subcommand; a flag given on the command line
# always wins over the config file, which wins over these.
_CONFIG_DEFAULTS: dict[str, dict] = {
    "sample": {"source": None, "n": None, "strategy": "latin_hypercube", "seed": 0, "out": None},
    "evaluate": {"design": None, "source": None, "out": None},
    "preprocess": {"design": None, "encoding": "none", "smoothing": 0.0, "out": None},
    "features": {"design": None, "encoding": "none", "smoothing": 0.0, "seed": 0, "out": None},
    "fitmap": {
        "design": None,
        "mode": "raw2d",
        "resolution": fitmap.DEFAULT_RESOLUTION,
        "k": 8,
        "encoding": "none",
        "smoothing": 0.0,
        "out": None,
    },
    "aas": {
        "features": None,
        "performance": None,
        "scheme": "leave_iid_out",
        "selector": "knn",
        "k": 1,
        "cost_sensitive": False,
        "feature_cost": 0,
        "penalty": aas_mod.DEFAULT_PENALTY,
        "groups": None,
        "out": None,
    },
}


# The JSON type each config key takes, by description; null is accepted only
# for keys whose documented default is null (meaning "not set").
_JSON_TYPES = {
    "a string": lambda value: isinstance(value, str),
    "an integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "a number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "true or false": lambda value: isinstance(value, bool),
    "an object": lambda value: isinstance(value, dict),
}
_CONFIG_TYPES = {
    **dict.fromkeys(
        ("source", "design", "out", "features", "performance", "strategy", "encoding", "mode",
         "scheme", "selector"),
        "a string",
    ),
    **dict.fromkeys(("n", "seed", "k", "resolution", "feature_cost"), "an integer"),
    **dict.fromkeys(("smoothing", "penalty"), "a number"),
    "cost_sensitive": "true or false",
    "groups": "an object",
}


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        obj = json.loads(p.read_text())
    except (ValueError, RecursionError) as e:  # undecodable, malformed or too deeply nested
        raise ValueError(f"{p}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{p}: config must be a JSON object")
    allowed = _CONFIG_DEFAULTS[command]
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{p}: unknown config keys for {command!r}: {', '.join(unknown)}")
    for key, value in obj.items():
        if value is None and allowed[key] is None:
            continue
        kind = _CONFIG_TYPES[key]
        if value is None or not _JSON_TYPES[kind](value):
            raise ValueError(f"{p}: config key {key!r} must be {kind}, got {json.dumps(value)}")
    return obj


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge flag values over config values over documented defaults."""
    config = _load_config(getattr(args, "config", None), command)
    out = {}
    for key, default in _CONFIG_DEFAULTS[command].items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else config.get(key, default)
    if out.get("seed", 0) < 0:
        raise ValueError(f"'seed' must be >= 0, got {out['seed']}")
    return out


def _parse_source(text: str) -> space.Problem | space.SearchSpace:
    """`builtin:<fid>:d<D>[:i<iid>]` or a search-space JSON path."""
    if text.startswith("builtin:"):
        match = re.fullmatch(r"builtin:([^:]*):d(\d+)(?::i(\d+))?", text)
        if match is None:
            raise ValueError(f"bad builtin source {text!r}; expected builtin:<fid>:d<D>[:i<iid>]")
        fid, dimension, iid = match.groups()
        return space.builtin_problem(fid, int(iid or 0), int(dimension))
    path = Path(text)
    try:
        return space.space_from_json(path.read_text())
    except ValueError as e:  # bytes that do not decode, or a bad document
        raise ValueError(f"{path}: {e}") from None


def _require(cfg: dict, key: str):
    if cfg[key] is None:
        raise ValueError(f"{key!r} is required (flag or config)")
    return cfg[key]


def _processed(cfg: dict) -> preprocess.ProcessedDesign:
    design = sampling.design_from_csv(_require(cfg, "design"))
    return preprocess.preprocess_pipeline(
        design, encoding=cfg["encoding"], smoothing=float(cfg["smoothing"])
    )


# ── subcommands ──────────────────────────────────────────────────────────────


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "sample")
    source = _parse_source(_require(cfg, "source"))
    out = Path(_require(cfg, "out"))
    target_space = source.space if isinstance(source, space.Problem) else source
    design = sampling.create_initial_design(
        target_space,
        n=None if cfg["n"] is None else int(cfg["n"]),
        strategy=cfg["strategy"],
        seed=int(cfg["seed"]),
    )
    if isinstance(source, space.Problem):
        design = sampling.evaluate_design(source, design)
    sampling.design_to_csv(design, out)
    log.info("wrote %d-row design to %s", design.n, out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "evaluate")
    design = sampling.design_from_csv(_require(cfg, "design"))
    source = _parse_source(_require(cfg, "source"))
    if not isinstance(source, space.Problem):
        raise ValueError("evaluate needs a builtin problem source, not a bare search space")
    out = Path(_require(cfg, "out"))
    sampling.design_to_csv(sampling.evaluate_design(source, design), out)
    log.info("wrote %d-row evaluated design to %s", design.n, out)
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "preprocess")
    pd = _processed(cfg)
    out = Path(_require(cfg, "out"))
    preprocess.processed_to_csv(pd, out)
    log.info("wrote processed design (%d columns) to %s", pd.width, out)
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "features")
    out = Path(_require(cfg, "out"))
    with sampling.staged(out) as (stand_in,):
        fv = ela.compute_all(_processed(cfg), seed=int(cfg["seed"]))
        with open(stand_in, "w") as fh:
            fh.write(fv.to_csv() if out.suffix == ".csv" else fv.to_json() + "\n")
    log.info("wrote %d features to %s", len(fv.values), out)
    return 0


def cmd_fitmap(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "fitmap")
    mode = cfg["mode"]
    if mode not in FITMAP_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {', '.join(FITMAP_MODES)}")
    resolution, k = int(cfg["resolution"]), int(cfg["k"])
    if mode == "cloud" and k < 1:
        raise ValueError("cloud mode needs --k >= 1")
    out = Path(_require(cfg, "out"))
    if mode == "mc":  # write_stack stages the files of the stack itself
        stem = out.with_suffix("") if out.suffix == ".pgm" else out
        written = fitmap.write_stack(fitmap.multichannel(_processed(cfg), resolution=resolution), stem)
    else:
        written = [out]
        with sampling.staged(out) as (stand_in,):
            pd = _processed(cfg)
            if mode == "cloud":
                fitmap.cloud_to_csv(fitmap.knn_cloud(pd, k), stand_in)
            elif mode == "raw2d":
                fitmap.write_pgm(fitmap.rasterize_2d(pd, resolution=resolution), stand_in)
            elif mode == "rmc":
                fitmap.write_pgm(fitmap.reduce_mean(fitmap.multichannel(pd, resolution=resolution)), stand_in)
            else:  # pca, pca-func
                projection = fitmap.pca_project(pd, include_objective=(mode == "pca-func"))
                fitmap.write_pgm(fitmap.rasterize_projection(projection, pd.objective, resolution), stand_in)
    log.info("wrote %d file(s): %s", len(written), ", ".join(str(p) for p in written))
    return 0


def cmd_aas(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "aas")
    k, feature_cost, penalty = int(cfg["k"]), int(cfg["feature_cost"]), float(cfg["penalty"])
    if k < 1:
        raise ValueError("aas needs --k >= 1")
    if feature_cost < 0:
        raise ValueError("aas needs --feature-cost >= 0")
    if not 1 <= penalty < math.inf:
        raise ValueError("aas needs --penalty >= 1 and finite")
    groups = None
    if cfg["groups"] is not None:
        groups = {}
        for key, label in cfg["groups"].items():
            fid, sep, iid = key.partition(":")
            if not sep:
                raise ValueError(f"bad groups key {key!r}; expected 'fid:iid'")
            groups[(fid, iid)] = str(label)
    with sampling.staged(_require(cfg, "out")) as (stand_in,):
        report = aas_mod.cross_validate(
            aas_mod.read_features_csv(_require(cfg, "features")),
            aas_mod.read_performance_csv(_require(cfg, "performance")),
            scheme=cfg["scheme"],
            kind=cfg["selector"],
            k=k,
            cost_sensitive=bool(cfg["cost_sensitive"]),
            groups=groups,
            feature_cost=feature_cost,
            penalty=penalty,
        )
        with open(stand_in, "w") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    pooled = report["pooled"]
    log.info("sbs=%s gap_closure=%s", pooled["sbs_algorithm"], pooled["gap_closure"])
    return 0


# ── parser ───────────────────────────────────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landsel",
        description="Landscape features, fitness maps, and algorithm selection over sampled designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output path")
        return p

    p = add("sample", "draw an initial design (builtin sources are also evaluated)")
    p.add_argument("source", nargs="?", help="builtin:<fid>:d<D>[:i<iid>] or space JSON path")
    p.add_argument("--n", type=int, help="sample size (default 50*D)")
    p.add_argument("--strategy", choices=sampling.STRATEGIES, help="default latin_hypercube")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")

    p = add("evaluate", "evaluate an existing design on a builtin problem")
    p.add_argument("design", nargs="?", help="design CSV (with .meta.json sidecar)")
    p.add_argument("--source", help="builtin:<fid>:d<D>[:i<iid>]")

    for name, help_text in (
        ("preprocess", "run the preprocessing pipeline, write the processed matrix"),
        ("features", "preprocess and compute the landscape feature vector"),
        ("fitmap", "preprocess and export fitness maps or a kNN cloud"),
    ):
        p = add(name, help_text)
        p.add_argument("design", nargs="?", help="design CSV (with .meta.json sidecar)")
        p.add_argument("--encoding", choices=preprocess.ENCODINGS, help="default none")
        p.add_argument("--smoothing", type=float, help="target-encoding smoothing (default 0)")
        if name == "features":
            p.add_argument("--seed", type=int, help="tour seed (default 0)")
        if name == "fitmap":
            p.add_argument("--mode", choices=FITMAP_MODES, help="default raw2d")
            p.add_argument("--resolution", type=int, help="default 224")
            p.add_argument("--k", type=int, help="cloud neighbors (default 8)")

    p = add("aas", "cross-validate a selector over features and performance files")
    p.add_argument("features", nargs="?", help="batch feature CSV (fid,iid,<features>)")
    p.add_argument("performance", nargs="?", help="performance CSV (fid,iid,algorithm,run,...)")
    p.add_argument("--scheme", choices=aas_mod.CV_SCHEMES, help="default leave_iid_out")
    p.add_argument("--selector", choices=aas_mod.SELECTOR_KINDS, help="default knn")
    p.add_argument("--k", type=int, help="neighbors (default 1)")
    p.add_argument(
        "--cost-sensitive",
        dest="cost_sensitive",
        action="store_const",
        const=True,
        help="vote with normalized ERT costs instead of labels",
    )
    p.add_argument("--feature-cost", dest="feature_cost", type=int, help="design size charged to the model (default 0)")
    p.add_argument("--penalty", type=float, help="imputation penalty factor (default 10)")
    return parser


_DISPATCH = {
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
    "preprocess": cmd_preprocess,
    "features": cmd_features,
    "fitmap": cmd_fitmap,
    "aas": cmd_aas,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("LANDSEL_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as e:
        print(f"landsel {args.command}: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except OSError as e:  # a path that cannot be read or written, named by the error
        where = "" if e.filename is None else f"{e.filename}: "
        print(f"landsel {args.command}: {where}{e.strerror or e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - internal failures
        log.error("internal error: %s", e, exc_info=True)
        print(f"landsel {args.command}: internal error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
