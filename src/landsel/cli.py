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

Each option is declared once, as a row of ``OPTIONS``: its key, type,
default, choices and help.  The rows build the parser (``landsel <command>
--help`` lists each option with its default), check a JSON config file
(``--config``), whose keys are the options' names, and supply the defaults: a
flag overrides the config file, which overrides the default.  Unknown config
keys, and values of the wrong type or outside their choices, are refused
naming the file and the key.  ``groups`` can be set only in a config file.

Every command is deterministic given its flags and inputs: all randomness
flows through explicit ``--seed`` values and outputs carry no timestamps, so
repeated invocations are byte-identical.  The only environment variable
consulted is ``LANDSEL_LOG`` (stderr log verbosity; never affects outputs).

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

# One row per option of a subcommand: (key, type, default, choices, help).  A
# key is written as on the command line: "--feature-cost" is a flag, whose
# config key is "feature_cost", and "design" a positional; a dict is an object
# that only a config file can give.  A default of ... marks a required key, and
# None an optional one that stays unset.
_OUT = ("--out", str, ..., None, "output path")
_DESIGN = ("design", str, ..., None, "design CSV (with .meta.json sidecar)")
_ENCODING = ("--encoding", str, "none", preprocess.ENCODINGS, "decision-column encoding")
_SMOOTHING = ("--smoothing", float, 0.0, None, "target-encoding smoothing")
OPTIONS: dict[str, tuple[tuple, ...]] = {
    "sample": (
        ("source", str, ..., None, "builtin:<fid>:d<D>[:i<iid>] or space JSON path"),
        ("--n", int, None, None, "sample size (default 50*D)"),
        ("--strategy", str, "latin_hypercube", sampling.STRATEGIES, "sampling strategy"),
        ("--seed", int, 0, None, "RNG seed"),
        _OUT,
    ),
    "evaluate": (_DESIGN, ("--source", str, ..., None, "builtin:<fid>:d<D>[:i<iid>]"), _OUT),
    "preprocess": (_DESIGN, _ENCODING, _SMOOTHING, _OUT),
    "features": (_DESIGN, _ENCODING, _SMOOTHING, ("--seed", int, 0, None, "tour seed"), _OUT),
    "fitmap": (
        _DESIGN,
        _ENCODING,
        _SMOOTHING,
        ("--mode", str, "raw2d", FITMAP_MODES, "map kind"),
        ("--resolution", int, fitmap.DEFAULT_RESOLUTION, None, "pixels per side"),
        ("--k", int, 8, None, "cloud neighbors"),
        _OUT,
    ),
    "aas": (
        ("features", str, ..., None, "batch feature CSV (fid,iid,<features>)"),
        ("performance", str, ..., None, "performance CSV (fid,iid,algorithm,run,...)"),
        ("--scheme", str, "leave_iid_out", aas_mod.CV_SCHEMES, "cross-validation scheme"),
        ("--selector", str, "knn", aas_mod.SELECTOR_KINDS, "selector kind"),
        ("--k", int, 1, None, "neighbors"),
        ("--cost-sensitive", bool, False, None, "vote with normalized ERT costs instead of labels"),
        ("--feature-cost", int, 0, None, "design size charged to the model"),
        ("--penalty", float, aas_mod.DEFAULT_PENALTY, None, "imputation penalty factor"),
        ("groups", dict, None, None, "an object mapping 'fid:iid' to a group label"),
        _OUT,
    ),
}
_KINDS = {str: "a string", int: "an integer", float: "a number", bool: "true or false", dict: "an object"}


def _options(command: str) -> dict[str, tuple]:
    """The rows of ``command`` by config key."""
    return {row[0].lstrip("-").replace("-", "_"): row for row in OPTIONS[command]}


def _load_config(path: str | None, command: str) -> dict:
    """The set keys of a JSON config file, each checked against its row; a
    JSON integer given for a number becomes a float, and null means unset."""
    if path is None:
        return {}
    p = Path(path)
    try:
        obj = json.loads(p.read_text())
    except (ValueError, RecursionError) as e:  # undecodable, malformed or too deeply nested
        raise ValueError(f"{p}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{p}: config must be a JSON object")
    options = _options(command)
    unknown = sorted(set(obj) - set(options))
    if unknown:
        raise ValueError(f"{p}: unknown config keys for {command!r}: {', '.join(unknown)}")
    config = {}
    for key, value in obj.items():
        _, kind, default, choices, _ = options[key]
        if value is None and default in (None, ...):
            continue
        is_bool = isinstance(value, bool)  # JSON true and false are ints to Python
        if is_bool != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ValueError(f"{p}: config key {key!r} must be {_KINDS[kind]}, got {json.dumps(value)}")
        if choices and value not in choices:
            raise ValueError(
                f"{p}: config key {key!r} must be one of {', '.join(choices)}, got {json.dumps(value)}"
            )
        try:
            config[key] = kind(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{p}: config key {key!r} must be a number within the float range") from None
    return config


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge flag values over config values over the table's defaults."""
    config = _load_config(args.config, command)
    out = {}
    for key, (_, _, default, _, _) in _options(command).items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else config.get(key, default)
        if out[key] is ...:
            raise ValueError(f"{key!r} is required (flag or config)")
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


def _processed(cfg: dict) -> preprocess.ProcessedDesign:
    design = sampling.design_from_csv(cfg["design"])
    return preprocess.preprocess_pipeline(design, encoding=cfg["encoding"], smoothing=cfg["smoothing"])


# ── subcommands ──────────────────────────────────────────────────────────────


def cmd_sample(cfg: dict) -> int:
    source = _parse_source(cfg["source"])
    target_space = source.space if isinstance(source, space.Problem) else source
    design = sampling.create_initial_design(
        target_space, n=cfg["n"], strategy=cfg["strategy"], seed=cfg["seed"]
    )
    if isinstance(source, space.Problem):
        design = sampling.evaluate_design(source, design)
    sampling.design_to_csv(design, cfg["out"])
    log.info("wrote %d-row design to %s", design.n, cfg["out"])
    return 0


def cmd_evaluate(cfg: dict) -> int:
    design = sampling.design_from_csv(cfg["design"])
    source = _parse_source(cfg["source"])
    if not isinstance(source, space.Problem):
        raise ValueError("evaluate needs a builtin problem source, not a bare search space")
    sampling.design_to_csv(sampling.evaluate_design(source, design), cfg["out"])
    log.info("wrote %d-row evaluated design to %s", design.n, cfg["out"])
    return 0


def cmd_preprocess(cfg: dict) -> int:
    pd = _processed(cfg)
    preprocess.processed_to_csv(pd, cfg["out"])
    log.info("wrote processed design (%d columns) to %s", pd.width, cfg["out"])
    return 0


def cmd_features(cfg: dict) -> int:
    out = Path(cfg["out"])
    with sampling.staged(out) as (stand_in,):
        fv = ela.compute_all(_processed(cfg), seed=cfg["seed"])
        with open(stand_in, "w") as fh:
            fh.write(fv.to_csv() if out.suffix == ".csv" else fv.to_json() + "\n")
    log.info("wrote %d features to %s", len(fv.values), out)
    return 0


def cmd_fitmap(cfg: dict) -> int:
    mode, resolution, out = cfg["mode"], cfg["resolution"], Path(cfg["out"])
    if mode == "cloud" and cfg["k"] < 1:
        raise ValueError("cloud mode needs --k >= 1")
    if mode == "mc":  # write_stack stages the files of the stack itself
        stem = out.with_suffix("") if out.suffix == ".pgm" else out
        written = fitmap.write_stack(fitmap.multichannel(_processed(cfg), resolution=resolution), stem)
    else:
        written = [out]
        with sampling.staged(out) as (stand_in,):
            pd = _processed(cfg)
            if mode == "cloud":
                fitmap.cloud_to_csv(fitmap.knn_cloud(pd, cfg["k"]), stand_in)
            elif mode == "raw2d":
                fitmap.write_pgm(fitmap.rasterize_2d(pd, resolution=resolution), stand_in)
            elif mode == "rmc":
                fitmap.write_pgm(fitmap.reduce_mean(fitmap.multichannel(pd, resolution=resolution)), stand_in)
            else:  # pca, pca-func
                projection = fitmap.pca_project(pd, include_objective=(mode == "pca-func"))
                fitmap.write_pgm(fitmap.rasterize_projection(projection, pd.objective, resolution), stand_in)
    log.info("wrote %d file(s): %s", len(written), ", ".join(str(p) for p in written))
    return 0


def cmd_aas(cfg: dict) -> int:
    if cfg["k"] < 1:
        raise ValueError("aas needs --k >= 1")
    if cfg["feature_cost"] < 0:
        raise ValueError("aas needs --feature-cost >= 0")
    if not 1 <= cfg["penalty"] < math.inf:
        raise ValueError("aas needs --penalty >= 1 and finite")
    groups = None
    if cfg["groups"] is not None:
        groups = {}
        for key, label in cfg["groups"].items():
            fid, sep, iid = key.partition(":")
            if not sep:
                raise ValueError(f"bad groups key {key!r}; expected 'fid:iid'")
            groups[(fid, iid)] = str(label)
    with sampling.staged(cfg["out"]) as (stand_in,):
        report = aas_mod.cross_validate(
            aas_mod.read_features_csv(cfg["features"]),
            aas_mod.read_performance_csv(cfg["performance"]),
            scheme=cfg["scheme"],
            kind=cfg["selector"],
            k=cfg["k"],
            cost_sensitive=cfg["cost_sensitive"],
            groups=groups,
            feature_cost=cfg["feature_cost"],
            penalty=cfg["penalty"],
        )
        with open(stand_in, "w") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    pooled = report["pooled"]
    log.info("sbs=%s gap_closure=%s", pooled["sbs_algorithm"], pooled["gap_closure"])
    return 0


# ── parser ───────────────────────────────────────────────────────────────────

_COMMANDS = {
    "sample": (cmd_sample, "draw an initial design (builtin sources are also evaluated)"),
    "evaluate": (cmd_evaluate, "evaluate an existing design on a builtin problem"),
    "preprocess": (cmd_preprocess, "run the preprocessing pipeline, write the processed matrix"),
    "features": (cmd_features, "preprocess and compute the landscape feature vector"),
    "fitmap": (cmd_fitmap, "preprocess and export fitness maps or a kNN cloud"),
    "aas": (cmd_aas, "cross-validate a selector over features and performance files"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landsel",
        description="Landscape features, fitness maps, and algorithm selection over sampled designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        config_help = "JSON config file with the options' names as keys; flags override its values"
        for key, kind, default, choices, text in OPTIONS[command]:
            if default not in (None, ...):
                text += " (default {})".format(json.dumps(default).strip('"'))
            if kind is dict:
                config_help += f"; config only: {key}, {text}"
            elif kind is bool:
                p.add_argument(key, action="store_const", const=True, help=text)
            else:
                nargs = None if key.startswith("-") else "?"  # a positional may come from the config
                p.add_argument(key, nargs=nargs, type=kind, choices=choices, help=text)
        p.add_argument("--config", help=config_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("LANDSEL_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args, args.command))
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
