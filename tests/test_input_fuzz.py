"""Fuzzed input files: every search-space document, design CSV (with its
sidecar) and ``--config`` file either parses or is refused with a ValueError
that names the file it came from, and the CLI never exits 1 on them."""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import example, given
from hypothesis import strategies as st

from landsel import cli
from landsel.sampling import design_from_csv
from landsel.space import VARIABLE_KINDS, space_from_json, space_to_obj

from conftest import FUZZ_CELLS, fuzz_files, hierarchy_docs, rgb_space

# JSON values of every type, with the edge cases a hand-written file may hold:
# huge integers, non-finite floats, empty strings and nested containers.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.sampled_from([2**63, 10**400]),
    st.floats(),
    st.sampled_from(["", "a", "b", "x", "r", "continuous", "integer", "categorical"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["parent", "values", "name", "x"]), inner, max_size=3),
    max_leaves=6,
)
NAMES = st.sampled_from(["a", "b", "c"])


def valid_or_any(valid):
    return st.one_of(valid, JSON_VALUES)


VARIABLES = st.fixed_dictionaries(
    {"name": valid_or_any(NAMES), "kind": valid_or_any(st.sampled_from(VARIABLE_KINDS))},
    optional={
        "lower": valid_or_any(st.integers(-2, 2)),
        "upper": valid_or_any(st.integers(-2, 3)),
        "categories": valid_or_any(st.lists(st.sampled_from(["r", "g", 1, 2]), max_size=3)),
        "condition": valid_or_any(
            st.fixed_dictionaries(
                {"parent": valid_or_any(NAMES)},
                optional={"values": valid_or_any(st.lists(st.sampled_from(["r", "g", 0, 1, 5]), max_size=2))},
            )
        ),
        "extra": JSON_VALUES,
    },
)
# valid hierarchies come in any listing order, children before parents too
SPACE_DOCS = st.one_of(st.lists(VARIABLES, max_size=4), hierarchy_docs(), JSON_VALUES)
FREE_JSON_TEXT = st.text(alphabet='[]{}",:0123abe.-\n', max_size=40)
SPACE_TEXTS = st.one_of(SPACE_DOCS.map(json.dumps), FREE_JSON_TEXT)
VALID_SPACE = json.dumps(space_to_obj(rgb_space()))


def write(tmp_path_factory, name: str, text: str):
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return path


def run_quietly(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def assert_refusal_names(error: ValueError, *paths) -> None:
    assert any(str(p) in str(error) for p in paths), str(error)


class TestSpaceDocuments:
    @given(SPACE_TEXTS)
    @example(VALID_SPACE)
    @example('[{"name": "a", "kind": "categorical", "categories": 5}]')
    @example('[{"name": "a", "kind": "continuous", "lower": 0, "upper": 1e400}]')
    @example('[{"name": "a", "kind": "integer", "lower": 0, "upper": ' + str(10**400) + "}]")
    @example('[{"name": "a", "kind": "categorical", "categories": [[1]]}]')
    @example('[{"name": "a", "kind": "integer", "lower": 0, "upper": 1, "condition": {"parent": ["a"], "values": [0]}}]')
    @example('[{"name": "a", "kind": "integer", "lower": 0, "upper": 1, "condition": {"parent": "a", "values": 3}}]')
    @example("[" * 100_000)
    def test_parses_or_raises_value_error(self, text):
        try:
            space_from_json(text)
        except ValueError as e:
            assert str(e)

    @given(SPACE_TEXTS)
    @example(VALID_SPACE)
    @example(
        '[{"name": "a", "kind": "integer", "lower": 0, "upper": 1, "condition": {"parent": "b", "values": [1]}},'
        ' {"name": "b", "kind": "integer", "lower": 0, "upper": 1, "condition": {"parent": "a", "values": [1]}}]'
    )
    def test_cli_source_file(self, tmp_path_factory, text):
        path = write(tmp_path_factory, "space.json", text)
        try:
            cli._parse_source(str(path))
            valid = True
        except ValueError as e:
            assert str(e).startswith(str(path)), str(e)
            valid = False
        code, err = run_quietly("sample", path, "--n", 4, "--out", path.with_name("design.csv"))
        assert code == (0 if valid else 2), err
        if code == 2:
            assert str(path) in err


DESIGN_CELLS = st.one_of(FUZZ_CELLS, st.sampled_from(["r", "g", "0.5", "-2", "4", "3.0", "1e400"]))
SIDECARS = st.one_of(
    st.just(json.dumps({"meta": {}, "space": space_to_obj(rgb_space())})),
    st.builds(lambda space, meta: json.dumps({"space": space, "meta": meta}), SPACE_DOCS, JSON_VALUES),
    JSON_VALUES.map(json.dumps),
    FREE_JSON_TEXT,
)
GOOD_ROW = "0.5,r,1,2.0\n"


class TestDesignFiles:
    """``design_from_csv`` errors name the design file or its sidecar."""

    @given(fuzz_files(["x.x", "x.c", "x.k", "y"], DESIGN_CELLS), SIDECARS)
    @example("x.x,x.c,x.k,y\n" + GOOD_ROW, json.dumps({"meta": {}, "space": space_to_obj(rgb_space())}))
    @example("x.x,x.c,x.k,y\n0.5,r,inf,\n", json.dumps({"space": space_to_obj(rgb_space())}))
    @example("x.x,x.c,x.k,y\n0.5,r,1,x\n", json.dumps({"space": space_to_obj(rgb_space())}))
    @example("x.x,x.c,x.k,y\n9,r,1,\n", json.dumps({"space": space_to_obj(rgb_space())}))
    @example("x.x,x.c,x.k,y\n" + GOOD_ROW, json.dumps({"space": space_to_obj(rgb_space()), "meta": 5}))
    @example("x.x,x.c,x.k,y\n" + GOOD_ROW, "{")
    @example("x.x,x.c,x.k,y\n" + GOOD_ROW, "[" * 100_000)
    def test_sidecar_space(self, tmp_path_factory, text, sidecar_text):
        path = write(tmp_path_factory, "design.csv", text)
        sidecar = path.with_name("design.meta.json")
        sidecar.write_text(sidecar_text)
        try:
            design_from_csv(path)
        except ValueError as e:
            assert_refusal_names(e, path, sidecar)
        code, err = run_quietly("preprocess", path, "--out", path.with_name("processed.csv"))
        assert code in (0, 2), err

    @given(fuzz_files(["x.x", "x.c", "x.k", "y"], DESIGN_CELLS), JSON_VALUES)
    @example("x.x,x.c,x.k,y\n" + GOOD_ROW, [])
    def test_valid_space_any_meta(self, tmp_path_factory, text, meta):
        path = write(tmp_path_factory, "design.csv", text)
        sidecar = path.with_name("design.meta.json")
        sidecar.write_text(json.dumps({"space": space_to_obj(rgb_space()), "meta": meta}))
        try:
            design_from_csv(path)
        except ValueError as e:
            assert_refusal_names(e, path, sidecar)


CONFIG_KEYS = st.sampled_from(sorted({key for command in cli.OPTIONS for key in cli._options(command)} | {"x"}))
CONFIG_TEXTS = st.one_of(
    st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=4).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    FREE_JSON_TEXT,
    st.just("\udcff{}"),  # a byte that is not UTF-8
)


class TestConfigFiles:
    @given(st.sampled_from(sorted(cli.OPTIONS)), CONFIG_TEXTS)
    @example("fitmap", '{"resolution": 16, "mode": "rmc"}')
    @example("features", '{"smoothing": 1e400}')
    @example("aas", '{"penalty": 1' + "0" * 400 + "}")
    @example("fitmap", '{"mode": "grid"}')
    @example("sample", '{"n": ' + "[" * 100_000 + "}")
    def test_parses_or_names_the_file(self, tmp_path_factory, command, text):
        path = write(tmp_path_factory, "config.json", text)
        try:
            config = cli._load_config(str(path), command)
        except ValueError as e:
            assert str(e).startswith(str(path)), str(e)
        else:
            assert set(config) <= set(cli._options(command))
