"""The exit-2 contract under mutation, and its regression cases.

Valid category, presentation, sketch and transformation documents are
mutated one fault at a time, QuickCheck style (Claessen and Hughes, ICFP
2000), and every subcommand that reads documents runs in process through
``cli.main``.  No mutation may raise, every exit-2 result prints exactly
one stderr line, and a structural mutation (a value of another type, a
missing or unknown field, a list for an object or the reverse) exits 2.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from limsketch import cli
from limsketch.errors import InputError
from limsketch.fincat import category_loads
from limsketch.setops import presentation_loads, presentation_to_json_dict, terminal_presentation
from limsketch.sketchlib import build_sketch, builder_names, sketch_loads, sketch_to_json_dict

from tests.oracles import random_valid_presentation

# Each document is read by these subcommands; S and X by all of them.
COMMANDS = {
    "check": (["check"], {"S", "X"}),
    "reflect-elim": (["reflect", "--engine", "elim"], {"S", "X"}),
    "reflect-kelly": (["reflect", "--engine", "kelly"], {"S", "X"}),
    "compare": (["compare"], {"S", "X"}),
    "universal": (["universal"], {"S", "X", "M", "f"}),
}

# The key sets of the records of every document kind: an object with one
# of these key sets has exactly those fields, any other object is a map.
RECORDS = [
    {"objects", "arrows", "identities", "compose"},
    {"id", "dom", "cod"},
    {"g", "f", "gf"},
    {"category", "cones"},
    {"peak", "shape", "diagram", "legs"},
    {"objects", "arrows"},
    {"category", "carrier", "action"},
    {"components"},
]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_all(docs: dict[str, object], root: Path) -> dict[str, tuple[int, str, str]]:
    """Write the documents under ``root`` and run every subcommand on them."""
    paths = {key: root / f"{key}.json" for key in docs}
    for key, doc in docs.items():
        paths[key].write_text(json.dumps(doc), encoding="utf-8")
    files = ["--sketch", str(paths["S"]), "--presentation", str(paths["X"])]
    results = {}
    for name, (command, reads) in COMMANDS.items():
        extra = ["--model", str(paths["M"]), "--map", str(paths["f"])] if "M" in reads else []
        results[name] = run_main([*command, *files, *extra])
    return results


def documents(family: str, seed: int) -> dict[str, object]:
    """A sketch S, a presentation X over it, the terminal model M and the map f: X -> M."""
    sketch = build_sketch(family)
    x = random_valid_presentation(random.Random(seed), sketch.base, max_size=3)
    model = terminal_presentation(sketch.base)
    docs = {
        "S": sketch_to_json_dict(sketch),
        "X": presentation_to_json_dict(x),
        "M": presentation_to_json_dict(model, category=family),
        "f": {"components": {o: dict.fromkeys(x.carrier[o], "*") for o in sketch.base.objects}},
    }
    # JSON values, as the files hold them: the payloads' carriers are stored tuples, leaves to `nodes`
    return json.loads(json.dumps(docs))


# -- mutations -----------------------------------------------------------------

names = st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=6,
)


def json_type(value: object) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def is_record(value: object) -> bool:
    return isinstance(value, dict) and set(value) in RECORDS


def nodes(value: object, path: tuple = ()):
    """Every (path, value) pair of a JSON value, the value itself first."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield from nodes(sub, (*path, key))


def replace(doc: object, path: tuple, new: object) -> object:
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def rename_all(value: object, old: str, new: str) -> object:
    if isinstance(value, str):
        return new if value == old else value
    if isinstance(value, list):
        return [rename_all(v, old, new) for v in value]
    if isinstance(value, dict):
        return {(new if k == old else k): rename_all(v, old, new) for k, v in value.items()}
    return value


def mutate(draw, doc: object, prefix: tuple, optional: set) -> tuple[object, bool, str]:
    """One drawn mutation of ``doc`` under ``prefix``: (new doc, structural, what)."""
    here = doc
    for key in prefix:
        here = here[key]
    path, node = draw(st.sampled_from([(prefix + p, v) for p, v in nodes(here)]))
    # the identifiers a rename can hit here: the node itself or its keys
    strings = [node] if isinstance(node, str) else sorted(node) if isinstance(node, dict) else []
    kinds = ["swap-type"] + (["rename"] if strings else [])
    if isinstance(node, (dict, list)):
        kinds.append("list-object")
    if isinstance(node, dict):
        kinds.append("add-key")
    if node and (isinstance(node, list) or isinstance(node, dict) and not is_record(node)):
        kinds.append("drop-entry")
    if is_record(node):
        kinds.append("delete-field")
    kind = draw(st.sampled_from(kinds))
    what = f"{kind} at {path!r}"
    if kind == "swap-type":
        new = draw(json_values.filter(lambda v: json_type(v) != json_type(node)))
        return replace(doc, path, new), True, what
    if kind == "list-object":
        if isinstance(node, dict):
            new = list(node.values())
        else:
            new = {str(i): v for i, v in enumerate(node)}
        return replace(doc, path, new), True, what
    if kind == "add-key":
        key = draw(names.filter(lambda k: k not in node))
        node[key] = draw(json_values)
        return doc, is_record(node), what
    if kind == "delete-field":
        key = draw(st.sampled_from(sorted(node)))
        del node[key]
        return doc, (path, key) not in optional, what
    if kind == "drop-entry":
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        del node[key]
        return doc, False, what
    # rename: one occurrence, or every occurrence in the document
    old = draw(st.sampled_from(strings))
    new = draw(names)
    if draw(st.booleans()):
        return rename_all(doc, old, new), False, f"rename {old!r} everywhere"
    if isinstance(node, dict):
        node[new] = node.pop(old)
        return doc, False, what
    return replace(doc, path, new), False, what


# Where each kind of document sits among the files: (file, path prefix).
TARGETS = {
    "category": [("X", ("category",)), ("S", ("category",)), ("S", ("cones", 0, "shape"))],
    "presentation": [("X", ()), ("M", ())],
    "sketch": [("S", ())],
    "transformation": [("f", ())],
}


@pytest.mark.parametrize("kind", sorted(TARGETS))
@settings(
    max_examples=80,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_contract(kind, data):
    family = data.draw(st.sampled_from(builder_names()))
    docs = documents(family, data.draw(st.integers(0, 2**16)))
    key, prefix = data.draw(st.sampled_from(TARGETS[kind]))
    # the presentation's category is optional: the sketch supplies the base
    optional = {((), "category")} if key in {"X", "M"} else set()
    doc, structural, what = mutate(data.draw, copy.deepcopy(docs[key]), prefix, optional)
    docs[key] = doc
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(docs, Path(tmp))
    for command, (code, _, err) in results.items():
        context = f"{command} after {what} in {key}: exit {code}, stderr {err!r}"
        assert code in (0, 1, 2, 3, 4), context
        if code == 2:
            assert err.startswith("input error: ") and err.count("\n") == 1, context
            assert err.endswith("\n"), context
        if structural and key in COMMANDS[command][1]:
            assert code == 2, context


def test_unmutated_documents_run_every_subcommand(tmp_path):
    for family in builder_names():
        results = run_all(documents(family, 7), tmp_path)
        codes = {command: code for command, (code, _, _) in results.items()}
        assert codes.pop("check") in (0, 1) and set(codes.values()) == {0}, (family, results)


# -- regression cases ----------------------------------------------------------


def write(tmp_path: Path, name: str, doc: object) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def check(sketch: str, presentation: str) -> tuple[int, str, str]:
    return run_main(["check", "--sketch", sketch, "--presentation", presentation])


EQUALIZER_EMPTY = {
    "category": "equalizer",
    "carrier": {"a": [], "b": [], "q": []},
    "action": {"e": {}, "f": {}, "g": {}, "w": {}},
}


def _shape_object_renamed(doc):
    doc["cones"][0]["shape"]["objects"][0] = "s"


def _shape_arrow_from_unknown_object(doc):
    # the diagram maps the stray object too, so the functor check passes
    for arrow in doc["cones"][0]["shape"]["arrows"]:
        if arrow["id"] == "u1":
            arrow["dom"] = "zz"
    doc["cones"][0]["diagram"]["objects"]["zz"] = "a"


def _shape_compose_entry_dropped(doc):
    doc["cones"][0]["shape"]["compose"].pop(0)


@pytest.mark.parametrize(
    ("edit", "violation"),
    [
        (_shape_object_renamed, "arrow-dom: arrow 'id_za' has unknown domain 'za'"),
        (_shape_arrow_from_unknown_object, "arrow-dom: arrow 'u1' has unknown domain 'zz'"),
        (
            _shape_compose_entry_dropped,
            "compose-partial: composable pair ('id_za','id_za') has no entry",
        ),
    ],
    ids=["object-without-identity", "arrow-from-unknown-object", "compose-entry-dropped"],
)
def test_invalid_shape_exits_two(tmp_path, edit, violation):
    doc = sketch_to_json_dict(build_sketch("equalizer"))
    edit(doc)
    sketch = write(tmp_path, "S.json", doc)
    code, out, err = check(sketch, write(tmp_path, "X.json", EQUALIZER_EMPTY))
    assert (code, out) == (2, "")
    assert err == f"input error: {sketch}: invalid sketch: cone c0: shape: {violation}\n"


def test_partial_action_exits_two(tmp_path):
    pres = write(
        tmp_path,
        "X.json",
        {
            "category": "iso_forcing",
            "carrier": {"a": ["x1", "x2"], "b": ["y"]},
            "action": {"t": {"x1": "y"}},
        },
    )
    assert check("iso_forcing", pres) == (
        2,
        "",
        f"input error: {pres}: action of 't' undefined on 'x2'\n",
    )


def test_action_on_an_element_outside_the_carrier_exits_two(tmp_path):
    pres = write(
        tmp_path,
        "X.json",
        {
            "category": "iso_forcing",
            "carrier": {"a": ["x1", "x2"], "b": ["y"]},
            "action": {"t": {"x1": "y", "x2": "y", "ghost": "nowhere"}},
        },
    )
    assert check("iso_forcing", pres) == (
        2,
        "",
        f"input error: {pres}: action of 't' defined on 'ghost', not in 'a'\n",
    )


@pytest.mark.parametrize(
    ("identity", "message"),
    [
        ({"x1": "x2", "x2": "x1"}, "identity action 'id_a' moves 'x1'"),
        ({"x1": "x1", "ghost": "ghost"}, "action of 'id_a' defined on 'ghost', not in 'a'"),
    ],
    ids=["moves", "off-carrier"],
)
def test_identity_action_that_is_no_identity_exits_two(tmp_path, identity, message):
    pres = write(
        tmp_path,
        "X.json",
        {
            "category": "iso_forcing",
            "carrier": {"a": ["x1", "x2"], "b": ["y"]},
            "action": {"t": {"x1": "y", "x2": "y"}, "id_a": identity},
        },
    )
    assert check("iso_forcing", pres) == (2, "", f"input error: {pres}: {message}\n")


def test_given_identity_action_that_fixes_its_carrier_loads(tmp_path):
    doc = {
        "category": "iso_forcing",
        "carrier": {"a": ["x1", "x2"], "b": ["y"]},
        "action": {"t": {"x1": "y", "x2": "y"}, "id_a": {"x1": "x1"}, "id_b": {"y": "y"}},
    }
    code, _, err = check("iso_forcing", write(tmp_path, "X.json", doc))
    assert (code, err) == (1, "")


def test_identity_of_an_unknown_object_exits_two(tmp_path):
    doc = sketch_to_json_dict(build_sketch("iso_forcing"))
    doc["category"]["identities"]["zz"] = "t"
    sketch = write(tmp_path, "S.json", doc)
    code, out, err = check(sketch, write(tmp_path, "X.json", {"carrier": {}, "action": {}}))
    assert (code, out) == (2, "")
    violation = "identity-object: identity given for unknown object 'zz'"
    assert err == f"input error: {sketch}: invalid sketch: {violation}\n"


@pytest.mark.parametrize(
    ("field", "violation"),
    [
        ("legs", "leg-object: leg given at unknown shape object 'zq'"),
        ("objects", "object-map-domain: image given for unknown object 'zq'"),
        ("arrows", "arrow-map-domain: image given for unknown arrow 'zq'"),
    ],
    ids=["legs", "diagram-objects", "diagram-arrows"],
)
def test_foreign_name_in_a_cone_map_exits_two(tmp_path, field, violation):
    doc = sketch_to_json_dict(build_sketch("binary_product"))
    cone = doc["cones"][0]
    (cone if field == "legs" else cone["diagram"])[field]["zq"] = "nonexistent"
    sketch = write(tmp_path, "S.json", doc)
    pres = write(tmp_path, "X.json", {"carrier": {}, "action": {}})
    code, out, err = run_main(["reflect", "--sketch", sketch, "--presentation", pres])
    assert (code, out) == (2, "")
    assert err == f"input error: {sketch}: invalid sketch: cone c0: {violation}\n"


def test_null_category_exits_two(tmp_path):
    pres = write(tmp_path, "X.json", {**EQUALIZER_EMPTY, "category": None})
    code, out, err = check("equalizer", pres)
    assert (code, out, err) == (2, "", f"input error: {pres}: $.category must be an object\n")


def test_unit_law_fault_at_a_multiline_object_name_prints_one_line(tmp_path):
    doc = rename_all(sketch_to_json_dict(build_sketch("iso_forcing")), "b", "b\nc")
    # a second arrow a -> b\nc, and id . t sent to it
    doc["category"]["arrows"].append({"id": "t2", "dom": "a", "cod": "b\nc"})
    for entry in doc["category"]["compose"]:
        if entry["f"] == "t" and entry["g"] != "t":
            entry["gf"] = "t2"
    doc["category"]["compose"] += [
        {"g": "id_b", "f": "t2", "gf": "t2"},
        {"g": "t2", "f": "id_a", "gf": "t2"},
    ]
    sketch = write(tmp_path, "S.json", doc)
    code, _, err = check(sketch, write(tmp_path, "X.json", {"carrier": {}, "action": {}}))
    assert code == 2
    violation = "unit-left: compose('id_b', 't') = 't2'"
    assert err == f"input error: {sketch}: invalid sketch: {violation}\n"


def test_leg_naturality_fault_at_a_multiline_shape_object_prints_one_line(tmp_path):
    doc = sketch_to_json_dict(build_sketch("two_cover_sheaf"))
    # a second arrow T -> W, taken as the leg at zW: uw . tu = tw is not tw2
    doc["category"]["arrows"].append({"id": "tw2", "dom": "T", "cod": "W"})
    doc["category"]["compose"] += [
        {"g": "id_W", "f": "tw2", "gf": "tw2"},
        {"g": "tw2", "f": "id_T", "gf": "tw2"},
    ]
    doc["cones"][0]["legs"]["zW"] = "tw2"
    doc["cones"][0] = rename_all(doc["cones"][0], "zU", "z\nU")
    sketch = write(tmp_path, "S.json", doc)
    code, _, err = check(sketch, write(tmp_path, "X.json", {"carrier": {}, "action": {}}))
    assert code == 2
    assert err == (
        f"input error: {sketch}: invalid sketch: cone c0: leg-naturality: shape arrow 'zuw': "
        f"diagram . leg at 'z\\nU' = 'tw' but leg at 'zW' = 'tw2'\n"
    )


def test_undecodable_file_exits_two(tmp_path):
    path = tmp_path / "X.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = check("iso_forcing", str(path))
    assert code == 2
    assert err.startswith(f"input error: cannot read {path}: ") and err.count("\n") == 1


def test_deeply_nested_file_exits_two(tmp_path):
    path = tmp_path / "X.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, _, err = check("iso_forcing", str(path))
    assert code == 2
    assert err.startswith(f"input error: {path}: JSON parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "loader", [category_loads, presentation_loads, sketch_loads], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"a": ' * 5_000 + "1" + "}" * 5_000, "{broken json"],
    ids=["nested-array", "nested-object", "undecodable"],
)
def test_library_loaders_refuse_unreadable_text(loader, text):
    with pytest.raises(InputError, match=": JSON parse error: "):
        loader(text)


def test_duplicate_base_object_exits_two(tmp_path):
    # with 'b' twice, universal found a counterexample (search space 8) for a unique g
    doc = sketch_to_json_dict(build_sketch("iso_forcing"))
    doc["category"]["objects"] = ["a", "b", "b"]
    sketch = write(tmp_path, "S.json", doc)
    pres = write(
        tmp_path,
        "X.json",
        {"carrier": {"a": ["x1", "x2"], "b": ["y"]}, "action": {"t": {"x1": "y", "x2": "y"}}},
    )
    for command in (["check"], ["reflect"], ["compare"]):
        code, out, err = run_main([*command, "--sketch", sketch, "--presentation", pres])
        assert (code, out) == (2, "")
        assert err == f"input error: {sketch}: duplicate object 'b'\n"


def test_duplicate_carrier_element_exits_two(tmp_path):
    # the loader used to drop the second 'x' and reflect as if a were ['x']
    pres = write(
        tmp_path,
        "X.json",
        {"category": "binary_product", "carrier": {"a": ["x", "x"], "p": []},
         "action": {"pi1": {}, "pi2": {}}},
    )
    for command in (["check"], ["reflect"]):
        code, out, err = run_main([*command, "--sketch", "binary_product", "--presentation", pres])
        assert (code, out) == (2, "")
        assert err == f"input error: {pres}: duplicate element 'x' in carrier of 'a'\n"


def test_duplicate_shape_object_exits_two(tmp_path):
    doc = sketch_to_json_dict(build_sketch("equalizer"))
    doc["cones"][0]["shape"]["objects"].append("zb")
    sketch = write(tmp_path, "S.json", doc)
    code, out, err = check(sketch, write(tmp_path, "X.json", EQUALIZER_EMPTY))
    assert (code, out) == (2, "")
    assert err == f"input error: {sketch}: invalid sketch: cone c0: shape: duplicate object 'zb'\n"


def test_duplicate_shape_arrow_exits_two(tmp_path):
    doc = sketch_to_json_dict(build_sketch("equalizer"))
    arrows = doc["cones"][0]["shape"]["arrows"]
    arrows.append(dict(arrows[0]))
    sketch = write(tmp_path, "S.json", doc)
    code, out, err = check(sketch, write(tmp_path, "X.json", EQUALIZER_EMPTY))
    assert (code, out) == (2, "")
    name = arrows[0]["id"]
    assert err == f"input error: {sketch}: invalid sketch: cone c0: shape: duplicate arrow {name!r}\n"
