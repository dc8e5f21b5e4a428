from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsketch import fincat
from limsketch.errors import InputError
from limsketch.fincat import (
    Arrow,
    CatFunctor,
    FinCategory,
    category_dumps,
    category_loads,
    report_text,
    validate_category,
    validate_functor,
    write_report,
)


def one_object_category() -> FinCategory:
    return FinCategory.build("one", ["a"], [], {})


def iso_category() -> FinCategory:
    return FinCategory.build("iso", ["a", "b"], [("t", "a", "b")], {})


def binary_category() -> FinCategory:
    return FinCategory.build(
        "bin", ["a", "p"], [("pi1", "p", "a"), ("pi2", "p", "a")], {}
    )


def test_validate_trivial_category():
    assert validate_category(one_object_category()).ok


def test_validate_iso_forcing_category():
    assert validate_category(iso_category()).ok


def test_planted_unit_defect_is_reported():
    cat = iso_category()
    cat.composition[("t", "id_a")] = "id_b"  # wrong: must be t
    report = validate_category(cat)
    assert not report.ok
    assert any(v.rule == "unit-right" and "t" in v.detail for v in report.violations)


def test_missing_composite_is_reported():
    cat = iso_category()
    del cat.composition[("id_b", "t")]
    report = validate_category(cat)
    assert any(v.rule == "compose-partial" for v in report.violations)


def test_associativity_defect_is_reported():
    cat = FinCategory.build(
        "chain",
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d"),
         ("ac", "a", "c"), ("bd", "b", "d"), ("ad", "a", "d"), ("ad2", "a", "d")],
        {
            ("bc", "ab"): "ac",
            ("cd", "bc"): "bd",
            ("cd", "ac"): "ad",
            ("bd", "ab"): "ad2",  # breaks h(gf) = (hg)f
        },
    )
    report = validate_category(cat)
    assert any(v.rule == "associativity" for v in report.violations)


def test_hom_examples():
    iso = iso_category()
    assert iso.hom("a", "b") == ("t",)
    assert iso.hom("b", "a") == ()
    assert binary_category().hom("p", "a") == ("pi1", "pi2")


def test_hom_is_a_partition():
    for cat in (one_object_category(), iso_category(), binary_category()):
        total = sum(len(cat.hom(a, b)) for a in cat.objects for b in cat.objects)
        assert total == len(cat.arrows)


def test_is_identity_answers_from_the_identities():
    cat = iso_category()
    assert [n for n in sorted(cat.arrows) if cat.is_identity(n)] == ["id_a", "id_b"]
    with pytest.raises(InputError, match="unknown arrow 'nope'"):
        cat.is_identity("nope")


def test_hom_unknown_object():
    with pytest.raises(InputError):
        iso_category().hom("a", "nope")


def test_hom_is_deterministic():
    cat = binary_category()
    assert cat.hom("p", "a") == cat.hom("p", "a") == ("pi1", "pi2")


def test_identity_functor_validates():
    cat = iso_category()
    identity = CatFunctor(cat, cat, {o: o for o in cat.objects}, {a: a for a in cat.arrows})
    assert validate_functor(identity).ok


def test_constant_functor_validates():
    src = iso_category()
    tgt = one_object_category()
    functor = CatFunctor(
        src, tgt, {o: "a" for o in src.objects}, {a: "id_a" for a in src.arrows}
    )
    assert validate_functor(functor).ok


def test_functor_composition_defect_is_reported():
    cat = FinCategory.build(
        "chain3",
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c"), ("ac2", "a", "c")],
        {("bc", "ab"): "ac"},
    )
    assert validate_category(cat).ok
    bad = CatFunctor(
        cat,
        cat,
        {"a": "a", "b": "b", "c": "c"},
        {
            "id_a": "id_a",
            "id_b": "id_b",
            "id_c": "id_c",
            "ab": "ab",
            "bc": "bc",
            "ac": "ac2",  # endpoints legal, composite wrong
            "ac2": "ac2",
        },
    )
    report = validate_functor(bad)
    assert any(v.rule == "composition-preservation" for v in report.violations)


def test_category_json_round_trip():
    for cat in (one_object_category(), iso_category(), binary_category()):
        again = category_loads(category_dumps(cat))
        assert again == cat
        for a in cat.objects:
            for b in cat.objects:
                assert again.hom(a, b) == cat.hom(a, b)


def test_category_json_rejects_unknown_fields():
    text = category_dumps(iso_category())
    import json

    data = json.loads(text)
    data["extra"] = 1
    with pytest.raises(InputError):
        category_loads(json.dumps(data))


def test_arrow_is_frozen():
    arrow = Arrow("t", "a", "b")
    with pytest.raises(Exception):
        arrow.name = "u"  # type: ignore[misc]


# -- the report emitter ----------------------------------------------------

JSON_REPORT = json.JSONEncoder(sort_keys=True, indent=2)


class Writes(list):
    """A sink that keeps each write."""

    def write(self, text: str) -> int:
        self.append(text)
        return len(text)


def assert_encodes_as_json(payload: object) -> None:
    want = JSON_REPORT.encode(payload) + "\n"
    assert report_text(payload) == want
    sink = Writes()
    write_report(payload, sink)
    assert "".join(sink) == want


# Plain characters, then the rest: the two JSON escapes, control
# characters, DEL, non-ASCII characters and lone surrogates.
PLAIN = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
PLAIN_TEXT = st.text(PLAIN, max_size=8)
ODD = st.one_of(
    st.sampled_from(['"', "\\", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff"]),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x80),
)
TEXT = st.text(PLAIN | ODD, max_size=8)
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(TEXT, inner, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_report_is_the_json_encoding(payload):
    assert_encodes_as_json(payload)


@settings(max_examples=200, deadline=None)
@given(st.lists(PLAIN_TEXT, min_size=1, max_size=30), ODD, st.integers(min_value=0))
def test_one_odd_character_in_plain_leaves(strings, odd, at):
    strings[at % len(strings)] += odd
    keys = [f"k{i}" for i in range(len(strings))]
    assert_encodes_as_json(
        {"list": strings, "values": dict(zip(keys, strings)), "keys": dict(zip(strings, keys))}
    )


@pytest.mark.parametrize("batch", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "odd", ['q"uote', "back\\slash", "ctl\x01", "del\x7f", "\u00e9t\u00e9", "lone\ud800"]
)
def test_leaves_longer_than_two_batches_escape_one_odd_string(batch, odd):
    n = 2 * fincat._LEAF_BATCH + 7
    at = {"first": 3, "middle": fincat._LEAF_BATCH + 3, "last": n - 1}[batch]
    strings = [f"B:E:c0|pi1|(a:x{i},a:y{i})" for i in range(n)]
    keys = list(strings)
    strings[at] = odd + strings[at]
    keys[at] = odd + keys[at]
    assert_encodes_as_json(
        {"list": strings, "values": dict(zip(keys[::-1], strings)), "keys": dict(zip(keys, keys[::-1]))}
    )


@pytest.mark.parametrize("batch", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "odd", ['q"uote', "back\\slash", "ctl\x01", "del\x7f", "\u00e9t\u00e9", "lone\ud800"]
)
def test_sorted_map_writes_the_dict_it_lists(batch, odd):
    """A sorted map writes the bytes of its dict in the same batches, odd strings escaped."""
    n = 2 * fincat._LEAF_BATCH + 7
    at = {"first": 3, "middle": fincat._LEAF_BATCH + 3, "last": n - 1}[batch]
    values = [f"B:E:c0|pi1|(a:x{i},a:y{i})" for i in range(n)]
    keys = list(values)
    values[at] = odd + values[at]
    keys[at] = odd + keys[at]
    keys.sort()
    as_dict = dict(zip(keys, values))
    by_map, by_dict = Writes(), Writes()
    write_report({"m": fincat.SortedMap(tuple(keys), values), "n": 1}, by_map)
    write_report({"m": as_dict, "n": 1}, by_dict)
    assert len(by_map) == len(by_dict) and all(map(str.__eq__, by_map, by_dict))
    assert "".join(by_map) == JSON_REPORT.encode({"m": as_dict, "n": 1}) + "\n"


def test_sorted_map_is_no_json_value():
    """``json`` refuses a sorted map instead of encoding it as a list; empty, it writes ``{}``."""
    with pytest.raises(TypeError):
        json.dumps({"m": fincat.SortedMap(("k",), ["v"])})
    assert report_text({"m": fincat.SortedMap((), [])}) == JSON_REPORT.encode({"m": {}}) + "\n"


def test_long_leaves_are_written_a_batch_at_a_time():
    n = 3 * fincat._LEAF_BATCH
    payload = {"map": {f"k{i:05}": "v" for i in range(n)}, "list": ["x"] * n}
    sink = Writes()
    write_report(payload, sink)
    assert "".join(sink) == JSON_REPORT.encode(payload) + "\n"
    assert len(sink) >= 6 and max(map(len, sink)) < len("".join(sink)) / 4


@pytest.mark.parametrize(
    "payload",
    [{1: "a"}, {1: "a", 2: "b"}, {"a": "b", 1: "c"}, {"a": {2: []}}, [{None: 1}]],
)
def test_non_string_keys_raise_type_error(payload):
    with pytest.raises(TypeError):
        report_text(payload)
