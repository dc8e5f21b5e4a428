from __future__ import annotations

import pytest

from limsketch.errors import InputError
from limsketch.fincat import (
    Arrow,
    CatFunctor,
    FinCategory,
    category_dumps,
    category_loads,
    validate_category,
    validate_functor,
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
