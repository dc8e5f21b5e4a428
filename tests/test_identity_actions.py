"""Identity arrows store no action: each is built from its carrier on first read.

Every presentation the library builds stores the actions of its
non-identity arrows only.  Indexing an identity builds x |-> x over the
carrier and keeps it; equality treats an identity that neither side
stores as that map, and stores nothing.  A stored identity is still
checked, so a corrupted one breaks naturality on either side.
"""

from __future__ import annotations

import pytest

from limsketch.compare import build_alpha
from limsketch.elim import FAITHFUL, reflect_elim
from limsketch.kelly import reflect_kelly
from limsketch.setops import (
    SetPresentation,
    disjoint_sum,
    empty_presentation,
    naturality_break,
)
from limsketch.sketchlib import restrict_along, sketch_equalizer

from tests.fixtures import (
    binary_fixture,
    binary_sketch,
    iso_fixture,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)
from tests.test_equalizer_family import equalizer_fixture

FAMILIES = [
    (iso_sketch, iso_fixture),
    (binary_sketch, binary_fixture),
    (sheaf_sketch, sheaf_fixture),
    (sketch_equalizer, equalizer_fixture),
]
IDS = ["iso", "binary", "sheaf", "equalizer"]


def _stored_identities(pres: SetPresentation) -> list[str]:
    return [name for name in pres.action if pres.base.is_identity(name)]


def _built(sketch, fixture):
    """The presentations the engines build over the fixture, by what built them."""
    pres = fixture(sketch)
    faithful = reflect_elim(pres, sketch, budget=2, mode=FAITHFUL)
    completion = reflect_kelly(pres, sketch, budget=2, stop_on_convergence=False)
    built = {"input": pres, "sum with empty": disjoint_sum(pres, empty_presentation(pres.base))[0]}
    for stage in faithful.stages[1:]:
        built[f"stage {stage.index} total"] = stage.total
        built[f"stage {stage.index} quotient target"] = stage.quotient.target
    for i, step in enumerate(completion.stages[1:], 1):
        built[f"completion {i} sum"] = step.quotient.source
        built[f"completion {i} quotient target"] = step.obj
    for cone in sketch.cones:
        built[f"cone {cone.name} restriction"] = restrict_along(faithful.stages[-1].total, cone)
    return built


@pytest.mark.parametrize(("sketch", "fixture"), FAMILIES, ids=IDS)
def test_built_presentations_store_no_identity_before_a_read(sketch, fixture):
    for what, pres in _built(sketch(), fixture).items():
        assert _stored_identities(pres) == [], what


@pytest.mark.parametrize(("sketch", "fixture"), FAMILIES, ids=IDS)
def test_an_identity_read_is_the_identity_on_its_carrier_and_is_kept(sketch, fixture):
    for what, pres in _built(sketch(), fixture).items():
        for obj, name in pres.base.identities.items():
            assert name not in pres.action, what
            assert pres.action[name] == {x: x for x in pres.carrier[obj]}, what
            assert name in pres.action, what
            assert pres.action[name] is pres.action[name]


@pytest.mark.parametrize(("sketch", "fixture"), FAMILIES, ids=IDS)
def test_equality_takes_an_unstored_identity_as_the_identity_map(sketch, fixture):
    for what, pres in _built(sketch(), fixture).items():
        base = pres.base
        full = dict(pres.action)
        full.update({i: {x: x for x in pres.carrier[o]} for o, i in base.identities.items()})
        stored = SetPresentation(base, pres.carrier, full)
        assert pres == stored and stored == pres, what
        assert pres.action == stored.action and stored.action == pres.action, what
        assert not (pres.action != stored.action) and not (stored.action != pres.action), what
        assert pres.action == full and full == pres.action, what
        # comparing built nothing on the side that stores no identity
        assert _stored_identities(pres) == [], what
        for obj, name in base.identities.items():
            if len(pres.carrier[obj]) > 1:
                first, second = pres.carrier[obj][:2]
                corrupt = {**full, name: {**full[name], first: second}}
                moved = SetPresentation(base, pres.carrier, corrupt)
                assert pres != moved and moved != pres, what
                assert pres.action != moved.action and moved.action != pres.action, what


def test_an_identity_missing_from_a_plain_dict_is_not_equal():
    pres = binary_fixture(binary_sketch())
    assert pres.action != {"pi1": {}, "pi2": {}, "id_a": {}}
    assert pres.action == {"pi1": {}, "pi2": {}}
    assert pres.action.get("id_p") == {} and "id_p" not in pres.action
    assert pres.action.get("nonesuch", "absent") == "absent"
    with pytest.raises(KeyError):
        pres.action["nonesuch"]


def test_naturality_break_reads_no_identity_that_neither_side_stores():
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    faithful = reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    stages = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    before = build_alpha(faithful, stages, sketch)
    source, target = faithful.stages[1].total, stages.stages[1].obj
    assert naturality_break(source, target, before.stages[1].components) is None
    assert _stored_identities(source) == _stored_identities(target) == []


def test_alpha_reports_a_broken_identity_stored_on_the_source_side():
    """A stage total's identity at ``a`` sends its first element to one alpha tells apart.

    The replay reads no action of the stage totals, so only the
    naturality check sees it, at the first element of ``a``.
    """
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    faithful = reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    stages = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    before = build_alpha(faithful, stages, sketch)
    assert before.ok
    source, alpha_1 = faithful.stages[1].total, before.stages[1].components["a"]
    first = source.carrier["a"][0]
    other = next(y for y in source.carrier["a"] if alpha_1[y] != alpha_1[first])
    source.action["id_a"][first] = other
    assert "id_a" not in stages.stages[1].obj.action

    alpha = build_alpha(faithful, stages, sketch)
    witness = f"naturality breaks at arrow 'id_a' on {first!r}"
    assert [(s.naturality_ok, s.witness) for s in alpha.stages] == [(True, None), (False, witness)]
    square = naturality_break(source, stages.stages[1].obj, alpha.stages[1].components)
    assert square == ("id_a", first, alpha_1[first], alpha_1[other])
