"""End-to-end run of the remaining builder family: the equalizer sketch."""

from __future__ import annotations

from limsketch.compare import reflector_iso_check
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim
from limsketch.kelly import reflect_kelly
from limsketch.setops import compose_nat, make_presentation
from limsketch.sketchlib import is_model, sketch_equalizer
from limsketch.universal import check_uniqueness, solve_factorisation

from tests.fixtures import nat


def equalizer_fixture(sketch):
    # f and g agree on 0 and 1, disagree on 2; no witnesses at q yet
    return make_presentation(
        sketch.base,
        {"a": ["0", "1", "2"], "b": ["m", "n"], "q": []},
        {
            "f": {"0": "m", "1": "m", "2": "n"},
            "g": {"0": "m", "1": "m", "2": "m"},
            "e": {},
            "w": {},
        },
    )


def equalizer_model(sketch):
    return make_presentation(
        sketch.base,
        {"a": ["0", "1", "2"], "b": ["m", "n"], "q": ["0", "1"]},
        {
            "f": {"0": "m", "1": "m", "2": "n"},
            "g": {"0": "m", "1": "m", "2": "m"},
            "e": {"0": "0", "1": "1"},
            "w": {"0": "m", "1": "m"},
        },
    )


def test_reflection_carves_the_agreeing_elements():
    sketch = sketch_equalizer()
    fixture = equalizer_fixture(sketch)
    trace = reflect_elim(fixture, sketch, budget=8, mode=PRUNED)
    assert trace.converged
    agree = [
        x for x in fixture.carrier["a"]
        if fixture.action["f"][x] == fixture.action["g"][x]
    ]
    assert len(trace.core.carrier["q"]) == len(agree) == 2
    assert trace.core.size() == {"a": 3, "b": 2, "q": 2}
    assert is_model(trace.core, sketch).is_model


def test_both_modes_and_both_engines_agree():
    sketch = sketch_equalizer()
    fixture = equalizer_fixture(sketch)
    pruned = reflect_elim(fixture, sketch, budget=8, mode=PRUNED)
    faithful = reflect_elim(fixture, sketch, budget=8, mode=FAITHFUL)
    classical = reflect_kelly(fixture, sketch, budget=8)
    assert faithful.converged and classical.converged
    assert reflector_iso_check(faithful, pruned, sketch).ok
    assert reflector_iso_check(pruned, classical, sketch).ok


def test_universal_property_on_the_equalizer_family():
    sketch = sketch_equalizer()
    fixture = equalizer_fixture(sketch)
    model = equalizer_model(sketch)
    trace = reflect_elim(fixture, sketch, budget=8, mode=PRUNED)
    f = nat(
        fixture,
        model,
        {
            "a": {"0": "0", "1": "1", "2": "2"},
            "b": {"m": "m", "n": "n"},
            "q": {},
        },
    )
    g = solve_factorisation(trace.rho, f, model, sketch)
    assert compose_nat(g, trace.rho).components == f.components
    # 3**3 maps at a, 2**2 at b and at q
    assert check_uniqueness(g) == 432
