from __future__ import annotations

import json

import pytest

from limsketch.errors import BudgetExceeded, InputError
from limsketch.fincat import validate_category, validate_functor
from limsketch.setops import make_presentation, terminal_presentation
from limsketch.sketchlib import (
    BUILDERS,
    build_sketch,
    builder_names,
    is_model,
    sketch_binary_product,
    sketch_dumps,
    sketch_equalizer,
    sketch_iso_forcing,
    sketch_loads,
    sketch_two_cover_sheaf,
    validate_cone,
    validate_sketch,
)

from tests.fixtures import binary_fixture, binary_model, iso_fixture
from tests.oracles import model_oracle


def test_every_constructible_builder_validates():
    for name in sorted(BUILDERS):
        sketch = build_sketch(name)
        assert validate_category(sketch.base).ok, name
        for cone in sketch.cones:
            assert validate_functor(cone.diagram).ok, name
            assert validate_cone(cone).ok, name


def test_iso_builder_shape_counts():
    sketch = sketch_iso_forcing()
    assert len(sketch.base.objects) == 2
    assert len(sketch.cones) == 1
    assert len(sketch.cones[0].shape.objects) == 1


def test_binary_builder_hom():
    sketch = sketch_binary_product()
    assert sketch.base.hom("p", "a") == ("pi1", "pi2")


def test_equalizer_builder_carves_equalizer():
    sketch = sketch_equalizer()
    pres = make_presentation(
        sketch.base,
        {"a": ["0", "1", "2"], "b": ["m", "n"], "q": ["0", "1"]},
        {
            "f": {"0": "m", "1": "m", "2": "n"},
            "g": {"0": "m", "1": "m", "2": "m"},
            "e": {"0": "0", "1": "1"},
            "w": {"0": "m", "1": "m"},
        },
    )
    # X(q) = {x : f(x) = g(x)} = {0, 1}: a model
    assert is_model(pres, sketch).is_model


def test_two_cover_cone_naturality_holds():
    sketch = sketch_two_cover_sheaf()
    assert validate_cone(sketch.cones[0]).ok


def test_cone_with_wrong_leg_is_reported():
    sketch = sketch_two_cover_sheaf()
    cone = sketch.cones[0]
    broken = type(cone)(
        cone.name, cone.base, cone.peak, cone.shape, cone.diagram,
        {**cone.legs, "zW": "tu"},
    )
    report = validate_cone(broken)
    assert not report.ok


def test_terminal_presentation_is_model_for_every_builder():
    for name in sorted(BUILDERS):
        sketch = build_sketch(name)
        pres = terminal_presentation(sketch.base)
        assert is_model(pres, sketch).is_model, name


def test_square_presentation_is_binary_product_model():
    sketch = sketch_binary_product()
    assert is_model(binary_model(sketch), sketch).is_model


def test_empty_peak_fails_surjectivity_with_witness():
    sketch = sketch_binary_product()
    pres = make_presentation(sketch.base, {"a": ["u"], "p": []}, {"pi1": {}, "pi2": {}})
    report = is_model(pres, sketch)
    assert not report.is_model
    check = report.checks[0]
    assert check.injective and not check.surjective
    assert check.unhit_tuple == ("u", "u")


def test_duplicate_witnesses_fail_injectivity_with_pair():
    sketch = sketch_iso_forcing()
    report = is_model(iso_fixture(sketch), sketch)
    check = report.checks[0]
    assert not check.injective and check.surjective
    assert check.injectivity_witness == ("x1", "x2")


def test_model_checker_agrees_with_inversion_oracle():
    cases = [
        (sketch_iso_forcing(), iso_fixture()),
        (sketch_binary_product(), binary_fixture()),
        (sketch_binary_product(), binary_model()),
    ]
    for sketch, pres in cases:
        assert is_model(pres, sketch).is_model == model_oracle(pres, sketch)
    for name in sorted(BUILDERS):
        sketch = build_sketch(name)
        pres = terminal_presentation(sketch.base)
        assert is_model(pres, sketch).is_model == model_oracle(pres, sketch)


def test_builder_names_listing():
    names = builder_names()
    assert "iso_forcing" in names
    assert names == tuple(sorted(BUILDERS))


def test_sketch_json_round_trip():
    for name in sorted(BUILDERS):
        sketch = build_sketch(name)
        again = sketch_loads(sketch_dumps(sketch))
        assert again.base == sketch.base
        assert len(again.cones) == len(sketch.cones)
        for c1, c2 in zip(again.cones, sketch.cones):
            assert c1.peak == c2.peak
            assert c1.shape == c2.shape
            assert c1.legs == c2.legs
        assert validate_sketch(again).ok


def test_sketch_json_rejects_unknown_fields():
    data = json.loads(sketch_dumps(sketch_iso_forcing()))
    data["cones"][0]["surprise"] = True
    with pytest.raises(InputError):
        sketch_loads(json.dumps(data))
