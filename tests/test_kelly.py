from __future__ import annotations

import re

import pytest

import limsketch.setops as setops_mod

from limsketch.errors import BudgetExceeded
from limsketch.fincat import CatFunctor, FinCategory
from limsketch.kelly import SUM_BASE_TAG, kelly_P, reflect_kelly
from limsketch.setops import empty_presentation, make_presentation
from limsketch.sketchlib import Cone, LimitSketch, is_model

from tests.fixtures import (
    binary_fixture,
    binary_model,
    binary_sketch,
    iso_fixture,
    iso_model,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)
from tests.oracles import dsu_partition, fibres


def one_cone(sketch: LimitSketch, index: int = 0) -> LimitSketch:
    """The sketch on the same base with only its cone at ``index``."""
    return LimitSketch(sketch.base, (sketch.cones[index],))


def test_one_cone_completion_iso_sizes():
    sketch = iso_sketch()
    step = kelly_P(iso_fixture(sketch), one_cone(sketch))
    assert step.obj.size() == {"a": 1, "b": 1}


def test_one_cone_completion_of_empty_is_empty():
    sketch = iso_sketch()
    step = kelly_P(empty_presentation(sketch.base), one_cone(sketch))
    assert step.obj.size() == {"a": 0, "b": 0}


def test_one_cone_completion_binary_sizes_and_unit():
    sketch = binary_sketch()
    step = kelly_P(binary_fixture(sketch), one_cone(sketch))
    assert step.obj.size() == {"a": 2, "p": 4}
    images = step.unit.components["a"]
    assert images["u"] != images["v"]


def test_unit_is_natural():
    for sketch, pres in (
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ):
        step = kelly_P(pres, sketch)
        assert step.unit.validate().ok


def test_completion_classes_match_literal_pair_list_oracle():
    for sketch, pres in (
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (iso_sketch(), iso_model()),
    ):
        step = kelly_P(pres, one_cone(sketch))
        source = step.quotient.source
        for obj in sketch.base.objects:
            literal = list(step.r0.get(obj, ())) + list(step.r1.get(obj, ()))
            want = dsu_partition(list(source.carrier[obj]), literal)
            have = {frozenset(m) for m in fibres(step.quotient.projection[obj]).values()}
            assert have == want


def test_single_cone_wide_step_equals_per_cone_step():
    sketch = iso_sketch()
    pres = iso_fixture(sketch)
    wide, single = kelly_P(pres, sketch), kelly_P(pres, one_cone(sketch))
    assert (wide.obj, wide.r0, wide.r1) == (single.obj, single.r0, single.r1)


def _two_disjoint_iso_sketch() -> LimitSketch:
    base = FinCategory.build(
        "double_iso",
        ["a1", "b1", "a2", "b2"],
        [("t1", "a1", "b1"), ("t2", "a2", "b2")],
        {},
    )
    shape = FinCategory.build("pt", ["z"], [], {})
    cones = (
        Cone("c0", base, "a1", shape, CatFunctor(shape, base, {"z": "b1"}, {"id_z": "id_b1"}), {"z": "t1"}),
        Cone("c1", base, "a2", shape, CatFunctor(shape, base, {"z": "b2"}, {"id_z": "id_b2"}), {"z": "t2"}),
    )
    return LimitSketch(base, cones, name="double_iso")


def test_wide_step_counts_on_disjoint_cones():
    sketch = _two_disjoint_iso_sketch()
    pres = make_presentation(
        sketch.base,
        {"a1": ["x1", "x2"], "b1": ["y"], "a2": ["s"], "b2": ["w1", "w2"]},
        {"t1": {"x1": "y", "x2": "y"}, "t2": {"s": "w1"}},
    )
    p_all = kelly_P(pres, sketch)
    p_one = kelly_P(pres, one_cone(sketch, 0))
    p_two = kelly_P(pres, one_cone(sketch, 1))
    for obj in sketch.base.objects:
        assert len(p_all.obj.carrier[obj]) == (
            len(p_one.obj.carrier[obj])
            + len(p_two.obj.carrier[obj])
            - len(pres.carrier[obj])
        )


def test_reflect_iso_converges_at_one():
    sketch = iso_sketch()
    trace = reflect_kelly(iso_fixture(sketch), sketch, budget=4)
    assert trace.converged and trace.converged_at == 1
    assert trace.core.size() == {"a": 1, "b": 1}


def test_reflect_model_converges_immediately():
    sketch = iso_sketch()
    trace = reflect_kelly(iso_model(sketch), sketch, budget=4)
    assert trace.converged and trace.converged_at == 0
    assert trace.rho.components == {
        "a": {"m": "m"}, "b": {"n": "n"}
    }


def test_completion_of_a_model_has_bijective_unit():
    sketch = binary_sketch()
    model = binary_model(sketch)
    step = kelly_P(model, sketch)
    for obj in sketch.base.objects:
        images = set(step.unit.components[obj].values())
        assert len(images) == len(model.carrier[obj]) == len(step.obj.carrier[obj])


def test_reflect_binary_converges_within_two():
    sketch = binary_sketch()
    trace = reflect_kelly(binary_fixture(sketch), sketch, budget=4)
    assert trace.converged and trace.converged_at <= 2
    assert trace.core.size() == {"a": 2, "p": 4}


def test_reflect_sheaf_core_sections():
    sketch = sheaf_sketch()
    trace = reflect_kelly(sheaf_fixture(sketch), sketch, budget=4)
    assert trace.converged
    assert len(trace.core.carrier["T"]) == 2
    assert is_model(trace.core, sketch).is_model


def test_stages_past_convergence_when_requested():
    sketch = iso_sketch()
    trace = reflect_kelly(iso_fixture(sketch), sketch, budget=3, stop_on_convergence=False)
    assert len(trace.stages) == 4
    assert trace.converged_at == 1


def test_rho_starts_from_the_sum_base_copy():
    sketch = iso_sketch()
    trace = reflect_kelly(iso_fixture(sketch), sketch, budget=4)
    step = trace.stages[1]
    for x in ("x1", "x2"):
        assert trace.rho.components["a"][x] == step.quotient.projection["a"][f"{SUM_BASE_TAG}:{x}"]


def test_kelly_trace_dumps_are_deterministic():
    sketch = sheaf_sketch()
    one = reflect_kelly(sheaf_fixture(sketch), sketch, budget=4).dumps()
    two = reflect_kelly(sheaf_fixture(sketch), sketch, budget=4).dumps()
    assert one == two
    assert '"engine": "kelly"' in one


def test_element_cap_is_the_closed_form_sum_size(monkeypatch):
    """The cap checks exactly the carriers of the sum the completion builds, before building it."""
    # ``witness_sum`` names the pairs of each cone from one list of positions
    positions, built = setops_mod._positions, []

    def spy(n):
        built.append(n)
        return positions(n)

    monkeypatch.setattr(setops_mod, "_positions", spy)
    for sketch, pres in (
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ):
        sizes = kelly_P(pres, sketch).quotient.source.size()
        largest = max(sizes.values())
        assert kelly_P(pres, sketch, max_elements=largest).obj == kelly_P(pres, sketch).obj
        assert len(built) == 3 * len(sketch.cones)
        built.clear()
        first = next(o for o in sketch.base.objects if sizes[o] == largest)
        message = f"completion sum object {first!r} has {largest} elements (cap {largest - 1})"
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
            kelly_P(pres, sketch, max_elements=largest - 1)
        assert built == []


def test_reflect_kelly_names_the_stage_over_the_element_cap():
    sketch = binary_sketch()
    with pytest.raises(BudgetExceeded, match=r"^stage 1: completion sum object 'a' has 10 elements"):
        reflect_kelly(binary_fixture(sketch), sketch, budget=4, max_elements=9)
