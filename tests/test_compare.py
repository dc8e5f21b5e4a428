from __future__ import annotations

import sys

import pytest

from limsketch import sketchlib
from limsketch.compare import (
    build_alpha,
    comparison_to_json_dict,
    reflector_iso_check,
)
from limsketch.elim import BASE_TAG, FAITHFUL, PRUNED, reflect_elim
from limsketch.errors import PreconditionError
from limsketch.kelly import reflect_kelly
from limsketch.setops import naturality_break

from tests.fixtures import (
    binary_collapsed_fixture,
    binary_fixture,
    binary_sketch,
    iso_fixture,
    iso_model,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)
from tests.oracles import commutation_breaks


def _aligned_traces(pres, sketch, budget=3):
    faithful = reflect_elim(pres, sketch, budget=budget, mode=FAITHFUL)
    depth = len(faithful.stages) - 1
    stages = reflect_kelly(pres, sketch, budget=max(depth, 1), stop_on_convergence=False)
    return faithful, stages


def test_alpha_stage_zero_is_identity():
    sketch = iso_sketch()
    pres = iso_fixture(sketch)
    faithful, stages = _aligned_traces(pres, sketch)
    alpha = build_alpha(faithful, stages, sketch)
    comp0 = alpha.stages[0].components
    for obj in sketch.base.objects:
        for x in pres.carrier[obj]:
            assert comp0[obj][f"{BASE_TAG}:{x}"] == x


def test_alpha_squares_pass_on_iso_faithful_stages():
    sketch = iso_sketch()
    faithful, stages = _aligned_traces(iso_fixture(sketch), sketch)
    assert len(faithful.stages) - 1 == 2
    alpha = build_alpha(faithful, stages, sketch)
    assert [s.index for s in alpha.stages] == [0, 1, 2]
    assert all(s.naturality_ok for s in alpha.stages)
    assert commutation_breaks(faithful, stages, alpha) == []


def test_alpha_squares_pass_on_collapsed_binary():
    sketch = binary_sketch()
    faithful, stages = _aligned_traces(binary_collapsed_fixture(sketch), sketch)
    alpha = build_alpha(faithful, stages, sketch)
    assert alpha.ok


@pytest.mark.parametrize(
    ("arrow", "first"),
    # alpha is one to one at p; at a, B:B:v is the first of the elements over v
    [("pi1", "E:F2:c04:id_p1:3"), ("id_a", "B:B:v")],
)
def test_alpha_reports_the_first_broken_naturality_square(arrow, first):
    """A completion action sent astray at ``arrow`` and at ``pi2``, which sorts after it.

    Each corrupted value is the image under alpha of the last element of
    the arrow's domain at stage 1; the witness names ``arrow`` and the
    first element, in carrier order, with that image.  The replay reads
    no action of the completion, so only the naturality check sees it.
    """
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    faithful = reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    stages = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    iso = reflector_iso_check(
        reflect_elim(pres, sketch, mode=PRUNED), reflect_kelly(pres, sketch), sketch
    )
    before = build_alpha(faithful, stages, sketch)
    assert before.ok
    source, target = faithful.stages[1].total, stages.object_at(1)
    alpha_1 = before.stages[1].components
    for name in (arrow, "pi2"):
        dom, cod = sketch.base.arrows[name].dom, sketch.base.arrows[name].cod
        y = alpha_1[dom][source.carrier[dom][-1]]
        action = target.action[name]
        action[y] = next(z for z in target.carrier[cod] if z != action[y])
    witness = f"naturality breaks at arrow {arrow!r} on {first!r}"

    alpha = build_alpha(faithful, stages, sketch)
    assert [(s.naturality_ok, s.witness) for s in alpha.stages] == [(True, None), (False, witness)]
    assert not alpha.ok
    report = comparison_to_json_dict(alpha, iso)
    assert report["alpha"]["squares_ok"] is False
    assert report["alpha"]["stages"][1]["naturality_ok"] is False
    assert report["alpha"]["stages"][1]["witness"] == witness
    # components whose keys are not in carrier order are read key by key, to the same witness
    backwards = {d: dict(reversed(c.items())) for d, c in alpha.stages[1].components.items()}
    assert naturality_break(source, target, backwards)[:2] == (arrow, first)


def test_alpha_rejects_pruned_traces():
    sketch = iso_sketch()
    pruned = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=PRUNED)
    stages = reflect_kelly(iso_fixture(sketch), sketch, budget=2, stop_on_convergence=False)
    with pytest.raises(PreconditionError):
        build_alpha(pruned, stages, sketch)


def test_alpha_components_are_total():
    sketch = iso_sketch()
    faithful, stages = _aligned_traces(iso_fixture(sketch), sketch)
    alpha = build_alpha(faithful, stages, sketch)
    for alpha_stage, elim_stage in zip(alpha.stages, faithful.stages):
        for obj in sketch.base.objects:
            assert set(alpha_stage.components[obj]) == set(elim_stage.total.carrier[obj])


def test_reflector_iso_on_all_fixture_families():
    cases = [
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ]
    for sketch, pres in cases:
        elim_trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
        kelly_trace = reflect_kelly(pres, sketch, budget=8)
        verdict = reflector_iso_check(elim_trace, kelly_trace, sketch)
        assert verdict.ok, verdict.detail


def test_reflector_iso_for_model_input_is_transported_identity():
    sketch = iso_sketch()
    model = iso_model(sketch)
    elim_trace = reflect_elim(model, sketch, budget=4)
    kelly_trace = reflect_kelly(model, sketch, budget=4)
    verdict = reflector_iso_check(elim_trace, kelly_trace, sketch)
    assert verdict.ok
    assert verdict.forward.g.components == {
        "a": {"m": "m"}, "b": {"n": "n"}
    }


def test_reflector_iso_requires_converged_traces():
    sketch = iso_sketch()
    unconverged = reflect_elim(iso_fixture(sketch), sketch, budget=0)
    converged = reflect_kelly(iso_fixture(sketch), sketch, budget=4)
    with pytest.raises(PreconditionError):
        reflector_iso_check(unconverged, converged, sketch)


def test_mode_soundness_via_iso_check():
    cases = [
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_collapsed_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ]
    for sketch, pres in cases:
        faithful = reflect_elim(pres, sketch, budget=8, mode=FAITHFUL)
        pruned = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
        assert faithful.converged and pruned.converged
        assert reflector_iso_check(faithful, pruned, sketch).ok


def test_reflector_iso_check_runs_no_model_check(monkeypatch):
    """Each engine checked its core on convergence, so the isomorphism check checks none again."""
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    elim_trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    kelly_trace = reflect_kelly(pres, sketch, budget=8)
    original, calls = sketchlib.is_model, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "limsketch":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    assert reflector_iso_check(elim_trace, kelly_trace, sketch).ok
    assert len(calls) == 0
