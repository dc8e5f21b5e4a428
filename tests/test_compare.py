from __future__ import annotations

import json
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from limsketch import cli, sketchlib
from limsketch.compare import (
    _squares_hold,
    build_alpha,
    comparison_to_json_dict,
    reflector_iso_check,
)
from limsketch.elim import BASE_TAG, FAITHFUL, PRUNED, reflect_elim
from limsketch.errors import BudgetExceeded, EngineError, PreconditionError
from limsketch.kelly import reflect_kelly
from limsketch.setops import make_presentation, naturality_break

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
from tests.test_adjunction import CAPS, draws


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
    assert verdict.forward.components == {
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


def test_compare_peak_memory_on_the_last_faithful_stage(tmp_path, capsys):
    """``compare`` on binary_product with |a| = 2 and an empty peak stays within 21 MiB.

    Its last faithful stage holds 122,518 elements, and the traced peak
    follows that stage: 24-28 MiB (by Python version) when every identity
    stored its action and alpha's naturality check held per-element lists,
    17-20.5 MiB with identities built on read and both sides streamed.
    """
    doc = {"category": "binary_product", "carrier": {"a": ["x0", "x1"], "p": []}}
    path = tmp_path / "x.json"
    path.write_text(json.dumps({**doc, "action": {"pi1": {}, "pi2": {}}}))
    argv = ["compare", "--sketch", "binary_product", "--presentation", str(path)]
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        code = cli.main([*argv, "--out", str(tmp_path / "report.json")])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "alpha squares: pass\nreflector isomorphism: verified\n"
    assert peak <= 21 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# -- the row decision against naturality_break ------------------------------------


def _corruptions(rng: random.Random, pres, count: int):
    """Up to ``count`` entries (arrow, x) of non-identity actions of ``pres``, with a new value."""
    base = pres.base
    entries = [(a, x) for a, r in base.non_identities.items() for x in pres.carrier[r.dom]]
    for name, x in rng.sample(entries, min(count, len(entries))):
        y = rng.choice(pres.carrier[base.arrows[name].cod])
        if y != pres.action[name][x]:
            yield name, x, y


def assert_row_decision_agrees(faithful, stages, sketch, rng, count: int = 8) -> Counter:
    """At every stage, the row decision against ``naturality_break`` on the components.

    Uncorrupted, both find every square holding.  Then one action entry of
    the faithful total (the source) or of the completion (the target) is
    changed at a time.  The decision never holds where a square breaks; it
    fails where every square holds only when a source entry leaves the
    layout it tests: a row element sent anywhere, or a base element sent
    out of the base.  Counts the corruptions by what the check found.
    """
    alpha = build_alpha(faithful, stages, sketch)
    assert alpha.ok
    found: Counter = Counter()
    for alpha_stage, stage in zip(alpha.stages, faithful.stages):
        target, components = stages.object_at(stage.index), alpha_stage.components
        assert _squares_hold(stage, target, alpha_stage.values)
        assert naturality_break(stage.total, target, components) is None
        classes = stage.quotient.target.carrier
        in_base = {d: set(stage.total.carrier[d][: len(c)]) for d, c in classes.items()}
        for side in (stage.total, target):
            for name, x, y in _corruptions(rng, side, count):
                act = side.action[name]
                kept, act[x] = act[x], y
                try:
                    square = naturality_break(stage.total, target, components)
                    held = _squares_hold(stage, target, alpha_stage.values)
                finally:
                    act[x] = kept
                arrow = sketch.base.arrows[name]
                off_layout = x not in in_base[arrow.dom] or y not in in_base[arrow.cod]
                if side is stage.total and off_layout:
                    assert held is False, (name, x, y)
                else:
                    assert held == (square is None), (name, x, y)
                found["breaks" if square else "holds"] += 1
    return found


def _product(n: int):
    """binary_product with |a| = n and an empty peak."""
    sketch = binary_sketch()
    carrier = {"a": [f"x{i}" for i in range(n)], "p": []}
    return sketch, make_presentation(sketch.base, carrier, {"pi1": {}, "pi2": {}})


@pytest.mark.parametrize(
    "case",
    [
        lambda: (iso_sketch(), iso_fixture()),
        lambda: (binary_sketch(), binary_fixture()),
        lambda: (binary_sketch(), binary_collapsed_fixture()),
        lambda: (sheaf_sketch(), sheaf_fixture()),
        lambda: _product(1),
        lambda: _product(2),
    ],
    ids=["iso", "binary", "binary-collapsed", "sheaf", "product-1", "product-2"],
)
def test_row_decision_agrees_with_naturality_break_on_fixtures(case):
    sketch, pres = case()
    faithful, stages = _aligned_traces(pres, sketch)
    found = assert_row_decision_agrees(faithful, stages, sketch, random.Random("rows"))
    assert sum(found.values()) >= 2


def test_row_decision_agrees_with_naturality_break_on_random_draws():
    """The draws of ``tests.test_adjunction``: faithful ``elim`` against ``kelly`` past convergence."""
    compared, found = 0, Counter()
    for seed, sketch, (pres,) in draws("rows"):
        try:
            faithful = reflect_elim(pres, sketch, budget=2, mode=FAITHFUL, **CAPS)
            depth = len(faithful.stages) - 1
            stages = reflect_kelly(pres, sketch, budget=depth, stop_on_convergence=False, **CAPS)
        except BudgetExceeded:
            continue
        found += assert_row_decision_agrees(faithful, stages, sketch, random.Random(seed))
        compared += 1
    assert compared >= 50 and found["breaks"] >= 150 and found["holds"] >= 100, (compared, found)


def test_a_corrupted_source_row_gets_the_witness_of_naturality_break():
    """A free element of the faithful total sent astray at pi1, where its square breaks."""
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    faithful = reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    stages = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    before = build_alpha(faithful, stages, sketch)
    stage, target = faithful.stages[1], stages.object_at(1)
    alpha_1 = before.stages[1].components
    x = stage.rows["c0", "id_p"][-1]
    action = stage.total.action["pi1"]
    image = alpha_1["a"][action[x]]
    action[x] = next(y for y in stage.total.carrier["a"] if alpha_1["a"][y] != image)
    square = naturality_break(stage.total, target, alpha_1)
    assert square is not None and square[:2] == ("pi1", x)
    alpha = build_alpha(faithful, stages, sketch)
    witness = f"naturality breaks at arrow 'pi1' on {x!r}"
    assert [s.witness for s in alpha.stages] == [None, witness]
    assert not alpha.ok


def _extra_carrier_element(stage) -> None:
    stage.total.carrier["a"] = tuple(sorted((*stage.total.carrier["a"], "E:zz")))


def _row_without_its_last_id(stage) -> None:
    stage.rows["c0", "pi1"].pop()


@pytest.mark.parametrize("corrupt", [_extra_carrier_element, _row_without_its_last_id])
def test_replay_refuses_a_total_that_breaks_the_alpha_layout(corrupt):
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    faithful = reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    stages = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    corrupt(faithful.stages[1])
    message = "alpha layout breaks at replay step 1 object 'a': the base block and the rows"
    with pytest.raises(EngineError, match=message):
        build_alpha(faithful, stages, sketch)
