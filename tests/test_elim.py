from __future__ import annotations

import random
import re
from collections import Counter

import pytest

import limsketch.elim as elim_mod
import limsketch.setops as setops_mod

from limsketch.elim import (
    BASE_TAG,
    FAITHFUL,
    FREE_TAG,
    PRUNED,
    e_step,
    elim_stage,
    initial_stage,
    reflect_elim,
    relation_one,
    relation_two,
    tag_base,
    tag_free,
)
from limsketch.compare import reflector_iso_check
from limsketch.errors import BudgetExceeded, InputError
from limsketch.fincat import CatFunctor, FinCategory
from limsketch.kelly import reflect_kelly
from limsketch.setops import (
    LimitJoin,
    functorial_quotient,
    make_presentation,
    validate_presentation,
    witness_id,
)
from limsketch.sketchlib import (
    BUILDERS,
    Cone,
    LimitSketch,
    build_sketch,
    gap_map,
    is_model,
    restrict_along,
)

from tests.fixtures import (
    binary_collapsed_fixture,
    binary_fixture,
    binary_model,
    binary_sketch,
    iso_fixture,
    iso_model,
    iso_sketch,
    sheaf_fixture,
    sheaf_model,
    sheaf_sketch,
)
from tests.test_adjunction import CAPS, draws
from tests.oracles import (
    brute_limit,
    fibres,
    free_witnesses,
    random_valid_presentation,
    unhit_limits,
)


def free_size(stage) -> dict[str, int]:
    return {o: len(stage.free_part(o)) for o in stage.quotient.target.base.objects}


def next_quotient(stage, sketch):
    """The total of ``stage`` merged under its rule (1) and (2) pairs, as ``elim_stage`` does."""
    pairs: dict[str, list[tuple[str, str]]] = {}
    for rule in (relation_one(stage, sketch), relation_two(stage, sketch)):
        for d, generators in rule.items():
            pairs.setdefault(d, []).extend(generators)
    return functorial_quotient(stage.total, pairs)


# -- e_step (exercised through elim_stage, which builds the quotient it takes) --


def test_free_sizes_iso_stage_one():
    sketch = iso_sketch()
    stage1 = elim_stage(initial_stage(iso_fixture(sketch), sketch), sketch, FAITHFUL)
    assert free_size(stage1) == {"a": 1, "b": 1}
    # the single limit tuple is the tagged y
    assert stage1.limits["c0"] == ((tag_base("y"),),)


def test_free_sizes_binary_stage_one():
    sketch = binary_sketch()
    stage1 = elim_stage(initial_stage(binary_fixture(sketch), sketch), sketch, FAITHFUL)
    assert free_size(stage1) == {"a": 8, "p": 4}


def test_free_empty_when_diagram_carriers_empty():
    sketch = binary_sketch()
    pres = make_presentation(sketch.base, {"a": [], "p": []}, {"pi1": {}, "pi2": {}})
    stage1 = elim_stage(initial_stage(pres, sketch), sketch, FAITHFUL)
    assert free_size(stage1) == {"a": 0, "p": 0}


def test_free_action_post_composes_arrows():
    sketch = binary_sketch()
    stage1 = elim_stage(initial_stage(binary_fixture(sketch), sketch), sketch, FAITHFUL)
    witnesses = list(free_witnesses(stage1, "p"))
    assert len(witnesses) == 4
    for fid, (cone, arrow, w) in witnesses:
        assert arrow == "id_p"
        k = stage1.limits[cone].index(w)
        for proj in ("pi1", "pi2"):
            image = stage1.total.action[proj][fid]
            assert image == tag_free(witness_id("F", cone, proj, k))


def test_kan_unit_points_at_identity_witnesses():
    sketch = iso_sketch()
    stage0 = initial_stage(iso_fixture(sketch), sketch)
    step = e_step(stage0, sketch, FAITHFUL, quotient=next_quotient(stage0, sketch))
    stage1 = elim_stage(stage0, sketch, FAITHFUL)
    (w,) = stage1.limits["c0"]
    unit = dict(zip(stage1.limits["c0"], stage1.rows["c0", "id_a"]))
    assert unit[w] == tag_free(witness_id("F", "c0", "id_a", 0))
    assert unit[w] in stage1.total.carrier["a"]
    # the unit the stage reports is the one its rows give, built when read, not stored
    assert step.kan_unit_raw == {"c0": unit}
    assert "kan_unit_raw" not in vars(step)


# -- relation_one -------------------------------------------------------------


def test_rule_one_merges_gap_fiber_at_stage_zero():
    sketch = iso_sketch()
    stage0 = initial_stage(iso_fixture(sketch), sketch)
    pairs = relation_one(stage0, sketch)
    assert pairs == {"a": ((tag_base("x1"), tag_base("x2")),)}


def test_rule_one_empty_on_injective_gaps():
    sketch = binary_sketch()
    stage0 = initial_stage(binary_model(sketch), sketch)
    assert relation_one(stage0, sketch) == {}


def test_rule_one_merges_duplicate_witnesses_at_stage_two():
    sketch = iso_sketch()
    trace = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=FAITHFUL)
    stage2 = trace.stages[2]
    pairs = relation_one(stage2, sketch)
    base_pairs = [
        p for p in pairs.get("a", ())
        if p[0].startswith(f"{BASE_TAG}:") and p[1].startswith(f"{BASE_TAG}:")
    ]
    # the two surviving classes at a (old [x1 x2] and the freshly added witness)
    assert len(base_pairs) == 1
    assert sorted(base_pairs[0]) == sorted(stage2.total.carrier["a"][:2])


# -- relation_two -------------------------------------------------------------


def test_rule_two_empty_at_stage_zero():
    sketch = iso_sketch()
    assert relation_two(initial_stage(iso_fixture(sketch), sketch), sketch) == {}


def test_rule_two_iso_stage_one_pair():
    sketch = iso_sketch()
    stage1 = elim_stage(initial_stage(iso_fixture(sketch), sketch), sketch, FAITHFUL)
    pairs = relation_two(stage1, sketch)
    assert stage1.limits["c0"] == ((tag_base("y"),),)
    expected = (tag_free(witness_id("F", "c0", "t", 0)), tag_base(tag_base("y")))
    assert pairs == {"b": (expected,)}


def test_rule_two_binary_stage_one_eight_pairs():
    sketch = binary_sketch()
    stage1 = elim_stage(initial_stage(binary_fixture(sketch), sketch), sketch, FAITHFUL)
    pairs = relation_two(stage1, sketch)
    assert set(pairs) == {"a"}
    assert len(pairs["a"]) == 8
    for free_elem, base_elem in pairs["a"]:
        assert free_elem.startswith(f"{FREE_TAG}:")
        assert base_elem in (tag_base(tag_base("u")), tag_base(tag_base("v")))


def test_rule_two_empty_when_free_part_empty():
    sketch = iso_sketch()
    trace = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=PRUNED)
    final = trace.stages[-1]
    assert free_size(final) == {"a": 0, "b": 0}
    assert relation_two(final, sketch) == {}


# -- elim_stage ---------------------------------------------------------------


def test_stage_one_sizes_iso():
    sketch = iso_sketch()
    stage1 = elim_stage(initial_stage(iso_fixture(sketch), sketch), sketch, FAITHFUL)
    assert stage1.quotient.target.size() == {"a": 1, "b": 1}
    assert stage1.total.size() == {"a": 2, "b": 2}


def test_model_input_is_a_fixpoint():
    sketch = iso_sketch()
    stage0 = initial_stage(iso_model(sketch), sketch)
    assert relation_one(stage0, sketch) == {}
    stage1 = elim_stage(stage0, sketch, PRUNED)
    assert free_size(stage1) == {"a": 0, "b": 0}
    assert stage1.quotient.target.size() == iso_model(sketch).size()


def test_binary_pruned_stage_two_reaches_fixpoint():
    sketch = binary_sketch()
    stage1 = elim_stage(initial_stage(binary_fixture(sketch), sketch), sketch, PRUNED)
    stage2 = elim_stage(stage1, sketch, PRUNED)
    assert stage2.quotient.target.size() == {"a": 2, "p": 4}
    assert free_size(stage2) == {"a": 0, "p": 0}


# -- reflect_elim -------------------------------------------------------------


def test_model_converges_at_stage_zero_with_identity_reflection():
    sketch = iso_sketch()
    model = iso_model(sketch)
    trace = reflect_elim(model, sketch, budget=4)
    assert trace.converged and trace.converged_at == 0
    assert trace.rho is not None
    for obj in sketch.base.objects:
        assert trace.rho.components[obj] == {x: x for x in model.carrier[obj]}


def test_iso_converges_within_spec_bounds():
    sketch = iso_sketch()
    pruned = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=PRUNED)
    faithful = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=FAITHFUL)
    assert pruned.converged and pruned.converged_at <= 2
    assert faithful.converged and faithful.converged_at <= 3
    assert pruned.core.size() == faithful.core.size() == {"a": 1, "b": 1}


def test_binary_pruned_converges_with_bijective_gap():
    sketch = binary_sketch()
    trace = reflect_elim(binary_fixture(sketch), sketch, budget=8, mode=PRUNED)
    assert trace.converged and trace.converged_at == 2
    assert trace.core.size() == {"a": 2, "p": 4}
    gm = gap_map(trace.core, sketch.cones[0])
    assert len(set(gm.values())) == 4


def test_budget_zero_returns_stage_zero_trace():
    sketch = iso_sketch()
    trace = reflect_elim(iso_fixture(sketch), sketch, budget=0)
    assert trace.verdict == "budget-exhausted"
    assert len(trace.stages) == 1 and trace.core is None


@pytest.mark.parametrize("reflect", [reflect_elim, reflect_kelly])
def test_negative_budget_is_refused_by_both_engines(reflect):
    sketch = binary_sketch()
    with pytest.raises(InputError, match="^budget must be >= 0$"):
        reflect(binary_fixture(sketch), sketch, budget=-1)


# (fixture, sketch): ((verdict, converged_at, core_kind) pruned at budget 8, faithful at 3)
CONVERGENCE_RULES = [
    (iso_fixture, iso_sketch, (("converged", 1, "base-fixpoint"), ("converged", 2, "stable-core"))),
    (
        binary_collapsed_fixture,
        binary_sketch,
        (("converged", 1, "base-fixpoint"), ("converged", 2, "stable-core")),
    ),
    (
        binary_fixture,
        binary_sketch,
        (("converged", 2, "base-fixpoint"), ("budget-exhausted", None, None)),
    ),
    (
        sheaf_fixture,
        sheaf_sketch,
        (("converged", 2, "base-fixpoint"), ("budget-exhausted", None, None)),
    ),
    (iso_model, iso_sketch, (("converged", 0, "model-input"),) * 2),
    (binary_model, binary_sketch, (("converged", 0, "model-input"),) * 2),
    (sheaf_model, sheaf_sketch, (("converged", 0, "model-input"),) * 2),
]


@pytest.mark.parametrize(
    "fixture, make_sketch, expected",
    CONVERGENCE_RULES,
    ids=[rule[0].__name__ for rule in CONVERGENCE_RULES],
)
def test_convergence_rule_per_fixture(fixture, make_sketch, expected):
    sketch = make_sketch()
    runs = (
        reflect_elim(fixture(sketch), sketch, budget=8, mode=PRUNED),
        reflect_elim(fixture(sketch), sketch, budget=3, mode=FAITHFUL),
    )
    got = tuple((t.verdict, t.converged_at, t.core_kind) for t in runs)
    assert got == expected


def test_a_pruned_base_is_a_model_once_its_core_is():
    # why pruned mode needs no stable-core rule: once the classes that hold
    # a previous base element form a model, saturated rule (1) has merged
    # every witness into them, so they are all of Q and Q has no unhit tuple
    outcomes: Counter = Counter()
    for _, sketch, draws_of_sketch in draws("pruned-core", count=4):
        for pres in draws_of_sketch:
            try:
                trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED, **CAPS)
            except BudgetExceeded:
                continue
            for stage in trace.stages[1:]:
                base = stage.quotient.target
                core = {
                    d: {k for x, k in p.items() if x.startswith(f"{BASE_TAG}:")}
                    for d, p in stage.quotient.projection.items()
                }
                action = {
                    a: {x: base.action[a][x] for x in core[arrow.dom]}
                    for a, arrow in sketch.base.non_identities.items()
                }
                if is_model(make_presentation(sketch.base, core, action), sketch).is_model:
                    assert core == {d: set(xs) for d, xs in base.carrier.items()}
                    assert not any(stage.rows.values()) and stage.check.is_model
                    outcomes["core is a model"] += 1
                else:
                    outcomes["core is no model"] += 1
    assert outcomes["core is a model"] >= 40 and outcomes["core is no model"] >= 100, outcomes


def test_a_pruned_stage_builds_each_gap_map_of_q_once(monkeypatch):
    # per stage and cone: one gap map for rule (1) on the total, one per
    # saturation round on a quotient's target, and the last of these also
    # serves the unhit filter and the model check of the base, which calls
    # no is_model; the only limit enumerated is Q's, once
    calls: Counter = Counter()
    built: list = []

    def spy(name, fn, keep=False):
        def counted(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if keep:
                built.append((args[0], args[1].name))
            return result

        monkeypatch.setattr(elim_mod, name, counted)

    spy("gap_map", gap_map, keep=True)
    spy("functorial_quotient", functorial_quotient)
    spy("cone_limit", elim_mod.cone_limit)
    spy("is_model", is_model)
    rounds = 0
    for _, sketch, draws_of_sketch in draws("gap-maps", count=2):
        for pres in draws_of_sketch:
            calls.clear()
            built.clear()
            try:
                trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED, **CAPS)
            except BudgetExceeded:
                continue
            cones, stages = len(sketch.cones), len(trace.stages) - 1
            assert calls["gap_map"] == cones * (calls["functorial_quotient"] + stages)
            assert len({(id(p), c) for p, c in built}) == len(built)
            assert calls["cone_limit"] == cones * stages and calls["is_model"] == 0
            rounds += calls["functorial_quotient"] - stages
    # some stage saturates in more than one round
    assert rounds > 0


def test_a_faithful_convergence_check_over_budget_names_its_stage(monkeypatch):
    # the first model check after stage 0 is the stable-core check that converges at stage 2
    sketch, stage = iso_sketch(), 2
    pres = iso_fixture(sketch)
    trace = reflect_elim(pres, sketch, budget=3, mode=FAITHFUL)
    assert (trace.converged_at, trace.core_kind) == (stage, "stable-core")

    def refuse(*args, **kwargs):
        raise BudgetExceeded("limit tuple budget exceeded at cone c0: product exceeds 0")

    monkeypatch.setattr(elim_mod, "is_model", refuse)
    message = f"stage {stage}: limit tuple budget exceeded at cone c0: product exceeds 0"
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
        reflect_elim(pres, sketch, budget=3, mode=FAITHFUL)


def _points(sketch, n):
    return make_presentation(
        sketch.base, {"a": [f"x{i:02d}" for i in range(n)], "p": []}, {"pi1": {}, "pi2": {}}
    )


def test_arrow_free_cone_is_refused_by_its_product():
    # faithful stage 1 holds 24 + 2 * 24^2 elements at a, so the stage-2
    # pair cone has more than 10^6 tuples; the refusal comes before any
    # enumeration
    sketch = binary_sketch()
    with pytest.raises(
        BudgetExceeded, match="^stage 2: limit tuple budget exceeded at cone c0: product exceeds"
    ):
        reflect_elim(_points(sketch, 24), sketch, budget=8, mode=FAITHFUL)


def test_pruned_binary_24_converges_to_the_closed_form():
    # pruned mode enumerates the quotient's 24^2 pairs at stage 2, not the
    # (24 + 2 * 24^2)^2 pairs of the total
    sketch = binary_sketch()
    pres = _points(sketch, 24)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    assert trace.converged and trace.converged_at == 2
    assert trace.core.size() == {"a": 24, "p": 576}
    verdict = reflector_iso_check(trace, reflect_kelly(pres, sketch, budget=8), sketch)
    assert verdict.ok, verdict.detail


def test_pruned_budget_counts_the_quotient_limit_alone():
    # each stage visits the 16 pairs of its base Q and nothing else, so the
    # 16 that the stage-0 model check of X needs is enough for the run
    sketch = binary_sketch()
    pres = _points(sketch, 4)
    message = "stage 0: limit tuple budget exceeded at cone c0: product exceeds 15"
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        reflect_elim(pres, sketch, budget=8, mode=PRUNED, max_tuples=15)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED, max_tuples=16)
    assert trace.converged and trace.core.size() == {"a": 4, "p": 16}


def test_pruned_step_budget_is_the_visit_count_of_the_join_over_q():
    sketch = sheaf_sketch()
    stage = initial_stage(sheaf_fixture(sketch), sketch)
    quotient = next_quotient(stage, sketch)
    (cone,) = sketch.cones
    diag = restrict_along(quotient.target, cone)
    _, visited = LimitJoin.of_shape(cone.shape).run(diag.action, diag.carrier, None)
    step = e_step(stage, sketch, PRUNED, quotient=quotient)
    assert e_step(stage, sketch, PRUNED, quotient=quotient, max_tuples=visited) == step
    message = (
        f"stage 1: limit tuple budget exceeded at cone c0: visited candidates exceed {visited - 1}"
    )
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
        e_step(stage, sketch, PRUNED, quotient=quotient, max_tuples=visited - 1)


CAP_CASES = [
    (iso_sketch, iso_fixture),
    (binary_sketch, binary_fixture),
    (binary_sketch, binary_collapsed_fixture),
    (sheaf_sketch, sheaf_fixture),
]


@pytest.mark.parametrize("make_sketch, make_pres", CAP_CASES)
def test_free_part_cap_is_the_closed_form_size(make_sketch, make_pres):
    # the step cap counts the free part at d as the sum over cones c of
    # |hom(peak_c, d)| x |L_c|: that is the size of the free part built
    sketch = make_sketch()
    stage = initial_stage(make_pres(sketch), sketch)
    quotient = next_quotient(stage, sketch)
    step = e_step(stage, sketch, FAITHFUL, quotient=quotient)
    base = sketch.base
    closed = {
        d: sum(len(base.hom(c.peak, d)) * len(step.limits[c.name]) for c in sketch.cones)
        for d in base.objects
    }
    assert step.free.size() == closed
    assert any(closed.values())
    totals = {d: len(quotient.target.carrier[d]) + closed[d] for d in base.objects}
    largest = max(totals.values())
    assert e_step(stage, sketch, FAITHFUL, quotient=quotient, max_elements=largest) == step
    first = next(d for d in base.objects if totals[d] == largest)
    message = f"stage 1 object {first!r} has {largest} elements (cap {largest - 1})"
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
        e_step(stage, sketch, FAITHFUL, quotient=quotient, max_elements=largest - 1)


@pytest.mark.parametrize("mode", [FAITHFUL, PRUNED])
@pytest.mark.parametrize("make_sketch, make_pres", CAP_CASES)
def test_step_cap_refuses_the_stage_total_before_building_the_free_part(
    monkeypatch, make_sketch, make_pres, mode
):
    sketch = make_sketch()
    stage = initial_stage(make_pres(sketch), sketch)
    quotient = next_quotient(stage, sketch)
    # ``witness_sum`` names the witnesses of each cone from one list of positions
    positions, built = setops_mod._positions, []

    def spy(n):
        built.append(n)
        return positions(n)

    monkeypatch.setattr(setops_mod, "_positions", spy)
    step = e_step(stage, sketch, mode, quotient=quotient)
    base, free = quotient.target.size(), step.free.size()
    sizes = {o: base[o] + free[o] for o in sketch.base.objects}
    assert step.total.size() == sizes
    largest = max(sizes.values())
    assert e_step(stage, sketch, mode, quotient=quotient, max_elements=largest) == step
    assert len(built) == 2 * len(sketch.cones)
    built.clear()
    first = next(o for o in sketch.base.objects if sizes[o] == largest)
    message = f"stage 1 object {first!r} has {largest} elements (cap {largest - 1})"
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
        e_step(stage, sketch, mode, quotient=quotient, max_elements=largest - 1)
    assert built == []


@pytest.mark.parametrize("mode", [FAITHFUL, PRUNED])
@pytest.mark.parametrize("make_sketch, make_pres", CAP_CASES)
def test_stage_cap_is_the_closed_form_total_size(make_sketch, make_pres, mode):
    sketch = make_sketch()
    pres = make_pres(sketch)
    trace = reflect_elim(pres, sketch, budget=3, mode=mode)
    # stage 0 is X itself, which the cap does not bound
    sizes = [
        (st.index, o, len(st.total.carrier[o])) for st in trace.stages[1:] for o in sketch.base.objects
    ]
    largest = max(n for _, _, n in sizes)
    again = reflect_elim(pres, sketch, budget=3, mode=mode, max_elements=largest)
    assert again.dumps() == trace.dumps()
    index, first, _ = next(s for s in sizes if s[2] == largest)
    message = f"stage {index} object {first!r} has {largest} elements (cap {largest - 1})"
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
        reflect_elim(pres, sketch, budget=3, mode=mode, max_elements=largest - 1)


def test_reflection_map_is_natural_and_lands_in_core():
    sketch = sheaf_sketch()
    trace = reflect_elim(sheaf_fixture(sketch), sketch, budget=8, mode=PRUNED)
    assert trace.converged
    assert trace.rho.validate().ok
    for obj in sketch.base.objects:
        assert set(trace.rho.components[obj].values()) <= set(trace.core.carrier[obj])


# -- structural invariants ------------------------------------------------------


def _stage_invariants(trace, sketch):
    for stage in trace.stages:
        for obj in sketch.base.objects:
            tagged = set(stage.total.carrier[obj])
            base_part = {tag_base(x) for x in stage.quotient.target.carrier[obj]}
            free_part = [fid for fid, _ in free_witnesses(stage, obj)]
            assert tagged == base_part | set(free_part)
            assert not (base_part & set(free_part))
            assert stage.free_part(obj) == tuple(sorted(free_part))
        if stage.index >= 1:
            quotient = stage.quotient
            assert quotient.source is trace.stages[stage.index - 1].total
            for obj in sketch.base.objects:
                assert set(quotient.projection[obj].values()) == set(quotient.target.carrier[obj])
        at = {c: {w: k for k, w in enumerate(ts)} for c, ts in stage.limits.items()}
        for name, arrow in sketch.base.arrows.items():
            for fid, (cone, t, w) in free_witnesses(stage, arrow.dom):
                composed, k = sketch.base.compose(name, t), at[cone][w]
                assert stage.total.action[name][fid] == tag_free(witness_id("F", cone, composed, k))
        for (cone, t), row in stage.rows.items():
            tuples = stage.limits[cone]
            assert row == [tag_free(witness_id("F", cone, t, k)) for k in range(len(tuples))]
            # the rows hold the total's own strings
            own = {id(x) for x in stage.total.carrier[sketch.base.arrows[t].cod]}
            assert all(id(x) in own for x in row)


def test_stage_invariants_on_all_fixtures():
    cases = [
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (binary_sketch(), binary_collapsed_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ]
    for sketch, pres in cases:
        for mode in (FAITHFUL, PRUNED):
            budget = 3 if mode == FAITHFUL else 8
            trace = reflect_elim(pres, sketch, budget=budget, mode=mode)
            _stage_invariants(trace, sketch)


def test_idempotence_of_the_reflector():
    for sketch, pres in (
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ):
        core = reflect_elim(pres, sketch, budget=8, mode=PRUNED).core
        again = reflect_elim(core, sketch, budget=2)
        assert again.converged_at == 0
        assert is_model(core, sketch).is_model


def test_traces_are_byte_identical_across_runs():
    sketch = binary_sketch()
    one = reflect_elim(binary_fixture(sketch), sketch, budget=8, mode=PRUNED).dumps()
    two = reflect_elim(binary_fixture(sketch), sketch, budget=8, mode=PRUNED).dumps()
    assert one == two


def test_relation_generators_are_deterministic():
    sketch = binary_sketch()
    stage1 = elim_stage(initial_stage(binary_fixture(sketch), sketch), sketch, FAITHFUL)
    assert relation_one(stage1, sketch) == relation_one(stage1, sketch)
    assert relation_two(stage1, sketch) == relation_two(stage1, sketch)


def test_stage_element_provenance_view():
    sketch = iso_sketch()
    trace = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=FAITHFUL)
    stage1 = trace.stages[1]
    seen = set()
    # the replay reads base classes from the projection, free elements from ``rows``
    # over the tuples of ``limits``
    classes = fibres(stage1.quotient.projection["b"])
    view = [(tag_base(k), members, ()) for k, members in classes.items()]
    for (cone, arrow), ids in stage1.rows.items():
        if sketch.base.arrows[arrow].cod == "b":
            tuples = stage1.limits[cone]
            view.extend((tagged, (), ((cone, arrow, w),)) for w, tagged in zip(tuples, ids))
    for tagged, members, witnesses in view:
        seen.add(tagged)
        if tagged.startswith(f"{FREE_TAG}:"):
            ((cone, _, limit_tuple),) = witnesses
            assert members == ()
            assert cone == "c0"
            assert limit_tuple == (tag_base("y"),)
        else:
            assert witnesses == ()
            assert tagged == tag_base(tag_base("y"))
    assert seen == set(stage1.total.carrier["b"])
    assert len(view) == len(seen)


# -- the pruning rule against its definition -------------------------------------


def _assert_pruned_limits_match_oracle(pres, sketch, budget=8):
    """Each pruned stage's ``limits`` are the limit tuples of its base Q that Q's gap map misses."""
    trace = reflect_elim(pres, sketch, budget=budget, mode=PRUNED)
    for stage in trace.stages[1:]:
        expected = unhit_limits(stage.quotient.target, sketch)
        for cone in sketch.cones:
            kept = stage.limits[cone.name]
            assert kept == tuple(sorted(set(kept)))
            assert set(kept) == expected[cone.name], (cone.name, stage.index)
    return trace


def test_pruned_limits_match_oracle_on_fixtures():
    for sketch, pres in (
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (binary_sketch(), binary_collapsed_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ):
        assert _assert_pruned_limits_match_oracle(pres, sketch).converged


@pytest.mark.parametrize("n", range(2, 13))
def test_pruned_limits_match_oracle_on_binary_points(n):
    sketch = binary_sketch()
    trace = _assert_pruned_limits_match_oracle(_points(sketch, n), sketch)
    assert trace.converged and trace.core.size() == {"a": n, "p": n * n}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_pruned_limits_match_oracle_on_random_presentations(name):
    sketch = build_sketch(name)
    rng = random.Random(f"pruned-oracle:{name}")
    for _ in range(12):
        pres = random_valid_presentation(rng, sketch.base, max_size=6)
        assert validate_presentation(pres).ok
        _assert_pruned_limits_match_oracle(pres, sketch)


def test_pruned_limits_match_oracle_where_a_tuple_of_q_has_several_preimages():
    # s: a -> b is no leg, so rule (1) merges its images at b and an unhit
    # pair of the quotient Q is the image of several pairs of the total;
    # the stage keeps the one pair of Q; the reflection is infinite, so the
    # runs stop at the stage budget
    base = FinCategory.build(
        "stray", ["a", "b", "c"], [("t", "a", "b"), ("s", "a", "b"), ("r", "a", "c")], {}
    )
    shape = FinCategory.build("pair_shape", ["zb", "zc"], [], {})
    diagram = CatFunctor(shape, base, {"zb": "b", "zc": "c"}, {"id_zb": "id_b", "id_zc": "id_c"})
    cone = Cone("c0", base, "a", shape, diagram, {"zb": "t", "zc": "r"})
    sketch = LimitSketch(base, (cone,))
    rng = random.Random("pruned-oracle:stray")
    several = 0
    for _ in range(12):
        trace = _assert_pruned_limits_match_oracle(
            random_valid_presentation(rng, base, max_size=4), sketch, budget=2
        )
        for prev, stage in zip(trace.stages, trace.stages[1:]):
            p = stage.quotient.projection
            over = Counter(
                (p["b"][wb], p["c"][wc])
                for wb, wc in brute_limit(shape, restrict_along(prev.total, cone))
            )
            several += sum(over[u] > 1 for u in stage.limits["c0"])
    assert several > 0
