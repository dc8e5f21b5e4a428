from __future__ import annotations

import random
from collections import Counter

import pytest

import limsketch.universal as universal_mod

from limsketch.compare import build_alpha, reflector_iso_check
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim
from limsketch.errors import BudgetExceeded, EngineError, PreconditionError
from limsketch.fincat import FinCategory
from limsketch.kelly import reflect_kelly
from limsketch.setops import (
    NatTransSpec,
    compose_nat,
    empty_presentation,
    make_presentation,
    terminal_presentation,
)
from limsketch.sketchlib import BUILDERS, gap_map, is_model
from limsketch.universal import (
    PEAK,
    check_uniqueness,
    enumerate_nat_trans,
    generated,
    reached,
    solve_factorisation,
)

from tests.fixtures import (
    binary_collapsed_fixture,
    binary_fixture,
    binary_model,
    binary_singleton_model,
    binary_sketch,
    iso_fixture,
    iso_model,
    iso_sketch,
    nat,
    sheaf_fixture,
    sheaf_model,
    sheaf_sketch,
)
from tests.oracles import brute_nat_trans, random_sketch, random_valid_presentation


def test_terminal_codomain_gives_constant_factorisation():
    sketch = iso_sketch()
    pres = iso_fixture(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    terminal = terminal_presentation(sketch.base)
    f = nat(pres, terminal, {"a": {"x1": "*", "x2": "*"}, "b": {"y": "*"}})
    g = solve_factorisation(trace.rho, f, terminal, sketch)
    assert compose_nat(g, trace.rho).components == f.components
    for obj in sketch.base.objects:
        assert set(g.components[obj].values()) <= {"*"}


def test_iso_fixture_factors_through_singleton_model():
    sketch = iso_sketch()
    pres = iso_fixture(sketch)
    model = iso_model(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    f = nat(pres, model, {"a": {"x1": "m", "x2": "m"}, "b": {"y": "n"}})
    g = solve_factorisation(trace.rho, f, model, sketch)
    assert compose_nat(g, trace.rho).components == f.components
    # one candidate: the singleton model leaves g no choice
    assert check_uniqueness(g) == 1


def test_binary_fixture_factorisation_is_an_isomorphism():
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    model = binary_model(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    f = nat(pres, model, {"a": {"u": "u", "v": "v"}, "p": {}})
    g = solve_factorisation(trace.rho, f, model, sketch)
    assert compose_nat(g, trace.rho).components == f.components
    for obj in sketch.base.objects:
        values = list(g.components[obj].values())
        assert len(set(values)) == len(values) == len(model.carrier[obj])
    # the isomorphism is witnessed by gap-inverse steps: peaks that the closure reaches at p
    assert any(d == "p" and how == PEAK for d, _, how, _ in reached(trace.core, trace.rho, sketch))


def test_solver_rejects_non_model_codomain():
    sketch = iso_sketch()
    pres = iso_fixture(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    f = nat(pres, pres, {"a": {"x1": "x1", "x2": "x2"}, "b": {"y": "y"}})
    with pytest.raises(PreconditionError, match="not a model"):
        solve_factorisation(trace.rho, f, pres, sketch)


@pytest.mark.parametrize("engine", ["elim", "kelly"])
def test_solver_refuses_f_from_another_source(engine):
    # f = id_M leaves M, not X: the caller's mismatch, not an engine fault
    sketch = binary_sketch()
    pres, model = binary_fixture(sketch), binary_model(sketch)
    if engine == "elim":
        rho = reflect_elim(pres, sketch, mode=PRUNED).rho
    else:
        rho = reflect_kelly(pres, sketch).rho
    f = nat(model, model, {o: {x: x for x in model.carrier[o]} for o in sketch.base.objects})
    message = r"f.source \{'a': 2, 'p': 4\} is not rho.source \{'a': 2, 'p': 0\}"
    with pytest.raises(PreconditionError, match=message):
        solve_factorisation(rho, f, model, sketch)


def test_solver_accepts_f_from_an_equal_copy_of_the_source():
    sketch = iso_sketch()
    pres, model = iso_fixture(sketch), iso_model(sketch)
    trace = reflect_elim(pres, sketch, mode=PRUNED)
    copy = iso_fixture(sketch)
    assert copy is not pres and copy == pres
    f = next(t for t in enumerate_nat_trans(copy, model).transformations)
    g = solve_factorisation(trace.rho, f, model, sketch)
    assert compose_nat(g, trace.rho).components == f.components


def test_solver_works_on_kelly_traces():
    sketch = sheaf_sketch()
    pres = sheaf_fixture(sketch)
    model = sheaf_model(sketch)
    trace = reflect_kelly(pres, sketch, budget=8)
    f = nat(
        pres,
        model,
        {
            "U": {"0": "0", "1": "1"},
            "V": {"0": "0", "1": "1"},
            "W": {"0": "0", "1": "1"},
        },
    )
    g = solve_factorisation(trace.rho, f, model, sketch)
    assert compose_nat(g, trace.rho).components == f.components
    # two elements at each of four objects into two: (2**2)**4 candidates
    assert check_uniqueness(g) == 256


def test_enumeration_of_empty_source_is_single():
    sketch = binary_sketch()
    result = enumerate_nat_trans(empty_presentation(sketch.base), binary_model(sketch))
    assert result.status == "ok"
    assert len(result.transformations) == 1


def test_enumeration_on_singleton_cores():
    sketch = iso_sketch()
    trace = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=PRUNED)
    result = enumerate_nat_trans(trace.core, trace.core)
    assert len(result.transformations) == 1


def test_enumeration_respects_cap():
    sketch = binary_sketch()
    model = binary_model(sketch)
    result = enumerate_nat_trans(model, model, cap=10)
    assert result.status == "inconclusive"
    assert result.search_space == (2**2) * (4**4)


def test_uniqueness_binary_is_conclusive():
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    model = binary_model(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    f = nat(pres, model, {"a": {"u": "u", "v": "v"}, "p": {}})
    space = check_uniqueness(solve_factorisation(trace.rho, f, model, sketch))
    assert space == 1024
    assert space <= 10**6


def _ungenerated_unit(sketch):
    """A unit by hand into the core a = {u, v, w}, p = a x a; rho hits u and v only."""
    points = ["u", "v", "w"]
    pairs = [x + y for x in points for y in points]
    core = make_presentation(
        sketch.base,
        {"a": points, "p": pairs},
        {"pi1": {q: q[0] for q in pairs}, "pi2": {q: q[1] for q in pairs}},
    )
    pres = binary_fixture(sketch)
    rho = nat(pres, core, {"a": {"u": "u", "v": "v"}, "p": {}})
    f = nat(pres, binary_model(sketch), {"a": {"u": "u", "v": "v"}, "p": {}})
    return rho, f


def test_generated_stops_at_what_rho_reaches():
    sketch = binary_sketch()
    rho, _ = _ungenerated_unit(sketch)
    closure = generated(rho.target, rho, sketch)
    assert closure == {"a": {"u", "v"}, "p": {"uu", "uv", "vu", "vv"}}


def test_generated_fills_every_gap_over_its_image():
    sketch = binary_sketch()
    core = _ungenerated_unit(sketch)[0].target
    # rho hits u, w and the pair (u, w); the gap rule adds the other pairs over u and w
    source = make_presentation(
        sketch.base, {"a": ["u", "w"], "p": ["uw"]}, {"pi1": {"uw": "u"}, "pi2": {"uw": "w"}}
    )
    rho = nat(source, core, {"a": {"u": "u", "w": "w"}, "p": {"uw": "uw"}})
    closure = generated(core, rho, sketch)
    assert closure == {"a": {"u", "w"}, "p": {"uu", "uw", "wu", "ww"}}


def test_uniqueness_on_an_ungenerated_core_is_an_engine_error():
    # the certificate is read off a factorisation, and none is built out of an ungenerated core,
    # though a natural g commuting with rho exists: w goes where u goes
    sketch = binary_sketch()
    rho, f = _ungenerated_unit(sketch)
    model = binary_model(sketch)
    at_a = {"u": "u", "v": "v", "w": "u"}
    at_p = {q: at_a[q[0]] + at_a[q[1]] for q in rho.target.carrier["p"]}
    g = nat(rho.target, model, {"a": at_a, "p": at_p})
    assert compose_nat(g, rho).components == f.components
    with pytest.raises(EngineError, match="object 'a' misses 'w'$"):
        solve_factorisation(rho, f, model, sketch)


# -- the factorisation from a unit: its gap inverses and its refusals --------


def test_factorisation_takes_the_gap_inverse_at_each_reached_peak():
    sketch = binary_sketch()
    pres, model = binary_fixture(sketch), binary_model(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    f = nat(pres, model, {"a": {"u": "u", "v": "v"}, "p": {}})
    g = solve_factorisation(trace.rho, f, model, sketch)
    (cone,) = sketch.cones
    peaks = [(d, y, via) for d, y, how, via in reached(trace.core, trace.rho, sketch) if how == PEAK]
    # X has no pairs, so every element at p is a peak reached through the gap map
    assert sorted(y for _, y, _ in peaks) == sorted(trace.core.carrier["p"])
    for d, y, via in peaks:
        assert (d, via) == ("p", cone.name)
        images = tuple(
            g.components[cone.diagram.on_object(z)][trace.core.action[cone.legs[z]][y]]
            for z in cone.shape_order()
        )
        # g at the peak is the element of M whose gap tuple is the leg images under g
        assert gap_map(model, cone)[g.components["p"][y]] == images
        # binary_model names each pair by its two projections
        assert images == tuple(g.components["p"][y])


def test_factorisation_of_an_ungenerated_core_is_an_engine_error():
    sketch = binary_sketch()
    rho, f = _ungenerated_unit(sketch)
    with pytest.raises(EngineError, match="rho does not generate the core: object 'a' misses 'w'$"):
        solve_factorisation(rho, f, binary_model(sketch), sketch)


def test_factorisation_refuses_a_rho_that_merges_what_f_separates():
    # rho sends u and v to the one point of a model; f keeps them apart
    sketch = binary_sketch()
    pres, model = binary_fixture(sketch), binary_model(sketch)
    point = binary_singleton_model(sketch)
    rho = nat(pres, point, {"a": {"u": "u", "v": "u"}, "p": {}})
    f = nat(pres, model, {"a": {"u": "u", "v": "v"}, "p": {}})
    with pytest.raises(EngineError, match="does not commute with the reflection$"):
        solve_factorisation(rho, f, model, sketch)


def test_factorisation_refuses_a_map_that_is_not_natural():
    # f sends the pair q over (u, u) to uv: no natural g agrees with it
    sketch = binary_sketch()
    point, model = binary_singleton_model(sketch), binary_model(sketch)
    rho = nat(point, point, {"a": {"u": "u"}, "p": {"q": "q"}})
    f = NatTransSpec(point, model, {"a": {"u": "u"}, "p": {"q": "uv"}})
    with pytest.raises(EngineError, match="constructed factorisation is not natural: "):
        solve_factorisation(rho, f, model, sketch)


def test_factorisation_refuses_leg_images_outside_the_model_limit():
    # f is not natural at W: the sections over U and V restrict to W where f does not send them
    sketch = sheaf_sketch()
    pres, model = sheaf_fixture(sketch), sheaf_model(sketch)
    ident, swap = {"0": "0", "1": "1"}, {"0": "1", "1": "0"}
    rho = nat(pres, model, {"U": ident, "V": ident, "W": ident})
    f = NatTransSpec(pres, model, {"T": {}, "U": ident, "V": ident, "W": swap})
    with pytest.raises(EngineError, match="is not hit by the gap map of 'c0'$"):
        solve_factorisation(rho, f, model, sketch)


def test_enumeration_finds_two_commuting_maps_on_an_ungenerated_core():
    sketch = binary_sketch()
    rho, f = _ungenerated_unit(sketch)
    model = binary_model(sketch)
    enum = enumerate_nat_trans(rho.target, model, cap=2**3 * 4**9)
    assert (enum.status, enum.search_space) == ("ok", 2**3 * 4**9)
    found = [
        g for g in enum.transformations
        if compose_nat(g, rho).components == f.components
    ]
    # the two commuting maps differ only in where w goes
    assert [g.components["a"]["w"] for g in found] == ["u", "v"]


def test_enumeration_keeps_the_commuting_maps_in_oracle_order():
    # rho out of an empty presentation: every transformation commutes with it
    sketch = binary_sketch()
    core = binary_fixture(sketch)
    model = binary_model(sketch)
    empty = empty_presentation(sketch.base)
    rho = nat(empty, core, {"a": {}, "p": {}})
    f = nat(empty, model, {"a": {}, "p": {}})
    found = [
        g for g in enumerate_nat_trans(core, model).transformations
        if compose_nat(g, rho).components == f.components
    ]
    assert len(found) == 4
    assert components_of(found) == components_of(brute_nat_trans(core, model))


def test_generated_core_is_unique_without_enumeration(monkeypatch):
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    model = binary_model(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("a generated core was enumerated")

    monkeypatch.setattr(universal_mod, "enumerate_nat_trans", no_enumeration)
    f = nat(pres, model, {"a": {"u": "u", "v": "v"}, "p": {}})
    assert check_uniqueness(solve_factorisation(trace.rho, f, model, sketch)) == 1024


def test_certificate_needs_a_model_codomain():
    # two witnesses over one pair: with the gap map not injective, maps agreeing on rho differ;
    # the certificate reads M from a factorisation, which is refused for a non-model M
    sketch = binary_sketch()
    pres, collapsed = binary_fixture(sketch), binary_collapsed_fixture(sketch)
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    f = nat(pres, collapsed, {"a": {"u": "u", "v": "u"}, "p": {}})
    with pytest.raises(PreconditionError, match="not a model"):
        check_uniqueness(solve_factorisation(trace.rho, f, collapsed, sketch))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_certificate_matches_one_commuting_transformation(name):
    """Where the enumeration is conclusive, a generated core has exactly one commuting map."""
    sketch = BUILDERS[name]()
    compared = 0
    for seed in range(24):
        rng = random.Random(f"certificate:{name}:{seed}")
        pres = random_valid_presentation(rng, sketch.base, max_size=2)
        other = random_valid_presentation(rng, sketch.base, max_size=2)
        model = reflect_elim(other, sketch, budget=8, mode=PRUNED).core
        maps = enumerate_nat_trans(pres, model, cap=20_000)
        if maps.status == "inconclusive" or not maps.transformations:
            continue
        f = rng.choice(maps.transformations)
        for trace in (
            reflect_elim(pres, sketch, budget=8, mode=PRUNED),
            reflect_kelly(pres, sketch, budget=8),
        ):
            enum = enumerate_nat_trans(trace.core, model, cap=20_000)
            if enum.status == "inconclusive":
                continue
            commuting = [
                h for h in enum.transformations
                if compose_nat(h, trace.rho).components == f.components
            ]
            closure = generated(trace.core, trace.rho, sketch)
            assert closure == {d: set(c) for d, c in trace.core.carrier.items()}
            g = solve_factorisation(trace.rho, f, model, sketch)
            assert [h.components for h in commuting] == [g.components], (seed, trace)
            assert check_uniqueness(g) == enum.search_space
            compared += 1
    assert compared >= 16


RANDOM_SKETCH_ENGINES = [
    ("pruned", reflect_elim, {"budget": 8, "mode": PRUNED}),
    # faithful stages grow as a squared power per stage, so two of them
    ("faithful", reflect_elim, {"budget": 2, "mode": FAITHFUL}),
    ("kelly", reflect_kelly, {"budget": 8}),
]


def test_rho_generates_every_converged_core_on_random_sketches():
    """On random sketches, every converged core is a model that rho generates; engines agree.

    Each of 160 seeded sketches gets four random presentations, each
    reflected by pruned and faithful ``elim`` and by ``kelly``.  Budget
    refusals and traces that exhaust their stages are counted, not
    filtered out, and at least 1,600 of the 1,920 traces must converge.
    The convergence rule of each ``elim`` trace is counted per engine:
    faithful ``elim`` reaches ``stable-core`` on sketches like these, and
    pruned ``elim``, which has no such rule, converges by its base.  Every two
    engines that converge on one presentation give isomorphic reflections
    (``reflector_iso_check``), and the faithful trace lines up with a
    2-stage ``kelly`` trace run past convergence (``build_alpha``).
    """
    caps = {"max_tuples": 100_000, "max_elements": 5_000}
    outcomes: Counter = Counter()
    core_kinds: Counter = Counter()
    for seed in range(160):
        rng = random.Random(f"random-sketch:{seed}")
        sketch = random_sketch(rng)
        for _ in range(4):
            pres = random_valid_presentation(rng, sketch.base, max_size=3)
            converged = {}
            for engine, reflect, options in RANDOM_SKETCH_ENGINES:
                try:
                    trace = reflect(pres, sketch, **options, **caps)
                except BudgetExceeded:
                    outcomes["refused"] += 1
                    continue
                if engine == "faithful":
                    try:
                        kelly2 = reflect_kelly(
                            pres, sketch, budget=2, stop_on_convergence=False, **caps
                        )
                    except BudgetExceeded:
                        outcomes["alpha refused"] += 1
                    else:
                        assert build_alpha(trace, kelly2, sketch).ok, seed
                        outcomes["alpha"] += 1
                if not trace.converged:
                    outcomes["budget exhausted"] += 1
                    continue
                closure = generated(trace.core, trace.rho, sketch)
                assert closure == {d: set(c) for d, c in trace.core.carrier.items()}, (seed, engine)
                assert is_model(trace.core, sketch).is_model, (seed, engine)
                outcomes["converged"] += 1
                core_kinds[engine, getattr(trace, "core_kind", None)] += 1
                for other, first in converged.items():
                    assert reflector_iso_check(first, trace, sketch).ok, (seed, other, engine)
                    outcomes["isomorphic"] += 1
                converged[engine] = trace
    traces = ("refused", "budget exhausted", "converged")
    assert sum(outcomes[k] for k in traces) == 160 * 4 * len(RANDOM_SKETCH_ENGINES)
    assert outcomes["converged"] >= 1_600, outcomes
    assert core_kinds["faithful", "stable-core"] >= 1, core_kinds
    assert core_kinds["pruned", "base-fixpoint"] >= 1, core_kinds
    assert outcomes["isomorphic"] >= 1_300, outcomes
    assert outcomes["alpha"] >= 600, outcomes


def test_factorisation_is_deterministic():
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    model = binary_model(sketch)
    f_components = {"a": {"u": "u", "v": "v"}, "p": {}}
    outputs = []
    for _ in range(2):
        trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
        f = nat(pres, model, f_components)
        g = solve_factorisation(trace.rho, f, model, sketch)
        outputs.append(g.components)
    assert outputs[0] == outputs[1]


# -- the join against the candidate-by-candidate oracle -----------------------


def components_of(transformations) -> list[dict[str, dict[str, str]]]:
    return [t.components for t in transformations]


def assert_matches_oracle(source, target) -> None:
    result = enumerate_nat_trans(source, target)
    assert result.status == "ok"
    assert components_of(result.transformations) == components_of(brute_nat_trans(source, target))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_enumeration_matches_oracle_on_random_pairs(name):
    base = BUILDERS[name]().base
    compared = 0
    for seed in range(40):
        rng = random.Random(f"nat-trans:{name}:{seed}")
        source = random_valid_presentation(rng, base, max_size=3)
        target = random_valid_presentation(rng, base, max_size=3)
        result = enumerate_nat_trans(source, target, cap=20_000)
        if result.status == "inconclusive":
            continue
        oracle = brute_nat_trans(source, target)
        assert components_of(result.transformations) == components_of(oracle), seed
        compared += 1
    assert compared >= 30


@pytest.mark.parametrize(
    ("fixture", "sketch", "models"),
    [
        (iso_fixture, iso_sketch, [iso_model, lambda s: terminal_presentation(s.base)]),
        (binary_fixture, binary_sketch, [binary_model, binary_singleton_model]),
        (binary_collapsed_fixture, binary_sketch, [binary_model, binary_singleton_model]),
        (sheaf_fixture, sheaf_sketch, [sheaf_model]),
    ],
)
def test_enumeration_matches_oracle_from_fixture_cores(fixture, sketch, models):
    s = sketch()
    trace = reflect_elim(fixture(s), s, budget=8, mode=PRUNED)
    for model in models:
        assert_matches_oracle(trace.core, model(s))
    assert_matches_oracle(trace.core, trace.core)


def test_enumeration_of_empty_source_matches_oracle():
    sketch = sheaf_sketch()
    assert_matches_oracle(empty_presentation(sketch.base), sheaf_model(sketch))


def test_enumeration_over_disconnected_element_graph():
    sketch = binary_sketch()
    # (a, v) is joined to nothing; the pair q hangs off (a, u) by both projections
    source = make_presentation(
        sketch.base, {"a": ["u", "v"], "p": ["q"]}, {"pi1": {"q": "u"}, "pi2": {"q": "u"}}
    )
    assert_matches_oracle(source, binary_model(sketch))
    assert len(enumerate_nat_trans(source, binary_model(sketch)).transformations) == 4


def test_zero_space_returns_before_any_join(monkeypatch):
    base = FinCategory.build("iso_and_point", ["a", "b", "c"], [("t", "a", "b")], {})
    big = [f"x{i}" for i in range(40)]
    source = make_presentation(
        base, {"a": big, "b": ["y"], "c": ["z"]}, {"t": {x: "y" for x in big}}
    )
    target = make_presentation(
        base, {"a": [f"m{i}" for i in range(10)], "b": ["n"], "c": []},
        {"t": {f"m{i}": "n" for i in range(10)}},
    )

    def no_join(*args, **kwargs):
        raise AssertionError("a join ran on an empty search space")

    monkeypatch.setattr(universal_mod, "LimitJoin", no_join)
    result = enumerate_nat_trans(source, target)
    assert (result.status, result.transformations, result.search_space) == ("ok", [], 0)


def test_enumeration_into_a_single_valued_object_matches_oracle():
    sketch = binary_sketch()
    pairs = [f"{x}{y}" for x in "uvw" for y in "uvw"]
    source = make_presentation(
        sketch.base,
        {"a": list("uvw"), "p": pairs},
        {"pi1": {q: q[0] for q in pairs}, "pi2": {q: q[1] for q in pairs}},
    )
    # a has a choice of two values, p only one
    target = make_presentation(
        sketch.base, {"a": ["0", "1"], "p": ["*"]}, {"pi1": {"*": "0"}, "pi2": {"*": "0"}}
    )
    assert_matches_oracle(source, target)
    # every pair projects to 0, so each of u, v, w must go to 0
    assert len(enumerate_nat_trans(source, target).transformations) == 1
