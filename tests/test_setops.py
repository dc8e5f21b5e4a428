from __future__ import annotations

import random
import time

import pytest

from limsketch.errors import BudgetExceeded, InputError
from limsketch.fincat import FinCategory
from limsketch.elim import FAITHFUL, reflect_elim
from limsketch.setops import (
    ArrowActions,
    LimitJoin,
    NatTransSpec,
    SetPresentation,
    disjoint_sum,
    empty_presentation,
    functorial_quotient,
    limit_of_diagram,
    make_presentation,
    presentation_dumps,
    presentation_loads,
    terminal_presentation,
    validate_presentation,
)
from limsketch.sketchlib import (
    cone_limit,
    gap_map,
    restrict_along,
    sketch_binary_product,
    sketch_iso_forcing,
    sketch_two_cover_sheaf,
)

from tests.fixtures import binary_fixture, sheaf_fixture
from tests.oracles import (
    brute_limit,
    dsu_partition,
    fibres,
    naive_quotient_partition,
    ordered_brute_limit,
    pushout_classes,
    random_functorial_base,
    random_pairs,
    random_presentation,
    shape_pool,
)


def iso_base() -> FinCategory:
    return FinCategory.build("iso", ["a", "b"], [("t", "a", "b")], {})


def iso_presentation():
    return make_presentation(
        iso_base(), {"a": ["x1", "x2"], "b": ["y1", "y2"]},
        {"t": {"x1": "y1", "x2": "y2"}},
    )


# -- limit_of_diagram --------------------------------------------------------


def test_limit_empty_shape_is_a_point():
    shape = FinCategory.build("empty", [], [], {})
    diag = empty_presentation(shape)
    assert limit_of_diagram(shape, diag) == ((),)


def test_limit_discrete_product_counts():
    shape = FinCategory.build("disc2", ["z1", "z2"], [], {})
    diag = make_presentation(shape, {"z1": ["a", "b"], "z2": ["c", "d", "e"]}, {})
    assert len(limit_of_diagram(shape, diag)) == 6


def test_limit_cospan_matches_nested_loop_oracle():
    shape = FinCategory.build(
        "cospan", ["l", "m", "r"], [("lm", "l", "m"), ("rm", "r", "m")], {}
    )
    diag = make_presentation(
        shape,
        {"l": ["0", "1"], "m": ["m"], "r": ["0", "1"]},
        {"lm": {"0": "m", "1": "m"}, "rm": {"0": "m", "1": "m"}},
    )
    got = limit_of_diagram(shape, diag)
    assert len(got) == 4
    assert set(got) == brute_limit(shape, diag)


def test_limit_budget_is_enforced():
    shape = FinCategory.build("disc2", ["z1", "z2"], [], {})
    diag = make_presentation(
        shape, {"z1": [f"a{i}" for i in range(40)], "z2": [f"b{i}" for i in range(40)]}, {}
    )
    with pytest.raises(BudgetExceeded):
        limit_of_diagram(shape, diag, max_tuples=1000, label="cone c0")


def identity_cospan(n: int):
    """The sheaf's cospan zU, zV -> zW with identity restrictions on n elements."""
    sketch = sketch_two_cover_sheaf()
    s = [f"s{i:03d}" for i in range(n)]
    ident = {x: x for x in s}
    pres = make_presentation(
        sketch.base,
        {"T": [], "U": s, "V": s, "W": s},
        {"tu": {}, "tv": {}, "tw": {}, "uw": ident, "vw": ident},
    )
    return pres, sketch.cones[0]


def test_limit_cost_follows_output_not_product():
    # 128^3 candidates exceed the default budget; the join visits 3 * 128
    pres, cone = identity_cospan(128)
    got = cone_limit(pres, cone)
    assert got == tuple((x, x, x) for x in pres.carrier["U"])


def test_limit_budget_counts_visited_candidates():
    # scanned product 20 is within the budget, the 60 visited candidates are not
    pres, cone = identity_cospan(20)
    assert len(cone_limit(pres, cone, max_tuples=60)) == 20
    with pytest.raises(BudgetExceeded, match="limit tuple budget exceeded at cone c0: visited"):
        cone_limit(pres, cone, max_tuples=59)


def test_limit_output_is_deterministic():
    shape = FinCategory.build("disc2", ["z1", "z2"], [], {})
    diag = make_presentation(shape, {"z1": ["b", "a"], "z2": ["d", "c"]}, {})
    assert limit_of_diagram(shape, diag) == limit_of_diagram(shape, diag)


# -- gap_map -----------------------------------------------------------------


def test_gap_map_constant_action():
    sketch = sketch_iso_forcing()
    pres = make_presentation(
        sketch.base, {"a": ["x1", "x2"], "b": ["y"]}, {"t": {"x1": "y", "x2": "y"}}
    )
    gm = gap_map(pres, sketch.cones[0])
    assert gm == {"x1": ("y",), "x2": ("y",)}


def test_gap_map_empty_shape_cone():
    base = FinCategory.build("pt", ["a"], [], {})
    from limsketch.fincat import CatFunctor
    from limsketch.sketchlib import Cone

    shape = FinCategory.build("none", [], [], {})
    cone = Cone("c0", base, "a", shape, CatFunctor(shape, base, {}, {}), {})
    pres = make_presentation(base, {"a": ["x", "y"]}, {})
    assert gap_map(pres, cone) == {"x": (), "y": ()}


def test_gap_map_on_product_model_is_bijective():
    sketch = sketch_binary_product()
    pairs = ["uu", "uv", "vu", "vv"]
    pres = make_presentation(
        sketch.base,
        {"a": ["u", "v"], "p": pairs},
        {"pi1": {p: p[0] for p in pairs}, "pi2": {p: p[1] for p in pairs}},
    )
    gm = gap_map(pres, sketch.cones[0])
    assert sorted(gm.values()) == [("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")]
    # output tuples are compatible limit tuples by construction
    assert set(gm.values()) <= set(
        limit_of_diagram(sketch.cones[0].shape, restrict_along(pres, sketch.cones[0]))
    )


# -- functorial_quotient -------------------------------------------------------


def test_quotient_no_pairs_is_bijective():
    pres = iso_presentation()
    q = functorial_quotient(pres, {})
    assert q.target.size() == pres.size()
    for obj in pres.base.objects:
        assert sorted(q.projection[obj].values()) == sorted(q.target.carrier[obj])


def test_quotient_closure_pushes_through_actions():
    pres = iso_presentation()
    q = functorial_quotient(pres, {"a": [("x1", "x2")]})
    assert q.target.size() == {"a": 1, "b": 1}  # y1 ~ y2 forced


def test_quotient_pairs_at_target_only():
    pres = iso_presentation()
    q = functorial_quotient(pres, {"b": [("y1", "y2")]})
    assert q.target.size() == {"a": 2, "b": 1}


def test_quotient_rejects_foreign_elements():
    with pytest.raises(InputError):
        functorial_quotient(iso_presentation(), {"a": [("x1", "zz")]})


def test_quotient_projection_is_natural_and_surjective():
    pres = iso_presentation()
    q = functorial_quotient(pres, {"a": [("x1", "x2")]})
    for name, arrow in pres.base.arrows.items():
        for x in pres.carrier[arrow.dom]:
            left = q.target.action[name][q.projection[arrow.dom][x]]
            right = q.projection[arrow.cod][pres.action[name][x]]
            assert left == right
    for obj in pres.base.objects:
        assert set(q.projection[obj].values()) == set(q.target.carrier[obj])


def test_quotient_matches_naive_fixpoint_oracle_randomized():
    rng = random.Random(20250808)
    for _ in range(60):
        base = random_functorial_base(rng)
        pres = random_presentation(rng, base, max_size=8)
        pairs = random_pairs(rng, pres, count=3)
        got = functorial_quotient(pres, pairs)
        want = naive_quotient_partition(pres, {o: list(ps) for o, ps in pairs.items()})
        for obj in base.objects:
            have = {frozenset(m) for m in fibres(got.projection[obj]).values()}
            assert have == want[obj]


def line_chain(size: int = 2400, chain: int = 2000):
    """A presentation over a -f-> b -g-> c and the pairs chaining x0 .. x{chain-1} at a.

    f sends xi to y(2i mod size) and g sends yj to z(j mod 30), so the
    chain's class is pushed onto the even y and the even z.
    """
    base = FinCategory.build(
        "line", ["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("gf", "a", "c")],
        {("g", "f"): "gf"},
    )
    f = {f"x{i}": f"y{2 * i % size}" for i in range(size)}
    g = {f"y{j}": f"z{j % 30}" for j in range(size)}
    pres = make_presentation(
        base,
        {"a": f, "b": g, "c": set(g.values())},
        {"f": f, "g": g, "gf": {x: g[y] for x, y in f.items()}},
    )
    return pres, [(f"x{i}", f"x{i + 1}") for i in range(chain - 1)]


def test_quotient_of_long_chains_in_any_feed_order():
    pres, ascending = line_chain()
    want = naive_quotient_partition(pres, {"a": ascending})
    assert max(len(c) for c in want["a"]) == 2000 and len(want["b"]) == 1201
    rng = random.Random(1984)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in ascending]
    rng.shuffle(shuffled)
    for pairs in (ascending, ascending[::-1], shuffled):
        q = functorial_quotient(pres, {"a": pairs})
        for obj in pres.base.objects:
            classes = fibres(q.projection[obj])
            assert {frozenset(m) for m in classes.values()} == want[obj]
            # each class is named by its least member, the image of all its members
            assert all(rep == min(members) for rep, members in classes.items())
            assert q.target.carrier[obj] == tuple(sorted(classes))


# -- pushout_classes -----------------------------------------------------------


def test_pushout_empty_domain_is_discrete():
    lookup = pushout_classes({}, {}, ["b1", "b2"], ["c1"])
    assert lookup[("f", "b1")] != lookup[("f", "b2")]
    assert lookup[("g", "c1")] == ("g", "c1")


def test_pushout_single_merge():
    lookup = pushout_classes({"*": "b0"}, {"*": "c0"}, ["b0", "b1"], ["c0", "c1"])
    assert lookup[("f", "b0")] == lookup[("g", "c0")]
    assert lookup[("f", "b1")] != lookup[("f", "b0")]


def test_pushout_merges_through_shared_domain():
    # f constant, g injective: one class {b, c0, c1}
    lookup = pushout_classes(
        {"0": "b", "1": "b"}, {"0": "c0", "1": "c1"}, ["b"], ["c0", "c1"]
    )
    roots = {lookup[("f", "b")], lookup[("g", "c0")], lookup[("g", "c1")]}
    assert len(roots) == 1
    # disjoint-set oracle over the literal identifications
    elements = [("f", "b"), ("g", "c0"), ("g", "c1")]
    pairs = [(("f", "b"), ("g", "c0")), (("f", "b"), ("g", "c1"))]
    assert dsu_partition(elements, pairs) == {frozenset(elements)}


def test_pushout_requires_matching_domains():
    with pytest.raises(InputError):
        pushout_classes({"0": "b"}, {}, ["b"], [])


# -- disjoint_sum --------------------------------------------------------------


def test_sum_with_empty_is_isomorphic_copy():
    pres = iso_presentation()
    total, inj_l, _ = disjoint_sum(pres, empty_presentation(pres.base))
    assert {o: len(total.carrier[o]) for o in pres.base.objects} == pres.size()
    for obj in pres.base.objects:
        assert set(inj_l[obj].values()) == set(total.carrier[obj])


def test_sum_adds_cardinalities():
    base = iso_base()
    x = make_presentation(base, {"a": ["x1", "x2"], "b": ["y"]}, {"t": {"x1": "y", "x2": "y"}})
    y = make_presentation(base, {"a": ["w"], "b": ["z"]}, {"t": {"w": "z"}})
    total, _, _ = disjoint_sum(x, y)
    assert total.size() == {"a": 3, "b": 2}


def test_sum_injections_are_natural():
    base = iso_base()
    x = iso_presentation()
    y = make_presentation(base, {"a": ["w"], "b": ["z"]}, {"t": {"w": "z"}})
    total, inj_l, inj_r = disjoint_sum(x, y)
    assert validate_presentation(total).ok
    for pres, inj in ((x, inj_l), (y, inj_r)):
        for name, arrow in base.arrows.items():
            for e in pres.carrier[arrow.dom]:
                assert total.action[name][inj[arrow.dom][e]] == inj[arrow.cod][pres.action[name][e]]


# -- oracle agreement at scale (matches the randomized acceptance criterion) --


def test_limits_match_oracle_randomized():
    rng = random.Random(99)
    shapes = shape_pool()
    for _ in range(60):
        shape = rng.choice(shapes)
        diag = random_presentation(rng, shape, max_size=6)
        got = limit_of_diagram(shape, diag)
        assert set(got) == brute_limit(shape, diag)
        assert len(set(got)) == len(got)


def apex_last_shape() -> FinCategory:
    """The sheaf cone's cospan: the apex sorts last, so it is bound second."""
    return FinCategory.build(
        "sh_apex_last", ["zU", "zV", "zW"], [("zuw", "zU", "zW"), ("zvw", "zV", "zW")], {}
    )


def disconnected_shape() -> FinCategory:
    """``rp: r -> p``, so the fiber of r is bound before q is scanned."""
    return FinCategory.build("sh_disconnected", ["p", "q", "r"], [("rp", "r", "p")], {})


def test_limits_match_ordered_oracle_randomized():
    endo = FinCategory.build(
        "sh_endo", ["a", "b"], [("e", "a", "a"), ("ab", "a", "b")],
        {("e", "e"): "e", ("ab", "e"): "ab"},
    )
    shapes = shape_pool() + [apex_last_shape(), endo, disconnected_shape()]
    rng = random.Random(2012)
    disconnected = 0
    for _ in range(300):
        shape = rng.choice(shapes)
        diag = random_presentation(rng, shape, max_size=6)
        assert limit_of_diagram(shape, diag) == ordered_brute_limit(shape, diag)
        disconnected += shape.name == "sh_disconnected"
    # the shape whose raw rows leave product order, so the sort puts them back, ran
    assert disconnected > 0


def test_join_plan_records_product_order():
    # the cospan binds its apex before the second leg
    assert [step.obj for step in LimitJoin.of_shape(apex_last_shape()).plan] == [0, 2, 1]
    disconnected = LimitJoin.of_shape(disconnected_shape())
    assert [step.obj for step in disconnected.plan] == [0, 2, 1]


def test_equal_shapes_share_one_join():
    first = LimitJoin.of_shape(disconnected_shape())
    assert LimitJoin.of_shape(disconnected_shape()) is first
    assert LimitJoin.of_shape(apex_last_shape()) is not first


# -- natural transformations ---------------------------------------------------


def test_nat_trans_validation_catches_broken_square():
    pres = iso_presentation()
    tgt = make_presentation(
        iso_base(), {"a": ["m"], "b": ["n1", "n2"]}, {"t": {"m": "n1"}}
    )
    bad = NatTransSpec(pres, tgt, {"a": {"x1": "m", "x2": "m"}, "b": {"y1": "n1", "y2": "n2"}})
    report = bad.validate()
    assert any(v.rule == "naturality" for v in report.violations)



def test_nat_trans_validation_reports_the_first_square_of_a_well_formed_map():
    pres = iso_presentation()
    tgt = make_presentation(iso_base(), {"a": ["m"], "b": ["n1", "n2"]}, {"t": {"m": "n1"}})
    # both squares at t break; the report names the first, x1 in carrier order
    bad = NatTransSpec(pres, tgt, {"a": {"x1": "m", "x2": "m"}, "b": {"y1": "n2", "y2": "n2"}})
    assert [str(v) for v in bad.validate().violations] == [
        "naturality: arrow 't' on 'x1': 'n1' != 'n2'"
    ]
    # a map that is not total reads no square
    partial = NatTransSpec(pres, tgt, {"a": {"x1": "m"}, "b": {"y1": "n2", "y2": "n2"}})
    assert [str(v) for v in partial.validate().violations] == [
        "component-partial: at 'a': undefined on 'x2'"
    ]


def test_validation_is_linear_in_the_carrier():
    # 15,000 elements at each object: testing each action entry against the domain's
    # sorted tuple, not a set, took about 7 s at this size on a 2-vCPU host
    base = sketch_iso_forcing().base
    xs = [f"x{i}" for i in range(15_000)]
    pres = make_presentation(
        base, {"a": xs, "b": [f"y{i}" for i in range(15_000)]}, {"t": {x: f"y{x[1:]}" for x in xs}}
    )
    start = time.perf_counter()
    assert validate_presentation(pres).ok
    assert time.perf_counter() - start < 1.0


def test_validation_names_foreign_action_entries_in_action_order():
    action = {"t": {"z2": "y1", "x1": "y1", "z1": "y1"}}
    pres = SetPresentation(iso_base(), {"a": ("x1",), "b": ("y1",)}, action)
    assert [str(v) for v in validate_presentation(pres).violations] == [
        "action-domain: 't' defined on foreign 'z2'",
        "action-domain: 't' defined on foreign 'z1'",
    ]


def test_validation_builds_no_identity_action(monkeypatch):
    """An identity the presentation does not store is x |-> x: validation skips it, unbuilt."""
    sketches = (sketch_binary_product(), sketch_two_cover_sheaf())
    presentations = [binary_fixture(sketches[0]), sheaf_fixture(sketches[1])]
    for sketch, pres in zip(sketches, list(presentations)):
        trace = reflect_elim(pres, sketch, budget=2, mode=FAITHFUL)
        presentations += [stage.total for stage in trace.stages]
    built, real = [], ArrowActions.get

    def spy(self, name, default=None):
        if name not in self and self.base.is_identity(name):
            built.append(name)
        return real(self, name, default)

    monkeypatch.setattr(ArrowActions, "get", spy)
    assert all(validate_presentation(pres).ok for pres in presentations)
    assert len(presentations) == 8 and built == []


def test_validation_checks_a_stored_identity():
    carrier = {"a": ("x1", "x2"), "b": ("y1",)}
    moved = {"t": {"x1": "y1", "x2": "y1"}, "id_a": {"x1": "x2", "x2": "x2"}}
    report = validate_presentation(SetPresentation(iso_base(), carrier, moved))
    assert [str(v) for v in report.violations] == ["identity-action: id action moves 'x1' at 'a'"]
    fixed = {"t": {"x1": "y1", "x2": "y1"}, "id_a": {"x1": "x1", "x2": "x2"}}
    assert validate_presentation(SetPresentation(iso_base(), carrier, fixed)).ok


def test_validation_names_carriers_and_actions_off_the_base():
    carrier = {"a": ("x",), "b": ("y",), "zz": ("q",)}
    pres = SetPresentation(iso_base(), carrier, {"t": {"x": "y"}, "ghost": {"x": "y"}})
    assert [str(v) for v in validate_presentation(pres).violations] == [
        "carrier-object: carrier at unknown object 'zz'",
        "action-arrow: action of unknown arrow 'ghost'",
    ]


def test_terminal_presentation_validates():
    assert validate_presentation(terminal_presentation(iso_base())).ok


# -- serialization ---------------------------------------------------------------


def test_presentation_round_trip():
    pres = iso_presentation()
    again = presentation_loads(presentation_dumps(pres))
    assert again.carrier == pres.carrier
    assert again.action == pres.action
    assert again.base == pres.base


def test_presentation_rejects_unknown_fields():
    import json

    data = json.loads(presentation_dumps(iso_presentation()))
    data["bogus"] = []
    with pytest.raises(InputError):
        presentation_loads(json.dumps(data))
