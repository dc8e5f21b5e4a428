"""Both engines' witness sums against their definition, on every stage they build.

``witness_sum`` names each witness once, tag included, and maps each
action row by row; ``brute_witness_presentation`` encodes every untagged
witness id afresh, and ``disjoint_sum`` tags both summands element by
element.  Both engines are run with ``witness_sum`` wrapped, so each call
is checked against the two on the very inputs the engine gave it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsketch import elim, kelly
from limsketch.elim import FAITHFUL, PRUNED, e_step, reflect_elim, relation_two, tag_base
from limsketch.errors import BudgetExceeded
from limsketch.kelly import reflect_kelly
from limsketch.setops import (
    SetPresentation,
    _position,
    _positions,
    disjoint_sum,
    functorial_quotient,
    make_presentation,
    witness_head,
    witness_id,
    witness_sum,
    witness_tail,
)
from limsketch.sketchlib import BUILDERS, build_sketch

from tests.fixtures import (
    binary_fixture,
    binary_sketch,
    iso_fixture,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)
from tests.oracles import (
    brute_leg_pairs,
    brute_witness_presentation,
    decode_id,
    decode_tail,
    random_valid_presentation,
    relation_cases,
)


@pytest.fixture()
def sums(monkeypatch):
    """Route both engines' witness sums through the oracles; record each sum's witness kind."""
    calls: list[str] = []

    def both(label, left, kind, limits, tags, cap):
        limits = [(cone, peak, tuple(tuples)) for cone, peak, tuples in limits]
        got, got_inj, got_rows = witness_sum(label, left, kind, limits, tags, cap)
        base, tag = left.base, tags[1]
        want, _ = brute_witness_presentation(kind, base, limits)
        want_sum, want_inj, _ = disjoint_sum(left, want, tags)
        assert got.carrier == want_sum.carrier
        assert got.action == want_sum.action
        assert got_inj == want_inj
        prefix = f"{tag}:"
        for (cone, t), row in got_rows.items():
            tuples = next(ts for c, _, ts in limits if c == cone)
            assert row == [prefix + witness_id(kind, cone, t, k) for k in range(len(tuples))]
            assert sorted(row) == row
        # each action maps the witnesses in the oracle's order, before ``left``'s elements
        for name, mapping in got.action.items():
            witnesses = [(x, y) for x, y in mapping.items() if x.startswith(prefix)]
            assert witnesses == [(prefix + x, prefix + y) for x, y in want.action[name].items()]
            assert list(mapping)[: len(witnesses)] == [x for x, _ in witnesses]
        # the rows, the injection and the action keys and values are the carrier's own strings
        own = {d: {id(x) for x in xs} for d, xs in got.carrier.items()}
        for (_, t), row in got_rows.items():
            assert all(id(x) in own[base.arrows[t].cod] for x in row)
        for d, tagged in got_inj.items():
            assert all(id(x) in own[d] for x in tagged.values())
        for name, mapping in got.action.items():
            arrow = base.arrows[name]
            assert all(id(x) in own[arrow.dom] for x in mapping)
            assert all(id(y) in own[arrow.cod] for y in mapping.values())
        calls.append(kind)
        return got, got_inj, got_rows

    monkeypatch.setattr(elim, "witness_sum", both)
    monkeypatch.setattr(kelly, "witness_sum", both)
    return calls


def _run_all(pres, sketch, budget):
    """Faithful and pruned elim and kelly over ``pres``; a budget refusal ends a run."""
    runs = [
        lambda: reflect_elim(pres, sketch, budget=budget, mode=FAITHFUL),
        lambda: reflect_elim(pres, sketch, budget=budget, mode=PRUNED),
        lambda: reflect_kelly(pres, sketch, budget=budget, stop_on_convergence=False),
    ]
    for run in runs:
        try:
            run()
        except BudgetExceeded:
            pass


@pytest.mark.parametrize(
    ("sketch", "fixture"),
    [(iso_sketch, iso_fixture), (binary_sketch, binary_fixture), (sheaf_sketch, sheaf_fixture)],
    ids=["iso", "binary", "sheaf"],
)
def test_fixture_stages_match_oracle(sums, sketch, fixture):
    s = sketch()
    pres = fixture(s)
    faithful = reflect_elim(pres, s, budget=2, mode=FAITHFUL)
    pruned = reflect_elim(pres, s, mode=PRUNED)
    kelly_trace = reflect_kelly(pres, s, budget=2, stop_on_convergence=False)
    assert pruned.converged
    built = len(faithful.stages) - 1 + len(pruned.stages) - 1 + len(kelly_trace.stages) - 1
    assert len(sums) == built > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_binary_product_stages_match_oracle(sums, n):
    sketch = binary_sketch()
    pres = make_presentation(
        sketch.base, {"a": [f"x{i}" for i in range(n)], "p": []}, {"pi1": {}, "pi2": {}}
    )
    trace = reflect_elim(pres, sketch, mode=PRUNED)
    assert trace.converged and trace.core.size() == {"a": n, "p": n * n}
    reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    reflect_kelly(pres, sketch, budget=2, stop_on_convergence=False)
    assert sums.count("F") == len(trace.stages) and sums.count("K") == 2


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_random_presentations_match_oracle(sums, name):
    sketch = build_sketch(name)
    rng = random.Random(f"witness-oracle:{name}")
    for _ in range(20):
        _run_all(random_valid_presentation(rng, sketch.base, max_size=4), sketch, budget=2)
    assert "F" in sums and "K" in sums


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_report_free_lists_and_free_steps_read_the_total(monkeypatch, name):
    """The report's ``free`` lists are the oracle's ids; a free step holds the total's strings."""
    steps = []

    def recorded(*args, **kwargs):
        steps.append(e_step(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(elim, "e_step", recorded)
    sketch = build_sketch(name)
    cones = [(c.name, c.peak) for c in sketch.cones]
    rng = random.Random(f"free-report:{name}")
    seen = 0
    for _ in range(20):
        pres = random_valid_presentation(rng, sketch.base, max_size=4)
        for mode in (FAITHFUL, PRUNED):
            steps.clear()
            try:
                trace = reflect_elim(pres, sketch, budget=3, mode=mode)
            except BudgetExceeded:
                continue
            for stage, entry in zip(trace.stages, trace.to_json_dict()["stages"], strict=True):
                limits = [(c, peak, stage.limits.get(c, ())) for c, peak in cones]
                want, _ = brute_witness_presentation("F", sketch.base, limits)
                assert entry["free"] == {d: list(xs) for d, xs in want.carrier.items()}
            for step, stage in zip(steps, trace.stages[1:], strict=True):
                for d, xs in step.free.carrier.items():
                    own = {id(x) for x in stage.total.carrier[d]}
                    assert all(id(x) in own for x in xs)
                seen += sum(map(len, step.free.carrier.values()))
    assert seen > 0


# fields made of the codec's own separators and length digits
FIELD = st.text(alphabet="0123456789:#ab", max_size=6)
POSITION = st.integers(min_value=0, max_value=10**7)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["F", "K"]), FIELD, FIELD, POSITION)
def test_witness_id_is_head_then_position_and_decodes(kind, cone, arrow, k):
    wid = witness_id(kind, cone, arrow, k)
    assert wid == witness_head(kind, cone, arrow) + f"{len(str(k))}:{k}"
    assert decode_id(kind, wid) == (cone, arrow, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["F", "K"]), FIELD, FIELD, POSITION, POSITION)
def test_witness_ids_of_one_row_sort_in_row_order(kind, cone, arrow, k, j):
    assert (witness_id(kind, cone, arrow, k) < witness_id(kind, cone, arrow, j)) == (k < j)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(FIELD, max_size=4).map(tuple))
def test_witness_tail_decodes(w):
    assert decode_tail(witness_tail(w)) == w


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 10_001])
def test_block_positions_are_the_positions_one_by_one(n):
    assert _positions(n) == [_position(k) for k in range(n)]


def test_rectification_pairs_match_their_definition():
    """Rule (2) of ``elim`` and R1 of ``kelly`` against ``brute_leg_pairs``, stage by stage.

    Each engine generates exactly the pairs of the definition at identities;
    the pairs at every arrow give the same quotient of the sum they live in.
    """
    caps = {"max_tuples": 20_000, "max_elements": 2_000}
    compared = 0
    for sketch, pres in relation_cases("leg-pairs"):
        try:
            elim_traces = [
                reflect_elim(pres, sketch, budget=2, mode=mode, **caps) for mode in (FAITHFUL, PRUNED)
            ]
            kelly_trace = reflect_kelly(pres, sketch, budget=2, stop_on_convergence=False, **caps)
        except BudgetExceeded:
            continue
        for stage in (st for trace in elim_traces for st in trace.stages[1:]):
            quotient = stage.quotient
            into = {d: {x: tag_base(k) for x, k in p.items()} for d, p in quotient.projection.items()}
            args = (quotient.source, sketch, stage.limits, "F", elim.FREE_TAG, into)
            got = relation_two(stage, sketch)
            at_identities = brute_leg_pairs(*args, identities_only=True)
            assert _sets(got) == _sets(at_identities)
            want = brute_leg_pairs(*args)
            assert _projection(stage.total, got) == _projection(stage.total, want)
            compared += sum(map(len, want.values()))
        for prev, step in zip(kelly_trace.stages, kelly_trace.stages[1:]):
            previous, x_tag = prev.obj, kelly.SUM_BASE_TAG
            into = {d: {x: f"{x_tag}:{x}" for x in xs} for d, xs in previous.carrier.items()}
            args = (previous, sketch, step.limits, "K", kelly.SUM_PAIR_TAG, into)
            at_identities = brute_leg_pairs(*args, identities_only=True)
            assert _sets(step.r1) == _sets(at_identities)
            want = brute_leg_pairs(*args)
            source = step.quotient.source
            assert _projection(source, step.r1) == _projection(source, want)
            compared += sum(map(len, want.values()))
    assert compared >= 1_000, compared


def _sets(pairs) -> dict[str, set[tuple[str, str]]]:
    return {d: set(ps) for d, ps in pairs.items() if ps}


def _projection(pres: SetPresentation, pairs) -> dict[str, dict[str, str]]:
    return functorial_quotient(pres, {d: sorted(ps) for d, ps in pairs.items()}).projection
