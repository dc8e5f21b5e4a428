"""Witness ids name their limit tuple by position, and reports carry the tuples.

A free id is its tagged ``witness_head`` plus a length-prefixed position
k below |L_c|, so its length does not grow with the tuple it lies over.
Every element of a stage is a run of base tags over a free id or over an
element of the start, which bounds its length by the tags plus the
longest of those, whatever the depth.  The tuples live in each stage's
``"limits"`` table of a ``reflect`` report: row k is the k-th tuple.
"""

from __future__ import annotations

import json
import random

import pytest

from limsketch import elim, kelly
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim
from limsketch.errors import BudgetExceeded
from limsketch.kelly import reflect_kelly
from limsketch.setops import make_presentation, witness_head
from limsketch.sketchlib import BUILDERS, build_sketch

from tests.fixtures import (
    binary_fixture,
    binary_sketch,
    iso_fixture,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)
from tests.oracles import decode_id, decode_tail, random_valid_presentation

# the witness kind, the tag of the witness summand and the tag of the other summand
ELIM = ("F", elim.FREE_TAG, elim.BASE_TAG)
KELLY = ("K", kelly.SUM_PAIR_TAG, kelly.SUM_BASE_TAG)


def product_n2():
    sketch = binary_sketch()
    pres = make_presentation(sketch.base, {"a": ["x0", "x1"], "p": []}, {"pi1": {}, "pi2": {}})
    return sketch, pres


def _cases():
    """The three golden fixtures, then five random presentations per builder."""
    for label, sketch, fixture in (
        ("iso", iso_sketch, iso_fixture),
        ("binary", binary_sketch, binary_fixture),
        ("sheaf", sheaf_sketch, sheaf_fixture),
    ):
        s = sketch()
        yield label, s, fixture(s)
    for name in sorted(BUILDERS):
        sketch = build_sketch(name)
        rng = random.Random(f"witness-ids:{name}")
        for n in range(5):
            yield f"{name}-{n}", sketch, random_valid_presentation(rng, sketch.base, max_size=4)


CASES = list(_cases())


def _traces(sketch, pres):
    """Faithful and pruned elim and kelly over ``pres``, three stages each; refused runs are left out."""
    runs = [
        lambda: reflect_elim(pres, sketch, budget=3, mode=FAITHFUL),
        lambda: reflect_elim(pres, sketch, budget=3, mode=PRUNED),
        lambda: reflect_kelly(pres, sketch, budget=3, stop_on_convergence=False),
    ]
    for run in runs:
        try:
            yield run()
        except BudgetExceeded:
            pass


def _layers(trace):
    """Per stage i: (the ids of stage i, the witness rows added at stage i, their tuples).

    For elim the ids are the stage's total and stage 0 is the tagged input;
    for kelly they are the completion sum and stage 0 is the input itself.
    """
    if isinstance(trace, kelly.KellyTrace):
        yield trace.start.carrier, {}, {}
        for step in trace.stages:
            yield step.quotient.source.carrier, step.rows, step.limits
    else:
        for stage in trace.stages:
            yield stage.total.carrier, stage.rows, stage.limits


def assert_ids_by_position(trace) -> int:
    """Check every witness id and the depth bound on every id of ``trace``; return the ids seen."""
    is_kelly = isinstance(trace, kelly.KellyTrace)
    kind, tag, base_tag = KELLY if is_kelly else ELIM
    base = (trace.start if is_kelly else trace.stages[0].total).base
    layers = list(_layers(trace))
    # added[i][d]: the ids stage i adds at d, the whole start at stage 0
    added = [{d: set(xs) for d, xs in layers[0][0].items()}]
    for _, rows, limits in layers[1:]:
        at = {d: set() for d in base.objects}
        for (cone, t), row in rows.items():
            at[base.arrows[t].cod].update(row)
            for k, wid in enumerate(row):
                assert wid == f"{tag}:" + witness_head(kind, cone, t) + f"{len(str(k))}:{k}"
                assert decode_id(kind, wid[len(tag) + 1 :]) == (cone, t, k)
            assert len(row) == len(limits[cone])
        added.append(at)
    longest = max((len(x) for layer in added for xs in layer.values() for x in xs), default=0)
    prefix, seen = f"{base_tag}:", 0
    for i, (carrier, _, _) in enumerate(layers):
        for d, xs in carrier.items():
            for x in xs:
                # x is m base tags over an id added at stage i - m
                assert any(
                    x.startswith(prefix * m) and x[len(prefix) * m :] in added[i - m][d]
                    for m in range(i + 1)
                ), (i, d, x)
                assert len(x) <= len(prefix) * i + longest
            seen += len(xs)
    return seen


@pytest.mark.parametrize(("label", "sketch", "pres"), CASES, ids=[c[0] for c in CASES])
def test_witness_ids_do_not_grow_with_depth(label, sketch, pres):
    traces = list(_traces(sketch, pres))
    assert traces
    for trace in traces:
        assert assert_ids_by_position(trace) >= sum(map(len, pres.carrier.values()))


def test_product_n2_faithful_stage_three_ids_stay_short():
    """At faithful stage 3 of ``product-n2`` no id is longer than 2 x 3 tags plus a free id."""
    sketch, pres = product_n2()
    trace = reflect_elim(pres, sketch, budget=3, mode=FAITHFUL)
    assert len(trace.stages) == 4
    assert sum(map(len, trace.stages[3].total.carrier.values())) == 122_518
    assert assert_ids_by_position(trace) > 122_518
    ids = [x for xs in trace.stages[3].total.carrier.values() for x in xs]
    # the free ids of stage 3: "E:F2:c04:id_p" plus at most five digits of position
    assert max(map(len, ids)) <= 2 * 3 + len("E:F2:c04:id_p") + 2 + 5


@pytest.mark.parametrize(("label", "sketch", "pres"), CASES, ids=[c[0] for c in CASES])
def test_report_limits_table_round_trips(label, sketch, pres):
    """Each stage's ``"limits"`` rows decode to the tuples its witness ids index."""
    stages = 0
    for trace in _traces(sketch, pres):
        report = json.loads(trace.dumps())
        if isinstance(trace, kelly.KellyTrace):
            for step, entry in zip(trace.stages, report["stages"], strict=True):
                table = {c: [decode_tail(r) for r in rows] for c, rows in entry["limits"].items()}
                assert table == {c: list(ts) for c, ts in step.limits.items()}
                # each tuple's place in the table, as ``compare`` builds it
                place = {c: {w: k for k, w in enumerate(ts)} for c, ts in table.items()}
                for (cone, t), row in step.rows.items():
                    for j, wid in enumerate(row):
                        _, _, k = decode_id("K", wid[len(kelly.SUM_PAIR_TAG) + 1 :])
                        assert place[cone][table[cone][k]] == k == j
                # a class named by a formal pair names its tuple through the table
                for xs in entry["carrier"].values():
                    for x in xs:
                        if x.startswith(f"{kelly.SUM_PAIR_TAG}:"):
                            cone, _, k = decode_id("K", x[len(kelly.SUM_PAIR_TAG) + 1 :])
                            assert k < len(table[cone])
                stages += 1
        else:
            cut = len(elim.FREE_TAG) + 1
            for stage, entry in zip(trace.stages, report["stages"], strict=True):
                table = {c: [decode_tail(r) for r in rows] for c, rows in entry["limits"].items()}
                assert table == {c: list(ts) for c, ts in stage.limits.items()}
                witness = {
                    wid[cut:]: (cone, t, stage.limits[cone][k])
                    for (cone, t), row in stage.rows.items()
                    for k, wid in enumerate(row)
                }
                for fids in entry["free"].values():
                    for fid in fids:
                        cone, t, k = decode_id("F", fid)
                        assert witness[fid] == (cone, t, table[cone][k])
                stages += 1
    assert stages > 0
