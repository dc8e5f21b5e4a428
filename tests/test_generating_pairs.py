"""The pairs each engine generates at identities close to the quotient of every arrow's pairs.

Rule (1) and rule (2) of ``elim`` and R0 and R1 of ``kelly`` are defined
per arrow out of a peak or a diagram object; the engines generate them at
identities only and let the congruence closure push them along the other
arrows.  Here every stage both engines build is quotiented again by the
pairs of the definition at every arrow, built by the oracles, and must
have the projection the engine's own pairs gave it.
"""

from __future__ import annotations

from limsketch.elim import FAITHFUL, PRUNED, FREE_TAG, reflect_elim, tag_base
from limsketch.errors import BudgetExceeded
from limsketch.kelly import SUM_BASE_TAG, SUM_PAIR_TAG, reflect_kelly
from limsketch.setops import functorial_quotient

from tests.oracles import brute_leg_pairs, every_arrow_r0, every_arrow_rule_one, relation_cases

CAPS = {"max_tuples": 20_000, "max_elements": 2_000}


def _union(*relations) -> dict[str, list[tuple[str, str]]]:
    out: dict[str, set[tuple[str, str]]] = {}
    for relation in relations:
        for d, pairs in relation.items():
            out.setdefault(d, set()).update(pairs)
    return {d: sorted(pairs) for d, pairs in out.items()}


def _elim_checks(trace, sketch):
    """Per stage k >= 1: the pairs that built it and the every-arrow pairs over its source."""
    for prev, stage in zip(trace.stages, trace.stages[1:]):
        every = [every_arrow_rule_one(prev.total, sketch)]
        if prev.index >= 1:
            quotient = prev.quotient
            into = {d: {x: tag_base(k) for x, k in p.items()} for d, p in quotient.projection.items()}
            every.append(
                brute_leg_pairs(quotient.source, sketch, prev.limits, "F", FREE_TAG, into)
            )
        yield stage.quotient, _union(stage.rule1, stage.rule2), _union(*every)


def _kelly_checks(trace, sketch):
    """Per completion step: R0 and R1 as generated, and at every arrow."""
    previous = trace.start
    for step in trace.stages:
        into = {d: {x: f"{SUM_BASE_TAG}:{x}" for x in xs} for d, xs in previous.carrier.items()}
        every = (
            every_arrow_r0(previous, sketch),
            brute_leg_pairs(previous, sketch, step.limits, "K", SUM_PAIR_TAG, into),
        )
        yield step.quotient, _union(step.r0, step.r1), _union(*every)
        previous = step.obj


def test_identity_pairs_generate_the_every_arrow_quotient():
    runs = [
        (lambda p, s: reflect_elim(p, s, budget=2, mode=FAITHFUL, **CAPS), _elim_checks),
        (lambda p, s: reflect_elim(p, s, budget=3, mode=PRUNED, **CAPS), _elim_checks),
        (lambda p, s: reflect_kelly(p, s, budget=2, stop_on_convergence=False, **CAPS),
         _kelly_checks),
    ]
    compared = refused = fewer = 0
    for sketch, pres in relation_cases("closure", count=80):
        for run, checks in runs:
            try:
                trace = run(pres, sketch)
            except BudgetExceeded:
                refused += 1
                continue
            for quotient, generated, every in checks(trace, sketch):
                source = quotient.source
                assert functorial_quotient(source, generated).projection == quotient.projection
                assert functorial_quotient(source, every).projection == quotient.projection
                assert all(set(ps) <= set(every.get(d, ())) for d, ps in generated.items())
                count = sum(map(len, generated.values()))
                fewer += count < sum(map(len, every.values()))
                compared += 1
    assert compared >= 300, (compared, refused)
    # the identity pairs are a strict subset somewhere, or the property shows nothing
    assert fewer > 0
