"""Properties of the reflection L that follow from the adjunction, checked on units alone.

A reflection is known by its unit rho: X -> LX, so each property here
composes units and compares two of them with
:func:`limsketch.compare.unit_iso_check`; no engine serves as the oracle
of another.  The draws are :func:`tests.oracles.random_sketch` x
:func:`tests.oracles.random_valid_presentation` (``max_size=3``).

- Every stage is a localisation of X: the base Q_k of each ``elim``
  stage, pruned or faithful, has L(Q_k) = L(X) through the stage
  projections X -> Q_k.  Only bases: a stage total is not L-equivalent
  to X, since rule (2) glues a free witness to its tuple in the next stage.
- L is a left adjoint, so it preserves coproducts: L(X + Y) = L(LX + LY).
- L does not read names: an order-reversing renaming of X gives an
  isomorphic core at the same stage.

Budget refusals and exhausted budgets are counted as outcomes, not
filtered out, and each test asserts a lower bound on the checks it made.
"""

from __future__ import annotations

import random
from collections import Counter

from limsketch.compare import unit_iso_check
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim, tag_base
from limsketch.errors import BudgetExceeded
from limsketch.kelly import reflect_kelly
from limsketch.setops import NatTransSpec, compose_nat, disjoint_sum, make_presentation

from tests.oracles import random_sketch, random_valid_presentation

SEEDS = 60
CAPS = {"max_tuples": 100_000, "max_elements": 5_000}


def draws(label: str, count: int = 1):
    """Per seed, a random sketch and ``count`` random presentations over its base."""
    for seed in range(SEEDS):
        rng = random.Random(f"adjunction:{label}:{seed}")
        sketch = random_sketch(rng)
        yield seed, sketch, [
            random_valid_presentation(rng, sketch.base, max_size=3) for _ in range(count)
        ]


def unit(reflect, pres, sketch, outcomes: Counter, **options) -> NatTransSpec | None:
    """The unit of a converged reflection of ``pres``, or None with the outcome counted."""
    try:
        trace = reflect(pres, sketch, **options, **CAPS)
    except BudgetExceeded:
        outcomes["refused"] += 1
        return None
    if not trace.converged:
        outcomes["budget exhausted"] += 1
        return None
    return trace.rho


def test_every_stage_base_has_the_reflection_of_x():
    outcomes: Counter = Counter()
    for seed, sketch, (pres,) in draws("bases"):
        rho = unit(reflect_kelly, pres, sketch, outcomes, budget=8)
        if rho is None:
            continue
        for mode, budget in ((PRUNED, 8), (FAITHFUL, 2)):
            try:
                trace = reflect_elim(pres, sketch, budget=budget, mode=mode, **CAPS)
            except BudgetExceeded:
                outcomes["refused"] += 1
                continue
            # the stage projections X -> Q_k, from the identity on X
            into = {d: {x: x for x in pres.carrier[d]} for d in sketch.base.objects}
            for stage in trace.stages:
                if stage.index:
                    p = stage.quotient.projection
                    into = {d: {x: p[d][tag_base(y)] for x, y in m.items()} for d, m in into.items()}
                base = stage.quotient.target
                rho_k = unit(reflect_kelly, base, sketch, outcomes, budget=8)
                if rho_k is None:
                    continue
                via = compose_nat(rho_k, NatTransSpec(pres, base, into))
                assert unit_iso_check(rho, via, sketch).ok, (seed, mode, stage.index)
                outcomes[mode] += 1
                outcomes["past stage 0"] += bool(stage.index)
    assert outcomes[PRUNED] >= 90 and outcomes[FAITHFUL] >= 90, outcomes
    # a base Q_k with k > 0 is a quotient of a stage total, not X itself
    assert outcomes["past stage 0"] >= 70, outcomes


def test_reflection_preserves_binary_coproducts():
    outcomes: Counter = Counter()
    for seed, sketch, (x, y) in draws("coproducts", 2):
        units = [unit(reflect_elim, p, sketch, outcomes, budget=8, mode=PRUNED) for p in (x, y)]
        if None in units:
            continue
        rho_x, rho_y = units
        total, in_x, in_y = disjoint_sum(x, y)
        reflected, out_x, out_y = disjoint_sum(rho_x.target, rho_y.target)
        # rho_x + rho_y: X + Y -> LX + LY, summand by summand
        sum_map = {
            d: {
                **{in_x[d][e]: out_x[d][rho_x.components[d][e]] for e in x.carrier[d]},
                **{in_y[d][e]: out_y[d][rho_y.components[d][e]] for e in y.carrier[d]},
            }
            for d in sketch.base.objects
        }
        direct = unit(reflect_elim, total, sketch, outcomes, budget=8, mode=PRUNED)
        through = unit(reflect_elim, reflected, sketch, outcomes, budget=8, mode=PRUNED)
        if direct is None or through is None:
            continue
        via = compose_nat(through, NatTransSpec(total, reflected, sum_map))
        assert unit_iso_check(direct, via, sketch).ok, seed
        outcomes["isomorphic"] += 1
    assert outcomes["isomorphic"] >= 54, outcomes


def test_an_order_reversing_renaming_changes_no_core():
    outcomes: Counter = Counter()
    for seed, sketch, (pres,) in draws("renaming"):
        # position i of n at d becomes d~(n - 1 - i): the sorted order of each carrier reverses
        names = {
            d: {x: f"{d}~{len(xs) - 1 - i:03d}" for i, x in enumerate(xs)}
            for d, xs in pres.carrier.items()
        }
        action = {
            name: {names[a.dom][x]: names[a.cod][y] for x, y in pres.action[name].items()}
            for name, a in sketch.base.arrows.items()
        }
        renamed = make_presentation(
            sketch.base, {d: m.values() for d, m in names.items()}, action
        )
        rename = NatTransSpec(pres, renamed, names)
        for engine, reflect, options in (
            ("pruned", reflect_elim, {"budget": 8, "mode": PRUNED}),
            ("kelly", reflect_kelly, {"budget": 8}),
        ):
            try:
                first, second = (reflect(p, sketch, **options, **CAPS) for p in (pres, renamed))
            except BudgetExceeded:
                outcomes["refused"] += 1
                continue
            assert first.converged_at == second.converged_at, (seed, engine)
            if not first.converged:
                outcomes["budget exhausted"] += 1
                continue
            via = compose_nat(second.rho, rename)
            assert unit_iso_check(first.rho, via, sketch).ok, (seed, engine)
            outcomes[engine] += 1
    assert outcomes["pruned"] >= 54 and outcomes["kelly"] >= 54, outcomes
