"""The stable core and the free part are subfunctors: every action keeps them inside.

``elim._subpresentation`` restricts a presentation to part of each
carrier and checks no closure, since both of its callers pass a
subfunctor.  The stable core is the classes of a base that hold a ``B:``
element, the image of the previous base under the projection; the free
part is the witness rows of a stage sum.  Here each converged
``stable-core`` core, and the free part of every stage as ``e_step``
rebuilds it, must pass :func:`~limsketch.setops.validate_presentation`,
whose ``action-range`` rule names an element that an action sends
outside the carrier kept.  The draws are the fixture families and the
``random_sketch`` x ``random_valid_presentation`` draws of
``tests.test_adjunction``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from limsketch.elim import FAITHFUL, PRUNED, e_step, reflect_elim
from limsketch.errors import BudgetExceeded
from limsketch.setops import validate_presentation
from limsketch.sketchlib import sketch_equalizer

from tests.fixtures import (
    binary_collapsed_fixture,
    binary_fixture,
    binary_sketch,
    iso_fixture,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)
from tests.test_adjunction import CAPS, draws
from tests.test_equalizer_family import equalizer_fixture

# faithful stages grow fast: the budgets of ``tests.test_adjunction``
BUDGETS = {PRUNED: 8, FAITHFUL: 2}


def check_subfunctors(pres, sketch, outcomes: Counter) -> None:
    """Reflect ``pres`` in both modes; each stable core and each stage's free part must validate."""
    for mode, budget in BUDGETS.items():
        try:
            trace = reflect_elim(pres, sketch, budget=budget, mode=mode, **CAPS)
        except BudgetExceeded:
            outcomes["refused"] += 1
            continue
        if trace.core_kind == "stable-core":
            assert validate_presentation(trace.core).ok, mode
            outcomes["stable core"] += 1
        for stage, after in zip(trace.stages, trace.stages[1:]):
            free = e_step(stage, sketch, mode, quotient=after.quotient, **CAPS).free
            assert validate_presentation(free).ok, (mode, after.index)
            assert free.carrier == {d: after.free_part(d) for d in sketch.base.objects}
            outcomes["free part"] += 1


@pytest.mark.parametrize(
    ("sketch", "fixture"),
    [
        (iso_sketch, iso_fixture),
        (binary_sketch, binary_fixture),
        (binary_sketch, binary_collapsed_fixture),
        (sheaf_sketch, sheaf_fixture),
        (sketch_equalizer, equalizer_fixture),
    ],
    ids=["iso", "binary", "binary_collapsed", "sheaf", "equalizer"],
)
def test_fixture_cores_and_free_parts_are_subfunctors(sketch, fixture):
    s, outcomes = sketch(), Counter()
    check_subfunctors(fixture(s), s, outcomes)
    assert outcomes["free part"] >= 3, outcomes


def test_random_cores_and_free_parts_are_subfunctors():
    outcomes: Counter = Counter()
    for _, sketch, (pres,) in draws("subfunctors"):
        check_subfunctors(pres, sketch, outcomes)
    assert outcomes["stable core"] >= 3 and outcomes["free part"] >= 60, outcomes
