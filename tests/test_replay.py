"""The provenance replay refuses corrupted traces instead of guessing.

Each test corrupts one stage-aligned pair of traces the way a broken
engine could: two classes with different images are merged, one element
is sent to another class, a formal pair is dropped from a completion's
projection, or a tuple from a completion's limits.  A quotient is its
projection, so each of the first three edits one.  ``build_alpha`` must
raise ``EngineError``.  The factorisation reads no stage, only a trace's
unit rho, so a corrupted stage cannot reach it; ``tests.test_universal``
covers the errors it still raises.

The replay maps a staged step's free part row by row; ``brute_replay`` in
``tests.oracles`` maps it element by element.  The two must build the same
alpha, and refuse a corrupted trace with the same message.  The
factorisation, folded along the generation of the core from rho, must
equal the element-by-element replay of the trace's stages.
"""

from __future__ import annotations

import random

import pytest

from limsketch.compare import build_alpha
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim
from limsketch.errors import BudgetExceeded, EngineError
from limsketch.kelly import reflect_kelly
from limsketch.setops import make_presentation, witness_id
from limsketch.sketchlib import BUILDERS, build_sketch
from limsketch.universal import solve_factorisation

from tests.fixtures import (
    binary_fixture,
    binary_sketch,
    iso_fixture,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)
from tests.oracles import (
    brute_alpha,
    brute_factorisation,
    free_witnesses,
    random_valid_presentation,
)


def merge_classes(projection: dict[str, str], keep: str, drop: str) -> None:
    """Send every member of class ``drop`` to class ``keep`` (a corruption of the quotient)."""
    for x, k in projection.items():
        if k == drop:
            projection[x] = keep


def _binary():
    sketch = binary_sketch()
    return sketch, binary_fixture(sketch)


@pytest.fixture()
def binary():
    return _binary()


def stage_aligned(sketch, pres):
    elim_trace = reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    kelly_trace = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    return elim_trace, kelly_trace


def test_alpha_refuses_merged_elim_classes(binary):
    sketch, pres = binary
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    assert build_alpha(elim_trace, kelly_trace, sketch).ok
    merge_classes(elim_trace.stages[1].quotient.projection["a"], "B:u", "B:v")
    with pytest.raises(EngineError, match="class image conflict at replay step 1 object 'a'"):
        build_alpha(elim_trace, kelly_trace, sketch)


# a free element of class B:B:u at stage 2 of the binary fixture, the witness at pi1 over
# the tuple (B:u, B:v) at position 1 of stage 1's limits, and the other class there
MOVED, OTHER = "E:F2:c03:pi11:1", "B:B:v"


def _moved_member():
    """Stage-aligned binary traces of depth 2 with ``MOVED`` sent to ``OTHER`` in p alone."""
    sketch, pres = _binary()
    elim_trace = reflect_elim(pres, sketch, budget=2, mode=FAITHFUL)
    kelly_trace = reflect_kelly(pres, sketch, budget=2, stop_on_convergence=False)
    assert elim_trace.stages[1].limits_prev["c0"][1] == ("B:u", "B:v")
    projection = elim_trace.stages[2].quotient.projection["a"]
    assert projection[MOVED] == "B:B:u" and OTHER in projection.values()
    projection[MOVED] = OTHER
    return sketch, elim_trace, kelly_trace


def test_alpha_refuses_an_element_sent_to_another_class():
    # the commutation square breaks at the moved element: the replay refuses the stage
    sketch, elim_trace, kelly_trace = _moved_member()
    message = "class image conflict at replay step 2 object 'a': 'B:B:B:v' maps to "
    with pytest.raises(EngineError, match=message):
        build_alpha(elim_trace, kelly_trace, sketch)


def drop_formal_pair(elim_trace, kelly_trace) -> tuple[str, str, tuple[str, ...]]:
    """Delete from completion stage 1 at p the pair alpha sends stage 1's first free p element to.

    Returns its cone, arrow and limit tuple of X.
    """
    cone, arrow, w = next(free_witnesses(elim_trace.stages[1], "p"))[1]
    # alpha at stage 0 strips the base tag from each tuple component
    w = tuple(x.split(":", 1)[1] for x in w)
    step = kelly_trace.stages[0]
    pid = witness_id("K", cone, arrow, step.limits[cone].index(w))
    del step.quotient.projection["p"][f"P:{pid}"]
    return cone, arrow, w


def test_alpha_refuses_missing_formal_pair(binary):
    sketch, pres = binary
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    cone, arrow, w = drop_formal_pair(elim_trace, kelly_trace)
    message = f"pair of cone '{cone}' at arrow '{arrow}' over tuple '2#1:u1:u' missing in the "
    assert w == ("u", "u")
    with pytest.raises(EngineError, match=message + "completion sum at 'p'"):
        build_alpha(elim_trace, kelly_trace, sketch)


def drop_limit_tuple(elim_trace, kelly_trace) -> tuple[str, str, tuple[str, ...]]:
    """Take out of completion stage 1's limits the tuple under stage 1's first free p element.

    A tuple no image takes stands in at its position, so every other tuple
    keeps its place.  Returns the cone, the arrow and the tuple of X.
    """
    cone, arrow, w = next(free_witnesses(elim_trace.stages[1], "p"))[1]
    # alpha at stage 0 strips the base tag from each tuple component
    w = tuple(x.split(":", 1)[1] for x in w)
    step = kelly_trace.stages[0]
    tuples = step.limits[cone]
    k = tuples.index(w)
    stand_in = ("?",) * len(w)
    # compare builds its tuple-to-place map from ``limits``: the only record to edit
    step.limits[cone] = (*tuples[:k], stand_in, *tuples[k + 1 :])
    return cone, arrow, w


def test_alpha_refuses_an_image_missing_from_the_completion_limits(binary):
    sketch, pres = binary
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    cone, _, w = drop_limit_tuple(elim_trace, kelly_trace)
    # the first row over the tuple is that of pi1, at a
    message = f"pair of cone '{cone}' at arrow 'pi1' over tuple '2#1:u1:u' missing in the "
    assert w == ("u", "u")
    with pytest.raises(EngineError, match=message + "completion sum at 'a'"):
        build_alpha(elim_trace, kelly_trace, sketch)


# -- the row replay against the element-by-element replay ------------------------


def _refused(run):
    """``run()``, or None when a budget refuses it."""
    try:
        return run()
    except BudgetExceeded:
        return None


def assert_replays_agree(pres, sketch, faithful_budget: int) -> int:
    """Alpha by rows and by elements, and every factorisation between converged traces.

    Each factorisation is built from the trace's unit rho alone, and must
    equal the element-by-element replay of the trace's stages.  Returns
    the number of replays compared.
    """
    compared = 0
    faithful = _refused(lambda: reflect_elim(pres, sketch, budget=faithful_budget, mode=FAITHFUL))
    if faithful is not None:
        depth = len(faithful.stages) - 1
        stages = _refused(
            lambda: reflect_kelly(pres, sketch, budget=depth, stop_on_convergence=False)
        )
        if stages is not None:
            alpha = build_alpha(faithful, stages, sketch)
            assert alpha.ok
            want = brute_alpha(faithful, stages, sketch, depth)
            assert [s.components for s in alpha.stages] == want
            compared += 1
    traces = [
        faithful,
        _refused(lambda: reflect_elim(pres, sketch, budget=8, mode=PRUNED)),
        _refused(lambda: reflect_kelly(pres, sketch, budget=8)),
    ]
    converged = [t for t in traces if t is not None and t.converged]
    for trace in converged:
        for other in converged:
            g = solve_factorisation(trace.rho, other.rho, other.core, sketch)
            assert g.components == brute_factorisation(trace, other.rho, other.core, sketch)
            compared += 1
    return compared


@pytest.mark.parametrize(
    ("sketch", "fixture"),
    [(iso_sketch, iso_fixture), (binary_sketch, binary_fixture), (sheaf_sketch, sheaf_fixture)],
    ids=["iso", "binary", "sheaf"],
)
def test_row_replay_matches_brute_replay_on_fixtures(sketch, fixture):
    s = sketch()
    assert assert_replays_agree(fixture(s), s, faithful_budget=3) >= 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_replay_matches_brute_replay_on_binary_product(n):
    sketch = binary_sketch()
    pres = make_presentation(
        sketch.base, {"a": [f"x{i}" for i in range(n)], "p": []}, {"pi1": {}, "pi2": {}}
    )
    assert assert_replays_agree(pres, sketch, faithful_budget=2) >= 5


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_row_replay_matches_brute_replay_on_random_presentations(name):
    sketch = build_sketch(name)
    rng = random.Random(f"row-replay:{name}")
    compared = 0
    for _ in range(20):
        pres = random_valid_presentation(rng, sketch.base, max_size=4)
        compared += assert_replays_agree(pres, sketch, faithful_budget=2)
    assert compared >= 20


def _alpha_both(elim_trace, kelly_trace, sketch):
    return (
        lambda: build_alpha(elim_trace, kelly_trace, sketch),
        lambda: brute_alpha(elim_trace, kelly_trace, sketch, len(elim_trace.stages) - 1),
    )


def _corrupt_merged_elim_classes_alpha():
    sketch, pres = _binary()
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    merge_classes(elim_trace.stages[1].quotient.projection["a"], "B:u", "B:v")
    return _alpha_both(elim_trace, kelly_trace, sketch)


def _corrupt_moved_member_alpha():
    sketch, elim_trace, kelly_trace = _moved_member()
    return _alpha_both(elim_trace, kelly_trace, sketch)


def _corrupt_missing_formal_pair_alpha():
    sketch, pres = _binary()
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    drop_formal_pair(elim_trace, kelly_trace)
    return _alpha_both(elim_trace, kelly_trace, sketch)


def _corrupt_missing_position_alpha():
    sketch, pres = _binary()
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    drop_limit_tuple(elim_trace, kelly_trace)
    return _alpha_both(elim_trace, kelly_trace, sketch)


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_merged_elim_classes_alpha,
        _corrupt_moved_member_alpha,
        _corrupt_missing_formal_pair_alpha,
        _corrupt_missing_position_alpha,
    ],
    ids=lambda corrupt: corrupt.__name__[len("_corrupt_"):],
)
def test_row_and_brute_replay_refuse_with_one_message(corrupt):
    row, brute = corrupt()
    with pytest.raises(EngineError) as by_rows:
        row()
    with pytest.raises(EngineError) as by_elements:
        brute()
    assert str(by_rows.value) == str(by_elements.value)
