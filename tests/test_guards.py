"""Input guards of the library calls that no command line reaches, each message and exit class.

The CLI builds both traces of ``compare`` from one presentation, with
enough completion stages, never enumerates transformations, passes the
engines only the modes it knows, and refuses an invalid presentation, or
one over another category, when it loads it.  So these refusals are
reached only by a library caller.  Each must raise
:class:`~limsketch.errors.InputError` (exit 2) with its own message.
Both engines refuse X in one entry check, whose stage-0 budget refusal
(exit 3) the command line reaches only in a subprocess; it is pinned
here in process too.
"""

from __future__ import annotations

import pytest

from limsketch.compare import build_alpha
from limsketch.elim import FAITHFUL, e_step, initial_stage, reflect_elim
from limsketch.errors import BudgetExceeded, InputError
from limsketch.kelly import reflect_kelly
from limsketch.setops import SetPresentation, functorial_quotient, make_presentation
from limsketch.universal import enumerate_nat_trans

from tests.fixtures import binary_fixture, binary_sketch, iso_fixture, iso_model, iso_sketch


def _alpha_over_two_inputs():
    sketch = iso_sketch()
    faithful = reflect_elim(iso_fixture(sketch), sketch, budget=1, mode=FAITHFUL)
    completion = reflect_kelly(iso_model(sketch), sketch, budget=1, stop_on_convergence=False)
    build_alpha(faithful, completion, sketch)


def _alpha_with_too_few_completion_stages():
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    # faithful stages 1 and 2 are compared, against one completion stage
    faithful = reflect_elim(pres, sketch, budget=2, mode=FAITHFUL)
    completion = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    build_alpha(faithful, completion, sketch)


def _free_step_in_an_unknown_mode():
    sketch = iso_sketch()
    stage = initial_stage(iso_fixture(sketch), sketch)
    e_step(stage, sketch, "lazy", quotient=functorial_quotient(stage.total, {}))


def _enumeration_over_two_categories():
    enumerate_nat_trans(iso_fixture(iso_sketch()), binary_fixture(binary_sketch()))


def _stray_presentation() -> SetPresentation:
    """A carrier at an object and an action of an arrow that ``iso_forcing`` lacks."""
    carrier = {"a": ("x",), "b": ("y",), "zz": ("q",)}
    return SetPresentation(iso_sketch().base, carrier, {"t": {"x": "y"}, "ghost": {"x": "y"}})


def _elim_over_an_invalid_presentation():
    reflect_elim(_stray_presentation(), iso_sketch())


def _kelly_over_an_invalid_presentation():
    reflect_kelly(_stray_presentation(), iso_sketch())


def _elim_over_another_category():
    reflect_elim(binary_fixture(binary_sketch()), iso_sketch())


def _kelly_over_another_category():
    reflect_kelly(binary_fixture(binary_sketch()), iso_sketch())


def _elim_in_an_unknown_mode():
    sketch = iso_sketch()
    reflect_elim(iso_fixture(sketch), sketch, mode="lazy")


def _elim_with_a_negative_budget_over_an_invalid_presentation():
    reflect_elim(_stray_presentation(), iso_sketch(), budget=-1)


def _kelly_with_a_negative_budget_over_an_invalid_presentation():
    reflect_kelly(_stray_presentation(), iso_sketch(), budget=-1)


def _kelly_over_an_invalid_presentation_and_another_category():
    reflect_kelly(_stray_presentation(), binary_sketch())


def _elim_in_an_unknown_mode_with_a_negative_budget():
    sketch = iso_sketch()
    reflect_elim(iso_fixture(sketch), sketch, mode="lazy", budget=-1)


STRAY = "invalid presentation: carrier-object: carrier at unknown object 'zz'"
OTHER = "presentation is not over the sketch category"

CASES = [
    (_alpha_over_two_inputs, "the two traces start from different presentations"),
    (_alpha_with_too_few_completion_stages, "completion trace has 1 stages, need 2"),
    (_free_step_in_an_unknown_mode, "unknown mode 'lazy'"),
    (_enumeration_over_two_categories, "enumeration needs presentations over one category"),
    (_elim_over_an_invalid_presentation, STRAY),
    (_kelly_over_an_invalid_presentation, STRAY),
    (_elim_over_another_category, OTHER),
    (_kelly_over_another_category, OTHER),
    (_elim_in_an_unknown_mode, "unknown mode 'lazy'"),
    # the one entry check refuses the budget before X, X's validity before its
    # category, and elim's mode before all of them
    (_elim_with_a_negative_budget_over_an_invalid_presentation, "budget must be >= 0"),
    (_kelly_with_a_negative_budget_over_an_invalid_presentation, "budget must be >= 0"),
    (_kelly_over_an_invalid_presentation_and_another_category, STRAY),
    (_elim_in_an_unknown_mode_with_a_negative_budget, "unknown mode 'lazy'"),
]


@pytest.mark.parametrize(("call", "message"), CASES, ids=[c.__name__[1:] for c, _ in CASES])
def test_library_guard_refuses_with_its_message_and_exit_class(call, message):
    with pytest.raises(InputError) as refused:
        call()
    assert type(refused.value) is InputError and refused.value.exit_code == 2
    assert str(refused.value) == message


@pytest.mark.parametrize("reflect", [reflect_elim, reflect_kelly], ids=["elim", "kelly"])
def test_stage_zero_model_check_names_its_stage_in_process(reflect):
    """The model check of X itself is stage 0: 3 points give 9 pairs, over a tuple budget of 0."""
    sketch = binary_sketch()
    pres = make_presentation(sketch.base, {"a": ["x0", "x1", "x2"]}, {"pi1": {}, "pi2": {}})
    with pytest.raises(BudgetExceeded) as refused:
        reflect(pres, sketch, max_tuples=0)
    assert type(refused.value) is BudgetExceeded and refused.value.exit_code == 3
    message = "stage 0: limit tuple budget exceeded at cone c0: product exceeds 0"
    assert str(refused.value) == message
