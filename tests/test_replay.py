"""The provenance replay refuses corrupted traces instead of guessing.

Each test corrupts one converged or stage-aligned trace the way a broken
engine could: two classes with different images are merged, a formal
pair is dropped from a completion's projection or from its provenance,
or a witness tuple is replaced by one outside the limit.  Both ``solve_factorisation`` and
``build_alpha`` must raise ``EngineError``.
"""

from __future__ import annotations

import re

import pytest

from limsketch.compare import build_alpha
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim
from limsketch.errors import EngineError
from limsketch.kelly import pair_element_id, reflect_kelly
from limsketch.universal import solve_factorisation

from tests.fixtures import (
    binary_fixture,
    binary_model,
    binary_sketch,
    nat,
    sheaf_fixture,
    sheaf_model,
    sheaf_sketch,
)


def merge_classes(classes: dict[str, tuple[str, ...]], keep: str, drop: str) -> None:
    """Fold class ``drop`` into class ``keep`` (a corruption of the quotient)."""
    classes[keep] = tuple(sorted(classes[keep] + classes.pop(drop)))


@pytest.fixture()
def binary():
    sketch = binary_sketch()
    pres = binary_fixture(sketch)
    model = binary_model(sketch)
    f = nat(pres, model, {"a": {"u": "u", "v": "v"}, "p": {}})
    return sketch, pres, model, f


def test_solve_refuses_merged_elim_classes(binary):
    sketch, pres, model, f = binary
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    assert trace.converged and trace.converged_at >= 1
    merge_classes(trace.stages[1].prev_classes["a"], "B:u", "B:v")
    with pytest.raises(EngineError, match="class image conflict at replay step 1 object 'a'"):
        solve_factorisation(trace, f, model, sketch)


def test_solve_refuses_merged_kelly_classes(binary):
    sketch, pres, model, f = binary
    trace = reflect_kelly(pres, sketch, budget=8)
    assert trace.converged and trace.converged_at >= 1
    classes = trace.stages[0].step.quotient.classes["a"]
    keep, drop = (trace.stages[0].step.unit.components["a"][x] for x in ("u", "v"))
    assert keep != drop
    merge_classes(classes, keep, drop)
    with pytest.raises(EngineError, match="class image conflict at replay step 0 object 'a'"):
        solve_factorisation(trace, f, model, sketch)


def stage_aligned(sketch, pres):
    elim_trace = reflect_elim(pres, sketch, budget=1, mode=FAITHFUL)
    kelly_trace = reflect_kelly(pres, sketch, budget=1, stop_on_convergence=False)
    return elim_trace, kelly_trace


def test_alpha_refuses_merged_elim_classes(binary):
    sketch, pres, _, _ = binary
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    assert build_alpha(elim_trace, kelly_trace, sketch).ok
    merge_classes(elim_trace.stages[1].prev_classes["a"], "B:u", "B:v")
    with pytest.raises(EngineError, match="class image conflict at replay step 1 object 'a'"):
        build_alpha(elim_trace, kelly_trace, sketch)


def test_alpha_refuses_missing_formal_pair(binary):
    sketch, pres, _, _ = binary
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    stage = elim_trace.stages[1]
    fid = stage.free.carrier["p"][0]
    cone, arrow, w = stage.free_prov[fid]
    # alpha at stage 0 strips the base tag from each tuple component
    pid = pair_element_id(cone, arrow, tuple(x.split(":", 1)[1] for x in w))
    del kelly_trace.stages[0].step.quotient.projection["p"][f"P:{pid}"]
    with pytest.raises(EngineError, match="missing in the completion sum at 'p'"):
        build_alpha(elim_trace, kelly_trace, sketch)


def test_alpha_refuses_formal_pair_without_provenance(binary):
    sketch, pres, _, _ = binary
    elim_trace, kelly_trace = stage_aligned(sketch, pres)
    stage = elim_trace.stages[1]
    fid = stage.free.carrier["p"][0]
    cone, arrow, w = stage.free_prov[fid]
    witness = (cone, arrow, tuple(x.split(":", 1)[1] for x in w))
    step = kelly_trace.stages[0].step
    pid = pair_element_id(*witness)
    assert step.pair_prov.pop(pid) == witness
    del step.pair_elements[witness]
    message = f"pair {pid!r} missing in the completion sum at 'p'"
    with pytest.raises(EngineError, match=re.escape(message)):
        build_alpha(elim_trace, kelly_trace, sketch)


def test_solve_refuses_witness_outside_the_model_limit():
    sketch = sheaf_sketch()
    pres = sheaf_fixture(sketch)
    model = sheaf_model(sketch)
    ident = {"0": "0", "1": "1"}
    f = nat(pres, model, {"U": ident, "V": ident, "W": ident})
    trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
    stage = trace.stages[1]
    fid = next(k for k, (_, arrow, _) in stage.free_prov.items() if arrow == "id_T")
    cone, arrow, _ = stage.free_prov[fid]
    # sections 0 over U and 1 over V do not agree on W
    stage.free_prov[fid] = (cone, arrow, ("B:0", "B:1", "B:0"))
    with pytest.raises(EngineError, match="not hit by the gap map of 'c0'"):
        solve_factorisation(trace, f, model, sketch)
