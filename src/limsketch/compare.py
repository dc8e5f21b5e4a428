"""Stage-wise comparison between the staged and the classical construction.

The comparison transformation alpha is built by :func:`replay`, the one
walk over the staged engine's provenance, run over the faithful stages
from the identity on X: a base class maps through the unit of the
matching completion stage applied to the image of its members (all
members are checked to agree), and a free element over a limit tuple
maps to the class of the corresponding formal pair in the completion.
Every naturality square and every stage-commutation square is checked
explicitly; a failure is reported with a witness and never repaired.
The isomorphism of the two reflections reads only their cores and
units, through :func:`limsketch.universal.factor_through_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Iterator

from .elim import FAITHFUL, ReflectionTrace, Stage, tag_base
from .errors import EngineError, InputError, PreconditionError
from .fincat import report_text
from .kelly import CompletionStep, KellyTrace
from .setops import NatTransSpec, SetPresentation, compose_nat, identity_nat
from .sketchlib import LimitSketch
from .universal import Components, FactorisationResult, factor_through_model


def replay(
    stages: list[Stage], steps: list[CompletionStep], sketch: LimitSketch
) -> Iterator[Components]:
    """Alpha at each staged stage, from the identity on X; ``steps[i - 1]`` matches stage i.

    At stage i each ``(element, members)`` of ``stage.classes(d)`` maps
    to the one value its members' images share, each sent through the
    unit of completion step i (at stage 0, the identity on X);
    conflicting images raise :class:`EngineError`.  The free part maps
    row by row (:meth:`~limsketch.elim.Stage.witness_rows`): the tuples of
    a cone are imaged once per stage, and the k-th id of a row over arrow
    t maps to the class in the completion of the formal pair (t, k-th
    image) (:meth:`~limsketch.kelly.CompletionStep.pair_classes`).
    """
    objects, arrows = sketch.base.objects, sketch.base.arrows
    x = stages[0].quotient.target
    current: Components = {d: {e: e for e in x.carrier[d]} for d in objects}
    cone_objects = {c.name: [c.diagram.on_object(z) for z in c.shape_order()] for c in sketch.cones}
    for i, stage in enumerate(stages):
        step = steps[i - 1] if i else None
        # per cone, the current map at each tuple position
        position_maps = {c: [current[o] for o in objs] for c, objs in cone_objects.items()}
        nxt: Components = {}
        for d in objects:
            here, after = current[d], None if step is None else step.unit.components[d]
            out: dict[str, str] = {}
            for element, members in stage.classes(d):
                values = {here[m] if after is None else after[here[m]] for m in members}
                if len(values) != 1:
                    raise EngineError(
                        f"class image conflict at replay step {i} object {d!r}: "
                        f"{element!r} maps to {sorted(values)}"
                    )
                out[element] = values.pop()
            nxt[d] = out
        images: dict[str, list[tuple[str, ...]]] = {}
        for cone, arrow, tuples, ids in stage.witness_rows():
            if cone not in images:
                maps = position_maps[cone]
                images[cone] = [tuple(map(getitem, maps, w)) for w in tuples]
            d = arrows[arrow].cod
            nxt[d].update(zip(ids, step.pair_classes(d, cone, arrow, images[cone])))
        current = nxt
        yield current


@dataclass
class AlphaStage:
    index: int
    components: dict[str, dict[str, str]]
    naturality_ok: bool
    commutation_ok: bool
    witness: str | None = None


@dataclass
class AlphaTrace:
    stages: list[AlphaStage]

    @property
    def ok(self) -> bool:
        return all(s.naturality_ok and s.commutation_ok for s in self.stages)

    def to_json_dict(self) -> dict:
        return {
            "squares_ok": self.ok,
            "stages": [
                {
                    "index": s.index,
                    "components": s.components,  # as built: the encoder sorts keys
                    "naturality_ok": s.naturality_ok,
                    "commutation_ok": s.commutation_ok,
                    "witness": s.witness,
                }
                for s in self.stages
            ],
        }


def _check_naturality(
    source: SetPresentation,
    target: SetPresentation,
    components: dict[str, dict[str, str]],
) -> str | None:
    """The first square that breaks, arrow by arrow, each side mapped over the carrier."""
    base = source.base
    for name, arrow in sorted(base.arrows.items()):
        xs = source.carrier[arrow.dom]
        at_dom, at_cod = components[arrow.dom].__getitem__, components[arrow.cod].__getitem__
        left = list(map(target.action[name].__getitem__, map(at_dom, xs)))
        right = list(map(at_cod, map(source.action[name].__getitem__, xs)))
        if left != right:
            x = next(x for x, u, v in zip(xs, left, right) if u != v)
            return f"naturality breaks at arrow {name!r} on {x!r}"
    return None


def _check_commutation(
    stage: Stage, unit: Components, prev: Components, comp: Components
) -> str | None:
    """Does alpha_i . p = unit_i . alpha_(i-1) hold on the previous total?"""
    previous, projection = stage.quotient.source, stage.quotient.projection
    for d in previous.base.objects:
        for x in previous.carrier[d]:
            if comp[d][tag_base(projection[d][x])] != unit[d][prev[d][x]]:
                return f"stage {stage.index}: square breaks at {d!r} on {x!r}"
    return None


def build_alpha(
    elim_trace: ReflectionTrace,
    kelly_trace: KellyTrace,
    sketch: LimitSketch,
) -> AlphaTrace:
    """Construct and check the stage comparison for faithful stages.

    The staged trace must be faithful (pruned stages drop free elements
    the completion still carries) and the completion trace must provide
    at least as many stages as are compared.
    """
    if elim_trace.mode != FAITHFUL:
        raise PreconditionError("alpha comparison needs a faithful staged trace")
    x_elim = elim_trace.stages[0].quotient.target
    if x_elim != kelly_trace.start:
        raise InputError("the two traces start from different presentations")
    depth = len(elim_trace.stages) - 1
    if len(kelly_trace.stages) < depth:
        raise InputError(
            f"completion trace has {len(kelly_trace.stages)} stages, need {depth}"
        )
    steps = kelly_trace.stages[:depth]
    stages: list[AlphaStage] = []
    for i, comp in enumerate(replay(elim_trace.stages, steps, sketch)):
        stage = elim_trace.stages[i]
        nat_witness = _check_naturality(stage.total, kelly_trace.object_at(i), comp)
        square = None
        if i:
            unit = steps[i - 1].unit.components
            square = _check_commutation(stage, unit, stages[-1].components, comp)
        stages.append(
            AlphaStage(i, comp, nat_witness is None, square is None, square or nat_witness)
        )
    return AlphaTrace(stages)


@dataclass
class IsoVerdict:
    ok: bool
    forward: FactorisationResult
    backward: FactorisationResult
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"isomorphic": self.ok, "detail": self.detail}


def reflector_iso_check(
    first: ReflectionTrace | KellyTrace,
    second: ReflectionTrace | KellyTrace,
    sketch: LimitSketch,
) -> IsoVerdict:
    """Certify that two converged reflections of one X are isomorphic.

    Each reflection map is factored through the other trace; the verdict
    holds when the two factorisations compose to identities both ways.
    Each core is a model already, checked by its engine on convergence.
    """
    for trace in (first, second):
        if not trace.converged or trace.core is None or trace.rho is None:
            raise PreconditionError("reflector comparison needs converged traces")
    forward = factor_through_model(first, second.rho, second.core, sketch)
    backward = factor_through_model(second, first.rho, first.core, sketch)
    round_first = compose_nat(backward.g, forward.g)
    round_second = compose_nat(forward.g, backward.g)
    ok_first = round_first.components == identity_nat(first.core).components
    ok_second = round_second.components == identity_nat(second.core).components
    detail = ""
    if not ok_first:
        detail = "backward . forward is not the identity on the first core"
    elif not ok_second:
        detail = "forward . backward is not the identity on the second core"
    return IsoVerdict(ok_first and ok_second, forward, backward, detail)


def comparison_to_json_dict(alpha: AlphaTrace, iso: IsoVerdict) -> dict:
    return {"alpha": alpha.to_json_dict(), "reflector_iso": iso.to_json_dict()}


def comparison_report(alpha: AlphaTrace, iso: IsoVerdict) -> str:
    return report_text(comparison_to_json_dict(alpha, iso))
