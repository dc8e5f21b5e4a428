"""Stage-wise comparison between the staged and the classical construction.

The comparison transformation alpha is built by :func:`replay`, the one
walk over the staged engine's provenance, run over the faithful stages
from the identity on X: each element x of the previous total sends its
class p(x) in the base to the unit of the matching completion stage
applied to the image of x, and a free element over a limit tuple maps to
the class of the corresponding formal pair in the completion.  That is
the stage-commutation square at every x, so a stage whose square fails
is refused; every naturality square is checked after the replay, by
:func:`limsketch.setops.naturality_break`.  A failure is reported with a
witness and never repaired.
A reflection is known by its unit rho: X -> LX, whose target is the
core.  :func:`unit_iso_check` certifies two units isomorphic by
factoring each through the other's core with
:func:`limsketch.universal.factor_through_model`;
:func:`reflector_iso_check` runs it on the units of two converged traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .elim import FAITHFUL, ReflectionTrace, Stage, tag_base
from .errors import EngineError, InputError, PreconditionError
from .fincat import report_text
from .kelly import CompletionStep, KellyTrace
from .setops import NatTransSpec, compose_nat, identity_nat, naturality_break, witness_tail
from .sketchlib import LimitSketch
from .universal import Components, FactorisationResult, factor_through_model


def replay(
    stages: list[Stage], steps: list[CompletionStep], sketch: LimitSketch
) -> Iterator[Components]:
    """Alpha at each staged stage, from the identity on X; ``steps[i - 1]`` matches stage i.

    At stage i each x of the previous total sets alpha_i at ``B:``p(x) to
    unit_i(alpha_(i-1)(x)), p the stage's projection and unit_i that of
    completion step i (at stage 0, both identities): the square alpha_i .
    p = unit_i . alpha_(i-1) at x.  Two x of one fibre with different
    images raise :class:`EngineError`.  The free part maps row by row
    (``free_rows`` over ``limits_prev``): the k-th id of a row over arrow
    t maps to the class, under the completion's projection, of the formal
    pair (t, k-th image), the id at the image's place in the completion's
    row over t.  Every row of a cone, here and in the completion, lists
    its elements in the order of the cone's tuples, so the tuples are
    imaged once per cone and stage, a column at a time, and each image's
    place is looked up once, in a map built from the completion's
    ``limits``, and read by every row.  An image without a place, or a
    pair the projection lacks, raises :class:`EngineError` naming the first.
    """
    objects, arrows = sketch.base.objects, sketch.base.arrows
    current: Components = identity_nat(stages[0].quotient.target).components
    cone_objects = {c.name: [c.diagram.on_object(z) for z in c.shape_order()] for c in sketch.cones}
    for i, stage in enumerate(stages):
        step = steps[i - 1] if i else None
        # per cone, the current map at each tuple position
        position_maps = {c: [current[o] for o in objs] for c, objs in cone_objects.items()}
        nxt: Components = {}
        for d in objects:
            # the projection lists the previous total in its sorted carrier order
            proj = stage.quotient.projection[d]
            values = list(map(current[d].__getitem__, proj))
            if step is not None:
                values = list(map(step.unit.components[d].__getitem__, values))
            out: dict[str, str] = {}
            for k, value in zip(proj.values(), values):
                if out.setdefault(k, value) != value:
                    clash = {v for j, v in zip(proj.values(), values) if j == k}
                    raise EngineError(
                        f"class image conflict at replay step {i} object {d!r}: "
                        f"{tag_base(k)!r} maps to {sorted(clash)}"
                    )
            nxt[d] = {tag_base(k): value for k, value in out.items()}
        # per cone, the places of its imaged tuples in the completion's limits
        places: dict[str, list[int | None]] = {}
        for (cone, arrow), ids in stage.free_rows.items():
            maps, tuples = position_maps[cone], stage.limits_prev[cone]
            if cone not in places:
                at = {w: k for k, w in enumerate(step.limits[cone])}
                places[cone] = list(map(at.get, _imaged(maps, tuples)))
            d, row, place = arrows[arrow].cod, step.rows[cone, arrow], places[cone]
            projection = step.quotient.projection[d]
            try:
                nxt[d].update(zip(ids, map(projection.__getitem__, map(row.__getitem__, place))))
            except (KeyError, TypeError):
                j = next(j for j, k in enumerate(place) if k is None or row[k] not in projection)
                w = tuple(m[x] for m, x in zip(maps, tuples[j]))
                raise EngineError(
                    f"pair of cone {cone!r} at arrow {arrow!r} over tuple {witness_tail(w)!r} "
                    f"missing in the completion sum at {d!r}"
                ) from None
        current = nxt
        yield current


def _imaged(maps: list[dict[str, str]], tuples: tuple[tuple[str, ...], ...]) -> Iterator:
    """The tuples with component k sent through ``maps[k]``, streamed a column at a time."""
    cols = [map(m.__getitem__, map(itemgetter(k), tuples)) for k, m in enumerate(maps)]
    # a cone over the empty shape has no column and the one tuple ()
    return zip(*cols) if maps else iter(tuples)


@dataclass
class AlphaStage:
    """Alpha at one stage; its commutation squares hold, since :func:`replay` refuses a failing one."""

    index: int
    components: dict[str, dict[str, str]]
    naturality_ok: bool
    witness: str | None = None


@dataclass
class AlphaTrace:
    stages: list[AlphaStage]

    @property
    def ok(self) -> bool:
        return all(s.naturality_ok for s in self.stages)

    def to_json_dict(self) -> dict:
        return {
            "squares_ok": self.ok,
            "stages": [
                {
                    "index": s.index,
                    "components": s.components,  # as built: the encoder sorts keys
                    "naturality_ok": s.naturality_ok,
                    "witness": s.witness,
                }
                for s in self.stages
            ],
        }


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
        total = elim_trace.stages[i].total
        witness = None
        if square := naturality_break(total, kelly_trace.object_at(i), comp):
            witness = f"naturality breaks at arrow {square[0]!r} on {square[1]!r}"
        stages.append(AlphaStage(i, comp, witness is None, witness))
    return AlphaTrace(stages)


@dataclass
class IsoVerdict:
    ok: bool
    forward: FactorisationResult
    backward: FactorisationResult
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"isomorphic": self.ok, "detail": self.detail}


def unit_iso_check(first: NatTransSpec, second: NatTransSpec, sketch: LimitSketch) -> IsoVerdict:
    """Certify that two units of one X, into the cores C and D, are isomorphic reflections.

    Each unit is factored through the other's core: forward is the g: C
    -> D with g . first = second, backward the one D -> C; the verdict
    holds when the two compose to identities both ways.  Each core must
    be a model, and each unit must generate its core.
    """
    forward = factor_through_model(first, second, second.target, sketch)
    backward = factor_through_model(second, first, first.target, sketch)
    round_first = compose_nat(backward.g, forward.g)
    round_second = compose_nat(forward.g, backward.g)
    ok_first = round_first.components == identity_nat(first.target).components
    ok_second = round_second.components == identity_nat(second.target).components
    detail = ""
    if not ok_first:
        detail = "backward . forward is not the identity on the first core"
    elif not ok_second:
        detail = "forward . backward is not the identity on the second core"
    return IsoVerdict(ok_first and ok_second, forward, backward, detail)


def reflector_iso_check(
    first: ReflectionTrace | KellyTrace,
    second: ReflectionTrace | KellyTrace,
    sketch: LimitSketch,
) -> IsoVerdict:
    """:func:`unit_iso_check` on the units of two converged traces of one X.

    Each core is a model already, checked by its engine on convergence.
    """
    if not first.converged or not second.converged:
        raise PreconditionError("reflector comparison needs converged traces")
    return unit_iso_check(first.rho, second.rho, sketch)


def comparison_to_json_dict(alpha: AlphaTrace, iso: IsoVerdict) -> dict:
    return {"alpha": alpha.to_json_dict(), "reflector_iso": iso.to_json_dict()}


def comparison_report(alpha: AlphaTrace, iso: IsoVerdict) -> str:
    return report_text(comparison_to_json_dict(alpha, iso))
