"""Stage-wise comparison between the staged and the classical construction.

The comparison transformation alpha is built by :func:`replay`, the one
walk over the staged engine's provenance, run over the faithful stages
from the identity on X: each element x of the previous total sends its
class p(x) in the base to the unit of the matching completion stage
applied to the image of x, and a free element over a limit tuple maps to
the class of the corresponding formal pair in the completion.  That is
the stage-commutation square at every x, so a stage whose square fails
is refused.  Alpha is kept as value lists along each stage total's
sorted carrier, and its naturality squares are decided after the
replay a witness row at a time; only when a test fails does
:func:`limsketch.setops.naturality_break` read alpha as dicts, to name
the first broken square.  A failure is reported with a witness and
never repaired.
A reflection is known by its unit rho: X -> LX, whose target is the
core.  :func:`unit_iso_check` certifies two units isomorphic by
factoring each through the other's core with
:func:`limsketch.universal.factor_through_model`;
:func:`reflector_iso_check` runs it on the units of two converged traces.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .elim import FAITHFUL, ReflectionTrace, Stage, tag_base
from .errors import EngineError, InputError, PreconditionError
from .fincat import SortedMap, report_text
from .kelly import CompletionStep, KellyTrace
from .setops import (
    NatTransSpec,
    SetPresentation,
    compose_nat,
    identity_nat,
    naturality_break,
    witness_tail,
)
from .sketchlib import LimitSketch
from .universal import Components, factor_through_model


def replay(
    stages: list[Stage], steps: list[CompletionStep], sketch: LimitSketch
) -> Iterator[dict[str, list[str]]]:
    """Alpha at each staged stage, from the identity on X; ``steps[i - 1]`` matches stage i.

    Alpha at stage i is a list of values per object, aligned with the
    stage total's sorted carrier: the base block, then each witness row,
    whose ids sort together and after every ``B:`` id, in the order of
    their first ids.  That layout is checked against the carrier, and a
    total that breaks it raises :class:`EngineError`.  Alpha at stage
    i - 1 becomes dicts, to look up the previous total's elements, only
    when stage i starts, so the last stage's alpha is never a dict.

    At stage i each x of the previous total sets alpha_i at ``B:``p(x) to
    unit_i(alpha_(i-1)(x)), p the stage's projection and unit_i that of
    completion step i (at stage 0, both identities): the square alpha_i .
    p = unit_i . alpha_(i-1) at x.  Two x of one fibre with different
    images raise :class:`EngineError`.  The free part maps row by row
    (``rows`` over ``limits``): the k-th id of a row over arrow t maps to
    the class, under the completion's projection, of the formal pair (t,
    k-th image), the id at the image's place in the completion's row over
    t.  Every row of a cone, here and in the completion, lists
    its elements in the order of the cone's tuples, so the tuples are
    imaged once per cone and stage, a column at a time, and each image's
    place is looked up once, in a map built from the completion's
    ``limits``.  Only the pairs at those places are read, each through the
    projection once.  An image without a place, or a reached pair the
    projection lacks, raises :class:`EngineError` naming the first.
    """
    objects, arrows = sketch.base.objects, sketch.base.arrows
    current: Components = identity_nat(stages[0].quotient.target).components
    cone_objects = {c.name: [c.diagram.on_object(z) for z in c.shape_order()] for c in sketch.cones}
    for i, stage in enumerate(stages):
        if i:
            before = stages[i - 1].total.carrier
            current = {d: dict(zip(before[d], values[d])) for d in objects}
        step = steps[i - 1] if i else None
        # per cone, the current map at each tuple position
        position_maps = {c: [current[o] for o in objs] for c, objs in cone_objects.items()}
        carrier = stage.total.carrier
        values: dict[str, list[str]] = {}
        fits: dict[str, bool] = {}  # does the layout so far match the carrier?
        for d in objects:
            # the projection lists the previous total in its sorted carrier order
            proj = stage.quotient.projection[d]
            image = list(map(current[d].__getitem__, proj))
            if step is not None:
                image = list(map(step.unit.components[d].__getitem__, image))
            out: dict[str, str] = {}
            for k, value in zip(proj.values(), image):
                if out.setdefault(k, value) != value:
                    clash = {v for j, v in zip(proj.values(), image) if j == k}
                    raise EngineError(
                        f"class image conflict at replay step {i} object {d!r}: "
                        f"{tag_base(k)!r} maps to {sorted(clash)}"
                    )
            classes = sorted(out)
            values[d] = list(map(out.__getitem__, classes))
            fits[d] = carrier[d][: len(classes)] == tuple(map(tag_base, classes))
        # per cone, the places of its imaged tuples in the completion's limits
        places: dict[str, list[int | None]] = {}
        blocks: dict[tuple[str, str], list[str]] = {}
        for (cone, arrow), ids in stage.rows.items():
            maps, tuples = position_maps[cone], stage.limits[cone]
            if cone not in places:
                at = {w: k for k, w in enumerate(step.limits[cone])}
                places[cone] = list(map(at.get, _imaged(maps, tuples)))
            d, row, place = arrows[arrow].cod, step.rows[cone, arrow], places[cone]
            pairs = step.quotient.projection[d]
            try:
                blocks[cone, arrow] = list(map(pairs.__getitem__, map(row.__getitem__, place)))
            except (KeyError, TypeError):
                j = next(j for j, k in enumerate(place) if k is None or row[k] not in pairs)
                w = tuple(m[x] for m, x in zip(maps, tuples[j]))
                raise EngineError(
                    f"pair of cone {cone!r} at arrow {arrow!r} over tuple {witness_tail(w)!r} "
                    f"missing in the completion sum at {d!r}"
                ) from None
        for _, key in sorted((ids[0], key) for key, ids in stage.rows.items() if ids):
            d, ids = arrows[key[1]].cod, stage.rows[key]
            at = len(values[d])
            values[d] += blocks.pop(key)
            # a row shares its strings with the carrier, so this compares by identity
            fits[d] = fits[d] and carrier[d][at : len(values[d])] == tuple(ids)
        for d in objects:
            if not fits[d] or len(values[d]) != len(carrier[d]):
                raise EngineError(
                    f"alpha layout breaks at replay step {i} object {d!r}: the base block "
                    f"and the rows by first id are not the total's carrier"
                )
        yield values


def _imaged(maps: list[dict[str, str]], tuples: tuple[tuple[str, ...], ...]) -> Iterator:
    """The tuples with component k sent through ``maps[k]``, streamed a column at a time."""
    cols = [map(m.__getitem__, map(itemgetter(k), tuples)) for k, m in enumerate(maps)]
    # a cone over the empty shape has no column and the one tuple ()
    return zip(*cols) if maps else iter(tuples)


def _squares_hold(stage: Stage, target: SetPresentation, values: dict[str, list[str]]) -> bool:
    """Does every naturality square of alpha at ``stage`` into ``target`` hold?

    Decided a block at a time along the layout :func:`replay` checked, with
    one large lookup per element.  An arrow a: e -> e' sends the base block
    of e into that of e', looked up in a small index of alpha there, and
    the row of (c, t) onto the row of (c, a . t), position by position, so
    alpha on the image row is alpha's values there.  An identity that
    neither side stores is skipped, as :func:`naturality_break` skips it.
    False means a test failed, not that a square does.
    """
    source = stage.total
    base, carrier, rows = source.base, source.carrier, stage.rows
    cut = {d: len(c) for d, c in stage.quotient.target.carrier.items()}
    on_base = {d: dict(zip(carrier[d][:n], values[d][:n])) for d, n in cut.items()}
    cod = {t: base.arrows[t].cod for _, t in rows}
    start = {(c, t): bisect_left(carrier[cod[t]], row[0]) for (c, t), row in rows.items() if row}
    try:
        for name, arrow in sorted(base.arrows.items()):
            if base.is_identity(name) and name not in source.action and name not in target.action:
                continue
            act, tgt, e, n = source.action[name], target.action[name], arrow.dom, cut[arrow.dom]
            there = on_base[arrow.cod]
            left = list(map(tgt.__getitem__, values[e][:n]))
            if left != list(map(there.__getitem__, map(act.__getitem__, carrier[e][:n]))):
                return False
            for (cone, t), at in start.items():
                if cod[t] != e:
                    continue
                row, image = rows[cone, t], (cone, base.compose(name, t))
                if list(map(act.__getitem__, row)) != rows[image]:
                    return False
                to, m = start[image], len(row)
                alpha_at, alpha_to = values[e][at : at + m], values[arrow.cod][to : to + m]
                if list(map(tgt.__getitem__, alpha_at)) != alpha_to:
                    return False
    except KeyError:
        return False
    return True


@dataclass
class AlphaStage:
    """Alpha at one stage, as value lists along the stage total's sorted carriers.

    ``carrier`` is the total's carriers, shared, not copied; ``values[d][k]``
    is alpha at ``carrier[d][k]``.  Its commutation squares hold, since
    :func:`replay` refuses a failing one.
    """

    index: int
    carrier: dict[str, tuple[str, ...]]
    values: dict[str, list[str]]
    naturality_ok: bool
    witness: str | None = None

    @property
    def components(self) -> Components:
        """Alpha as a dict per object, built on each read."""
        return {d: dict(zip(self.carrier[d], vs)) for d, vs in self.values.items()}


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
                    "components": {d: SortedMap(s.carrier[d], vs) for d, vs in s.values.items()},
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
    at least as many stages as are compared.  Each stage's naturality is
    decided a witness row at a time (:func:`_squares_hold`); only when a
    test fails are the stage's components built as dicts and handed to
    :func:`~limsketch.setops.naturality_break`, which names the first
    broken square, or finds none.
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
    for i, values in enumerate(replay(elim_trace.stages, steps, sketch)):
        stage, target = elim_trace.stages[i], kelly_trace.object_at(i)
        alpha = AlphaStage(i, stage.total.carrier, values, True)
        if not _squares_hold(stage, target, values):
            if square := naturality_break(stage.total, target, alpha.components):
                alpha.naturality_ok = False
                alpha.witness = f"naturality breaks at arrow {square[0]!r} on {square[1]!r}"
        stages.append(alpha)
    return AlphaTrace(stages)


@dataclass
class IsoVerdict:
    ok: bool
    forward: NatTransSpec
    backward: NatTransSpec
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
    round_first = compose_nat(backward, forward)
    round_second = compose_nat(forward, backward)
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
    """The ``compare`` report's payload, for :func:`~limsketch.fincat.write_report`.

    Alpha's components at each stage are :class:`~limsketch.fincat.SortedMap`
    objects over the stage's carrier and value lists, which the report
    writes as the dicts they list; ``json.dumps`` refuses them, so turn
    each into ``dict(zip(m.keys, m.values))`` to encode the payload another way.
    """
    return {"alpha": alpha.to_json_dict(), "reflector_iso": iso.to_json_dict()}


def comparison_report(alpha: AlphaTrace, iso: IsoVerdict) -> str:
    return report_text(comparison_to_json_dict(alpha, iso))
