"""Executable reflection property: construct the factorisation, certify uniqueness.

Both engines present a stage as bundles: a class carries earlier
elements, fresh witnesses (cone, arrow, limit tuple), or both, and fresh
witnesses without a class come in rows over the cone's limit tuples.
:func:`replay` walks them once, for the stage comparison in ``compare``
and here for the g with g . rho = f of a map f from X into a model M: a
witness maps through the inverse of M's gap map, which exists exactly
because M is a model.  Uniqueness is certified separately, from the core,
rho and the sketch alone: the unit of a reflection generates the
reflection, so when :func:`generated` reaches the whole core, two maps
into a model that agree on rho agree everywhere.  A core that rho does
not generate is an engine fault.  :func:`enumerate_nat_trans` lists all
natural transformations out of a core, a limit over its category of
elements found by the cone-limit join; the tests check the certificate
against it, and the construction never feeds either check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem
from typing import Callable, Iterable, Iterator, Mapping

from .elim import ReflectionTrace
from .errors import EngineError, InputError, PreconditionError
from .fincat import report_text
from .kelly import KellyTrace
from .setops import DEFAULT_TUPLE_BUDGET, LimitJoin, NatTransSpec, SetPresentation, compose_nat
from .sketchlib import LimitSketch, gap_map, is_model

DEFAULT_ENUM_CAP = 10**6

Components = dict[str, dict[str, str]]


def replay(
    steps: Iterable,
    start: Mapping[str, Mapping[str, str]],
    sketch: LimitSketch,
    carry: Callable[[int], Mapping[str, Mapping[str, str]] | None],
    witness: Callable[[int, str, list[str], str, str, list[tuple[str, ...]]], Iterable[str]],
) -> Iterator[Components]:
    """Extend a map on X along replay steps; yield the map after each step.

    ``start[d][x]`` is the image of each element x of X at object d.  At
    step i, each ``(element, carried, witnesses)`` of ``step.classes(d)``
    maps to the one value shared by its carried members' images, each sent
    through ``carry(i)`` unless that is None, and by its witnesses' images
    (each a row of one, see below); conflicting images raise
    :class:`EngineError`.  A staged step also has rows ``(cone, arrow,
    tuples, ids)`` (:meth:`~limsketch.elim.Stage.witness_rows`), the k-th
    id the witness over the k-th tuple.  A row maps whole: its tuples are
    imaged once per cone and step, and ``witness(i, d, ids, cone, arrow,
    images)`` returns the images of ``ids`` at the codomain d of ``arrow``.
    """
    objects, arrows, current = sketch.base.objects, sketch.base.arrows, start
    cone_objects = {c.name: [c.diagram.on_object(z) for z in c.shape_order()] for c in sketch.cones}
    for i, step in enumerate(steps):
        unit = carry(i)
        # per cone, the current map at each tuple position
        position_maps = {c: [current[o] for o in objs] for c, objs in cone_objects.items()}
        nxt: Components = {}
        for d in objects:
            here, after = current[d], None if unit is None else unit[d]
            out: dict[str, str] = {}
            for element, carried, witnesses in step.classes(d):
                values = set()
                for m in carried:
                    values.add(here[m] if after is None else after[here[m]])
                for cone, arrow, w in witnesses:
                    v = tuple(map(getitem, position_maps[cone], w))
                    values.update(witness(i, d, [element], cone, arrow, [v]))
                if len(values) != 1:
                    raise EngineError(
                        f"class image conflict at replay step {i} object {d!r}: "
                        f"{element!r} maps to {sorted(values)}"
                    )
                out[element] = values.pop()
            nxt[d] = out
        images: dict[str, list[tuple[str, ...]]] = {}
        for cone, arrow, tuples, ids in getattr(step, "witness_rows", tuple)():
            if cone not in images:
                maps = position_maps[cone]
                images[cone] = [tuple(map(getitem, maps, w)) for w in tuples]
            d = arrows[arrow].cod
            nxt[d].update(zip(ids, witness(i, d, ids, cone, arrow, images[cone])))
        current = nxt
        yield current


@dataclass
class FactorisationResult:
    """The factorisation g, with one log entry per witness sent through M.

    Entry keys: step (index into ``replay_steps()``), object, element,
    cone, arrow, tuple (the witness tuple imaged in M) and gap_inverse.
    """

    g: NatTransSpec
    commutes: bool
    log: list[dict] = field(default_factory=list)


def solve_factorisation(
    trace: ReflectionTrace | KellyTrace,
    f: NatTransSpec,
    model: SetPresentation,
    sketch: LimitSketch,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> FactorisationResult:
    """Construct g with g . rho = f: check the trace converged and M a model, then factor."""
    if not trace.converged:
        raise PreconditionError("factorisation needs a converged trace")
    report = is_model(model, sketch, max_tuples=max_tuples)
    if not report.is_model:
        bad = next(c for c in report.checks if not c.ok)
        raise PreconditionError(f"not a model: cone {bad.cone!r} gap map not bijective")
    return factor_through_model(trace, f, model, sketch)


def factor_through_model(
    trace: ReflectionTrace | KellyTrace,
    f: NatTransSpec,
    model: SetPresentation,
    sketch: LimitSketch,
) -> FactorisationResult:
    """g with g . rho = f for a converged trace of either engine and a model M.

    The trace is replayed from f.  The returned g is verified to commute
    with rho and to be natural before being handed back; a broken trace
    surfaces as an error, never as a silently wrong g.
    """
    # M is a model, so each gap map is a bijection onto its cone's limit
    inverses = {c.name: {t: x for x, t in gap_map(model, c).items()} for c in sketch.cones}
    log: list[dict] = []

    def through_model(i: int, d: str, ids: list, cone: str, arrow: str, vs: list) -> list[str]:
        inverse = inverses[cone]
        for element, v in zip(ids, vs):
            if (u := inverse.get(v)) is None:
                raise EngineError(f"image tuple {v!r} is not hit by the gap map of {cone!r}")
            log.append(dict(
                step=i, object=d, element=element, cone=cone, arrow=arrow, tuple=list(v), gap_inverse=u
            ))
        return [model.action[arrow][inverse[v]] for v in vs]

    steps, components = trace.replay_steps(), f.components
    for components in replay(steps, components, sketch, lambda i: None, through_model):
        pass
    assert trace.core is not None and trace.rho is not None
    g = NatTransSpec(trace.core, model, components)
    report = g.validate()
    if not report.ok:
        raise EngineError(f"constructed factorisation is not natural: {report.violations[0]}")
    commutes = compose_nat(g, trace.rho).components == f.components
    if not commutes:
        raise EngineError("constructed factorisation does not commute with the reflection")
    return FactorisationResult(g, commutes, log)


@dataclass
class EnumerationResult:
    status: str  # "ok" | "inconclusive"
    transformations: list[NatTransSpec]
    search_space: int


def _search_space(source: SetPresentation, target: SetPresentation) -> int:
    size = 1
    for d in source.base.objects:
        size *= len(target.carrier[d]) ** len(source.carrier[d])
    return size


def enumerate_nat_trans(
    source: SetPresentation,
    target: SetPresentation,
    cap: int = DEFAULT_ENUM_CAP,
) -> EnumerationResult:
    """All natural transformations source => target, as a limit over the elements of source.

    A transformation picks a value in ``target`` at d for each element x
    of ``source`` at d, and every non-identity arrow a: d -> e must send
    the value at x to the value at a(x): Nat(source, target) is the limit
    of target . pi over the category of elements of ``source``.  One
    :class:`LimitJoin` over that graph enumerates it: a node (d, x) per
    element, objects in ``base.objects`` order and elements in carrier
    order, ranging over ``target.carrier[d]``; an edge (d, x) -> (e, a(x))
    per arrow a, acting by ``target.action[a]``.  The transformations
    come in the product order of the nodes' carriers, the order in which
    a candidate-by-candidate search finds them.

    A node whose target carrier is one element takes that value and stays
    out of the join: an edge into it always holds (``target``'s actions
    stay in its carriers), and an edge out of it fixes the value at its
    other end.  The join's rows are thus as wide as
    the nodes with a choice, at most log2 of the search space.

    The candidate space is the product over objects of all component
    functions, computed in closed form; above ``cap`` candidates the
    enumeration refuses and reports that size instead of guessing.  An
    empty space returns no transformation without a join.
    """
    if source.base != target.base:
        raise InputError("enumeration needs presentations over one category")
    space = _search_space(source, target)
    if space > cap:
        return EnumerationResult("inconclusive", [], space)
    if space == 0:
        return EnumerationResult("ok", [], space)
    base = source.base
    nodes = [(d, x) for d in base.objects for x in source.carrier[d]]
    fixed = {(d, x): target.carrier[d][0] for d, x in nodes if len(target.carrier[d]) == 1}
    free = [node for node in nodes if node not in fixed]
    carriers = {(d, x): target.carrier[d] for d, x in free}
    edges: list[tuple[str, tuple[str, str], tuple[str, str]]] = []
    for name, a in sorted(base.arrows.items()):
        if base.is_identity(name):
            continue
        act = target.action[name]
        for x in source.carrier[a.dom]:
            u, v = (a.dom, x), (a.cod, source.action[name][x])
            if v in fixed:
                continue
            if u in fixed:
                carriers[v] = tuple(y for y in carriers[v] if y == act[fixed[u]])
            else:
                edges.append((name, u, v))
    # no step holds more rows than the space, which the cap already bounds
    tuples, _ = LimitJoin(free, edges).run(target.action, carriers, max_tuples=None)
    found: list[NatTransSpec] = []
    for t in tuples:
        value = {**fixed, **dict(zip(free, t))}
        components: Components = {d: {} for d in base.objects}
        for d, x in nodes:
            components[d][x] = value[d, x]
        found.append(NatTransSpec(source, target, components))
    return EnumerationResult("ok", found, space)


def generated(
    core: SetPresentation, rho: NatTransSpec, sketch: LimitSketch
) -> dict[str, set[str]]:
    """The least per-object subset C of ``core`` that rho generates.

    C holds the image of rho, is closed under every arrow action, and
    holds each peak element x of a cone whose gap tuple (the leg images of
    x) lies in C.  Two natural maps from ``core`` into a model M that agree
    on rho agree on C: naturality carries agreement along arrows, and M's
    injective gap map carries it from a gap tuple to its peak element.

    A worklist adds each element once; each peak element counts the leg
    images it still lacks, so the cost is linear in the core plus the
    arrow and leg applications.
    """
    base = core.base
    arrows: dict[str, list[tuple[str, dict[str, str]]]] = {d: [] for d in base.objects}
    for name, a in sorted(base.arrows.items()):
        if not base.is_identity(name):
            arrows[a.dom].append((a.cod, core.action[name]))
    # per object, the leg positions there: (peak, lacking counts, peak elements over each value)
    positions: dict[str, list[tuple[str, dict[str, int], dict[str, list[str]]]]] = {
        d: [] for d in base.objects
    }
    todo = [(d, y) for d in base.objects for y in rho.components[d].values()]
    for cone in sketch.cones:
        order, peak = cone.shape_order(), core.carrier[cone.peak]
        lacking = dict.fromkeys(peak, len(order))
        if not order:
            todo.extend((cone.peak, x) for x in peak)
        for z in order:
            leg, over = core.action[cone.legs[z]], {}
            for x in peak:
                over.setdefault(leg[x], []).append(x)
            positions[cone.diagram.on_object(z)].append((cone.peak, lacking, over))
    closure: dict[str, set[str]] = {d: set() for d in base.objects}
    while todo:
        d, y = todo.pop()
        if y in closure[d]:
            continue
        closure[d].add(y)
        todo.extend((cod, act[y]) for cod, act in arrows[d])
        for peak_obj, lacking, over in positions[d]:
            for x in over.get(y, ()):
                lacking[x] -= 1
                if not lacking[x]:
                    todo.append((peak_obj, x))
    return closure


@dataclass
class UniquenessVerdict:
    status: str  # "unique"
    search_space: int


def check_uniqueness(
    trace: ReflectionTrace | KellyTrace,
    result: FactorisationResult,
    sketch: LimitSketch,
) -> UniquenessVerdict:
    """Certify that at most one map core => M commutes with rho.

    M is the codomain of ``result``, the factorisation that
    :func:`solve_factorisation` built after checking that M is a model.
    When rho generates the whole core, two maps into M that agree on rho
    agree everywhere, and ``result`` is one, so the verdict is "unique";
    ``search_space`` is the closed-form number of candidate component
    families.  A core that rho does not generate raises
    :class:`EngineError` naming the first object and the least element
    the closure misses.
    """
    if not trace.converged or trace.core is None or trace.rho is None:
        raise PreconditionError("uniqueness check needs a converged trace")
    core = trace.core
    closure = generated(core, trace.rho, sketch)
    for d in core.base.objects:
        missed = [x for x in core.carrier[d] if x not in closure[d]]
        if missed:
            raise EngineError(
                f"rho does not generate the core: object {d!r} misses {min(missed)!r}"
            )
    return UniquenessVerdict("unique", _search_space(core, result.g.target))


def universal_to_json_dict(result: FactorisationResult | None, verdict: UniquenessVerdict) -> dict:
    return {
        "exists": result is not None,
        "commutes": bool(result and result.commutes),
        "uniqueness": verdict.status,
        "search_space": verdict.search_space,
    }


def universal_report(result: FactorisationResult | None, verdict: UniquenessVerdict) -> str:
    return report_text(universal_to_json_dict(result, verdict))
