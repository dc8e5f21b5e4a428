"""Executable reflection property: construct the factorisation, certify uniqueness.

One induction does both.  The unit rho of a reflection generates the
reflection: :func:`reached` closes rho's image in the core under every
arrow action and under the gap rule (a peak element whose leg images are
all reached is reached), and records how it reached each element.  A map
f from X into a model M is then forced on every element reached:
g . rho = f at rho's image, naturality along an arrow, and the inverse of
M's gap map at a peak, which exists exactly because M is a model.
:func:`factor_through_model` folds M along that record to construct g,
and the same closure, reaching the whole core, certifies that no other g
commutes with rho.  The construction is the verdict: a g that does not
commute, or a core that rho does not generate, is an engine fault, so a
returned g exists, commutes and is unique, and :func:`check_uniqueness`
only sizes the search space the certificate stands in for.  A
reflection is known by its unit (Mac Lane, *Categories for the Working
Mathematician*, IV.1): both read the unit rho: X -> LX alone, a
:class:`~limsketch.setops.NatTransSpec` whose target is the core, and
no engine's trace.  :func:`enumerate_nat_trans` lists all natural
transformations out of a core, a limit over its category of elements
found by the cone-limit join; the tests check the certificate against
it, and the construction never feeds either check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import EngineError, InputError, PreconditionError
from .fincat import report_text
from .setops import DEFAULT_TUPLE_BUDGET, LimitJoin, NatTransSpec, SetPresentation, compose_nat
from .sketchlib import LimitSketch, gap_map, is_model

DEFAULT_ENUM_CAP = 10**6

Components = dict[str, dict[str, str]]

# how :func:`reached` reached an element: from rho, along an arrow, as a peak
RHO, ARROW, PEAK = "rho", "arrow", "peak"


@dataclass
class FactorisationResult:
    """The factorisation g, with one log entry per gap inverse taken.

    Entry keys: object, element (the peak element), cone, tuple (its leg
    images under g) and gap_inverse (the element of M over that tuple).
    """

    g: NatTransSpec
    log: list[dict] = field(default_factory=list)


def solve_factorisation(
    rho: NatTransSpec,
    f: NatTransSpec,
    model: SetPresentation,
    sketch: LimitSketch,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> FactorisationResult:
    """g with g . rho = f out of the core ``rho.target``: check M a model, then factor."""
    report = is_model(model, sketch, max_tuples=max_tuples)
    if not report.is_model:
        bad = next(c for c in report.checks if not c.ok)
        raise PreconditionError(f"not a model: cone {bad.cone!r} gap map not bijective")
    return factor_through_model(rho, f, model, sketch)


def factor_through_model(
    rho: NatTransSpec,
    f: NatTransSpec,
    model: SetPresentation,
    sketch: LimitSketch,
) -> FactorisationResult:
    """g with g . rho = f out of the core ``rho.target``, into a model M.

    M is folded along :func:`reached`: an element reached from rho at x
    takes f(x), one reached along an arrow a from y takes M's action of a
    on g(y), and a peak element takes the inverse under M's gap map of
    its leg images.  The returned g is verified to reach the whole core,
    to be natural and to commute with rho before being handed back; a
    broken core or rho surfaces as an error, never as a silently wrong g.
    """
    if f.source is not rho.source and f.source != rho.source:
        raise PreconditionError(f"f.source {f.source.size()} is not rho.source {rho.source.size()}")
    core = rho.target
    # M is a model, so each gap map is a bijection onto its cone's limit
    inverses = {c.name: {t: x for x, t in gap_map(model, c).items()} for c in sketch.cones}
    legs = {
        c.name: [(c.diagram.on_object(z), core.action[c.legs[z]]) for z in c.shape_order()]
        for c in sketch.cones
    }
    arrows, f_at, act = core.base.arrows, f.components, model.action
    components: Components = {d: {} for d in core.base.objects}
    log: list[dict] = []
    for d, y, how, via in reached(core, rho, sketch):
        if how == RHO:
            value = f_at[d][via]
        elif how == ARROW:
            name, x = via
            value = act[name][components[arrows[name].dom][x]]
        else:
            v = tuple(components[o][leg[y]] for o, leg in legs[via])
            if (value := inverses[via].get(v)) is None:
                raise EngineError(f"image tuple {v!r} is not hit by the gap map of {via!r}")
            log.append(dict(object=d, element=y, cone=via, tuple=list(v), gap_inverse=value))
        components[d][y] = value
    for d in core.base.objects:
        missed = [x for x in core.carrier[d] if x not in components[d]]
        if missed:
            raise EngineError(
                f"rho does not generate the core: object {d!r} misses {min(missed)!r}"
            )
    g = NatTransSpec(core, model, components)
    report = g.validate()
    if not report.ok:
        raise EngineError(f"constructed factorisation is not natural: {report.violations[0]}")
    if compose_nat(g, rho).components != f.components:
        raise EngineError("constructed factorisation does not commute with the reflection")
    return FactorisationResult(g, log)


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
    for name, a in base.non_identities.items():
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


def reached(
    core: SetPresentation, rho: NatTransSpec, sketch: LimitSketch
) -> Iterator[tuple[str, str, str, object]]:
    """Each element of the least per-object subset C of ``core`` that rho generates, once.

    C holds the image of rho, is closed under every arrow action, and
    holds each peak element x of a cone whose gap tuple (the leg images of
    x) lies in C.  Two natural maps from ``core`` into a model M that agree
    on rho agree on C: naturality carries agreement along arrows, and M's
    injective gap map carries it from a gap tuple to its peak element.

    Items ``(d, y, how, via)`` come in reach order, so whatever y was
    reached from came before it: ``how`` is :data:`RHO` with ``via`` the
    element x of X at d that rho sends to y, :data:`ARROW` with ``via``
    the pair (a, x) of a non-identity arrow a into d and the element it
    sends to y, or :data:`PEAK` with ``via`` the name of a cone with peak d.

    A worklist adds each element once; each peak element counts the leg
    images it still lacks, so the cost is linear in the core plus the
    arrow and leg applications.
    """
    base = core.base
    arrows: dict[str, list[tuple[str, str, dict[str, str]]]] = {d: [] for d in base.objects}
    for name, a in base.non_identities.items():
        arrows[a.dom].append((a.cod, name, core.action[name]))
    # per object, its leg positions: (cone, peak, lacking counts, peak elements by leg image)
    positions: dict[str, list[tuple[str, str, dict[str, int], dict[str, list[str]]]]] = {
        d: [] for d in base.objects
    }
    todo = [(d, y, RHO, x) for d in base.objects for x, y in rho.components[d].items()]
    for cone in sketch.cones:
        order, peak = cone.shape_order(), core.carrier[cone.peak]
        lacking = dict.fromkeys(peak, len(order))
        if not order:
            todo.extend((cone.peak, x, PEAK, cone.name) for x in peak)
        for z in order:
            leg, over = core.action[cone.legs[z]], {}
            for x in peak:
                over.setdefault(leg[x], []).append(x)
            positions[cone.diagram.on_object(z)].append((cone.name, cone.peak, lacking, over))
    closure: dict[str, set[str]] = {d: set() for d in base.objects}
    while todo:
        item = todo.pop()
        d, y = item[0], item[1]
        if y in closure[d]:
            continue
        closure[d].add(y)
        yield item
        todo.extend((cod, act[y], ARROW, (name, y)) for cod, name, act in arrows[d])
        for cone, peak_obj, lacking, over in positions[d]:
            for x in over.get(y, ()):
                lacking[x] -= 1
                if not lacking[x]:
                    todo.append((peak_obj, x, PEAK, cone))


def generated(
    core: SetPresentation, rho: NatTransSpec, sketch: LimitSketch
) -> dict[str, set[str]]:
    """The least per-object subset of ``core`` that rho generates: what :func:`reached` yields."""
    closure: dict[str, set[str]] = {d: set() for d in core.base.objects}
    for d, y, _, _ in reached(core, rho, sketch):
        closure[d].add(y)
    return closure


def check_uniqueness(result: FactorisationResult) -> int:
    """The closed-form number of candidate maps core => M, of which ``result.g`` alone commutes.

    ``result`` is a factorisation that :func:`solve_factorisation` built:
    it checked that M is a model and that rho generates the whole core,
    so two maps into M that agree on rho agree everywhere.  The count is
    the product over objects of all component functions.
    """
    return _search_space(result.g.source, result.g.target)


def universal_to_json_dict(search_space: int) -> dict:
    """The verdict on a factorisation: built, and unique among ``search_space`` candidates."""
    return {"exists": True, "commutes": True, "uniqueness": "unique", "search_space": search_space}


def universal_report(search_space: int) -> str:
    return report_text(universal_to_json_dict(search_space))
