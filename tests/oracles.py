"""Independent brute-force oracles and seeded instance generators.

These deliberately avoid the engine's own data paths: limits are checked
by filtering the full cartesian product with nested loops in product
order, quotients by a naive merge-and-push fixpoint over explicit
partitions, pushouts by a plain disjoint-set over the literal pair lists,
natural transformations by validating every candidate of the product of
all component functions, witness summands by encoding every id afresh,
the provenance replay element by element, and the identification rules
of both engines at every arrow, as they are defined, not at identities
only as the engines generate them.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import getitem

from typing import Callable, Iterable, Iterator, Mapping

from limsketch.elim import Stage, tag_base
from limsketch.errors import EngineError, InputError
from limsketch.fincat import CatFunctor, FinCategory, validate_functor
from limsketch.kelly import SUM_BASE_TAG, SUM_PAIR_TAG, CompletionStep, KellyTrace
from limsketch.setops import (
    NatTransSpec,
    SetPresentation,
    Witness,
    make_presentation,
    witness_id,
    witness_tail,
)
from limsketch.sketchlib import BUILDERS, Cone, LimitSketch, gap_map, restrict_along, validate_sketch

from tests.fixtures import (
    binary_fixture,
    binary_sketch,
    iso_fixture,
    iso_sketch,
    sheaf_fixture,
    sheaf_sketch,
)


def ordered_brute_limit(shape: FinCategory, diag: SetPresentation) -> tuple[tuple[str, ...], ...]:
    """Compatible tuples in product order.

    One nested loop per object of ``sorted(shape.objects)``, each over its
    carrier as stored; a full tuple is kept when every non-identity shape
    arrow carries its source component to its target component.
    """
    order = sorted(shape.objects)
    arrows = [a for name, a in shape.arrows.items() if not shape.is_identity(name)]
    out: list[tuple[str, ...]] = []

    def loop(prefix: tuple[str, ...]) -> None:
        if len(prefix) == len(order):
            value = dict(zip(order, prefix))
            if all(diag.action[a.name][value[a.dom]] == value[a.cod] for a in arrows):
                out.append(prefix)
            return
        for x in diag.carrier.get(order[len(prefix)], ()):
            loop(prefix + (x,))

    loop(())
    return tuple(out)


def brute_limit(shape: FinCategory, diag: SetPresentation) -> set[tuple[str, ...]]:
    """The limit tuples as a set, from :func:`ordered_brute_limit`."""
    return set(ordered_brute_limit(shape, diag))


def brute_nat_trans(source: SetPresentation, target: SetPresentation) -> list[NatTransSpec]:
    """Every natural transformation source => target, in product order.

    The candidates are the product over the objects (in ``base.objects``
    order) of all component functions, each the product of the target
    carrier over the source carrier; a candidate is kept when
    ``NatTransSpec.validate`` passes.
    """
    base = source.base
    objects = [d for d in base.objects if source.carrier[d]]
    per_object: list[list[dict[str, str]]] = []
    for d in objects:
        xs = source.carrier[d]
        choices = list(itertools.product(target.carrier[d], repeat=len(xs)))
        per_object.append([dict(zip(xs, combo)) for combo in choices])
    found: list[NatTransSpec] = []
    for assignment in itertools.product(*per_object):
        components = {d: dict(comp) for d, comp in zip(objects, assignment)}
        for d in base.objects:
            components.setdefault(d, {})
        cand = NatTransSpec(source, target, components)
        if cand.validate().ok:
            found.append(cand)
    return found


def naive_quotient_partition(
    pres: SetPresentation,
    pairs: dict[str, list[tuple[str, str]]],
) -> dict[str, set[frozenset[str]]]:
    """Fixpoint of "merge pairs, push merged pairs through all actions"."""
    parts: dict[str, list[set[str]]] = {
        o: [{x} for x in pres.carrier[o]] for o in pres.base.objects
    }

    def merge(obj: str, u: str, v: str) -> bool:
        cu = next(c for c in parts[obj] if u in c)
        cv = next(c for c in parts[obj] if v in c)
        if cu is cv:
            return False
        parts[obj].remove(cv)
        cu |= cv
        return True

    todo = [(o, u, v) for o, ps in pairs.items() for (u, v) in ps]
    changed = True
    while changed:
        changed = False
        for obj, u, v in todo:
            if merge(obj, u, v):
                changed = True
        extra: list[tuple[str, str, str]] = []
        for name, arrow in pres.base.arrows.items():
            act = pres.action[name]
            for cls in parts[arrow.dom]:
                members = sorted(cls)
                for a, b in zip(members, members[1:]):
                    extra.append((arrow.cod, act[a], act[b]))
        todo = todo + extra
    return {o: {frozenset(c) for c in parts[o]} for o in pres.base.objects}


def dsu_partition(elements: list, pairs: list[tuple]) -> set[frozenset]:
    """Plain disjoint-set partition of ``elements`` under literal pairs."""
    parent = {e: e for e in elements}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for e in elements:
        groups.setdefault(find(e), set()).add(e)
    return {frozenset(g) for g in groups.values()}


def pushout_classes(
    f: Mapping[str, object],
    g: Mapping[str, object],
    cod_f: Iterable[object],
    cod_g: Iterable[object],
) -> dict[tuple[str, object], tuple[str, object]]:
    """Partition ``cod_f + cod_g`` by identifying ``f(a)`` with ``g(a)``.

    Elements are tagged ``("f", x)`` / ``("g", y)``; the returned lookup
    sends each tagged element to the least tagged member of its class.
    ``f`` and ``g`` must share the same domain keys.  It defines rule (1)
    along an arrow in :func:`every_arrow_rule_one`.
    """
    if set(f) != set(g):
        raise InputError("pushout legs have different domains")
    parent: dict[tuple[str, object], tuple[str, object]] = {}

    def find(x: tuple[str, object]) -> tuple[str, object]:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a in sorted(f):
        left, right = find(("f", f[a])), find(("g", g[a]))
        if left != right:
            lo, hi = (left, right) if left < right else (right, left)
            parent[hi] = lo
    lookup: dict[tuple[str, object], tuple[str, object]] = {}
    for y in cod_f:
        lookup[("f", y)] = find(("f", y))
    for y in cod_g:
        lookup[("g", y)] = find(("g", y))
    return lookup


def model_oracle(pres, sketch) -> bool:
    """Bijectivity of every gap map, checked by inverting it element-wise."""
    for cone in sketch.cones:
        tuples = brute_limit(cone.shape, restrict_along(pres, cone))
        order = sorted(cone.shape.objects)
        hits: dict[tuple[str, ...], list[str]] = {t: [] for t in tuples}
        for x in pres.carrier[cone.peak]:
            img = tuple(pres.action[cone.legs[z]][x] for z in order)
            hits[img].append(x)
        if any(len(v) != 1 for v in hits.values()):
            return False
    return True


def pushed_filter_limits(
    total: SetPresentation,
    next_base: SetPresentation,
    projection: Mapping[str, Mapping[str, str]],
    sketch,
) -> dict[str, set[tuple[str, ...]]]:
    """The pruning rule by its definition, per cone.

    Enumerates the whole limit of ``total`` by brute force, pushes each
    tuple through ``projection`` into ``next_base``, and keeps the tuples
    whose image no peak element of ``next_base`` hits through the legs.
    """
    out: dict[str, set[tuple[str, ...]]] = {}
    for cone in sketch.cones:
        order = sorted(cone.shape.objects)
        objs = [cone.diagram.object_map[z] for z in order]
        hit = {
            tuple(next_base.action[cone.legs[z]][x] for z in order)
            for x in next_base.carrier[cone.peak]
        }
        out[cone.name] = {
            w
            for w in brute_limit(cone.shape, restrict_along(total, cone))
            if tuple(projection[d][c] for d, c in zip(objs, w)) not in hit
        }
    return out


def brute_witness_presentation(
    kind: str,
    base: FinCategory,
    limits: Iterable[tuple[str, str, Iterable[tuple[str, ...]]]],
) -> tuple[SetPresentation, dict[str, Witness]]:
    """The witness summand by its definition: every id encoded afresh.

    Each element (c, t, w) of the sum over cones c of hom(peak_c, -) x L_c
    is named by ``witness_id`` of (c, t, k), k the position of w in L_c,
    and each arrow a sends it to the id of (c, a . t, w), its position
    looked up and encoded again for every arrow and element.  Two elements
    with one id raise ``AssertionError``.
    """
    carrier: dict[str, list[str]] = {d: [] for d in base.objects}
    prov: dict[str, Witness] = {}
    # per cone, each tuple's position in L_c
    at: dict[str, dict[tuple[str, ...], int]] = {}
    for cone, peak, tuples in limits:
        at[cone] = {w: k for k, w in enumerate(tuples)}
        for d in base.objects:
            for t in base.hom(peak, d):
                for w, k in at[cone].items():
                    wid = witness_id(kind, cone, t, k)
                    assert wid not in prov, f"witness id {wid!r} names two witnesses"
                    prov[wid] = (cone, t, w)
                    carrier[d].append(wid)
    action: dict[str, dict[str, str]] = {}
    for name, arrow in base.arrows.items():
        mapping: dict[str, str] = {}
        for wid in carrier[arrow.dom]:
            cone, t, w = prov[wid]
            mapping[wid] = witness_id(kind, cone, base.compose(name, t), at[cone][w])
        action[name] = mapping
    return SetPresentation(base, {d: tuple(sorted(carrier[d])) for d in base.objects}, action), prov


class _Reader:
    """Reads length-prefixed fields back from the front of ``text``."""

    def __init__(self, text: str, pos: int = 0) -> None:
        self.text, self.pos = text, pos

    def number(self, sep: str) -> int:
        cut = self.text.index(sep, self.pos)
        value, self.pos = int(self.text[self.pos : cut]), cut + 1
        return value

    def string(self) -> str:
        size = self.number(":")
        self.pos += size
        return self.text[self.pos - size : self.pos]

    def done(self) -> bool:
        return self.pos == len(self.text)


def decode_id(kind: str, wid: str) -> tuple[str, str, int]:
    """Read (cone, arrow, k) back from a witness id of engine ``kind``."""
    assert wid.startswith(kind)
    read = _Reader(wid, len(kind))
    cone, arrow, k = read.string(), read.string(), int(read.string())
    assert read.done()
    return cone, arrow, k


def decode_tail(text: str) -> tuple[str, ...]:
    """Read a limit tuple back from its :func:`witness_tail`."""
    read = _Reader(text)
    w = tuple(read.string() for _ in range(read.number("#")))
    assert read.done()
    return w


def brute_leg_pairs(
    pres: SetPresentation,
    sketch: LimitSketch,
    limits: Mapping[str, Iterable[tuple[str, ...]]],
    kind: str,
    tag: str,
    into: Mapping[str, Mapping[str, str]],
    identities_only: bool = False,
) -> dict[str, set[tuple[str, str]]]:
    """The rectification pairs by their definition, every witness id encoded afresh.

    For each cone c, shape object z at position k of the sorted shape
    objects, base arrow t that composes with the leg at z, and tuple w of
    ``limits[c]``: the witness (c, t . leg_z, w), named ``tag:`` plus
    ``witness_id(kind, ...)`` at the position of w in ``limits[c]``, is
    paired with ``into[d]`` of t(w_k), d the codomain of t.  With
    ``identities_only``, t runs over identities alone.
    """
    base = sketch.base
    out: dict[str, set[tuple[str, str]]] = {d: set() for d in base.objects}
    for cone in sketch.cones:
        for k, z in enumerate(sorted(cone.shape.objects)):
            leg = cone.legs[z]
            for name, t in sorted(base.arrows.items()):
                if t.dom != base.arrows[leg].cod:
                    continue
                if identities_only and not base.is_identity(name):
                    continue
                arrow = base.compose(name, leg)
                for pos, w in enumerate(limits[cone.name]):
                    wid = f"{tag}:" + witness_id(kind, cone.name, arrow, pos)
                    out[t.cod].add((wid, into[t.cod][pres.action[name][w[k]]]))
    return out


def every_arrow_rule_one(
    total: SetPresentation, sketch: LimitSketch
) -> dict[str, set[tuple[str, str]]]:
    """Rule (1) at every arrow: what the pushout of each gap map along each arrow merges.

    For each cone c and arrow t out of its peak, :func:`pushout_classes`
    glues the gap image of each peak element a, read off the legs, to
    t(a); the elements of ``total`` at the codomain of t that land in one
    class are chained in carrier order.
    """
    base = sketch.base
    out: dict[str, set[tuple[str, str]]] = {d: set() for d in base.objects}
    for cone in sketch.cones:
        order = sorted(cone.shape.objects)
        gm = {
            a: tuple(total.action[cone.legs[z]][a] for z in order)
            for a in total.carrier[cone.peak]
        }
        for name, t in sorted(base.arrows.items()):
            if t.dom != cone.peak:
                continue
            lookup = pushout_classes(gm, total.action[name], (), total.carrier[t.cod])
            classes: dict = {}
            for y in total.carrier[t.cod]:
                classes.setdefault(lookup[("g", y)], []).append(y)
            for members in classes.values():
                out[t.cod].update(zip(members, members[1:]))
    return out


def every_arrow_r0(pres: SetPresentation, sketch: LimitSketch) -> dict[str, set[tuple[str, str]]]:
    """``kelly``'s R0 at every arrow, literally, every pair id encoded afresh.

    For each cone c, arrow t out of its peak and element a of ``pres`` at
    the peak, the formal pair (t, gap image of a) is glued to t(a), both
    named as in the completion sum: a pair's position is that of its tuple
    in the limit of ``pres`` at c in product order.
    """
    base = sketch.base
    out: dict[str, set[tuple[str, str]]] = {d: set() for d in base.objects}
    for cone in sketch.cones:
        order = sorted(cone.shape.objects)
        limit = ordered_brute_limit(cone.shape, restrict_along(pres, cone))
        at = {w: k for k, w in enumerate(limit)}
        for name, t in sorted(base.arrows.items()):
            if t.dom != cone.peak:
                continue
            for a in pres.carrier[cone.peak]:
                image = tuple(pres.action[cone.legs[z]][a] for z in order)
                pid = f"{SUM_PAIR_TAG}:" + witness_id("K", cone.name, name, at[image])
                out[t.cod].add((pid, f"{SUM_BASE_TAG}:{pres.action[name][a]}"))
    return out


def relation_cases(label: str, count: int = 40) -> list[tuple[LimitSketch, SetPresentation]]:
    """The three fixture families, then ``count`` seeded random sketches, one presentation each."""
    cases = [
        (iso_sketch(), iso_fixture()),
        (binary_sketch(), binary_fixture()),
        (sheaf_sketch(), sheaf_fixture()),
    ]
    for seed in range(count):
        rng = random.Random(f"{label}:{seed}")
        sketch = random_sketch(rng)
        cases.append((sketch, random_valid_presentation(rng, sketch.base, max_size=3)))
    return cases


# -- the replay, element by element -----------------------------------------


def fibres(projection: Mapping[str, str]) -> dict[str, tuple[str, ...]]:
    """One object's projection as fibres: each image, in order met, with its sorted preimage."""
    out: dict[str, list[str]] = {}
    for x, k in projection.items():
        out.setdefault(k, []).append(x)
    return {k: tuple(sorted(members)) for k, members in out.items()}


Components = dict[str, dict[str, str]]


def brute_replay(
    steps: Iterable,
    start: Mapping[str, Mapping[str, str]],
    sketch,
    carry: Callable[[int], Mapping[str, Mapping[str, str]] | None],
    witness: Callable[[int, str, str, str, str, tuple[str, ...]], str],
) -> Iterator[Components]:
    """Extend a map on X along replay steps; yield the map after each step.

    ``start[d][x]`` is the image of each element x of X at object d.  A
    step's ``classes(d)`` yields ``(element, carried, witnesses)``.  At
    step i the image of an element is the one value shared by its
    carried members' images, each sent through ``carry(i)`` unless that
    is None, and by ``witness(i, d, element, cone, arrow, v)`` for each
    witness, where v is the witness tuple imaged through the current map.
    Conflicting images raise :class:`EngineError`.
    """
    objects, current = sketch.base.objects, start
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
                    values.add(witness(i, d, element, cone, arrow, v))
                if len(values) != 1:
                    raise EngineError(
                        f"class image conflict at replay step {i} object {d!r}: "
                        f"{element!r} maps to {sorted(values)}"
                    )
                out[element] = values.pop()
            nxt[d] = out
        current = nxt
        yield current


class PerElement:
    """A staged step seen element by element, as :func:`brute_replay` reads it.

    It lists the base classes with their members, then each free element
    at ``obj`` with its one witness, read from ``rows[c, t]`` zipped
    with ``limits[c]``.
    """

    def __init__(self, stage: Stage) -> None:
        self.stage = stage

    def classes(self, obj: str):
        for class_id, members in fibres(self.stage.quotient.projection[obj]).items():
            yield tag_base(class_id), members, ()
        for fid, witness in free_witnesses(self.stage, obj):
            yield fid, (), (witness,)


class Rename(dict):
    """A step that renames one to one: ``self[obj]`` maps new ids to old."""

    def classes(self, obj: str):
        return ((new, (old,), ()) for new, old in self[obj].items())


class CompletionClasses:
    """A completion step as :func:`brute_replay` reads it.

    A class carries its members from X, and each formal pair in it is a
    witness (cone, arrow, limit tuple).
    """

    def __init__(self, step: CompletionStep) -> None:
        self.step = step

    def classes(self, obj: str):
        step, x_tag = self.step, f"{SUM_BASE_TAG}:"
        arrows = step.obj.base.arrows
        witnesses = {
            e: (cone, t, w)
            for (cone, t), row in step.rows.items()
            if arrows[t].cod == obj
            for w, e in zip(step.limits[cone], row)
        }
        for class_id, members in fibres(step.quotient.projection[obj]).items():
            carried = tuple(m[len(x_tag) :] for m in members if m.startswith(x_tag))
            yield class_id, carried, tuple(witnesses[m] for m in members if not m.startswith(x_tag))


def replay_steps(trace) -> list:
    """The steps from X to the core of a converged trace, as :func:`brute_replay` reads them.

    A staged trace replays stages 0..``converged_at`` element by element,
    then renames each core element k from its base id B:k; a completion
    trace replays steps 1..``converged_at``.
    """
    if isinstance(trace, KellyTrace):
        return [CompletionClasses(step) for step in trace.stages[: trace.converged_at]]
    core = trace.core
    leave = Rename({d: {k: tag_base(k) for k in core.carrier[d]} for d in core.base.objects})
    return [*map(PerElement, trace.stages[: trace.converged_at + 1]), leave]


def free_witnesses(stage: Stage, obj: str) -> Iterator[tuple[str, Witness]]:
    """Each free element of ``stage`` at ``obj`` with its witness (c, t, w).

    The element is read from ``rows[c, t]`` and w from
    ``limits[c]`` at the same position.
    """
    arrows = stage.total.base.arrows
    for (cone, t), ids in stage.rows.items():
        if arrows[t].cod == obj:
            for w, fid in zip(stage.limits[cone], ids):
                yield fid, (cone, t, w)


def brute_pair_class(
    step: CompletionStep, at: Mapping[tuple[str, ...], int], obj: str, cone: str, arrow: str, w
) -> str:
    """The class at ``obj`` of the formal pair (``arrow``, ``w``) of ``cone``, its id encoded afresh.

    ``at`` sends each tuple of ``step.limits[cone]`` to its position there.
    """
    try:
        pid = witness_id("K", cone, arrow, at[w])
        return step.quotient.projection[obj][f"{SUM_PAIR_TAG}:{pid}"]
    except KeyError:
        raise EngineError(
            f"pair of cone {cone!r} at arrow {arrow!r} over tuple {witness_tail(w)!r} "
            f"missing in the completion sum at {obj!r}"
        ) from None


def brute_alpha(elim_trace, kelly_trace, sketch, depth: int) -> list[Components]:
    """The components of alpha at stages 0..``depth``, replayed element by element."""
    x = elim_trace.stages[0].quotient.target
    kelly_steps = [None, *kelly_trace.stages[:depth]]
    units = [None] + [step.unit.components for step in kelly_steps[1:]]
    at = [None] + [
        {c: {w: k for k, w in enumerate(ts)} for c, ts in step.limits.items()}
        for step in kelly_steps[1:]
    ]
    return list(
        brute_replay(
            [PerElement(stage) for stage in elim_trace.stages[: depth + 1]],
            {d: {e: e for e in x.carrier[d]} for d in x.base.objects},
            sketch,
            units.__getitem__,
            lambda i, d, element, cone, arrow, w: brute_pair_class(
                kelly_steps[i], at[i][cone], d, cone, arrow, w
            ),
        )
    )


def commutation_breaks(elim_trace, kelly_trace, alpha) -> list[tuple[int, str, str]]:
    """Each (stage i, object d, x) where alpha_i . p and unit_i . alpha_(i-1) differ at x.

    x runs over the previous total, p is stage i's projection and unit_i
    that of completion step i, each square checked element by element.
    """
    out = []
    for i in range(1, len(alpha.stages)):
        here, before = alpha.stages[i].components, alpha.stages[i - 1].components
        unit = kelly_trace.stages[i - 1].unit.components
        for d, projection in elim_trace.stages[i].quotient.projection.items():
            for x, k in projection.items():
                if here[d][tag_base(k)] != unit[d][before[d][x]]:
                    out.append((i, d, x))
    return out


def brute_factorisation(trace, f: NatTransSpec, model: SetPresentation, sketch) -> Components:
    """The components of g with g . rho = f, replayed element by element from the trace's steps.

    Every class takes the image its members and witnesses share, and a
    witness over a limit tuple goes through the inverse of M's gap map.
    """
    inverses = {
        cone.name: {t: x for x, t in gap_map(model, cone).items()} for cone in sketch.cones
    }

    def through_model(i: int, d: str, element: str, cone: str, arrow: str, v: tuple) -> str:
        try:
            u = inverses[cone][v]
        except KeyError:
            raise EngineError(f"image tuple {v!r} is not hit by the gap map of {cone!r}") from None
        return model.action[arrow][u]

    components = f.components
    for components in brute_replay(
        replay_steps(trace), components, sketch, lambda i: None, through_model
    ):
        pass
    return components


# -- seeded random instances -------------------------------------------------


def shape_pool() -> list[FinCategory]:
    empty = FinCategory.build("sh_empty", [], [], {})
    one = FinCategory.build("sh_one", ["z"], [], {})
    discrete2 = FinCategory.build("sh_disc2", ["z1", "z2"], [], {})
    cospan = FinCategory.build(
        "sh_cospan", ["l", "m", "r"], [("lm", "l", "m"), ("rm", "r", "m")], {}
    )
    span = FinCategory.build(
        "sh_span", ["l", "m", "r"], [("ml", "m", "l"), ("mr", "m", "r")], {}
    )
    parallel = FinCategory.build(
        "sh_par", ["s", "t"], [("u1", "s", "t"), ("u2", "s", "t")], {}
    )
    chain = FinCategory.build(
        "sh_chain",
        ["x", "y", "z"],
        [("xy", "x", "y"), ("yz", "y", "z"), ("xz", "x", "z")],
        {("yz", "xy"): "xz"},
    )
    return [empty, one, discrete2, cospan, span, parallel, chain]


def sketch_base_pool() -> list[FinCategory]:
    """The bases of :func:`random_sketch`: the builders', a chain with a composite, a span."""
    chain = FinCategory.build(
        "rs_chain",
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")],
        {("bc", "ab"): "ac"},
    )
    span = FinCategory.build("rs_span", ["l", "m", "r"], [("ml", "m", "l"), ("mr", "m", "r")], {})
    return [BUILDERS[name]().base for name in sorted(BUILDERS)] + [chain, span]


def diagram_functors(shape: FinCategory, base: FinCategory) -> list[CatFunctor]:
    """Every functor shape -> base that ``validate_functor`` accepts, in a fixed order.

    Objects map anywhere; identities go to identities and each other
    shape arrow to a base arrow between the images of its ends.
    """
    objs = sorted(shape.objects)
    nonid = sorted(n for n in shape.arrows if not shape.is_identity(n))
    found: list[CatFunctor] = []
    for images in itertools.product(base.objects, repeat=len(objs)):
        omap = dict(zip(objs, images))
        choices = [
            base.hom(omap[shape.arrows[n].dom], omap[shape.arrows[n].cod]) for n in nonid
        ]
        for arrow_images in itertools.product(*choices):
            amap = {shape.identities[z]: base.identities[omap[z]] for z in objs}
            amap.update(zip(nonid, arrow_images))
            functor = CatFunctor(shape, base, omap, amap)
            if validate_functor(functor).ok:
                found.append(functor)
    return found


def random_sketch(rng: random.Random) -> LimitSketch:
    """A seeded random sketch: a base from :func:`sketch_base_pool` with 1-3 cones.

    Each cone draws a shape from :func:`shape_pool` and a diagram functor
    from :func:`diagram_functors`, then a peak and legs among those that
    ``validate_sketch`` accepts with the cones drawn so far; a draw
    without any admissible peak and legs is repeated.
    """
    base = rng.choice(sketch_base_pool())
    shapes = shape_pool()
    count, cones = rng.randint(1, 3), []
    while len(cones) < count:
        shape = rng.choice(shapes)
        diagram = rng.choice(diagram_functors(shape, base))
        order = sorted(shape.objects)
        admissible = []
        for peak in base.objects:
            homs = [base.hom(peak, diagram.object_map[z]) for z in order]
            for legs in itertools.product(*homs):
                cone = Cone(f"c{len(cones)}", base, peak, shape, diagram, dict(zip(order, legs)))
                if validate_sketch(LimitSketch(base, (*cones, cone))).ok:
                    admissible.append(cone)
        if admissible:
            cones.append(rng.choice(admissible))
    return LimitSketch(base, tuple(cones), name=f"random:{base.name}")


def random_presentation(
    rng: random.Random, base: FinCategory, max_size: int = 20
) -> SetPresentation:
    carrier = {
        o: [f"{o}e{i}" for i in range(rng.randint(0, max_size))] for o in base.objects
    }
    action: dict[str, dict[str, str]] = {}
    for name, arrow in base.arrows.items():
        if base.is_identity(name):
            continue
        cod = carrier[arrow.cod]
        if not cod and carrier[arrow.dom]:
            # a total function needs a nonempty codomain
            cod.append(f"{arrow.cod}e0")
    for name, arrow in base.arrows.items():
        if base.is_identity(name):
            continue
        action[name] = {x: rng.choice(carrier[arrow.cod]) for x in carrier[arrow.dom]}
    return make_presentation(base, carrier, action)


def random_functorial_base(rng: random.Random) -> FinCategory:
    pool = [
        FinCategory.build("rb_arrow", ["a", "b"], [("t", "a", "b")], {}),
        FinCategory.build(
            "rb_par", ["a", "b"], [("t1", "a", "b"), ("t2", "a", "b")], {}
        ),
        FinCategory.build(
            "rb_chain",
            ["a", "b", "c"],
            [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")],
            {("bc", "ab"): "ac"},
        ),
    ]
    return rng.choice(pool)


def random_pairs(
    rng: random.Random, pres: SetPresentation, count: int = 4
) -> dict[str, list[tuple[str, str]]]:
    out: dict[str, list[tuple[str, str]]] = {}
    objs = [o for o in pres.base.objects if len(pres.carrier[o]) >= 2]
    for _ in range(count):
        if not objs:
            break
        o = rng.choice(objs)
        u, v = rng.sample(list(pres.carrier[o]), 2)
        out.setdefault(o, []).append((u, v))
    return out


def random_valid_presentation(
    rng: random.Random, base: FinCategory, max_size: int = 6
) -> SetPresentation:
    """A seeded random presentation that satisfies the composition table.

    Only the generating arrows (the non-identity arrows that are no
    composite of two non-identity arrows) are drawn; every other action
    is derived through the table.  Objects are filled codomains first, so
    ``base`` must have no cycle of non-identity arrows.  Each element
    draws its generator images uniformly among the admissible ones, those
    whose derived composites agree with every equation of the table; an
    object without an admissible choice gets an empty carrier.
    """
    nonid = [a for n, a in sorted(base.arrows.items()) if not base.is_identity(n)]
    composites = {
        gf
        for (g, f), gf in base.composition.items()
        if not base.is_identity(g) and not base.is_identity(f)
    }
    generators = [a for a in nonid if a.name not in composites]
    filled: list[str] = []
    while len(filled) < len(base.objects):
        ready = [
            o
            for o in base.objects
            if o not in filled and all(a.cod in filled for a in nonid if a.dom == o)
        ]
        if not ready:
            raise ValueError(f"{base.name}: a cycle of non-identity arrows")
        filled.append(min(ready))
    carrier: dict[str, list[str]] = {}
    action: dict[str, dict[str, str]] = {a.name: {} for a in nonid}
    for d in filled:
        outs = [a.name for a in generators if a.dom == d]
        admissible = []
        for images in itertools.product(*(carrier[base.arrows[g].cod] for g in outs)):
            derived = _derive_actions(base, action, dict(zip(outs, images)))
            if derived is not None:
                admissible.append(derived)
        size = rng.randint(0, max_size) if admissible else 0
        carrier[d] = [f"{d}e{i}" for i in range(size)]
        for x in carrier[d]:
            for name, y in rng.choice(admissible).items():
                action[name][x] = y
        reached = {a.name for a in nonid if a.dom == d}
        if admissible and set(admissible[0]) != reached:
            raise ValueError(f"{base.name}: generators do not reach every arrow out of {d!r}")
    return make_presentation(base, carrier, action)


def _derive_actions(
    base: FinCategory,
    action: Mapping[str, Mapping[str, str]],
    images: dict[str, str],
) -> dict[str, str] | None:
    """Close generator images of one element under the composition table.

    ``action`` must already be complete on the codomains; returns the
    image under every arrow reached, or None when two factorisations of
    one arrow disagree.
    """
    value = dict(images)
    changed = True
    while changed:
        changed = False
        for (g, f), gf in sorted(base.composition.items()):
            if f not in value or base.is_identity(g):
                continue
            y = action[g][value[f]]
            if gf not in value:
                value[gf] = y
                changed = True
            elif value[gf] != y:
                return None
    return value


# -- localisation families with closed forms -----------------------------------


def _iterate(f: list[int], times: int) -> list[int]:
    """The self-map f^times of {0 ... len(f) - 1}."""
    act = list(range(len(f)))
    for _ in range(times):
        act = [f[x] for x in act]
    return act


def monoid_action_sketch(k: int, p: int) -> LimitSketch:
    """The cyclic monoid s^(k+p) = s^k on one object o, with s inverted by one cone.

    The arrow s^i is ``s{i}`` for 0 < i < k + p, and s^0 is ``id_o``; the
    cone has peak o, a one-point shape sent to o and leg s, so a model is
    an M-set on which s acts bijectively.
    """

    def power(i: int) -> str:
        i = i if i < k + p else k + (i - k) % p
        return f"s{i}" if i else "id_o"

    top = range(1, k + p)
    base = FinCategory.build(
        f"cyclic_{k}_{p}",
        ["o"],
        [(f"s{i}", "o", "o") for i in top],
        {(f"s{i}", f"s{j}"): power(i + j) for i in top for j in top},
    )
    shape = FinCategory.build("mono_point", ["z"], [], {})
    diagram = CatFunctor(shape, base, {"z": "o"}, {"id_z": "id_o"})
    cone = Cone("c0", base, "o", shape, diagram, {"z": power(1)})
    return LimitSketch(base, (cone,), name=f"monoid_action_{k}_{p}")


def monoid_action_presentation(sketch: LimitSketch, f: list[int]) -> SetPresentation:
    """The M-set on {x0 ... x(n-1)} where s acts as ``f``; ``f`` must satisfy the relation."""
    xs = [f"x{i}" for i in range(len(f))]
    action = {
        name: {xs[i]: xs[j] for i, j in enumerate(_iterate(f, int(name[1:])))}
        for name in sketch.base.non_identities
    }
    return make_presentation(sketch.base, {"o": xs}, action)


def random_monoid_action(rng: random.Random, k: int, p: int, n: int, tries: int = 200):
    """A self-map f of {0 ... n-1} with f^(k+p) = f^k, drawn by rejection; None if none was hit."""
    for _ in range(tries):
        f = [rng.randrange(n) for _ in range(n)]
        if _iterate(f, k + p) == _iterate(f, k):
            return f
    return None


def monoid_action_reflection_size(f: list[int], p: int) -> int:
    """|L(X)| = |X (x)_M Z/p|: the classes of X x Z/p under (f x, j) ~ (x, j + 1)."""
    cells = [(x, j) for x in range(len(f)) for j in range(p)]
    return len(dsu_partition(cells, [((f[x], j), (x, (j + 1) % p)) for x, j in cells]))


def iso_chain_sketch(n: int) -> LimitSketch:
    """The chain x0 -> ... -> xn with its composites; a cone per i < n makes x_i -> x_(i+1) iso.

    The arrow x_i -> x_j is ``x{i}x{j}``; cone ``c{i}`` has peak x_i, a
    one-point shape sent to x_(i+1) and leg ``x{i}x{i+1}``.  A model is a
    chain of bijections, so |L(X)_i| = |X_n| at every i.
    """
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    base = FinCategory.build(
        f"chain_{n}",
        [f"x{i}" for i in range(n + 1)],
        [(f"x{i}x{j}", f"x{i}", f"x{j}") for i, j in pairs],
        {(f"x{j}x{m}", f"x{i}x{j}"): f"x{i}x{m}" for i, j in pairs for m in range(j + 1, n + 1)},
    )
    shape = FinCategory.build("chain_point", ["z"], [], {})
    cones = tuple(
        Cone(
            f"c{i}",
            base,
            f"x{i}",
            shape,
            CatFunctor(shape, base, {"z": f"x{i + 1}"}, {"id_z": f"id_x{i + 1}"}),
            {"z": f"x{i}x{i + 1}"},
        )
        for i in range(n)
    )
    return LimitSketch(base, cones, name=f"iso_chain_{n}")


def _monotone(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """The monotone maps [m] -> [n], each as its tuple of values, in lexicographic order."""
    return itertools.combinations_with_replacement(range(n + 1), m + 1)


def _simplicial_arrow(n: int, theta: tuple[int, ...]) -> str:
    """The arrow s_n -> s_m of the monotone map theta: [m] -> [n], given by its values."""
    if theta == tuple(range(n + 1)):
        return f"id_s{n}"
    return f"s{n}_{''.join(map(str, theta))}"


def segal_sketch() -> LimitSketch:
    """Δ≤3^op with the Segal cones: a model is the 3-truncated nerve of a category.

    Objects are ``s0`` ... ``s3``, with one arrow s_n -> s_m per monotone
    map theta: [m] -> [n], acting on an m-simplex x as x . theta.  Cone
    ``segal<n>`` (n = 2, 3) has peak s_n over the spine zig-zag e0 -> v1
    <- e1 -> ... <- e(n-1): each edge e_i is sent to s1 with leg (i, i+1),
    each inner vertex v_i to s0 with leg (i), so s_n is forced to be the
    composable strings of n edges.
    """
    maps = {(n, m): list(_monotone(m, n)) for n in range(4) for m in range(4)}
    arrow = _simplicial_arrow
    named = [(arrow(n, theta), f"s{n}", f"s{m}") for (n, m), ts in maps.items() for theta in ts]
    compose = {
        (arrow(m, phi), arrow(n, theta)): arrow(n, tuple(theta[i] for i in phi))
        for (n, m), thetas in maps.items()
        for theta in thetas
        for k in range(4)
        for phi in maps[m, k]
    }
    generators = [a for a in named if not a[0].startswith("id_")]
    base = FinCategory.build("delta_3_op", [f"s{n}" for n in range(4)], generators, compose)
    cones = []
    for n in (2, 3):
        edges, inner = [f"e{i}" for i in range(n)], [f"v{i}" for i in range(1, n)]
        spine = [(f"t{i}", f"e{i - 1}", f"v{i}") for i in range(1, n)]
        spine += [(f"s{i}", f"e{i}", f"v{i}") for i in range(1, n)]
        shape = FinCategory.build(f"spine_{n}", edges + inner, spine, {})
        on_objects = dict.fromkeys(edges, "s1") | dict.fromkeys(inner, "s0")
        on_arrows = {f"id_{z}": f"id_{d}" for z, d in on_objects.items()}
        on_arrows |= {a: "s1_1" if a[0] == "t" else "s1_0" for a, _, _ in spine}
        legs = {f"e{i}": f"s{n}_{i}{i + 1}" for i in range(n)}
        legs |= {f"v{i}": f"s{n}_{i}" for i in range(1, n)}
        diagram = CatFunctor(shape, base, on_objects, on_arrows)
        cones.append(Cone(f"segal{n}", base, f"s{n}", shape, diagram, legs))
    return LimitSketch(base, tuple(cones), name="segal_3")


def segal_path_presentation(sketch: LimitSketch, edges: int) -> SetPresentation:
    """The path of ``edges`` edges: the monotone maps x: [k] -> [edges] spanning at most one edge.

    The simplex x is named by its values, dot-separated; an arrow theta
    sends it to x . theta, which spans no more than x does.
    """
    carrier = {f"s{k}": [x for x in _monotone(k, edges) if x[-1] - x[0] <= 1] for k in range(4)}

    def name(x: tuple[int, ...]) -> str:
        return ".".join(map(str, x))

    action = {}
    for a, arrow in sketch.base.non_identities.items():
        theta = tuple(map(int, a.split("_")[1]))
        action[a] = {name(x): name(tuple(x[i] for i in theta)) for x in carrier[arrow.dom]}
    return make_presentation(sketch.base, {d: map(name, xs) for d, xs in carrier.items()}, action)


def segal_path_reflection_size(edges: int) -> dict[str, int]:
    """|L(X)(s_k)| = C(edges + k + 1, k + 1): L(X) is the nerve of the poset [edges]."""
    return {f"s{k}": math.comb(edges + k + 1, k + 1) for k in range(4)}
