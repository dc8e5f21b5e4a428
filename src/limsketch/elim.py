"""The staged reflector: free extension, identification rules, convergence.

Each stage holds a quotient-free part E (freshly added limit witnesses)
next to a base part B (everything previously built, quotiented), and
keeps whole the quotient map that made B from the previous total, as its
projection p alone: each class of B is a fibre of p.  The next base
merges the current total S = B + E under two kinds of pairs:

* rule (1) merges peak elements with one image under a cone's gap map,
  forcing gap injectivity;
* rule (2) merges a freshly added witness with the base element it
  rectifies, via their common lift through the previous stage's limits.

Both rules generate their pairs at identities only: the quotient closes
every merge under every arrow action, and the identity pairs pushed
along an arrow t are the pairs the rule defines at t.  A stage's pair
counts are these generators, not every pair they imply.

The free part of the next stage is rebuilt from the current limits, and
a run converges either when the stable core of the base is a model or
when the free part dies out on a model base.  Faithful mode adds a
witness for every limit tuple of S.  Pruned mode adds one only for the
tuples w whose image p . w in the next base Q is not hit by Q's gap map,
and finds them quotient first: it enumerates the small limit of Q, drops
the hit tuples, and lifts each unhit tuple u to the limit of S restricted
to the fibres of p over u's components.  Those lifts are exactly the
tuples w with p . w = u, so the large limit of S is never enumerated.

Element identifiers name their provenance by position.  A base
identifier is the least member of the merged class, tagged ``B:``; a free
identifier, tagged ``E:``, encodes its cone, its arrow and the position k
of its limit tuple in the stage's ``limits`` of that cone, each field
length-prefixed, so no escaping is needed, the ids of one row sort in row
order, and an id grows by two characters a stage as a base tag, never by
the tuple it lies over.  The tuples themselves are the per-stage table
``limits``, which a report lists under the same name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import BudgetExceeded, InputError
from .setops import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_STAGE_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    LimitJoin,
    NatTransSpec,
    QuotientMap,
    Reflection,
    SetPresentation,
    disjoint_sum,
    empty_presentation,
    functorial_quotient,
    identity_nat,
    limits_table,
    witness_sum,
)
from .sketchlib import (
    Cone,
    LimitSketch,
    cone_limit,
    gap_map,
    input_is_model,
    is_model,
    rectification_pairs,
    restrict_along,
)

FAITHFUL = "faithful"
PRUNED = "pruned"

BASE_TAG = "B"
FREE_TAG = "E"


def tag_base(class_id: str) -> str:
    return f"{BASE_TAG}:{class_id}"


def tag_free(free_id: str) -> str:
    return f"{FREE_TAG}:{free_id}"


@dataclass
class Stage:
    """One stage of the staged reflection.

    ``quotient`` is the map that made this stage's base: its ``source`` is
    the previous total, its ``target`` the base, and its ``projection``
    relates the two, each base class the fibre over its id (at stage 0,
    the identity of X).  ``total`` is the tagged disjoint sum of the
    base and the free part; ``limits`` holds, per cone, the limit tuples
    of the previous total that the free part is built from (all of them in
    faithful mode, only those over tuples unhit in this base in pruned
    mode); ``rows[c, t]`` lists the ids in ``total`` of the free elements
    over ``limits[c]`` in order, for each arrow t out of the peak of c, and
    is the only record of the free part.  ``rule1`` and ``rule2`` are the
    generating pairs of the quotient.
    """

    index: int
    quotient: QuotientMap
    total: SetPresentation
    limits: dict[str, tuple[tuple[str, ...], ...]]
    rows: dict[tuple[str, str], list[str]]
    rule1: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    rule2: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)

    def free_part(self, obj: str) -> tuple[str, ...]:
        """The free elements of ``total`` at ``obj``: its sorted carrier past the ``B:`` block."""
        return self.total.carrier[obj][len(self.quotient.target.carrier[obj]) :]

    @property
    def free(self) -> SetPresentation:
        """The free part, tagged ``E:``: ``total`` on :meth:`free_part` at each object."""
        return _subpresentation(self.total, {o: self.free_part(o) for o in self.total.base.objects})

    @property
    def kan_unit_raw(self) -> dict[str, dict[tuple[str, ...], str]]:
        """Per cone c, each tuple of ``limits[c]`` sent to its witness at the identity of the peak.

        Built on each read from the row of that identity.  No engine reads it or :attr:`free`.
        """
        is_identity = self.total.base.is_identity
        rows = self.rows.items()
        return {c: dict(zip(self.limits[c], row)) for (c, t), row in rows if is_identity(t)}

    def pair_counts(self) -> tuple[int, int]:
        one = sum(len(v) for v in self.rule1.values())
        two = sum(len(v) for v in self.rule2.values())
        return one, two


@dataclass
class ReflectionTrace(Reflection):
    """The full staged record of one reflection run."""

    mode: str
    stages: list[Stage]
    converged_at: int | None
    rho: NatTransSpec | None  # the unit X -> core, once converged
    core_kind: str | None = None  # "model-input" | "stable-core" | "base-fixpoint"

    def engine_fields(self) -> dict:
        stages, objects, cut = [], self.stages[0].total.base.objects, len(FREE_TAG) + 1
        for st in self.stages:
            r1, r2 = st.pair_counts()
            stages.append(
                {
                    "index": st.index,
                    "base": st.quotient.target.carrier,
                    "free": {o: [x[cut:] for x in st.free_part(o)] for o in objects},
                    "limits": limits_table(st.limits),
                    "total": st.total.carrier,
                    "p": st.quotient.projection if st.index else None,
                    "rule1": r1,
                    "rule2": r2,
                }
            )
        return {"engine": "elim", "mode": self.mode, "core_kind": self.core_kind, "stages": stages}


def initial_stage(pres: SetPresentation, sketch: LimitSketch) -> Stage:
    """Stage 0: X as the base and no free part; X is trusted, as :func:`reflect_elim` checks it."""
    empty = empty_presentation(sketch.base)
    total, _, _ = disjoint_sum(pres, empty, tags=(BASE_TAG, FREE_TAG))
    identity = QuotientMap(pres, pres, identity_nat(pres).components)
    return Stage(index=0, quotient=identity, total=total, limits={}, rows={})


def relation_one(
    stage: Stage,
    sketch: LimitSketch,
) -> dict[str, tuple[tuple[str, str], ...]]:
    """Rule (1) pairs: peak elements with one gap image, chained.

    For every cone c, the elements of S(peak) are grouped by their image
    under the gap map of S at c, and each group is chained in sorted order.
    These are the pairs at the identity of the peak; the quotient pushes
    them along every arrow t out of the peak, which identifies what the
    pushout of the gap map along t identifies.
    """
    total = stage.total
    out: dict[str, set[tuple[str, str]]] = {d: set() for d in sketch.base.objects}
    for cone in sketch.cones:
        fibres: dict[tuple[str, ...], list[str]] = {}
        for a, image in gap_map(total, cone).items():
            fibres.setdefault(image, []).append(a)
        pairs = out[cone.peak]
        for members in fibres.values():
            pairs.update(zip(members, members[1:]))
    return {d: tuple(sorted(out[d])) for d in sketch.base.objects if out[d]}


def relation_two(
    stage: Stage,
    sketch: LimitSketch,
) -> dict[str, tuple[tuple[str, str], ...]]:
    """Rule (2) pairs: a free witness against the base element it rectifies.

    These are :func:`~limsketch.sketchlib.rectification_pairs` of the
    previous total: the free element over a tuple w of ``limits`` in the
    row of leg_z is paired with the base class of w_z.  The tuples w are
    those the free part was built from, so every free element named here
    exists in both modes: ``rows`` has its id.
    """
    if stage.index < 1:
        return {}
    quotient = stage.quotient
    into = {d: {x: tag_base(k) for x, k in proj.items()} for d, proj in quotient.projection.items()}
    return rectification_pairs(sketch, stage.limits, stage.rows, into)


def e_step(
    stage: Stage,
    sketch: LimitSketch,
    mode: str,
    *,
    quotient: QuotientMap,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> Stage:
    """The next stage: Q plus a free part built from the current stage's limits.

    ``quotient`` is the projection p of the total onto the next base Q.
    Faithful mode adds one element per (cone, arrow out of the peak,
    limit tuple of the total).  Pruned mode keeps only the limit tuples
    w whose image p . w is not in the gap image of Q, which keeps the
    transient population from growing without changing the reflection up
    to isomorphism.  It finds them with :func:`_unhit_lifts`, without
    enumerating the limit of the total.  ``limits`` holds the tuples
    kept, in the product order of the total's carriers.  The rule pairs
    stay empty; :func:`elim_stage` sets them.

    ``max_tuples`` bounds the candidates visited per cone: in the limit of
    the total in faithful mode; in the limit of Q plus all the lifts, as
    one running count, in pruned mode.  ``max_elements`` bounds each
    object of the next total, checked in closed form before it is built.
    """
    if mode not in (FAITHFUL, PRUNED):
        raise InputError(f"unknown mode {mode!r}")
    limits: dict[str, tuple[tuple[str, ...], ...]] = {}
    for cone in sketch.cones:
        try:
            if mode == FAITHFUL:
                limits[cone.name] = cone_limit(stage.total, cone, max_tuples=max_tuples)
            else:
                limits[cone.name] = _unhit_lifts(stage.total, quotient, cone, max_tuples)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"stage {stage.index + 1}: {exc}") from None
    summands = [(c.name, c.peak, limits[c.name]) for c in sketch.cones]
    label, tags = f"stage {stage.index + 1}", (BASE_TAG, FREE_TAG)
    total, _, rows = witness_sum(label, quotient.target, "F", summands, tags, max_elements)
    return Stage(stage.index + 1, quotient, total, limits, rows)


def _unhit_lifts(
    total: SetPresentation,
    quotient: QuotientMap,
    cone: Cone,
    max_tuples: int,
) -> tuple[tuple[str, ...], ...]:
    """The limit tuples w of ``total`` at ``cone`` with p . w unhit in the quotient.

    Each such w lies over a tuple u of the quotient's limit outside its
    gap image, and the w over u are the limit of ``total`` restricted to
    the fibres of p over u's components.  One join plan serves the
    quotient's limit and every lift, and one count of visited candidates
    runs through all of them.
    """
    join = LimitJoin.of_shape(cone.shape)
    label = f"cone {cone.name}"
    target = quotient.target
    qdiag = restrict_along(target, cone)
    small, spent = join.run(qdiag.action, qdiag.carrier, max_tuples, label)
    hit = set(gap_map(target, cone).values())
    order = cone.shape_order()
    objs = [cone.diagram.on_object(z) for z in order]
    # p inverted on the diagram objects, each fibre in the total's sorted carrier order
    inverse: dict[str, dict[str, list[str]]] = {d: {} for d in objs}
    for d, over in inverse.items():
        for x, k in quotient.projection[d].items():
            over.setdefault(k, []).append(x)
    diag = restrict_along(total, cone)
    lifted: list[tuple[str, ...]] = []
    for u in small:
        if u in hit:
            continue
        fibres = {z: inverse[d][x] for z, d, x in zip(order, objs, u)}
        tuples, spent = join.run(diag.action, fibres, max_tuples, label, spent=spent)
        lifted.extend(tuples)
    # the total's carriers are sorted, so sorting restores their product order
    return tuple(sorted(lifted))


def elim_stage(
    stage: Stage,
    sketch: LimitSketch,
    mode: str,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> Stage:
    """One full step: the rule pairs, the quotient they generate, then :func:`e_step`."""
    pairs1 = relation_one(stage, sketch)
    pairs2 = relation_two(stage, sketch)
    merged: dict[str, list[tuple[str, str]]] = {}
    for source in (pairs1, pairs2):
        for d, pairs in source.items():
            merged.setdefault(d, []).extend(pairs)
    quotient = functorial_quotient(stage.total, merged)
    next_stage = e_step(
        stage, sketch, mode, quotient=quotient, max_tuples=max_tuples, max_elements=max_elements
    )
    next_stage.rule1, next_stage.rule2 = pairs1, pairs2
    return next_stage


def _subpresentation(pres: SetPresentation, keep: dict[str, Sequence[str]]) -> SetPresentation:
    """``pres`` on the elements ``keep`` lists per object, which every action keeps inside.

    Both callers pass such a subfunctor: the stable core is the classes
    that hold a ``B:`` element, the image of the previous base, and the
    free part is the carrier past the ``B:`` block, the witness rows; the
    sum's left injection and its rows are each closed under every action.
    """
    base, act = pres.base, pres.action
    carrier = {o: tuple(sorted(keep.get(o, ()))) for o in base.objects}
    action = {a: {x: act[a][x] for x in carrier[r.dom]} for a, r in base.non_identities.items()}
    return SetPresentation(base, carrier, action)


def _core_class_ids(stage: Stage) -> dict[str, tuple[str, ...]]:
    """Classes of the base that contain at least one previous-base member: their p-images."""
    prefix = f"{BASE_TAG}:"
    return {
        d: tuple(sorted({k for x, k in proj.items() if x.startswith(prefix)}))
        for d, proj in stage.quotient.projection.items()
    }


def _core_stable(
    prev_core: dict[str, tuple[str, ...]],
    stage: Stage,
    core: dict[str, tuple[str, ...]],
) -> bool:
    """Is the projection restricted to the previous core a bijection onto the core?"""
    projection = stage.quotient.projection
    for d, prev_ids in prev_core.items():
        images = [projection[d][tag_base(k)] for k in prev_ids]
        if len(set(images)) != len(images) or sorted(images) != list(core[d]):
            return False
    return True


def reflect_elim(
    pres: SetPresentation,
    sketch: LimitSketch,
    budget: int = DEFAULT_STAGE_BUDGET,
    mode: str = PRUNED,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> ReflectionTrace:
    """Iterate the staged construction until a model core stabilizes.

    Convergence is declared when either (a) the core of the new base (the
    classes reached from the previous base) is carried bijectively from
    the previous core and is a model, or (b) the free part is empty while
    the whole base is a model.  Exhausting the stage budget returns the
    trace with a "budget-exhausted" verdict rather than failing.
    """
    if mode not in (FAITHFUL, PRUNED):
        raise InputError(f"unknown mode {mode!r}")
    model_input = input_is_model(pres, sketch, budget, max_tuples)
    stages = [initial_stage(pres, sketch)]
    if model_input:
        return ReflectionTrace(mode, stages, 0, identity_nat(pres), core_kind="model-input")
    prev_core = {d: tuple(pres.carrier[d]) for d in sketch.base.objects}
    core_pres: SetPresentation | None = None
    converged_at: int | None = None
    core_kind: str | None = None
    for _ in range(budget):
        stage = elim_stage(
            stages[-1], sketch, mode, max_tuples=max_tuples, max_elements=max_elements
        )
        stages.append(stage)
        core_ids = _core_class_ids(stage)
        if _core_stable(prev_core, stage, core_ids):
            candidate = _subpresentation(stage.quotient.target, core_ids)
            if is_model(candidate, sketch, max_tuples=max_tuples).is_model:
                core_pres = candidate
                converged_at = stage.index
                core_kind = "stable-core"
                break
        if not any(stage.rows.values()):
            if is_model(stage.quotient.target, sketch, max_tuples=max_tuples).is_model:
                core_pres = stage.quotient.target
                converged_at = stage.index
                core_kind = "base-fixpoint"
                break
        prev_core = core_ids
    if core_pres is None:
        return ReflectionTrace(mode, stages, None, None)
    rho_components: dict[str, dict[str, str]] = {}
    for d in sketch.base.objects:
        comp: dict[str, str] = {}
        for x in pres.carrier[d]:
            v = x
            for stage in stages[1 : converged_at + 1]:
                v = stage.quotient.projection[d][tag_base(v)]
            comp[x] = v
        rho_components[d] = comp
    rho = NatTransSpec(pres, core_pres, rho_components)
    return ReflectionTrace(mode, stages, converged_at, rho, core_kind=core_kind)
