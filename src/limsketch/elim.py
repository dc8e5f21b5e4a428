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
a run converges either, in faithful mode, when the stable core of the
base is a model, or when the free part dies out on a model base.
Faithful mode adds a witness for every limit tuple of S.  Pruned mode
first saturates rule (1): it applies the rule to the quotient's target
and quotients again until no pair is left, as the chase runs its
equality rules to a fixpoint before it adds anything.  It then adds a witness only over the
tuples u of the limit of that base Q that Q's gap map misses, the
triggers Q does not yet satisfy.  Q's class ids are least members of S,
so each such u is a tuple of S's elements too, and rule (2) glues the
witness's legs to u's components at the next stage.  Each round builds
Q's gap maps once, and the last round's maps serve the rule (1) test,
the filter of the unhit tuples and the model check of Q.  Only the small
limit of Q is enumerated, never the large limit of S.

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
    ConeCheck,
    LimitSketch,
    ModelReport,
    cone_check,
    cone_limit,
    gap_map,
    input_is_model,
    is_model,
    rectification_pairs,
)

FAITHFUL = "faithful"
PRUNED = "pruned"

BASE_TAG = "B"
FREE_TAG = "E"

Pairs = dict[str, tuple[tuple[str, str], ...]]  # per object, generating pairs
GapMaps = dict[str, dict[str, tuple[str, ...]]]  # per cone, its gap map


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
    base and the free part; ``limits`` holds, per cone, the tuples the
    free part is built from: every limit tuple of the previous total in
    faithful mode, the limit tuples of this base that its gap map misses
    in pruned mode; ``rows[c, t]`` lists the ids in ``total`` of the free
    elements over ``limits[c]`` in order, for each arrow t out of the peak
    of c, and is the only record of the free part.  ``rule1`` and
    ``rule2`` are the generating pairs of the quotient: in pruned mode,
    ``rule1`` holds every saturation round's pairs.  ``check`` is, in
    pruned mode, the model check of the base, read from the gap maps and
    limits the stage built (None in faithful mode and at stage 0).
    """

    index: int
    quotient: QuotientMap
    total: SetPresentation
    limits: dict[str, tuple[tuple[str, ...], ...]]
    rows: dict[tuple[str, str], list[str]]
    rule1: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    rule2: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    check: ModelReport | None = None

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
    core_kind: str | None = None  # "model-input" | "stable-core" (faithful) | "base-fixpoint"

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
    return _rule_one(sketch, {c.name: gap_map(stage.total, c) for c in sketch.cones})


def _rule_one(sketch: LimitSketch, gaps: GapMaps) -> Pairs:
    """The rule (1) pairs of a presentation whose gap map at each cone c is ``gaps[c]``."""
    out: dict[str, set[tuple[str, str]]] = {d: set() for d in sketch.base.objects}
    for cone in sketch.cones:
        gap = gaps[cone.name]
        if len(set(gap.values())) == len(gap):
            continue
        # the peak in carrier order, each element chained to the last one with its image
        last: dict[tuple[str, ...], str] = {}
        pairs = out[cone.peak]
        for a, image in gap.items():
            if image in last:
                pairs.add((last[image], a))
            last[image] = a
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
    gaps: GapMaps | None = None,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> Stage:
    """The next stage: Q plus a free part built from the current stage's limits.

    ``quotient`` is the projection p of the total onto the next base Q.
    Faithful mode adds one element per (cone, arrow out of the peak,
    limit tuple of the total).  Pruned mode adds them only over the limit
    tuples of Q itself that Q's gap map misses, read against ``gaps``, the
    gap maps of Q per cone (built here when not given); the same tuples
    and maps give the stage's ``check``.  ``limits`` holds the tuples
    kept, in product order.  The rule pairs stay empty; :func:`elim_stage`
    sets them.

    ``max_tuples`` bounds the candidates visited per cone: in the limit of
    the total in faithful mode, in the limit of Q in pruned mode.
    ``max_elements`` bounds each object of the next total, checked in
    closed form before it is built.
    """
    if mode not in (FAITHFUL, PRUNED):
        raise InputError(f"unknown mode {mode!r}")
    target = quotient.target
    if mode == PRUNED and gaps is None:
        gaps = {c.name: gap_map(target, c) for c in sketch.cones}
    limits: dict[str, tuple[tuple[str, ...], ...]] = {}
    checks: list[ConeCheck] = []
    for cone in sketch.cones:
        try:
            if mode == FAITHFUL:
                limits[cone.name] = cone_limit(stage.total, cone, max_tuples=max_tuples)
            else:
                tuples = cone_limit(target, cone, max_tuples=max_tuples)
                check, limits[cone.name] = cone_check(cone.name, gaps[cone.name], tuples)
                checks.append(check)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"stage {stage.index + 1}: {exc}") from None
    summands = [(c.name, c.peak, limits[c.name]) for c in sketch.cones]
    label, tags = f"stage {stage.index + 1}", (BASE_TAG, FREE_TAG)
    total, _, rows = witness_sum(label, target, "F", summands, tags, max_elements)
    check = ModelReport(checks) if mode == PRUNED else None
    return Stage(stage.index + 1, quotient, total, limits, rows, check=check)


def _saturate(
    quotient: QuotientMap, sketch: LimitSketch, rule1: Pairs
) -> tuple[QuotientMap, GapMaps, Pairs]:
    """Rule (1) on the quotient's target, quotiented again, until no pair is left.

    Each round builds the target's gap maps once; the last round's find no
    pair, so they are injective, and they are returned for :func:`e_step`.
    Each round's quotient is composed onto the last, from the same source.
    Class ids are least members, so every round's pairs are elements of
    the source, and they join ``rule1``: the returned pairs with the
    stage's rule (2) pairs generate the returned quotient.
    """
    objects = sketch.base.objects
    while True:
        gaps = {c.name: gap_map(quotient.target, c) for c in sketch.cones}
        pairs = _rule_one(sketch, gaps)
        if not pairs:
            return quotient, gaps, rule1
        step = functorial_quotient(quotient.target, pairs)
        composed = {
            d: dict(zip(p, map(step.projection[d].__getitem__, p.values())))
            for d, p in quotient.projection.items()
        }
        quotient = QuotientMap(quotient.source, step.target, composed)
        rule1 = {
            d: tuple(sorted({*rule1.get(d, ()), *pairs.get(d, ())}))
            for d in objects
            if d in rule1 or d in pairs
        }


def elim_stage(
    stage: Stage,
    sketch: LimitSketch,
    mode: str,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> Stage:
    """One full step: the rule pairs, the quotient they generate, then :func:`e_step`.

    Pruned mode saturates rule (1) on the quotient first (:func:`_saturate`).
    """
    pairs1 = relation_one(stage, sketch)
    pairs2 = relation_two(stage, sketch)
    merged: dict[str, list[tuple[str, str]]] = {}
    for source in (pairs1, pairs2):
        for d, pairs in source.items():
            merged.setdefault(d, []).extend(pairs)
    quotient, gaps = functorial_quotient(stage.total, merged), None
    if mode == PRUNED:
        quotient, gaps, pairs1 = _saturate(quotient, sketch, pairs1)
    next_stage = e_step(
        stage,
        sketch,
        mode,
        quotient=quotient,
        gaps=gaps,
        max_tuples=max_tuples,
        max_elements=max_elements,
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

    Convergence is declared when either (a) in faithful mode, the core of
    the new base (the classes reached from the previous base) is carried
    bijectively from the previous core and is a model, or (b) the free
    part is empty while the whole base is a model; a pruned stage decides
    (b) from its own ``check``.  Pruned mode needs no (a): once the core
    of its saturated base Q is a model, a witness over u has the gap image
    of the core element over u, so rule (1) has merged the two and Q is
    its core; and a previous core carried bijectively onto it was a model
    too, which would have stopped the run a stage earlier.  A model check
    over the tuple budget names its stage.  Exhausting the stage budget
    returns the trace with a "budget-exhausted" verdict rather than
    failing.
    """
    if mode not in (FAITHFUL, PRUNED):
        raise InputError(f"unknown mode {mode!r}")
    model_input = input_is_model(pres, sketch, budget, max_tuples)
    stages = [initial_stage(pres, sketch)]
    if model_input:
        return ReflectionTrace(mode, stages, 0, identity_nat(pres), core_kind="model-input")

    def check(candidate: SetPresentation, n: int) -> ModelReport:
        try:
            return is_model(candidate, sketch, max_tuples=max_tuples)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"stage {n}: {exc}") from None

    prev_core = {d: tuple(pres.carrier[d]) for d in sketch.base.objects}
    core_pres: SetPresentation | None = None
    core_kind: str | None = None
    for _ in range(budget):
        stage = elim_stage(
            stages[-1], sketch, mode, max_tuples=max_tuples, max_elements=max_elements
        )
        stages.append(stage)
        if mode == FAITHFUL:
            core_ids = _core_class_ids(stage)
            if _core_stable(prev_core, stage, core_ids):
                candidate = _subpresentation(stage.quotient.target, core_ids)
                if check(candidate, stage.index).is_model:
                    core_pres, core_kind = candidate, "stable-core"
                    break
            prev_core = core_ids
        if not any(stage.rows.values()):
            base = stage.quotient.target
            if (stage.check or check(base, stage.index)).is_model:
                core_pres, core_kind = base, "base-fixpoint"
                break
    if core_pres is None:
        return ReflectionTrace(mode, stages, None, None)
    converged_at = stages[-1].index
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
