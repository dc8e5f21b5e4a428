"""The classical one-step completion and its iteration, as a cross-check.

For one cone the completion of a presentation X is the quotiented sum

    P_c(X)(d) = ( X(d) + hom(peak, d) x X[c] ) / (R0 + R1)

where R0 glues a formal pair (t, gap-image of a) to the actual value
X(t)(a) and R1 glues a pair reached through a leg composite to the
matching tuple component.  The multi-cone step P(X) glues all per-cone
sums along their shared copy of X; since R0 and R1 only ever relate a
formal pair to an X element, this is computed here as one quotient of
X plus all pair summands, which is the wide pushout up to isomorphism
and keeps class identifiers flat for the stage comparison.

R0 and R1 are generated at identities only, R0 at the peak and R1 at each
diagram object: a formal pair's action sends (s, w) to (t . s, w), so
the quotient, which closes every merge under every arrow action, pushes
them onto the pairs of every arrow t.  ``r0``, ``r1`` and the report's
counts are these generators, not every pair they imply.

The sum is built by :func:`~limsketch.setops.witness_sum`, as the staged
engine's total is: the pair summands are its witness rows, and those rows
with the limit tuples under them are the only record of the pairs.  A
pair's id names its tuple by position, and each stage of a report lists
the tuples as ``"limits"``.  R1 is the staged engine's rule (2), one
:func:`~limsketch.sketchlib.rectification_pairs` for both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .setops import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_STAGE_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    NatTransSpec,
    QuotientMap,
    Reflection,
    SetPresentation,
    compose_nat,
    functorial_quotient,
    identity_nat,
    limits_table,
    witness_sum,
)
from .sketchlib import (
    LimitSketch,
    cone_limit,
    gap_map,
    input_is_model,
    is_model,
    rectification_pairs,
)

SUM_BASE_TAG = "X"
SUM_PAIR_TAG = "P"


@dataclass
class CompletionStep:
    """One application of the completion to a presentation.

    ``limits[c]`` lists the limit tuples of the presentation at cone c, and
    ``rows[c, t]`` the ids in the sum of the formal pairs (t, w) over them,
    in order, for each arrow t out of the peak of c: these are the only
    record of the pairs, and the pair over the k-th tuple is the k-th id.
    """

    unit: NatTransSpec
    quotient: QuotientMap
    limits: dict[str, tuple[tuple[str, ...], ...]]
    rows: dict[tuple[str, str], list[str]]
    r0: dict[str, tuple[tuple[str, str], ...]]
    r1: dict[str, tuple[tuple[str, str], ...]]

    @property
    def obj(self) -> SetPresentation:
        return self.quotient.target

    def r_counts(self) -> tuple[int, int]:
        return (
            sum(len(v) for v in self.r0.values()),
            sum(len(v) for v in self.r1.values()),
        )


def kelly_P(
    pres: SetPresentation,
    sketch: LimitSketch,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> CompletionStep:
    """The completion over every cone, glued along the shared copy of X.

    ``max_elements`` caps each object's carrier in the sum, checked in
    closed form (X(d) plus, per cone, limit tuples times hom(peak, d))
    before the sum is built.
    """
    base = pres.base
    limits = {c.name: cone_limit(pres, c, max_tuples=max_tuples) for c in sketch.cones}
    summands = [(c.name, c.peak, limits[c.name]) for c in sketch.cones]
    tags = (SUM_BASE_TAG, SUM_PAIR_TAG)
    sum_pres, inj, rows = witness_sum("completion sum", pres, "K", summands, tags, max_elements)

    r0: dict[str, set[tuple[str, str]]] = {d: set() for d in base.objects}
    for cone in sketch.cones:
        # each tuple sent to its pair at the identity of the peak
        pair = dict(zip(limits[cone.name], rows[cone.name, base.identities[cone.peak]]))
        into = inj[cone.peak]
        r0[cone.peak].update((pair[image], into[a]) for a, image in gap_map(pres, cone).items())
    r1 = rectification_pairs(sketch, limits, rows, inj)
    quotient = functorial_quotient(
        sum_pres, {d: sorted(r0[d].union(r1.get(d, ()))) for d in base.objects}
    )
    unit_components = {
        d: {x: quotient.projection[d][tx] for x, tx in inj[d].items()} for d in base.objects
    }
    unit = NatTransSpec(pres, quotient.target, unit_components)
    r0_pairs = {d: tuple(sorted(r0[d])) for d in base.objects if r0[d]}
    return CompletionStep(unit, quotient, limits, rows, r0_pairs, r1)


@dataclass
class KellyTrace(Reflection):
    stages: list[CompletionStep]  # stage n at ``stages[n]``, X under its identity at 0
    converged_at: int | None
    rho: NatTransSpec | None  # the unit X -> core, once converged

    def engine_fields(self) -> dict:
        stages = []
        for n, step in enumerate(self.stages[1:], 1):
            r0, r1 = step.r_counts()
            stages.append(
                {
                    "index": n,
                    "carrier": step.obj.carrier,
                    "unit": step.unit.components,
                    "limits": limits_table(step.limits),
                    "r0": r0,
                    "r1": r1,
                }
            )
        return {"engine": "kelly", "stages": stages}


def reflect_kelly(
    pres: SetPresentation,
    sketch: LimitSketch,
    budget: int = DEFAULT_STAGE_BUDGET,
    stop_on_convergence: bool = True,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    max_elements: int = DEFAULT_ELEMENT_CAP,
) -> KellyTrace:
    """Iterate the completion until a model appears (or the budget runs out).

    With ``stop_on_convergence`` off the full ``budget`` worth of stages
    is materialized even past convergence; the comparison machinery uses
    that to line stages up with another trace.  A tuple or element cap
    exceeded in a completion or in its model check raises
    :class:`BudgetExceeded` naming its stage.
    """
    converged_at = 0 if input_is_model(pres, sketch, budget, max_tuples) else None
    unit = identity_nat(pres)
    stages = [CompletionStep(unit, QuotientMap(pres, pres, unit.components), {}, {}, {}, {})]
    for n in range(1, budget + 1):
        if converged_at is not None and stop_on_convergence:
            break
        try:
            step = kelly_P(stages[-1].obj, sketch, max_tuples=max_tuples, max_elements=max_elements)
            if converged_at is None and is_model(step.obj, sketch, max_tuples=max_tuples).is_model:
                converged_at = n
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"stage {n}: {exc}") from None
        stages.append(step)
    if converged_at is None:
        return KellyTrace(stages, None, None)
    rho = stages[0].unit
    for step in stages[1 : converged_at + 1]:
        rho = compose_nat(step.unit, rho)
    return KellyTrace(stages, converged_at, rho)
