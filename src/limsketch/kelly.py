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
from typing import Iterable

from .errors import BudgetExceeded, EngineError, InputError
from .fincat import report_text
from .setops import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_STAGE_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    NatTransSpec,
    QuotientMap,
    SetPresentation,
    compose_nat,
    encode_carriers,
    functorial_quotient,
    identity_nat,
    limits_table,
    witness_sum,
    witness_tail,
)
from .sketchlib import (
    LimitSketch,
    check_presentation,
    cone_limit,
    gap_map,
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
    record of the pairs.  ``position[c]`` sends each tuple of ``limits[c]``
    to its place in the rows of c.
    """

    unit: NatTransSpec
    quotient: QuotientMap
    limits: dict[str, tuple[tuple[str, ...], ...]]
    rows: dict[tuple[str, str], list[str]]
    position: dict[str, dict[tuple[str, ...], int]]
    r0: dict[str, tuple[tuple[str, str], ...]]
    r1: dict[str, tuple[tuple[str, str], ...]]

    @property
    def obj(self) -> SetPresentation:
        return self.quotient.target

    def pair_classes(
        self, obj: str, cone: str, arrow: str, tuples: Iterable, places: list[int | None]
    ) -> list[str]:
        """The classes at ``obj`` of the formal pairs (``arrow``, w) of ``cone``, w in ``tuples``.

        ``places[j]`` is ``position[cone].get(tuples[j])``, once per cone.  A
        tuple without a place, or a pair the projection lacks, raises
        :class:`EngineError` naming the first: the only read of ``tuples``.
        """
        projection, row = self.quotient.projection[obj], self.rows[cone, arrow]
        try:
            return list(map(projection.__getitem__, map(row.__getitem__, places)))
        except (KeyError, TypeError):
            position = self.position[cone]
            w = next(w for w in tuples if w not in position or row[position[w]] not in projection)
            raise EngineError(
                f"pair of cone {cone!r} at arrow {arrow!r} over tuple {witness_tail(w)!r} "
                f"missing in the completion sum at {obj!r}"
            ) from None

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
    position = {c: {w: k for k, w in enumerate(tuples)} for c, tuples in limits.items()}

    r0: dict[str, set[tuple[str, str]]] = {d: set() for d in base.objects}
    for cone in sketch.cones:
        at, into = position[cone.name], inj[cone.peak]
        row = rows[cone.name, base.identities[cone.peak]]
        r0[cone.peak].update((row[at[image]], into[a]) for a, image in gap_map(pres, cone).items())
    r1 = rectification_pairs(sketch, limits, rows, inj)
    quotient = functorial_quotient(
        sum_pres, {d: sorted(r0[d].union(r1.get(d, ()))) for d in base.objects}
    )
    unit_components = {
        d: {x: quotient.projection[d][tx] for x, tx in inj[d].items()} for d in base.objects
    }
    unit = NatTransSpec(pres, quotient.target, unit_components)
    return CompletionStep(
        unit,
        quotient,
        limits,
        rows,
        position,
        {d: tuple(sorted(r0[d])) for d in base.objects if r0[d]},
        r1,
    )


@dataclass
class KellyTrace:
    sketch: LimitSketch
    start: SetPresentation
    stages: list[CompletionStep]  # stage n at ``stages[n - 1]``
    converged_at: int | None
    rho: NatTransSpec | None  # the unit X -> core, once converged

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    @property
    def core(self) -> SetPresentation | None:
        return None if self.rho is None else self.rho.target

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "budget-exhausted"

    def object_at(self, index: int) -> SetPresentation:
        if index == 0:
            return self.start
        return self.stages[index - 1].obj

    def to_json_dict(self) -> dict:
        stages = []
        for n, step in enumerate(self.stages, 1):
            r0, r1 = step.r_counts()
            stages.append(
                {
                    "index": n,
                    "carrier": encode_carriers(step.obj),
                    "unit": step.unit.components,
                    "limits": limits_table(step.limits),
                    "r0": r0,
                    "r1": r1,
                }
            )
        return {
            "engine": "kelly",
            "verdict": self.verdict,
            "converged_at": self.converged_at,
            "stages": stages,
            "core": None if self.core is None else encode_carriers(self.core),
            "rho": None if self.rho is None else self.rho.components,
        }

    def dumps(self) -> str:
        return report_text(self.to_json_dict())


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
    exceeded in a completion raises :class:`BudgetExceeded` naming its stage.
    """
    if budget < 0:
        raise InputError("budget must be >= 0")
    check_presentation(pres, sketch)
    stages: list[CompletionStep] = []
    converged_at: int | None = None
    if is_model(pres, sketch, max_tuples=max_tuples).is_model:
        converged_at = 0
    current = pres
    for n in range(1, budget + 1):
        if converged_at is not None and stop_on_convergence:
            break
        try:
            step = kelly_P(current, sketch, max_tuples=max_tuples, max_elements=max_elements)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"stage {n}: {exc}") from None
        stages.append(step)
        current = step.obj
        if converged_at is None and is_model(current, sketch, max_tuples=max_tuples).is_model:
            converged_at = n
    if converged_at is None:
        return KellyTrace(sketch, pres, stages, None, None)
    rho = identity_nat(pres)
    for step in stages[:converged_at]:
        rho = compose_nat(step.unit, rho)
    return KellyTrace(sketch, pres, stages, converged_at, rho)
