"""The classical one-step completion and its iteration, as a cross-check.

For one cone the completion of a presentation X is the quotiented sum

    P_c(X)(d) = ( X(d) + hom(peak, d) x X[c] ) / (R0 + R1)

where R0 glues a formal pair (t, gap-image of a) to the actual value
X(t)(a) and R1 glues a pair reached through a leg composite to the
matching tuple component.  The multi-cone step P(X) glues all per-cone
sums along their shared copy of X; since R0 and R1 only ever relate a
formal pair to an X element, this is computed here as one quotient of
X plus all pair summands, which is the wide pushout up to isomorphism
and keeps class identifiers flat for provenance replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceeded, EngineError, InputError
from .fincat import report_text
from .setops import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_TUPLE_BUDGET,
    NatTransSpec,
    QuotientMap,
    SetPresentation,
    Witness,
    compose_nat,
    encode_carriers,
    functorial_quotient,
    identity_nat,
    validate_presentation,
    witness_id,
    witness_presentation,
    witness_sum,
)
from .sketchlib import Cone, LimitSketch, cone_limit, gap_map, is_model

SUM_BASE_TAG = "X"
SUM_PAIR_TAG = "P"


def pair_element_id(cone_name: str, arrow: str, w: tuple[str, ...]) -> str:
    """Injective identifier for a formal pair (arrow, limit tuple)."""
    return witness_id("K", cone_name, arrow, w)


@dataclass
class CompletionStep:
    """One application of the completion to a presentation."""

    obj: SetPresentation
    unit: NatTransSpec
    quotient: QuotientMap
    pair_prov: dict[str, Witness]  # each pair's element of the sum -> its witness
    r0: dict[str, tuple[tuple[str, str], ...]]
    r1: dict[str, tuple[tuple[str, str], ...]]
    # the inverse of ``pair_prov``
    pair_elements: dict[Witness, str]

    def classes(self, obj: str) -> Iterator[tuple[str, tuple[str, ...], tuple[Witness, ...]]]:
        """Replay view at ``obj``: a class carries its X members, and its pairs are witnesses."""
        x_tag, prov = f"{SUM_BASE_TAG}:", self.pair_prov
        for class_id, members in self.quotient.classes[obj].items():
            carried = tuple(m[len(x_tag) :] for m in members if m.startswith(x_tag))
            witnesses = tuple(prov[m] for m in members if not m.startswith(x_tag))
            yield class_id, carried, witnesses

    def pair_classes(self, obj: str, cone: str, arrow: str, tuples: list) -> list[str]:
        """The classes at ``obj`` of the formal pairs (``arrow``, w) of ``cone``, w in ``tuples``."""
        projection, elements = self.quotient.projection[obj], self.pair_elements
        try:
            return [projection[elements[cone, arrow, w]] for w in tuples]
        except KeyError:
            w = next(w for w in tuples if elements.get((cone, arrow, w)) not in projection)
            pid = pair_element_id(cone, arrow, w)
            raise EngineError(f"pair {pid!r} missing in the completion sum at {obj!r}") from None

    def r_counts(self) -> tuple[int, int]:
        return (
            sum(len(v) for v in self.r0.values()),
            sum(len(v) for v in self.r1.values()),
        )


def _completion(
    pres: SetPresentation,
    cones: tuple[Cone, ...],
    max_tuples: int,
    max_elements: int,
) -> CompletionStep:
    base = pres.base
    limits = {c.name: cone_limit(pres, c, max_tuples=max_tuples) for c in cones}
    for d in base.objects:
        size = len(pres.carrier[d]) + sum(
            len(limits[c.name]) * len(base.hom(c.peak, d)) for c in cones
        )
        if size > max_elements:
            raise BudgetExceeded(
                f"completion sum object {d!r} has {size} elements (cap {max_elements})"
            )
    pairs, pair_rows = witness_presentation(
        "K", base, [(c.name, c.peak, limits[c.name]) for c in cones], SUM_PAIR_TAG
    )
    sum_pres, inj = witness_sum(pres, pairs, SUM_BASE_TAG)
    pair_elements = {
        (c, t, w): e for (c, t), row in pair_rows.items() for w, e in zip(limits[c], row)
    }
    pair_prov = {e: witness for witness, e in pair_elements.items()}

    r0: dict[str, set[tuple[str, str]]] = {d: set() for d in base.objects}
    r1: dict[str, set[tuple[str, str]]] = {d: set() for d in base.objects}
    for cone in cones:
        gm = gap_map(pres, cone)
        order = cone.shape_order()
        for d in base.objects:
            for t in base.hom(cone.peak, d):
                act, into = pres.action[t], inj[d]
                for a in pres.carrier[cone.peak]:
                    r0[d].add((pair_elements[cone.name, t, gm[a]], into[act[a]]))
        for z_idx, z in enumerate(order):
            zobj = cone.diagram.on_object(z)
            leg = cone.legs[z]
            for d in base.objects:
                for t in base.hom(zobj, d):
                    act, into = pres.action[t], inj[d]
                    row = pair_rows[cone.name, base.compose(t, leg)]
                    for w, e in zip(limits[cone.name], row):
                        r1[d].add((e, into[act[w[z_idx]]]))
    pairs = {d: tuple(sorted(r0[d] | r1[d])) for d in base.objects if r0[d] or r1[d]}
    quotient = functorial_quotient(sum_pres, pairs)
    unit_components = {
        d: {x: quotient.projection[d][tx] for x, tx in inj[d].items()} for d in base.objects
    }
    unit = NatTransSpec(pres, quotient.target, unit_components)
    return CompletionStep(
        quotient.target,
        unit,
        quotient,
        pair_prov,
        {d: tuple(sorted(r0[d])) for d in base.objects if r0[d]},
        {d: tuple(sorted(r1[d])) for d in base.objects if r1[d]},
        pair_elements,
    )


def kelly_Pc(
    pres: SetPresentation,
    cone: Cone,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> CompletionStep:
    """The one-cone completion with its unit."""
    return _completion(pres, (cone,), max_tuples, DEFAULT_ELEMENT_CAP)


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
    return _completion(pres, sketch.cones, max_tuples, max_elements)


@dataclass
class KellyStage:
    index: int
    step: CompletionStep

    @property
    def obj(self) -> SetPresentation:
        return self.step.obj


@dataclass
class KellyTrace:
    sketch: LimitSketch
    start: SetPresentation
    stages: list[KellyStage]
    verdict: str  # "converged" | "budget-exhausted"
    converged_at: int | None
    core: SetPresentation | None
    rho: NatTransSpec | None

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"

    def replay_steps(self) -> list[CompletionStep]:
        """Completion steps 1..``converged_at``, from X to the core."""
        assert self.converged_at is not None
        return [st.step for st in self.stages[: self.converged_at]]

    def object_at(self, index: int) -> SetPresentation:
        if index == 0:
            return self.start
        return self.stages[index - 1].obj

    def to_json_dict(self) -> dict:
        stages = []
        for st in self.stages:
            r0, r1 = st.step.r_counts()
            stages.append(
                {
                    "index": st.index,
                    "carrier": encode_carriers(st.obj),
                    "unit": st.step.unit.components,
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
    budget: int = 8,
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
    report = validate_presentation(pres)
    if not report.ok:
        raise InputError(f"invalid presentation: {report.violations[0]}")
    if pres.base != sketch.base:
        raise InputError("presentation is not over the sketch category")
    stages: list[KellyStage] = []
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
        stages.append(KellyStage(n, step))
        current = step.obj
        if converged_at is None and is_model(current, sketch, max_tuples=max_tuples).is_model:
            converged_at = n
    if converged_at is None:
        return KellyTrace(sketch, pres, stages, "budget-exhausted", None, None, None)
    core = pres if converged_at == 0 else stages[converged_at - 1].obj
    rho = identity_nat(pres)
    for st in stages[:converged_at]:
        rho = compose_nat(st.step.unit, rho)
    return KellyTrace(sketch, pres, stages, "converged", converged_at, core, rho)
