"""Cones, limit sketches, the model checker and built-in sketch builders.

A sketch is an explicit finite category together with an ordered list of
cones.  A presentation is a model exactly when, for every cone, the gap
map from the peak carrier to the set of compatible tuples over the cone
diagram is a bijection; the checker reports a witness for each failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import BudgetExceeded, InputError
from .fincat import (
    CATEGORY_SCHEMA,
    CatFunctor,
    FinCategory,
    ValidationReport,
    category_from_json_dict,
    category_to_json_dict,
    check_document,
    read_json,
    report_text,
    validate_category,
    validate_functor,
)
from .setops import (
    DEFAULT_TUPLE_BUDGET,
    SetPresentation,
    limit_of_diagram,
    validate_presentation,
)


@dataclass
class Cone:
    """A cone: peak object, shape category, diagram functor and legs.

    ``legs`` maps each shape object ``z`` to a base arrow
    ``peak -> diagram(z)``; leg naturality (``diagram(u) . leg_z = leg_z'``
    for every shape arrow ``u: z -> z'``) is what :func:`validate_cone`
    checks.
    """

    name: str
    base: FinCategory
    peak: str
    shape: FinCategory
    diagram: CatFunctor
    legs: dict[str, str]

    def shape_order(self) -> tuple[str, ...]:
        """Component order used for every limit tuple of this cone."""
        return tuple(sorted(self.shape.objects))


@dataclass
class LimitSketch:
    base: FinCategory
    cones: tuple[Cone, ...]
    name: str = field(default="", compare=False)


def validate_cone(cone: Cone) -> ValidationReport:
    """Check the diagram functor, the legs and the leg-naturality equations."""
    report = validate_functor(cone.diagram)
    if cone.peak not in cone.base.objects:
        report.add("peak", f"peak {cone.peak!r} not an object of the base")
    for z in cone.shape.objects:
        leg = cone.legs.get(z)
        if leg is None:
            report.add("leg-missing", f"no leg at shape object {z!r}")
            continue
        arrow = cone.base.arrows.get(leg)
        if arrow is None:
            report.add("leg-unknown", f"leg {leg!r} is not a base arrow")
            continue
        if arrow.dom != cone.peak or arrow.cod != cone.diagram.object_map.get(z):
            report.add(
                "leg-endpoints",
                f"leg at {z!r} runs {arrow.dom!r}->{arrow.cod!r}",
            )
    for z in sorted(cone.legs.keys() - cone.shape.objects):
        report.add("leg-object", f"leg given at unknown shape object {z!r}")
    for name, arrow in cone.shape.non_identities.items():
        leg_src = cone.legs.get(arrow.dom)
        leg_tgt = cone.legs.get(arrow.cod)
        img = cone.diagram.arrow_map.get(name)
        if None in (leg_src, leg_tgt, img):
            continue
        composite = cone.base.composition.get((img, leg_src))
        if composite != leg_tgt:
            report.add(
                "leg-naturality",
                f"shape arrow {name!r}: diagram . leg at {arrow.dom!r} = "
                f"{composite!r} but leg at {arrow.cod!r} = {leg_tgt!r}",
            )
    return report


def validate_sketch(sketch: LimitSketch) -> ValidationReport:
    """Check the base, then each cone's shape and, if the shape is a category, the cone."""
    report = validate_category(sketch.base)
    for cone in sketch.cones:
        shape = validate_category(cone.shape)
        sub, prefix = (validate_cone(cone), "") if shape.ok else (shape, "shape: ")
        for v in sub.violations:
            report.add(f"cone {cone.name}: {prefix}{v.rule}", v.detail)
    return report


def restrict_along(pres: SetPresentation, cone: Cone) -> SetPresentation:
    """The composite ``pres . diagram`` as a presentation over the shape.

    It shares the carriers of ``pres`` and, for non-identity arrows only, its actions.
    """
    carrier = {z: pres.carrier[cone.diagram.on_object(z)] for z in cone.shape.objects}
    action = {a: pres.action[cone.diagram.on_arrow(a)] for a in cone.shape.non_identities}
    return SetPresentation(cone.shape, carrier, action)


def cone_limit(
    pres: SetPresentation,
    cone: Cone,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[tuple[str, ...], ...]:
    """All compatible tuples of ``pres`` over the cone diagram."""
    return limit_of_diagram(
        cone.shape, restrict_along(pres, cone), max_tuples=max_tuples, label=f"cone {cone.name}"
    )


def gap_map(pres: SetPresentation, cone: Cone) -> dict[str, tuple[str, ...]]:
    """The canonical map peak carrier -> limit, sending x to its leg images."""
    order = cone.shape_order()
    legs = [pres.action[cone.legs[z]] for z in order]
    return {x: tuple(act[x] for act in legs) for x in pres.carrier[cone.peak]}


def rectification_pairs(
    sketch: LimitSketch,
    limits: Mapping[str, Sequence[tuple[str, ...]]],
    rows: Mapping[tuple[str, str], Sequence[str]],
    into: Mapping[str, Mapping[str, str]],
) -> dict[str, tuple[tuple[str, str], ...]]:
    """Each witness glued, through a leg, to the element it rectifies.

    ``limits[c]`` lists limit tuples at cone c, and the row ``rows[c, s]``
    the witnesses over them, in order, for each arrow s out of the peak of
    c.  For a shape object z at position k and a tuple w, the witness over
    w in the row of leg_z is paired with ``into[diagram(z)]`` of w_k.
    These are the pairs at the identity of diagram(z): the action of an
    arrow t sends the row of leg_z onto the row of t . leg_z, so a quotient
    closed under the actions, with ``into`` natural, holds the pair for
    every t.  Returns the sorted pairs of each object that has any.
    """
    out: dict[str, set[tuple[str, str]]] = {d: set() for d in sketch.base.objects}
    for cone in sketch.cones:
        tuples = limits[cone.name]
        for k, z in enumerate(cone.shape_order()):
            d = cone.diagram.on_object(z)
            to, row = into[d], rows[cone.name, cone.legs[z]]
            out[d].update((e, to[w[k]]) for w, e in zip(tuples, row))
    return {d: tuple(sorted(ps)) for d, ps in out.items() if ps}


@dataclass
class ConeCheck:
    cone: str
    injective: bool
    surjective: bool
    injectivity_witness: tuple[str, str] | None
    unhit_tuple: tuple[str, ...] | None

    @property
    def ok(self) -> bool:
        return self.injective and self.surjective


@dataclass
class ModelReport:
    checks: list[ConeCheck]

    @property
    def is_model(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "is_model": self.is_model,
            "cones": [
                {
                    "cone": c.cone,
                    "injective": c.injective,
                    "surjective": c.surjective,
                    "injectivity_witness": list(c.injectivity_witness)
                    if c.injectivity_witness
                    else None,
                    "unhit_tuple": None if c.unhit_tuple is None else list(c.unhit_tuple),
                }
                for c in self.checks
            ],
        }


def is_model(
    pres: SetPresentation,
    sketch: LimitSketch,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> ModelReport:
    """Check gap-map bijectivity cone by cone, with explicit witnesses."""
    checks: list[ConeCheck] = []
    for cone in sketch.cones:
        tuples = cone_limit(pres, cone, max_tuples=max_tuples)
        gm = gap_map(pres, cone)
        seen: dict[tuple[str, ...], str] = {}
        inj_witness: tuple[str, str] | None = None
        for x in pres.carrier[cone.peak]:
            img = gm[x]
            if img in seen and inj_witness is None:
                inj_witness = (seen[img], x)
            seen.setdefault(img, x)
        unhit: tuple[str, ...] | None = None
        for t in tuples:
            if t not in seen:
                unhit = t
                break
        checks.append(
            ConeCheck(cone.name, inj_witness is None, unhit is None, inj_witness, unhit)
        )
    return ModelReport(checks)


def input_is_model(
    pres: SetPresentation, sketch: LimitSketch, budget: int, max_tuples: int
) -> bool:
    """Stage 0 of both engines: is X a model?  Refuses first a negative budget, an invalid X,
    then an X over another category; a model check over its tuple budget names stage 0."""
    if budget < 0:
        raise InputError("budget must be >= 0")
    report = validate_presentation(pres)
    if not report.ok:
        raise InputError(f"invalid presentation: {report.violations[0]}")
    if pres.base != sketch.base:
        raise InputError("presentation is not over the sketch category")
    try:
        return is_model(pres, sketch, max_tuples=max_tuples).is_model
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"stage 0: {exc}") from None


# -- built-in sketches -------------------------------------------------------


def sketch_iso_forcing() -> LimitSketch:
    """Two objects, one arrow t: a -> b; the single cone forces t bijective."""
    base = FinCategory.build("iso_forcing", ["a", "b"], [("t", "a", "b")], {})
    shape = FinCategory.build("iso_shape", ["z"], [], {})
    diagram = CatFunctor(shape, base, {"z": "b"}, {"id_z": "id_b"})
    cone = Cone("c0", base, "a", shape, diagram, {"z": "t"})
    return LimitSketch(base, (cone,), name="iso_forcing")


def sketch_binary_product() -> LimitSketch:
    """Objects a, p with projections; the cone forces p to be a times a."""
    base = FinCategory.build(
        "binary_product", ["a", "p"], [("pi1", "p", "a"), ("pi2", "p", "a")], {}
    )
    shape = FinCategory.build("pair_shape", ["zl", "zr"], [], {})
    diagram = CatFunctor(
        shape, base, {"zl": "a", "zr": "a"}, {"id_zl": "id_a", "id_zr": "id_a"}
    )
    cone = Cone("c0", base, "p", shape, diagram, {"zl": "pi1", "zr": "pi2"})
    return LimitSketch(base, (cone,), name="binary_product")


def sketch_equalizer() -> LimitSketch:
    """Parallel pair f, g: a -> b and e: q -> a; the cone carves the equalizer."""
    base = FinCategory.build(
        "equalizer",
        ["a", "b", "q"],
        [("f", "a", "b"), ("g", "a", "b"), ("e", "q", "a"), ("w", "q", "b")],
        {("f", "e"): "w", ("g", "e"): "w"},
    )
    shape = FinCategory.build(
        "parallel_shape", ["za", "zb"], [("u1", "za", "zb"), ("u2", "za", "zb")], {}
    )
    diagram = CatFunctor(
        shape,
        base,
        {"za": "a", "zb": "b"},
        {"u1": "f", "u2": "g", "id_za": "id_a", "id_zb": "id_b"},
    )
    cone = Cone("c0", base, "q", shape, diagram, {"za": "e", "zb": "w"})
    return LimitSketch(base, (cone,), name="equalizer")


def sketch_two_cover_sheaf() -> LimitSketch:
    """Poset on T, U, V, W; the cone makes T the matching pairs of U and V over W.

    This is the sheaf condition for a two-element cover written by hand:
    the diagram is the cospan U -> W <- V and the legs are the three
    restriction arrows out of T.
    """
    base = FinCategory.build(
        "two_cover",
        ["T", "U", "V", "W"],
        [
            ("tu", "T", "U"),
            ("tv", "T", "V"),
            ("tw", "T", "W"),
            ("uw", "U", "W"),
            ("vw", "V", "W"),
        ],
        {("uw", "tu"): "tw", ("vw", "tv"): "tw"},
    )
    shape = FinCategory.build(
        "cospan_shape",
        ["zU", "zV", "zW"],
        [("zuw", "zU", "zW"), ("zvw", "zV", "zW")],
        {},
    )
    diagram = CatFunctor(
        shape,
        base,
        {"zU": "U", "zV": "V", "zW": "W"},
        {
            "zuw": "uw",
            "zvw": "vw",
            "id_zU": "id_U",
            "id_zV": "id_V",
            "id_zW": "id_W",
        },
    )
    cone = Cone("c0", base, "T", shape, diagram, {"zU": "tu", "zV": "tv", "zW": "tw"})
    return LimitSketch(base, (cone,), name="two_cover_sheaf")


BUILDERS = {
    "iso_forcing": sketch_iso_forcing,
    "binary_product": sketch_binary_product,
    "equalizer": sketch_equalizer,
    "two_cover_sheaf": sketch_two_cover_sheaf,
}


def builder_names() -> tuple[str, ...]:
    return tuple(sorted(BUILDERS))


def build_sketch(name: str) -> LimitSketch:
    if name in BUILDERS:
        return BUILDERS[name]()
    raise InputError(f"unknown builder {name!r}")


# -- JSON interchange --------------------------------------------------------

SKETCH_SCHEMA = {
    "category": CATEGORY_SCHEMA,
    "cones": [
        {
            "peak": str,
            "shape": CATEGORY_SCHEMA,
            "diagram": {"objects": {"*": str}, "arrows": {"*": str}},
            "legs": {"*": str},
        }
    ],
}


def sketch_to_json_dict(sketch: LimitSketch) -> dict:
    cones = []
    for cone in sketch.cones:
        cones.append(
            {
                "peak": cone.peak,
                "shape": category_to_json_dict(cone.shape),
                "diagram": {
                    "objects": dict(sorted(cone.diagram.object_map.items())),
                    "arrows": dict(sorted(cone.diagram.arrow_map.items())),
                },
                "legs": dict(sorted(cone.legs.items())),
            }
        )
    return {"category": category_to_json_dict(sketch.base), "cones": cones}


def sketch_from_json_dict(data: dict, name: str = "") -> LimitSketch:
    check_document(data, SKETCH_SCHEMA)
    base = category_from_json_dict(data["category"])
    cones: list[Cone] = []
    for idx, rec in enumerate(data["cones"]):
        try:
            shape = category_from_json_dict(rec["shape"])
        except InputError as exc:
            raise InputError(f"invalid sketch: cone c{idx}: shape: {exc}") from None
        diag = rec["diagram"]
        diagram = CatFunctor(shape, base, dict(diag["objects"]), dict(diag["arrows"]))
        cones.append(Cone(f"c{idx}", base, rec["peak"], shape, diagram, dict(rec["legs"])))
    sketch = LimitSketch(base, tuple(cones), name=name)
    report = validate_sketch(sketch)
    if not report.ok:
        raise InputError(f"invalid sketch: {report.violations[0]}")
    return sketch


def sketch_dumps(sketch: LimitSketch) -> str:
    return report_text(sketch_to_json_dict(sketch))


def sketch_loads(text: str, name: str = "") -> LimitSketch:
    return sketch_from_json_dict(read_json(text, "sketch"), name=name)
