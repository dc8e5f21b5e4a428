"""Finite categories, functors and their validators.

A category is stored as a total, explicit composition table over string
identifiers; nothing is derived from generators at lookup time.  All
iteration happens in lexicographic identifier order so that every
construction built on top of a category is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence, TextIO

from .errors import InputError


@dataclass(frozen=True)
class Arrow:
    name: str
    dom: str
    cod: str


@dataclass
class Violation:
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass
class ValidationReport:
    """A list of violated laws with witnesses; empty means valid."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, detail: str) -> None:
        self.violations.append(Violation(rule, detail))

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


@dataclass
class FinCategory:
    """An explicit finite category.

    ``composition`` maps ``(g, f)`` to ``g after f`` and must contain an
    entry for exactly the composable pairs (``cod(f) == dom(g)``),
    identities included.  Instances are treated as immutable after
    construction: the hom sets and the arrows other than identities are
    indexed once, in ``__post_init__``, so :meth:`hom` and
    :meth:`is_identity` are lookups; ``non_identities`` holds those arrows
    by sorted name.
    """

    objects: tuple[str, ...]
    arrows: dict[str, Arrow]
    identities: dict[str, str]
    composition: dict[tuple[str, str], str]
    name: str = field(default="", compare=False)
    _homs: dict[tuple[str, str], tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )
    non_identities: dict[str, Arrow] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        homs: dict[tuple[str, str], list[str]] = {}
        self.non_identities = {}
        for n, ar in sorted(self.arrows.items()):
            homs.setdefault((ar.dom, ar.cod), []).append(n)
            # an identity is the arrow its object names, from that object to itself
            if ar.dom != ar.cod or self.identities.get(ar.dom) != n:
                self.non_identities[n] = ar
        self._homs = {k: tuple(v) for k, v in homs.items()}

    @classmethod
    def build(
        cls,
        name: str,
        objects: list[str],
        arrows: list[tuple[str, str, str]],
        compose: dict[tuple[str, str], str] | None = None,
    ) -> "FinCategory":
        """Assemble a category from non-identity generators.

        ``arrows`` lists ``(name, dom, cod)`` for the non-identity arrows and
        ``compose`` gives their composites; identity arrows ``id_<obj>`` and
        all unit-law table entries are filled in automatically.
        """
        objs = tuple(sorted(objects))
        arrow_map: dict[str, Arrow] = {}
        identities: dict[str, str] = {}
        for o in objs:
            ident = f"id_{o}"
            if any(a[0] == ident for a in arrows):
                raise InputError(f"arrow name {ident!r} collides with an identity")
            arrow_map[ident] = Arrow(ident, o, o)
            identities[o] = ident
        for aname, dom, cod in arrows:
            if aname in arrow_map:
                raise InputError(f"duplicate arrow name {aname!r}")
            if dom not in objs or cod not in objs:
                raise InputError(f"arrow {aname!r} uses unknown object")
            arrow_map[aname] = Arrow(aname, dom, cod)
        table: dict[tuple[str, str], str] = {}
        for f in arrow_map.values():
            table[(identities[f.cod], f.name)] = f.name
            table[(f.name, identities[f.dom])] = f.name
        for (g, f), gf in (compose or {}).items():
            for nm in (g, f, gf):
                if nm not in arrow_map:
                    raise InputError(f"compose table names unknown arrow {nm!r}")
            table[(g, f)] = gf
        return cls(objs, arrow_map, identities, table, name=name)

    # -- lookups ---------------------------------------------------------

    def compose(self, g: str, f: str) -> str:
        """Return ``g after f``; both must be composable arrows."""
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise InputError(f"no composite for ({g!r}, {f!r})") from None

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        """Arrows from ``a`` to ``b`` in lexicographic order."""
        if a not in self.objects or b not in self.objects:
            raise InputError(f"unknown object in hom({a!r}, {b!r})")
        return self._homs.get((a, b), ())

    def is_identity(self, arrow_name: str) -> bool:
        """Whether ``arrow_name`` is its domain's identity; an unknown arrow raises."""
        if arrow_name not in self.arrows:
            raise InputError(f"unknown arrow {arrow_name!r}")
        return arrow_name not in self.non_identities


def validate_category(category: FinCategory) -> ValidationReport:
    """Check every category law exhaustively and report violations."""
    report = ValidationReport()
    objs = set(category.objects)
    for name, arrow in sorted(category.arrows.items()):
        if name != arrow.name:
            report.add("arrow-key", f"arrow {name!r} stored under wrong key")
        if arrow.dom not in objs:
            report.add("arrow-dom", f"arrow {name!r} has unknown domain {arrow.dom!r}")
        if arrow.cod not in objs:
            report.add("arrow-cod", f"arrow {name!r} has unknown codomain {arrow.cod!r}")
    for obj in category.objects:
        ident = category.identities.get(obj)
        if ident is None:
            report.add("identity-missing", f"object {obj!r} has no identity")
            continue
        arrow = category.arrows.get(ident)
        if arrow is None:
            report.add("identity-missing", f"identity {ident!r} of {obj!r} not an arrow")
        elif arrow.dom != obj or arrow.cod != obj:
            report.add(
                "identity-endpoints",
                f"identity {ident!r} of {obj!r} has endpoints {arrow.dom!r}->{arrow.cod!r}",
            )
    for obj in sorted(category.identities.keys() - objs):
        report.add("identity-object", f"identity given for unknown object {obj!r}")

    arrows = category.arrows
    table = category.composition
    for (g, f), gf in sorted(table.items()):
        if g not in arrows or f not in arrows or gf not in arrows:
            report.add("compose-unknown", f"entry ({g!r},{f!r})->{gf!r} names unknown arrow")
            continue
        if arrows[f].cod != arrows[g].dom:
            report.add("compose-shape", f"entry ({g!r},{f!r}) is not composable")
        else:
            if arrows[gf].dom != arrows[f].dom or arrows[gf].cod != arrows[g].cod:
                report.add(
                    "compose-endpoints",
                    f"({g!r},{f!r})->{gf!r} has endpoints "
                    f"{arrows[gf].dom!r}->{arrows[gf].cod!r}",
                )
    for g in sorted(arrows):
        for f in sorted(arrows):
            if arrows[f].cod != arrows[g].dom:
                continue
            if (g, f) not in table:
                report.add("compose-partial", f"composable pair ({g!r},{f!r}) has no entry")
    for f in sorted(arrows.values(), key=lambda a: a.name):
        id_cod, id_dom = category.identities.get(f.cod, ""), category.identities.get(f.dom, "")
        left = table.get((id_cod, f.name))
        if left is not None and left != f.name:
            report.add("unit-left", f"compose({id_cod!r}, {f.name!r}) = {left!r}")
        right = table.get((f.name, id_dom))
        if right is not None and right != f.name:
            report.add("unit-right", f"compose({f.name!r}, {id_dom!r}) = {right!r}")
    # Associativity over every composable triple; built-in categories are
    # small enough that the cubic loop is immediate.
    for h in sorted(arrows):
        for g in sorted(arrows):
            if arrows[g].cod != arrows[h].dom or (h, g) not in table:
                continue
            for f in sorted(arrows):
                if arrows[f].cod != arrows[g].dom:
                    continue
                if (g, f) not in table:
                    continue
                gf = table[(g, f)]
                hg = table[(h, g)]
                left = table.get((h, gf))
                right = table.get((hg, f))
                if left is None or right is None or left != right:
                    report.add(
                        "associativity",
                        f"h={h!r} g={g!r} f={f!r}: {left!r} != {right!r}",
                    )
    return report


@dataclass
class CatFunctor:
    """A functor between explicit finite categories."""

    source: FinCategory
    target: FinCategory
    object_map: dict[str, str]
    arrow_map: dict[str, str]

    def on_object(self, obj: str) -> str:
        try:
            return self.object_map[obj]
        except KeyError:
            raise InputError(f"functor undefined on object {obj!r}") from None

    def on_arrow(self, arrow_name: str) -> str:
        try:
            return self.arrow_map[arrow_name]
        except KeyError:
            raise InputError(f"functor undefined on arrow {arrow_name!r}") from None


def validate_functor(functor: CatFunctor) -> ValidationReport:
    """Check functor laws (totality, no foreign keys, endpoints, identities, composition)."""
    report = ValidationReport()
    src, tgt = functor.source, functor.target
    for obj in src.objects:
        img = functor.object_map.get(obj)
        if img is None:
            report.add("object-map-partial", f"no image for object {obj!r}")
        elif img not in tgt.objects:
            report.add("object-map-range", f"object {obj!r} maps to unknown {img!r}")
    for obj in sorted(functor.object_map.keys() - src.objects):
        report.add("object-map-domain", f"image given for unknown object {obj!r}")
    for name in sorted(src.arrows):
        img = functor.arrow_map.get(name)
        if img is None:
            report.add("arrow-map-partial", f"no image for arrow {name!r}")
            continue
        if img not in tgt.arrows:
            report.add("arrow-map-range", f"arrow {name!r} maps to unknown {img!r}")
            continue
        a = src.arrows[name]
        b = tgt.arrows[img]
        if functor.object_map.get(a.dom) != b.dom or functor.object_map.get(a.cod) != b.cod:
            report.add("endpoint", f"arrow {name!r} image {img!r} breaks dom/cod")
    for name in sorted(functor.arrow_map.keys() - src.arrows.keys()):
        report.add("arrow-map-domain", f"image given for unknown arrow {name!r}")
    for obj in src.objects:
        ident = src.identities[obj]
        img = functor.arrow_map.get(ident)
        want = tgt.identities.get(functor.object_map.get(obj, ""), None)
        if img is not None and want is not None and img != want:
            report.add("identity-preservation", f"id of {obj!r} maps to {img!r}")
    for (g, f), gf in sorted(src.composition.items()):
        ig, iff, igf = (functor.arrow_map.get(x) for x in (g, f, gf))
        if None in (ig, iff, igf):
            continue
        want = tgt.composition.get((ig, iff))
        if want != igf:
            report.add(
                "composition-preservation",
                f"F({g!r} . {f!r}) = {igf!r} but F{g!r} . F{f!r} = {want!r}",
            )
    return report


# -- JSON interchange ------------------------------------------------------

_REPORT_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
_LEAF_BATCH = 4096  # list items or map entries per written chunk: about 1.3 MB of a 38.6 MB report
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b'"\\')  # what JSON writes unescaped


def _report_chunks(value: object, indent: str = "") -> Iterator[str]:
    """``value`` as ``_REPORT_ENCODER`` encodes it, each string map or string list in batches.

    A batch is joined once and checked for plainness: printable ASCII but
    ``"`` and ``\\``.  A plain string is written as itself in quotes, all
    that escaping would do; any other batch is escaped string by string.
    Dict keys must be strings: any other key raises ``TypeError``.  A map
    whose keys already come in sorted order, as alpha's components, ``p``,
    ``rho`` and ``unit`` do, is read by its values, not key by key.
    """
    if isinstance(value, dict):
        keys: Sequence[str] = sorted(value)
        values = list(value.values()) if keys == list(value) else [value[k] for k in keys]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        keys, values, ends = (), value, "[]"
    else:
        yield _REPORT_ENCODER.encode(value)
        return
    if not values:
        yield ends
        return
    inner, esc = indent + "  ", encode_basestring_ascii
    lead, sep = ends[0] + "\n" + inner, ",\n" + inner
    if all(isinstance(v, str) for v in values):
        for at in range(0, len(values), _LEAF_BATCH):
            ks, vs = keys[at : at + _LEAF_BATCH], values[at : at + _LEAF_BATCH]
            text = "".join(itertools.chain(ks, vs))
            if text.isascii() and not text.encode("ascii").translate(None, _PLAIN):
                lines = [f'"{k}": "{v}"' for k, v in zip(ks, vs)] if ks else [f'"{v}"' for v in vs]
            else:
                lines = [f"{esc(k)}: {esc(v)}" for k, v in zip(ks, vs)] if ks else list(map(esc, vs))
            yield lead + sep.join(lines)
            lead = sep
    else:
        for i, v in enumerate(values):
            yield lead + (esc(keys[i]) + ": " if keys else "")
            yield from _report_chunks(v, inner)
            lead = sep
    yield "\n" + indent + ends[1]


def report_text(payload: object) -> str:
    return "".join(_report_chunks(payload)) + "\n"


def write_report(payload: object, sink: TextIO) -> None:
    """Write :func:`report_text` of ``payload`` to ``sink`` a chunk at a time."""
    for chunk in _report_chunks(payload):
        sink.write(chunk)
    sink.write("\n")


CATEGORY_SCHEMA = {
    "objects": [str],
    "arrows": [{"id": str, "dom": str, "cod": str}],
    "identities": {"*": str},
    "compose": [{"g": str, "f": str, "gf": str}],
}


def check_document(value: object, schema: object, path: str = "$") -> None:
    """Raise :class:`InputError` at the JSON path of the first place ``value`` leaves ``schema``.

    A schema is ``str``; ``[s]``, a list of ``s``; ``{"*": s}``, an object
    of ``s`` under any keys; or a dict of fields, an object with exactly
    those fields.  This is the only shape check of every input document.
    """
    if schema is str:
        if not isinstance(value, str):
            raise InputError(f"{path} must be a string")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise InputError(f"{path} must be a list")
        for i, item in enumerate(value):
            check_document(item, schema[0], f"{path}[{i}]")
    else:
        if not isinstance(value, dict):
            raise InputError(f"{path} must be an object")
        if "*" in schema:
            fields = dict.fromkeys(value, schema["*"])
        else:
            fields = schema
            unknown = sorted(value.keys() - fields)
            if unknown:
                raise InputError(f"{path}: unknown fields {unknown}")
            missing = sorted(fields.keys() - value.keys())
            if missing:
                raise InputError(f"{path}: missing fields {missing}")
        for key, sub in fields.items():
            step = f".{key}" if key.isidentifier() else f"[{key!r}]"
            check_document(value[key], sub, path + step)


def category_to_json_dict(category: FinCategory) -> dict:
    return {
        "objects": sorted(category.objects),
        "arrows": [
            {"id": a.name, "dom": a.dom, "cod": a.cod}
            for a in sorted(category.arrows.values(), key=lambda x: x.name)
        ],
        "identities": dict(sorted(category.identities.items())),
        "compose": [
            {"g": g, "f": f, "gf": gf}
            for (g, f), gf in sorted(category.composition.items())
        ],
    }


def category_from_json_dict(data: dict, name: str = "") -> FinCategory:
    check_document(data, CATEGORY_SCHEMA)
    objects = sorted(data["objects"])
    for o, o2 in zip(objects, objects[1:]):
        if o == o2:
            raise InputError(f"duplicate object {o!r}")
    arrows: dict[str, Arrow] = {}
    for rec in data["arrows"]:
        if rec["id"] in arrows:
            raise InputError(f"duplicate arrow {rec['id']!r}")
        arrows[rec["id"]] = Arrow(rec["id"], rec["dom"], rec["cod"])
    compose: dict[tuple[str, str], str] = {}
    for rec in data["compose"]:
        key = (rec["g"], rec["f"])
        if key in compose:
            raise InputError(f"duplicate compose entry {key!r}")
        compose[key] = rec["gf"]
    return FinCategory(
        tuple(objects), arrows, dict(data["identities"]), compose, name=name
    )


def category_dumps(category: FinCategory) -> str:
    return report_text(category_to_json_dict(category))


def read_json(text: str, source: str) -> object:
    """The JSON value of ``text``; undecodable or too deeply nested text names ``source``.

    So does an object that repeats a key, where ``json.loads`` alone keeps the last value.
    """

    def unique(pairs: list[tuple[str, object]]) -> dict:
        if len(obj := dict(pairs)) < len(pairs):
            seen: set[str] = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise InputError(f"{source}: duplicate key {key!r} in a JSON object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{source}: JSON parse error: {exc}") from None


def category_loads(text: str, name: str = "") -> FinCategory:
    return category_from_json_dict(read_json(text, "category"), name=name)
