"""Concrete limits, quotients and sums of finite set-valued data.

Presentations are functors from an explicit finite category to finite
sets: a carrier per object and a total function per arrow.  Limits are
enumerated as compatible tuples, quotients are congruence closures
computed with a disjoint-set forest plus a worklist, and every output is
ordered lexicographically so identical inputs give identical bytes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .errors import BudgetExceeded, InputError
from .fincat import (
    CATEGORY_SCHEMA,
    FinCategory,
    ValidationReport,
    category_from_json_dict,
    category_to_json_dict,
    check_document,
    read_json,
    report_text,
)

DEFAULT_TUPLE_BUDGET = 10**6
# per-object carrier cap of a stage or completion sum
DEFAULT_ELEMENT_CAP = 200_000
# stages a reflection may run before it reports "budget-exhausted"
DEFAULT_STAGE_BUDGET = 8

# A witness: (cone name, arrow out of the cone's peak, limit tuple).
Witness = tuple[str, str, tuple[str, ...]]


def witness_head(kind: str, cone: str, arrow: str) -> str:
    """The part of a witness id fixed by ``kind``, ``cone`` and ``arrow``."""
    return f"{kind}{len(cone)}:{cone}{len(arrow)}:{arrow}"


def witness_tail(w: tuple[str, ...]) -> str:
    """The limit tuple ``w`` as one string: a row of a stage's ``limits`` table."""
    return f"{len(w)}#" + "".join([f"{len(c)}:{c}" for c in w])


def witness_id(kind: str, cone: str, arrow: str, k: int) -> str:
    """Injective id of the witness (``cone``, ``arrow``, k-th limit tuple of the cone).

    An id is its :func:`witness_head` followed by k as a length-prefixed
    decimal, so ids need no escaping, the ids of one row sort in row
    order, and an id's length does not grow with the tuple it lies over.
    ``kind`` names the engine.
    """
    return witness_head(kind, cone, arrow) + _position(k)


def _position(k: int) -> str:
    digits = str(k)
    return f"{len(digits)}:{digits}"


def _positions(n: int) -> list[str]:
    """``[_position(k) for k in range(n)]``, built one block of equal digit width at a time."""
    out: list[str] = []
    width, start = 1, 0
    while start < n:
        stop, prefix = min(n, 10**width), f"{width}:"
        out += [prefix + str(k) for k in range(start, stop)]
        width, start = width + 1, stop
    return out


def limits_table(limits: Mapping[str, Sequence[tuple[str, ...]]]) -> dict[str, list[str]]:
    """Per cone, each limit tuple as its :func:`witness_tail`: row k is the tuple of position k."""
    return {cone: [witness_tail(w) for w in tuples] for cone, tuples in limits.items()}


class ArrowActions(dict):
    """Each arrow's action on the carriers; an identity's, when not stored, is built.

    Indexing keeps what it builds; :meth:`get` and equality keep nothing.
    """

    def __init__(self, base: FinCategory, carrier: Mapping[str, tuple[str, ...]], action=()):
        super().__init__(action)
        self.base, self.carrier = base, carrier

    def get(self, name: str, default=None):
        act, arrow = dict.get(self, name), self.base.arrows.get(name)
        if act is None and arrow is not None and self.base.is_identity(name):
            act = {x: x for x in self.carrier.get(arrow.dom, ())}
        return default if act is None else act

    def __missing__(self, name: str) -> dict[str, str]:
        if (act := self.get(name)) is None:
            raise KeyError(name)
        return self.setdefault(name, act)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, dict):
            return NotImplemented
        return all(self.get(n) == other.get(n) for n in self.keys() | other.keys())

    def __ne__(self, other: object) -> bool:
        return not self == other


@dataclass
class SetPresentation:
    """A functor ``base -> Set`` given by explicit carriers and actions.

    ``carrier`` maps each object to a sorted tuple of element identifiers
    and ``action`` maps each arrow to a total function between the
    corresponding carriers.  The library stores non-identity actions only:
    ``action`` is an :class:`ArrowActions`, which builds the rest on read.
    """

    base: FinCategory
    carrier: dict[str, tuple[str, ...]]
    action: dict[str, dict[str, str]]

    def __post_init__(self) -> None:
        self.action = ArrowActions(self.base, self.carrier, self.action)

    def size(self) -> dict[str, int]:
        return {o: len(self.carrier[o]) for o in self.base.objects}


def make_presentation(
    base: FinCategory,
    carrier: Mapping[str, Iterable[str]],
    action: Mapping[str, Mapping[str, str]],
) -> SetPresentation:
    """Normalize carriers/actions, checking identity actions; a stray entry or moved point fails."""
    carr = {o: tuple(sorted(set(carrier.get(o, ())))) for o in base.objects}
    act: dict[str, dict[str, str]] = {}
    for arrow_name, arrow in base.arrows.items():
        given = action.get(arrow_name)
        if base.is_identity(arrow_name):
            given = {x: x for x in carr[arrow.dom]} | dict(given or {})
        elif given is None:
            raise InputError(f"no action given for arrow {arrow_name!r}")
        try:
            act[arrow_name] = {x: given[x] for x in carr[arrow.dom]}
        except KeyError as exc:
            x = exc.args[0]
            raise InputError(f"action of {arrow_name!r} undefined on {x!r}") from None
        if len(given) > len(act[arrow_name]):
            x = min(given.keys() - act[arrow_name].keys())
            raise InputError(f"action of {arrow_name!r} defined on {x!r}, not in {arrow.dom!r}")
        if base.is_identity(arrow_name) and (moved := [x for x, y in given.items() if y != x]):
            raise InputError(f"identity action {arrow_name!r} moves {min(moved)!r}")
    return SetPresentation(base, carr, {a: act[a] for a in base.non_identities})


def empty_presentation(base: FinCategory) -> SetPresentation:
    return SetPresentation(base, {o: () for o in base.objects}, {a: {} for a in base.non_identities})


def terminal_presentation(base: FinCategory) -> SetPresentation:
    """Every carrier a singleton; a model for any sketch over ``base``."""
    return SetPresentation(
        base,
        {o: ("*",) for o in base.objects},
        {a: {"*": "*"} for a in base.non_identities},
    )


def validate_presentation(pres: SetPresentation) -> ValidationReport:
    """Check totality, identity actions and composition of actions, then stray keys.

    An identity whose action is not stored is x |-> x by definition: it
    passes every check, so it is skipped rather than built.
    """
    report = ValidationReport()
    base = pres.base
    built = {base.identities[o] for o in base.objects} - pres.action.keys()
    for obj in base.objects:
        if obj not in pres.carrier:
            report.add("carrier-missing", f"no carrier for {obj!r}")
    for name, arrow in sorted(base.arrows.items()):
        if name in built:
            continue
        act = pres.action.get(name)
        if act is None:
            report.add("action-missing", f"no action for arrow {name!r}")
            continue
        dom = pres.carrier.get(arrow.dom, ())
        cod = set(pres.carrier.get(arrow.cod, ()))
        for x in dom:
            if x not in act:
                report.add("action-partial", f"{name!r} undefined on {x!r}")
            elif act[x] not in cod:
                report.add("action-range", f"{name!r} sends {x!r} outside the carrier")
        members = set(dom)
        for x in act:
            if x not in members:
                report.add("action-domain", f"{name!r} defined on foreign {x!r}")
    for obj in base.objects:
        ident = base.identities[obj]
        if ident in built:
            continue
        act = pres.action.get(ident, {})
        for x in pres.carrier.get(obj, ()):
            if act.get(x) != x:
                report.add("identity-action", f"id action moves {x!r} at {obj!r}")
    for (g, f), gf in sorted(base.composition.items()):
        if g in built or f in built:
            continue
        fa = pres.action.get(f, {})
        ga = pres.action.get(g, {})
        gfa = pres.action.get(gf, {})
        for x in pres.carrier.get(base.arrows[f].dom, ()):
            via = ga.get(fa.get(x, ""), None)
            direct = gfa.get(x)
            if via != direct:
                report.add(
                    "action-composition",
                    f"action({gf!r})({x!r}) = {direct!r} but "
                    f"action({g!r})(action({f!r})({x!r})) = {via!r}",
                )
    for obj in sorted(pres.carrier.keys() - base.objects):
        report.add("carrier-object", f"carrier at unknown object {obj!r}")
    for name in sorted(pres.action.keys() - base.arrows.keys()):
        report.add("action-arrow", f"action of unknown arrow {name!r}")
    return report


@dataclass
class NatTransSpec:
    """A natural transformation between presentations over one base."""

    source: SetPresentation
    target: SetPresentation
    components: dict[str, dict[str, str]]

    def validate(self) -> ValidationReport:
        """Each component total, in range and without foreign keys; then the first broken square."""
        report = ValidationReport()
        base = self.source.base
        for obj in base.objects:
            comp = self.components.get(obj)
            if comp is None:
                report.add("component-missing", f"no component at {obj!r}")
                continue
            tgt = set(self.target.carrier.get(obj, ()))
            src = self.source.carrier.get(obj, ())
            for x in src:
                if x not in comp:
                    report.add("component-partial", f"at {obj!r}: undefined on {x!r}")
                elif comp[x] not in tgt:
                    report.add("component-range", f"at {obj!r}: {x!r} maps outside")
            for x in sorted(comp.keys() - src):
                report.add("component-domain", f"at {obj!r}: defined on foreign {x!r}")
        for obj in sorted(self.components.keys() - base.objects):
            report.add("component-object", f"component at unknown object {obj!r}")
        if report.ok and (square := naturality_break(self.source, self.target, self.components)):
            name, x, left, right = square
            report.add("naturality", f"arrow {name!r} on {x!r}: {left!r} != {right!r}")
        return report


class Reflection:
    """What a run's unit rho: X -> core decides, shared by both engines' traces.

    A trace sets ``converged_at`` (None until a model appears) and ``rho``
    (None until converged) and adds its own report keys in :meth:`engine_fields`.
    """

    converged_at: int | None
    rho: NatTransSpec | None

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    @property
    def core(self) -> SetPresentation | None:
        return None if self.rho is None else self.rho.target

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "budget-exhausted"

    def engine_fields(self) -> dict:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        return {
            **self.engine_fields(),
            "verdict": self.verdict,
            "converged_at": self.converged_at,
            "core": None if self.core is None else self.core.carrier,
            "rho": None if self.rho is None else self.rho.components,
        }

    def dumps(self) -> str:
        return report_text(self.to_json_dict())


def naturality_break(
    source: SetPresentation,
    target: SetPresentation,
    components: Mapping[str, Mapping[str, str]],
) -> tuple[str, str, str, str] | None:
    """The first square that breaks, as (arrow, x, left, right), or None when all commute.

    Arrows come in sorted order and x in its object's carrier order; left
    is the target action of the arrow at the component's value at x, right
    the component at the source action's image of x.  The components must
    be total on the source carriers and land in the target carriers.

    An identity whose action neither side stores is skipped: its square
    holds by definition.  Each arrow's two sides are compared as streamed
    maps, and a broken arrow is scanned again to name its first square.
    """
    base = source.base
    for name, arrow in sorted(base.arrows.items()):
        if base.is_identity(name) and name not in source.action and name not in target.action:
            continue
        xs, at, on = source.carrier[arrow.dom], components[arrow.dom], components[arrow.cod]
        src, tgt = source.action[name], target.action[name]
        left = map(tgt.__getitem__, map(at.__getitem__, xs))
        if not all(map(eq, left, map(on.__getitem__, map(src.__getitem__, xs)))):
            return next((name, x, u, v) for x in xs if (u := tgt[at[x]]) != (v := on[src[x]]))
    return None


def identity_nat(pres: SetPresentation) -> NatTransSpec:
    return NatTransSpec(
        pres, pres, {o: {x: x for x in pres.carrier[o]} for o in pres.base.objects}
    )


def compose_nat(second: NatTransSpec, first: NatTransSpec) -> NatTransSpec:
    """Return ``second after first``."""
    comps = {
        o: {x: second.components[o][first.components[o][x]] for x in first.components[o]}
        for o in first.source.base.objects
    }
    return NatTransSpec(first.source, second.target, comps)


# -- limits ----------------------------------------------------------------


def limit_of_diagram(
    shape: FinCategory,
    diag: SetPresentation,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    label: str = "",
) -> tuple[tuple[str, ...], ...]:
    """Enumerate the limit of ``diag`` as compatible tuples.

    Tuple components follow ``sorted(shape.objects)``, and the tuples
    come sorted, which over sorted carriers is their product order.  A
    tuple is kept when every shape arrow carries its source component to
    its target component.

    The tuples are found by a join that binds one shape object at a time
    (see :func:`_join_plan`), so the work follows the fibers walked, not
    the cartesian product.  ``max_tuples`` bounds that work: the product
    of the scanned carriers is checked before enumerating (it is exact
    for a shape without arrows), and the candidates visited are counted
    while enumerating.  Either one above ``max_tuples`` raises
    :class:`BudgetExceeded`.
    """
    return LimitJoin.of_shape(shape).run(diag.action, diag.carrier, max_tuples, label)[0]


class LimitJoin:
    """The join plan of one finite graph, made once and run over many labellings.

    The graph has ordered ``nodes`` and ``edges`` (key, dom, cod).  A run
    gives each node a carrier and each edge key a function, and returns
    every tuple (one component per node, in ``nodes`` order) whose dom
    component each edge's function sends to its cod component, as sorted
    tuples, which over sorted carriers is their product order.  Edges are
    told apart by position, so several may share one key.  A cone's limit
    is the join over its shape's non-identity arrows (:meth:`of_shape`);
    the natural transformations out of a presentation are the join over
    its category of elements (``universal.enumerate_nat_trans``).

    :meth:`run` takes the carriers per call, so it can enumerate the
    limit tuples with every component in a given subset, and it carries
    a running count of candidates visited across runs, so that one
    ``max_tuples`` bounds a whole sequence of joins.

    A run changes no state of the join, so one join serves any number of runs.
    """

    def __init__(
        self,
        nodes: Sequence[Hashable],
        edges: Sequence[tuple[str, Hashable, Hashable]],
    ) -> None:
        self.nodes = list(nodes)
        position = {node: k for k, node in enumerate(self.nodes)}
        self.keys = [key for key, _, _ in edges]
        self.plan = _join_plan(
            len(self.nodes), [(position[dom], position[cod]) for _, dom, cod in edges], self.keys
        )
        bound = [step.obj for step in self.plan]
        # the slot of each node in a row, or None when the plan binds the nodes in order
        in_order = bound == sorted(bound)
        self._perm = None if in_order else [bound.index(k) for k in range(len(bound))]

    @classmethod
    def of_shape(cls, shape: FinCategory) -> LimitJoin:
        """The join of a cone shape: its objects sorted, its non-identity arrows by name.

        Equal shapes share one join (:func:`_shape_join`).
        """
        arrows = tuple((a.name, a.dom, a.cod) for a in shape.non_identities.values())
        return _shape_join(tuple(sorted(shape.objects)), arrows)

    def run(
        self,
        action: Mapping[str, Mapping[str, str]],
        carriers: Mapping[Hashable, tuple[str, ...]],
        max_tuples: int | None = DEFAULT_TUPLE_BUDGET,
        label: str = "",
        spent: int = 0,
    ) -> tuple[tuple[tuple[str, ...], ...], int]:
        """The limit tuples over ``carriers`` (a missing node has none), and the new count.

        The tuples come sorted, which over sorted carriers is their product
        order.  ``action[key]`` is the function of the edges with that key.
        The product of the scanned carriers of this join is checked against
        ``max_tuples``; the candidates it visits are added to the
        ``spent`` already visited, and that running count is checked too.
        ``max_tuples=None`` checks neither.
        """
        plan = self.plan
        cars = [carriers.get(node, ()) for node in self.nodes]
        where = f" at {label}" if label else ""
        limit = math.inf if max_tuples is None else max_tuples
        scanned = math.prod(len(cars[step.obj]) for step in plan if step.kind == _SCAN)
        if scanned > limit:
            raise BudgetExceeded(f"limit tuple budget exceeded{where}: product exceeds {max_tuples}")
        visited = spent
        if not self.keys:
            visited += scanned
            if visited > limit:
                raise BudgetExceeded(
                    f"limit tuple budget exceeded{where}: visited candidates exceed {max_tuples}"
                )
            return tuple(itertools.product(*cars)), visited

        rows: list[tuple[str, ...]] = [()]
        for kind, obj, via, src, checks in plan:
            carrier = cars[obj]
            if kind == _SCAN:
                visited += len(rows) * len(carrier)
            elif kind == _IMAGE:
                visited += len(rows)
            else:
                fibers: dict[str | None, list[str]] = {}
                for x in carrier:
                    fibers.setdefault(action[via].get(x), []).append(x)
                visited += sum(len(fibers.get(r[src], ())) for r in rows)
            if visited > limit:
                raise BudgetExceeded(
                    f"limit tuple budget exceeded{where}: visited candidates exceed {max_tuples}"
                )
            if kind == _SCAN:
                rows = [r + (x,) for r in rows for x in carrier]
            elif kind == _IMAGE:
                act, members = action[via], set(carrier)
                rows = [r + (y,) for r in rows if (y := act.get(r[src])) in members]
            else:
                rows = [r + (x,) for r in rows for x in fibers.get(r[src], ())]
            if checks:
                acts = [(i, j, action[key]) for i, j, key in checks]
                rows = [r for r in rows if all(f.get(r[i]) == r[j] for i, j, f in acts)]

        if self._perm is not None:
            # a permutation moves at least two nodes, so ``itemgetter`` gives tuples
            rows = list(map(itemgetter(*self._perm), rows))
        rows.sort()
        return tuple(rows), visited


# one join per shape content; the bound keeps a process that reads many
# sketch files from holding every plan it made
@functools.lru_cache(maxsize=256)
def _shape_join(objects: tuple[str, ...], arrows: tuple[tuple[str, str, str], ...]) -> LimitJoin:
    return LimitJoin(objects, arrows)


_SCAN, _IMAGE, _FIBER = "scan", "image", "fiber"


class _JoinStep(NamedTuple):
    kind: str
    obj: int  # the node bound, by position
    via: str | None  # key of the edge that yields the candidates, for _IMAGE and _FIBER
    src: int  # slot of the bound end of ``via``
    checks: tuple[tuple[int, int, str], ...]  # (dom slot, cod slot, edge key)


def _join_plan(n: int, edges: list[tuple[int, int]], keys: list[str]) -> list[_JoinStep]:
    """Order in which :meth:`LimitJoin.run` binds the nodes ``0 .. n-1``.

    The next node bound is the least codomain of an edge out of a bound
    node (one candidate: the ``_IMAGE`` of the bound component), else the
    least domain of an edge into a bound node (candidates: the ``_FIBER``
    of the edge over the bound component), else the least unbound node
    (``_SCAN`` of its carrier); ties go to the first edge.  Every other
    edge is checked at the step that binds its second end.
    """
    slot: dict[int, int] = {}
    plan: list[_JoinStep] = []
    pending = list(range(len(edges)))
    while len(slot) < n:
        image = [i for i in pending if edges[i][0] in slot and edges[i][1] not in slot]
        fiber = [i for i in pending if edges[i][1] in slot and edges[i][0] not in slot]
        if image:
            via = min(image, key=lambda i: edges[i][1])
            kind, obj, src = _IMAGE, edges[via][1], slot[edges[via][0]]
        elif fiber:
            via = min(fiber, key=lambda i: edges[i][0])
            kind, obj, src = _FIBER, edges[via][0], slot[edges[via][1]]
        else:
            via = None
            kind, obj, src = _SCAN, min(o for o in range(n) if o not in slot), -1
        slot[obj] = len(slot)
        pending = [i for i in pending if i != via]
        ready = [i for i in pending if edges[i][0] in slot and edges[i][1] in slot]
        pending = [i for i in pending if i not in ready]
        checks = tuple((slot[edges[i][0]], slot[edges[i][1]], keys[i]) for i in ready)
        plan.append(_JoinStep(kind, obj, None if via is None else keys[via], src, checks))
    return plan


# -- quotients ---------------------------------------------------------------


@dataclass
class QuotientMap:
    """A pointwise-surjective natural projection; each class is a fibre of ``projection``."""

    source: SetPresentation
    target: SetPresentation
    projection: dict[str, dict[str, str]]


def functorial_quotient(
    pres: SetPresentation,
    pairs: Mapping[str, Iterable[tuple[str, str]]],
) -> QuotientMap:
    """Quotient by the smallest action-closed equivalence containing ``pairs``.

    Merged pairs are pushed through every arrow action until no merge
    fires (congruence closure); the target carrier at each object is the
    set of classes, named by their least member.  Identities store no action.

    Each object has an inline union-find forest with an entry per
    non-root.  A find halves its path (``parent[x] = x = grandparent``
    assigns left to right) and a union links the greater root under the
    lesser, so every root is the least member of its class.
    """
    base = pres.base
    parents: dict[str, dict[str, str]] = {o: {} for o in base.objects}
    # per object, the (codomain, action) of each non-identity arrow out of it
    pushes: dict[str, list[tuple[str, dict[str, str]]]] = {o: [] for o in base.objects}
    for name, arrow in base.non_identities.items():
        pushes[arrow.dom].append((arrow.cod, pres.action[name]))

    work: list[tuple[str, str, str]] = []
    for obj in sorted(pairs):
        carrier = set(pres.carrier.get(obj, ()))
        for u, v in pairs[obj]:
            if u not in carrier or v not in carrier:
                raise InputError(f"pair ({u!r}, {v!r}) outside carrier of {obj!r}")
            work.append((obj, u, v))
    while work:
        obj, u, v = work.pop()
        parent = parents[obj]
        ru = u
        while (p := parent.get(ru, ru)) != ru:
            parent[ru] = ru = parent.get(p, p)
        rv = v
        while (p := parent.get(rv, rv)) != rv:
            parent[rv] = rv = parent.get(p, p)
        if ru == rv:
            continue
        if ru < rv:
            parent[rv] = ru
        else:
            parent[ru] = rv
        for cod, act in pushes[obj]:
            work.append((cod, act[u], act[v]))

    projection: dict[str, dict[str, str]] = {}
    carrier: dict[str, tuple[str, ...]] = {}
    for obj in base.objects:
        proj: dict[str, str] = {}
        parent = parents[obj]
        for x in pres.carrier[obj]:
            rep = x
            while (p := parent.get(rep, rep)) != rep:
                parent[rep] = rep = parent.get(p, p)
            proj[x] = rep
        projection[obj] = proj
        carrier[obj] = tuple(sorted(set(proj.values())))
    action: dict[str, dict[str, str]] = {}
    for name, arrow in base.non_identities.items():
        act = pres.action[name]
        action[name] = {rep: projection[arrow.cod][act[rep]] for rep in carrier[arrow.dom]}
    target = SetPresentation(base, carrier, action)
    return QuotientMap(pres, target, projection)


def disjoint_sum(
    left: SetPresentation,
    right: SetPresentation,
    tags: tuple[str, str] = ("L", "R"),
) -> tuple[SetPresentation, dict[str, dict[str, str]], dict[str, dict[str, str]]]:
    """Pointwise tagged disjoint union with its two natural injections."""
    if left.base is not right.base and left.base != right.base:
        raise InputError("disjoint_sum requires presentations over the same category")
    ltag, rtag = tags
    if ltag == rtag:
        raise InputError("disjoint_sum tags must differ")
    base = left.base
    carrier: dict[str, tuple[str, ...]] = {}
    inj_left: dict[str, dict[str, str]] = {}
    inj_right: dict[str, dict[str, str]] = {}
    for obj in base.objects:
        inj_left[obj] = {x: f"{ltag}:{x}" for x in left.carrier[obj]}
        inj_right[obj] = {x: f"{rtag}:{x}" for x in right.carrier[obj]}
        carrier[obj] = tuple(
            sorted(list(inj_left[obj].values()) + list(inj_right[obj].values()))
        )
    action: dict[str, dict[str, str]] = {}
    for name, arrow in base.non_identities.items():
        mapping: dict[str, str] = {}
        for x, tagged in inj_left[arrow.dom].items():
            mapping[tagged] = inj_left[arrow.cod][left.action[name][x]]
        for x, tagged in inj_right[arrow.dom].items():
            mapping[tagged] = inj_right[arrow.cod][right.action[name][x]]
        action[name] = mapping
    return SetPresentation(base, carrier, action), inj_left, inj_right


def witness_sum(
    label: str,
    left: SetPresentation,
    kind: str,
    limits: Sequence[tuple[str, str, Sequence[tuple[str, ...]]]],
    tags: tuple[str, str],
    cap: int,
) -> tuple[SetPresentation, dict[str, dict[str, str]], dict[tuple[str, str], list[str]]]:
    """The sum of ``left`` and the witness summand over ``limits``, with its injection and rows.

    ``limits`` lists (c, peak_c, L_c), and the summand is the sum over
    cones c of hom(peak_c, -) x L_c.  The sum's size at d, |left(d)| plus,
    per cone c, |hom(peak_c, d)| x |L_c|, is checked first: the first
    object over ``cap`` raises :class:`BudgetExceeded` with
    ``"{label} object {d!r} has {size} elements (cap {cap})"`` before
    anything is built.

    With ``tags = (ltag, tag)``, x of ``left`` is ``ltag:x``, as
    :func:`disjoint_sum` names it.  The witness (c, t, w) with w the k-th
    tuple of L_c is ``tag:`` + :func:`witness_id` of (c, t, k), built once,
    and an arrow a sends it to (c, a . t, w).  The row of (c, t) lists
    those names for k = 0, 1, ... in order, so position k of every row of
    c lies over the k-th tuple of L_c, and an action maps the row of (c, t)
    onto the row of (c, a . t): rows, carriers and action values share one
    string per element.  Each non-identity arrow's action lists the
    witnesses before ``left``'s elements; readers go by sorted carriers.
    """
    base = left.base
    counts = [(peak, len(tuples)) for _, peak, tuples in limits]
    for d in base.objects:
        size = len(left.carrier[d]) + sum(len(base.hom(peak, d)) * n for peak, n in counts)
        if size > cap:
            raise BudgetExceeded(f"{label} object {d!r} has {size} elements (cap {cap})")
    ltag, tag = tags
    inj = {d: {x: f"{ltag}:{x}" for x in left.carrier[d]} for d in base.objects}
    carrier = {d: list(inj[d].values()) for d in base.objects}
    rows: dict[tuple[str, str], list[str]] = {}
    for cone, peak, tuples in limits:
        positions = _positions(len(tuples))
        for d in base.objects:
            for t in base.hom(peak, d):
                head = f"{tag}:" + witness_head(kind, cone, t)
                row = rows[cone, t] = [head + pos for pos in positions]
                carrier[d] += row
    action: dict[str, dict[str, str]] = {}
    for name, arrow in base.non_identities.items():
        mapping = action[name] = {}
        for (cone, t), row in rows.items():
            if base.arrows[t].cod == arrow.dom:
                mapping.update(zip(row, rows[cone, base.compose(name, t)]))
        dom, cod, act = inj[arrow.dom], inj[arrow.cod], left.action[name]
        mapping.update(zip(map(dom.__getitem__, act), map(cod.__getitem__, act.values())))
    sorted_carrier = {d: tuple(sorted(xs)) for d, xs in carrier.items()}
    return SetPresentation(base, sorted_carrier, action), inj, rows


# -- JSON interchange --------------------------------------------------------

# ``category``, when present, is a builder name or an inline category.
PRESENTATION_SCHEMA = {"carrier": {"*": [str]}, "action": {"*": {"*": str}}}


def presentation_to_json_dict(pres: SetPresentation, category: str | dict | None = None) -> dict:
    cat: str | dict = category if category is not None else category_to_json_dict(pres.base)
    return {
        "category": cat,
        "carrier": pres.carrier,
        "action": {a: pres.action[a] for a in pres.base.non_identities},
    }


def presentation_from_json_dict(
    data: dict,
    base: FinCategory | None = None,
    resolve_category=None,
) -> SetPresentation:
    """Parse a presentation document.

    ``category`` may be an inline category object or a name resolved by
    ``resolve_category``; when ``base`` is supplied the document must
    describe a presentation over that same category.
    """
    schema = PRESENTATION_SCHEMA
    if isinstance(data, dict) and "category" in data:
        named = isinstance(data["category"], str)
        schema = {**schema, "category": str if named else CATEGORY_SCHEMA}
    check_document(data, schema)
    cat = base
    if "category" in data:
        if named:
            if resolve_category is None:
                raise InputError(f"cannot resolve category name {data['category']!r}")
            cat = resolve_category(data["category"])
            if cat is None:
                raise InputError(f"unknown category name {data['category']!r}")
        else:
            cat = category_from_json_dict(data["category"])
        if base is not None and cat != base:
            raise InputError("presentation category differs from the sketch category")
    if cat is None:
        raise InputError("presentation document has no category and none was supplied")
    carrier = data["carrier"]
    action = data["action"]
    for obj, elements in carrier.items():
        if obj not in cat.objects:
            raise InputError(f"carrier names unknown object {obj!r}")
        ordered = sorted(elements)
        for x, x2 in zip(ordered, ordered[1:]):
            if x == x2:
                raise InputError(f"duplicate element {x!r} in carrier of {obj!r}")
    for arrow in action:
        if arrow not in cat.arrows:
            raise InputError(f"action names unknown arrow {arrow!r}")
    pres = make_presentation(cat, carrier, action)
    report = validate_presentation(pres)
    if not report.ok:
        raise InputError(f"invalid presentation: {report.violations[0]}")
    return pres


def presentation_dumps(pres: SetPresentation) -> str:
    return report_text(presentation_to_json_dict(pres))


def presentation_loads(text: str, base: FinCategory | None = None, resolve_category=None) -> SetPresentation:
    data = read_json(text, "presentation")
    return presentation_from_json_dict(data, base=base, resolve_category=resolve_category)
