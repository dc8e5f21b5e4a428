"""
The strict universal property, executed
=======================================

Every map from a presentation into a model factors uniquely through the
reflection.  One fixpoint shows both: the reflection map generates the
core, so closing its image under the arrows and the gap rule reaches
every element, and the map is forced on each element as it is reached
(through f on the image, the model's action along an arrow, the inverse
of the model's gap map at a peak).  That constructs the factorisation,
and it certifies uniqueness: two maps into a model that agree on the
reflection map agree everywhere.  A core it does not generate is an
engine fault; enumerating every natural transformation out of such a
core shows why: more than one map commutes.
"""

from types import SimpleNamespace

from limsketch import EngineError, NatTransSpec, make_presentation, sketch_binary_product
from limsketch.elim import PRUNED, reflect_elim
from limsketch.setops import compose_nat
from limsketch.universal import (
    check_uniqueness,
    enumerate_nat_trans,
    generated,
    solve_factorisation,
)

sketch = sketch_binary_product()
X = make_presentation(sketch.base, {"a": ["u", "v"], "p": []}, {"pi1": {}, "pi2": {}})
trace = reflect_elim(X, sketch, budget=8, mode=PRUNED)
print("reflection core:", trace.core.size())

# The target model: the honest square of {u, v}.
pairs = ["uu", "uv", "vu", "vv"]
M = make_presentation(
    sketch.base,
    {"a": ["u", "v"], "p": pairs},
    {"pi1": {p: p[0] for p in pairs}, "pi2": {p: p[1] for p in pairs}},
)
f = NatTransSpec(X, M, {"a": {"u": "u", "v": "v"}, "p": {}})
print("map into the model is natural:", f.validate().ok)

result = solve_factorisation(trace, f, M, sketch)
print("\nfactorisation commutes:", result.commutes)
print("g at p:")
for witness, value in sorted(result.g.components["p"].items()):
    print("  ", witness, "->", value)
print("peaks reached through the gap inverse:", len(result.log))

# Uniqueness by generation: closing rho's image under the arrows and the
# gap rule (a pair whose projections are reached is reached) gives the
# whole core, so no search is needed.  The factorisation already walked
# that closure, so the certificate is read off it.
closure = generated(trace.core, trace.rho, sketch)
print("\nrho generates the core:",
      all(len(closure[d]) == len(trace.core.carrier[d]) for d in sketch.base.objects))
verdict = check_uniqueness(trace, result, sketch)
print("uniqueness verdict:", verdict.status, "(search space", verdict.search_space, ")")

# The enumeration agrees: all natural transformations core -> M (a join
# over the elements of the core), of which one commutes with rho.
enum = enumerate_nat_trans(trace.core, M)
print("natural transformations core -> M:", len(enum.transformations),
      "of", enum.search_space, "candidates")

# A core that rho does not generate, here with a third point w that nothing
# in X reaches, is refused as an engine fault: no reflection builds one.
points = ["u", "v", "w"]
grid = [x + y for x in points for y in points]
bigger = make_presentation(
    sketch.base,
    {"a": points, "p": grid},
    {"pi1": {q: q[0] for q in grid}, "pi2": {q: q[1] for q in grid}},
)
hand = SimpleNamespace(
    converged=True, core=bigger, rho=NatTransSpec(X, bigger, {"a": {"u": "u", "v": "v"}, "p": {}})
)
print("\nrho generates the hand-made core:",
      {d: len(c) for d, c in generated(bigger, hand.rho, sketch).items()}, "of", bigger.size())
try:
    solve_factorisation(hand, f, M, sketch)
except EngineError as exc:
    print("factorisation through the hand-made core:", exc)

# The enumeration shows what the certificate guards against: on this core
# two maps commute with rho, one for each place w may go.
every = enumerate_nat_trans(bigger, M, cap=2**3 * 4**9)
commuting = [g for g in every.transformations
             if compose_nat(g, hand.rho).components == f.components]
print("commuting maps out of", every.search_space, "candidates:", len(commuting),
      "- w may go to", [g.components["a"]["w"] for g in commuting])
