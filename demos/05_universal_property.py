"""
The strict universal property, executed
=======================================

Every map from a presentation into a model factors uniquely through the
reflection.  A reflection is known by its unit rho: X -> LX, whose
target is the core, and everything below reads rho alone, never a
trace.  One fixpoint shows both: rho generates the core, so closing its
image under the arrows and the gap rule reaches every element, and the
map is forced on each element as it is reached (through f on the image,
the model's action along an arrow, the inverse of the model's gap map at
a peak).  That constructs the factorisation, and it certifies
uniqueness: two maps into a model that agree on rho agree everywhere.  A
unit that does not generate its core is an engine fault; enumerating
every natural transformation out of such a core shows why: more than one
map commutes.
"""

from limsketch import EngineError, NatTransSpec, make_presentation, sketch_binary_product
from limsketch.elim import PRUNED, reflect_elim
from limsketch.setops import compose_nat
from limsketch.universal import (
    PEAK,
    check_uniqueness,
    enumerate_nat_trans,
    generated,
    reached,
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

# solve_factorisation returns g only once g . rho = f holds; check it again here
g = solve_factorisation(trace.rho, f, M, sketch)
print("\nfactorisation commutes:", compose_nat(g, trace.rho).components == f.components)
print("g at p:")
for witness, value in sorted(g.components["p"].items()):
    print("  ", witness, "->", value)
# g takes M's gap inverse at each peak element that the closure reaches as a peak
peaks = sum(how == PEAK for _, _, how, _ in reached(trace.core, trace.rho, sketch))
print("peaks reached through the gap inverse:", peaks)

# Uniqueness by generation: closing rho's image under the arrows and the
# gap rule (a pair whose projections are reached is reached) gives the
# whole core, so no search is needed.  The factorisation already walked
# that closure, so g is the unique one; check_uniqueness only sizes the
# search space the certificate stands in for.
closure = generated(trace.core, trace.rho, sketch)
print("\nrho generates the core:",
      all(len(closure[d]) == len(trace.core.carrier[d]) for d in sketch.base.objects))
print("g is unique among", check_uniqueness(g), "candidate maps")

# The enumeration agrees: all natural transformations core -> M (a join
# over the elements of the core), of which one commutes with rho.
enum = enumerate_nat_trans(trace.core, M)
print("natural transformations core -> M:", len(enum.transformations),
      "of", enum.search_space, "candidates")

# A unit into a core it does not generate, here with a third point w that
# nothing in X reaches, is refused as an engine fault: no reflection builds one.
points = ["u", "v", "w"]
grid = [x + y for x in points for y in points]
bigger = make_presentation(
    sketch.base,
    {"a": points, "p": grid},
    {"pi1": {q: q[0] for q in grid}, "pi2": {q: q[1] for q in grid}},
)
hand = NatTransSpec(X, bigger, {"a": {"u": "u", "v": "v"}, "p": {}})
print("\nrho generates the hand-made core:",
      {d: len(c) for d, c in generated(bigger, hand, sketch).items()}, "of", bigger.size())
try:
    solve_factorisation(hand, f, M, sketch)
except EngineError as exc:
    print("factorisation through the hand-made core:", exc)

# The enumeration shows what the certificate guards against: on this core
# two maps commute with rho, one for each place w may go.
every = enumerate_nat_trans(bigger, M, cap=2**3 * 4**9)
commuting = [h for h in every.transformations
             if compose_nat(h, hand).components == f.components]
print("commuting maps out of", every.search_space, "candidates:", len(commuting),
      "- w may go to", [h.components["a"]["w"] for h in commuting])
