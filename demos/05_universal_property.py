"""
The strict universal property, executed
=======================================

Every map from a presentation into a model factors uniquely through the
reflection.  The factorisation is constructed by provenance replay (base
classes inherit their members' image, free witnesses go through the
inverse of the model's gap map); uniqueness is certified independently
by enumerating every natural transformation out of the core.
"""

from limsketch import NatTransSpec, make_presentation, sketch_binary_product
from limsketch.elim import PRUNED, reflect_elim
from limsketch.universal import check_uniqueness, enumerate_nat_trans, solve_factorisation

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
print("gap-inverse steps used:", len(result.log))

# Uniqueness by enumeration: all natural transformations core -> M (a
# join over the elements of the core), filtered by commutation with the
# reflection map.
enum = enumerate_nat_trans(trace.core, M)
print("\nnatural transformations core -> M:", len(enum.transformations),
      "of", enum.search_space, "candidates")
verdict = check_uniqueness(trace, f, M, sketch)
print("uniqueness verdict:", verdict.status)

# A search space past the cap is refused, never guessed.
capped = check_uniqueness(trace, f, M, sketch, cap=10)
print("with a tiny cap:", capped.status, "(search space", capped.search_space, ")")
