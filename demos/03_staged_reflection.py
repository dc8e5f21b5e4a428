"""
The staged reflection, stage by stage
=====================================

The reflector of a presentation is computed as a chain of stages
S_i = B_i + E_i: the free part E holds freshly added limit witnesses and
stays quotient-free; the projection onto the next base merges only
previously added material, under two identification rules.  Convergence
is detected on a stable model core.
"""

from limsketch import is_model, make_presentation, sketch_binary_product
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim

sketch = sketch_binary_product()

# No witnesses at the peak: the reflection has to invent them.
X = make_presentation(sketch.base, {"a": ["u", "v"], "p": []}, {"pi1": {}, "pi2": {}})
print("input sizes:", X.size(), "model:", is_model(X, sketch).is_model)

trace = reflect_elim(X, sketch, budget=8, mode=PRUNED)
print("\npruned run:", trace.verdict, "at stage", trace.converged_at)
for stage in trace.stages:
    r1, r2 = stage.pair_counts()
    free = {o: len(stage.free_part(o)) for o in sketch.base.objects}
    base = stage.quotient.target.size()
    print(f"  stage {stage.index}: base {base} free {free} rule1={r1} rule2={r2}")
print("core sizes:", trace.core.size())
print("core is a model:", is_model(trace.core, sketch).is_model)

# Each element of the converged core remembers where it came from.
print("\nreflection map on a:", trace.rho.components["a"])
witnesses = trace.core.carrier["p"]
print("freely added witnesses at p:")
for witness in witnesses:
    print("  ", witness)

# Faithful mode re-adds the full free summand each stage; the transient
# population grows fast, which is why pruned is the practical default.
faithful = reflect_elim(X, sketch, budget=3, mode=FAITHFUL)
print("\nfaithful run (3 stages), total sizes per stage:")
for stage in faithful.stages:
    print(f"  stage {stage.index}: {stage.total.size()}")

# Reflecting an already-converged core is a no-op at stage 0.
again = reflect_elim(trace.core, sketch, budget=2)
print("\nreflecting the core again converges at stage", again.converged_at)
