"""
Cross-checking against the classical completion
===============================================

The classical route completes a presentation through a quotiented sum,
one formal pair per cone, arrow out of its peak and limit tuple, then
iterates.  This script runs both constructions on
one input, aligns them stage by stage, and certifies that the two
reflections are isomorphic via mutually inverse factorisations.
"""

from limsketch import make_presentation, sketch_iso_forcing
from limsketch.compare import build_alpha, reflector_iso_check
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim
from limsketch.kelly import kelly_P, reflect_kelly

sketch = sketch_iso_forcing()
X = make_presentation(
    sketch.base, {"a": ["x1", "x2"], "b": ["y"]}, {"t": {"x1": "y", "x2": "y"}}
)

# One completion step: the quotiented sum collapses both points of a.
step = kelly_P(X, sketch)
print("one-step completion sizes:", step.obj.size())
print("formal pairs per arrow:", {arrow: len(row) for (_, arrow), row in step.rows.items()})
# R0 and R1 are generated at identities; the quotient pushes them along every arrow.
print("glue pairs generated: r0 =", step.r_counts()[0], " r1 =", step.r_counts()[1])

kelly_trace = reflect_kelly(X, sketch, budget=4)
print("classical route converged at n =", kelly_trace.converged_at,
      "core:", kelly_trace.core.size())

# Stage-by-stage comparison against the faithful staged construction.
faithful = reflect_elim(X, sketch, budget=3, mode=FAITHFUL)
depth = len(faithful.stages) - 1
aligned = reflect_kelly(X, sketch, budget=depth, stop_on_convergence=False)
# build_alpha refuses a stage whose commutation square fails, so every
# stage it returns commutes; the naturality squares are checked after.
alpha = build_alpha(faithful, aligned, sketch)
print("\ncomparison stages:", [s.index for s in alpha.stages])
for stage in alpha.stages:
    print(f"  stage {stage.index}: naturality={stage.naturality_ok}")

# Both converged cores receive a map from X; factoring each reflection
# through the other yields mutually inverse arrows.
pruned = reflect_elim(X, sketch, budget=8, mode=PRUNED)
verdict = reflector_iso_check(pruned, kelly_trace, sketch)
print("\nreflector isomorphism verified:", verdict.ok)
print("forward component at a:", verdict.forward.components["a"])
print("backward component at a:", verdict.backward.components["a"])
