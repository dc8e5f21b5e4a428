"""Two localisation families whose reflections are known in closed form.

- **Monoid actions with s inverted**, the discrete shadow of localising a
  ring at an element: the cyclic monoid s^(k+p) = s^k on one object, and
  one cone that makes s act bijectively.  For X the action of a self-map
  f, |L(X)| is the number of classes of X x Z/p under (f x, j) ~ (x, j + 1).
- **Iso chains**, the discrete shadow of prespectra -> Omega-spectra: the
  chain x0 -> ... -> xn with its composites, and a cone per i forcing
  x_i -> x_(i+1) bijective, so |L(X)_i| = |X_n|.

Every converged pruned ``elim`` and ``kelly`` run must match the closed
form, and rho must generate its core.  Budget refusals and exhausted
budgets are counted, not filtered out, and the convergence counts are
floors.  Where an engine does not converge within the default 8 stages,
a strict xfail names the case and the roadmap item that should mend it.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from limsketch.elim import PRUNED, reflect_elim
from limsketch.errors import BudgetExceeded
from limsketch.kelly import reflect_kelly
from limsketch.sketchlib import is_model
from limsketch.universal import generated

from tests.oracles import (
    iso_chain_sketch,
    monoid_action_presentation,
    monoid_action_reflection_size,
    monoid_action_sketch,
    random_monoid_action,
    random_valid_presentation,
)

ENGINES = {
    "pruned": lambda pres, sketch: reflect_elim(pres, sketch, mode=PRUNED),
    "kelly": lambda pres, sketch: reflect_kelly(pres, sketch),
}


def converged_sizes(pres, sketch, outcomes: Counter, label) -> dict[str, dict[str, int]]:
    """Per engine, the core size of each converged run; rho must generate that core."""
    sizes = {}
    for engine, reflect in ENGINES.items():
        try:
            trace = reflect(pres, sketch)
        except BudgetExceeded:
            outcomes[engine, "refused"] += 1
            continue
        if not trace.converged:
            outcomes[engine, "budget exhausted"] += 1
            continue
        outcomes[engine, "converged"] += 1
        closure = generated(trace.core, trace.rho, sketch)
        assert closure == {d: set(c) for d, c in trace.core.carrier.items()}, (label, engine)
        sizes[engine] = trace.core.size()
    return sizes


def test_monoid_actions_match_the_closed_form():
    rng = random.Random(1)
    outcomes: Counter = Counter()
    unconverged_indices = set()
    for _ in range(300):
        k, p, n = rng.randint(0, 3), rng.randint(1, 4), rng.randint(1, 8)
        f = random_monoid_action(rng, k, p, n)
        if f is None:
            outcomes["no draw"] += 1
            continue
        sketch = monoid_action_sketch(k, p)
        pres = monoid_action_presentation(sketch, f)
        want = {"o": monoid_action_reflection_size(f, p)}
        sizes = converged_sizes(pres, sketch, outcomes, (k, p, f))
        assert all(size == want for size in sizes.values()), (k, p, f, sizes, want)
        if is_model(pres, sketch).is_model:
            # a model is its own reflection, in either engine
            assert set(sizes) == set(ENGINES) and want == pres.size(), (k, p, f)
            outcomes["model input"] += 1
        if "pruned" not in sizes:
            unconverged_indices.add(k)
    valid = 300 - outcomes["no draw"]
    for engine in ENGINES:
        runs = ("refused", "budget exhausted", "converged")
        assert sum(outcomes[engine, r] for r in runs) == valid, outcomes
    assert valid >= 250, outcomes
    assert outcomes["pruned", "converged"] >= 250, outcomes
    assert outcomes["kelly", "converged"] >= 90 and outcomes["model input"] >= 90, outcomes
    # index k = 3 is where pruned elim still cycles
    assert unconverged_indices <= {3}, unconverged_indices


@pytest.mark.xfail(
    strict=True,
    reason="pruned elim merges one level of the chain per stage while each free witness "
    "brings a fresh chain; ROADMAP item 1 (saturate rule (1) within a stage) should mend it",
)
def test_pruned_elim_converges_on_the_index_three_chain():
    # a -> b -> c -> d with d fixed, under s^4 = s^3: L(X) is one point
    sketch = monoid_action_sketch(3, 1)
    f = [1, 2, 3, 3]
    trace = reflect_elim(monoid_action_presentation(sketch, f), sketch, budget=8, mode=PRUNED)
    assert trace.converged
    assert trace.core.size() == {"o": monoid_action_reflection_size(f, 1)} == {"o": 1}


def iso_chain_runs(n: int) -> Counter:
    """Eight draws over the chain of length n, each checked against |L(X)_i| = |X_n|."""
    sketch, rng, outcomes = iso_chain_sketch(n), random.Random(3), Counter()
    for _ in range(8):
        pres = random_valid_presentation(rng, sketch.base, max_size=3)
        want = dict.fromkeys(sketch.base.objects, len(pres.carrier[f"x{n}"]))
        sizes = converged_sizes(pres, sketch, outcomes, (n, pres))
        assert all(size == want for size in sizes.values()), (n, pres, sizes, want)
    return outcomes


@pytest.mark.parametrize("n", [2, 4, 6])
def test_iso_chains_converge_to_the_closed_form(n):
    outcomes = iso_chain_runs(n)
    assert outcomes == {("pruned", "converged"): 8, ("kelly", "converged"): 8}, outcomes


def test_kelly_converges_on_every_iso_chain_of_length_eight():
    assert iso_chain_runs(8)["kelly", "converged"] == 8


@pytest.mark.xfail(
    strict=True,
    reason="a witness at x_i exists only one stage after the witness at x_(i+1) that it "
    "lifts, so pruned elim needs about n + 1 stages; ROADMAP item 4 (glue and lift "
    "within a stage) should mend it",
)
def test_pruned_elim_converges_on_every_iso_chain_of_length_eight():
    assert iso_chain_runs(8)["pruned", "converged"] == 8
