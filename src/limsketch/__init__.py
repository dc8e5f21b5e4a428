"""Finite limit sketches and the reflection of presentations into models.

The package computes the reflection of a set-valued presentation along
two independent routes (a staged construction that keeps fresh free
material quotient-free, and the classical iterated completion), compares
them stage by stage, and verifies the strict universal property of the
result by explicit factorisation plus a uniqueness certificate: the
reflection map generates the core, so two maps into a model that agree
on it agree everywhere.
"""

from .compare import AlphaTrace, build_alpha, reflector_iso_check, unit_iso_check
from .elim import (
    FAITHFUL,
    PRUNED,
    ReflectionTrace,
    Stage,
    e_step,
    elim_stage,
    reflect_elim,
    relation_one,
    relation_two,
)
from .errors import BudgetExceeded, EngineError, InputError, PreconditionError
from .fincat import (
    Arrow,
    CatFunctor,
    FinCategory,
    ValidationReport,
    validate_category,
    validate_functor,
)
from .kelly import CompletionStep, KellyTrace, kelly_P, reflect_kelly
from .setops import (
    NatTransSpec,
    QuotientMap,
    SetPresentation,
    disjoint_sum,
    functorial_quotient,
    limit_of_diagram,
    make_presentation,
    terminal_presentation,
)
from .sketchlib import (
    Cone,
    LimitSketch,
    ModelReport,
    build_sketch,
    cone_limit,
    gap_map,
    is_model,
    sketch_binary_product,
    sketch_equalizer,
    sketch_iso_forcing,
    sketch_two_cover_sheaf,
    validate_cone,
)
from .universal import (
    check_uniqueness,
    enumerate_nat_trans,
    generated,
    solve_factorisation,
)

__version__ = "0.1.0"
