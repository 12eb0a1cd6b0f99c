"""Exact symbolic computation for cluster algebras of geometric type.

Mutation of seeds, Laurent-phenomenon checks, Weil-Petersson 2-forms and
their chart reductions, local regularization at vanishing loci, and exact
tangent-space dimensions — all over Q(i), with no floating point.
"""

import types as _types

from clusterwp.catalog import CATALOG_KEYS, CatalogEntry, catalog
from clusterwp.exact import GaussianRational, format_gaussian, parse_gaussian, rank
from clusterwp.exprs import ExprError, parse_expression
from clusterwp.forms import (
    ChartForm,
    FormFileError,
    SymbolicForm,
    check_invariance,
    emit_form_file,
    form_degree,
    form_difference,
    forms_equal,
    parse_form_file,
    pullback,
    reduce_to_chart,
    wp_form,
)
from clusterwp.laurent import (
    DenominatorZero,
    Inhomogeneous,
    LaurentPoly,
    NotLaurent,
    RationalFn,
    VarTable,
)
from clusterwp.regularity import (
    AlgebraPoint,
    DeepWitnessReport,
    HypothesisViolated,
    NoForcedSuccessor,
    PointFileError,
    VanishingPattern,
    adjacent_vanishing_pair,
    constant_vanishing_oracle,
    deep_witness,
    find_regularizing_seed,
    parse_point_file,
    point_vanishing_oracle,
    propagate_point,
    regularize_at,
    tangent_dimension,
    trace_vanishing_cycle,
    vanishing_pattern,
    verify_point,
)
from clusterwp.seeds import (
    ExchangeMatrix,
    ExchangeRelation,
    Exploration,
    MutationArithmeticError,
    NotAcyclic,
    NotFoundWithinBudget,
    NotSkewSymmetrizable,
    Presentation,
    Seed,
    SeedFileError,
    acyclic_presentation,
    emit_seed_file,
    explore,
    find_acyclic_seed,
    find_directed_cycle,
    find_skew_symmetrizer,
    is_acyclic,
    mutate_matrix,
    parse_seed_file,
    prime_namer,
    prime_toggle,
)

# the public names are exactly the ones imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
