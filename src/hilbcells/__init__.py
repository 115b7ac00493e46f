"""Combinatorial and symbolic invariants of equivariant punctual Hilbert schemes.

The library works with staircases (Young diagrams of monomial ideals in two
variables): tangent-space bases from significant cleft couples, explicit
flat chart families over positive tangent spaces, degenerations between
strata, minimal staircases of components, and exact Groebner machinery with
independent brute-force oracles cross-checking the derived quantities
at desk scale.
"""

from .errors import (
    BoundExceededError,
    ConsistencyError,
    DomainError,
    GenericityError,
    NonPolynomialError,
    NotZeroDimensionalError,
    RegimeError,
    ShapeError,
    StepLimitExceeded,
    UnrealizableError,
)
from .staircases import (
    Comparison,
    HilbertFunction,
    Monomial,
    Staircase,
    Weight,
    clefts,
    compare_staircases,
    compatible_staircases,
    construct_staircase,
    enumerate_staircases,
    hilbert_function,
    s_profile,
)
from .tangent import (
    CleftCouple,
    SignificanceGraph,
    TangentBasis,
    arm_leg_characters,
    cell_dimension,
    cleft_couples,
    hom_tangent_oracle,
    significance_graph,
    tangent_basis,
)
from .polynomials import (
    GRLEX_XY,
    LEX_XY,
    LEX_YX,
    BivariatePolynomial,
    ChartCoefficient,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    cell_order,
    colength,
    initial_staircase,
    is_groebner,
    parse_ideal,
    poly_from_expr,
    standard_monomials,
    weight_initial_ideal,
    weight_order,
)
from .charts import (
    ChartFamily,
    FlatnessCertificate,
    build_chart_family,
    default_sample_points,
    specialize_family,
    verify_flatness,
)
from .strata import (
    ComponentReport,
    DegenerationStep,
    StratumData,
    component_report,
    degenerate_once,
    descend_to_minimal,
    minimal_staircase,
    minimal_staircase_oracle,
    poincare_polynomial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
