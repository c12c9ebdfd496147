"""Exact-arithmetic computations with polynomial poly-vector fields on R^n:
wedge products, Schouten brackets, volume duality, the trace differential,
the trace-free decomposition, Poisson and Jacobi structures, and the
low-dimension classification catalogs."""

__version__ = "0.1.0"

from .errors import (
    DegenerateNormalizerError,
    DegreeLimitError,
    DimensionError,
    DomainError,
    ExceptionalDegreeError,
    HomogeneityError,
    IncompatibleSplittingError,
    ParityError,
    ParseError,
    PolyvecError,
    PreconditionError,
    SingularMatrixError,
)
from .fields import (
    BiDegree,
    LinearMatrix,
    PolyVectorField,
    euler,
    from_skew_components,
    homogeneous_components,
    linear_vector_field,
    pushforward,
    radial_field,
    schouten,
    skew_component,
    wedge,
)
from .duality import (
    PolyDifferentialForm,
    VolumeConvention,
    dim_irrep,
    exterior_derivative,
    from_form,
    interior_product,
    lie_derivative_form,
    to_form,
    trace_d,
    wedge_forms,
)
from .decomposition import DecompositionResult, bracket_parts, decompose, self_bracket_parts
from .structures import (
    JacobiPair,
    RMatrix,
    are_associated,
    exceptional_pair_check,
    generic_rank,
    is_jacobi,
    is_poisson,
    is_simple,
    jacobi_from_poisson,
    poisson_component_test,
    poisson_from_jacobi,
    r_matrix_to_bivector,
)
from .classifier import (
    ClassificationCase,
    QuadraticConstraintSet,
    SolutionSpace,
    build_quadratic_poisson,
    centralizer_kernel,
    compatible_cubic_oneforms,
    cubic3_catalog,
    matrix_action_field,
    monomial_exponents,
    quad4_catalog,
    quartic_constraints,
    same_span,
    tracefree_projection,
)
from .cli import ExpressionAST, format_expr, parse_expr, parse_field, run

__all__ = [name for name in dir() if not name.startswith("_")]
