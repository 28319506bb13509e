"""Exact couplings on Z^n and discrete Brunn-Minkowski verifiers.

The library constructs monotone (quantile) and Knothe couplings between
finitely supported probability measures on Z^n, entirely in exact
rational arithmetic, and verifies the weighted discrete Brunn-Minkowski
inequality, its set form, the pointwise and aggregated transport bounds,
the entropy-convexity inequality, and the log-Laplace variational
identity, for any translation-equivariant, blockwise Knothe-monotone
pair of complementing lattice operations.
"""

from .coupling import (
    Coupling,
    check_fiber_structure,
    check_support_monotone,
    fibers,
    iter_conditional_couplings,
    knothe_coupling,
    monotone_coupling,
    product_coupling,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySupportError,
    FormatError,
    InvalidWeightError,
    LatticeError,
    MarginalMismatch,
)
from .lattice import (
    AdditiveTotalOrder,
    Decomposition,
    Ordering,
    Point,
    as_point,
    box_points,
    point_add,
    point_sub,
    singleton_decomposition,
    standard_order,
)
from .measures import FiniteMeasure, ProbabilityMeasure
from .operations import (
    ExponentQuadruple,
    LatticeOperation,
    block_section,
    check_complement,
    check_operation,
    check_p1,
    check_p2,
    from_difference_map,
    meet_join,
    midpoint,
    product,
)
from .report import INAPPLICABLE, VERIFIED, VIOLATED, VerificationReport
from .verify import (
    FunctionQuadruple,
    entropy_gap,
    log_laplace_gap,
    marginal_exactness,
    p_value,
    pointwise_term_bound,
    set_dbm,
    verify_conclusion,
    verify_dbm,
    verify_hypothesis,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveTotalOrder",
    "Coupling",
    "Decomposition",
    "DimensionMismatch",
    "DomainError",
    "EmptySupportError",
    "ExponentQuadruple",
    "FiniteMeasure",
    "FormatError",
    "FunctionQuadruple",
    "INAPPLICABLE",
    "InvalidWeightError",
    "LatticeError",
    "LatticeOperation",
    "MarginalMismatch",
    "Ordering",
    "Point",
    "ProbabilityMeasure",
    "VERIFIED",
    "VIOLATED",
    "VerificationReport",
    "as_point",
    "block_section",
    "box_points",
    "check_complement",
    "check_fiber_structure",
    "check_operation",
    "check_p1",
    "check_p2",
    "check_support_monotone",
    "entropy_gap",
    "fibers",
    "from_difference_map",
    "iter_conditional_couplings",
    "knothe_coupling",
    "log_laplace_gap",
    "marginal_exactness",
    "meet_join",
    "midpoint",
    "monotone_coupling",
    "p_value",
    "point_add",
    "point_sub",
    "pointwise_term_bound",
    "product",
    "product_coupling",
    "set_dbm",
    "singleton_decomposition",
    "standard_order",
    "verify_conclusion",
    "verify_dbm",
    "verify_hypothesis",
]
