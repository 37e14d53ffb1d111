"""kummerlab: verification toolkit for Kummer-type torus-quotient constructions.

Exact engines certify the group-action combinatorics (fixed circles,
singular census, simple-connectivity certificate), the Clifford-algebra
spin obstruction, invariant-form Betti numbers, and F-structure chart
data; numerical engines certify the curvature decay of the cutoff-glued
gravitational-instanton metric.
"""

from .clifford import CliffordMonomial, clifford_mul, lift_diagonal, spin_obstruction
from .curvature import (
    MetricChart,
    RadialProfile,
    calibration,
    christoffel,
    cohomo_curvature,
    decay_scan,
    eh_profile,
    glue_ricci_scan,
    glued_profile,
    mu_report,
    riemann,
)
from .forms import induced_action, invariant_forms, orbifold_betti, resolved_betti
from .fstructure import (
    ChartSpec,
    CovarianceRule,
    TorusActionSymbol,
    check_covariance,
    check_invariance,
    check_locally_free,
    verify_f_structure,
)
from .pipeline import run_all
from .specfile import ConstructionSpec, parse_construction
from .torus import (
    AffineIsometry,
    FixedComponent,
    GroupTable,
    SingularCensus,
    fixed_locus,
    generate_group,
    pi1_certificate,
    singular_census,
)

__version__ = "0.1.0"

__all__ = [
    "AffineIsometry",
    "ChartSpec",
    "CliffordMonomial",
    "ConstructionSpec",
    "CovarianceRule",
    "FixedComponent",
    "GroupTable",
    "MetricChart",
    "RadialProfile",
    "SingularCensus",
    "TorusActionSymbol",
    "calibration",
    "check_covariance",
    "check_invariance",
    "check_locally_free",
    "christoffel",
    "clifford_mul",
    "cohomo_curvature",
    "decay_scan",
    "eh_profile",
    "fixed_locus",
    "generate_group",
    "glue_ricci_scan",
    "glued_profile",
    "induced_action",
    "invariant_forms",
    "lift_diagonal",
    "mu_report",
    "orbifold_betti",
    "parse_construction",
    "pi1_certificate",
    "resolved_betti",
    "riemann",
    "run_all",
    "singular_census",
    "spin_obstruction",
    "verify_f_structure",
]
