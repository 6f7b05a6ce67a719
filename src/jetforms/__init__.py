"""Boundary forms and De Donder forms for higher-order variational problems.

The package builds, for a polynomial Lagrangian of jet order k on a trivial
fibration with m independent and n dependent variables:

* the symmetric boundary-form coefficients and the assembled boundary form,
* the De Donder form and its equivalence with the Euler-Lagrange equations,
* prolongations of projectable vector fields and Noether currents,
* numeric cross-checks: quadrature of pulled-back forms, a spectral solver
  for the fourth-order wave example, and finite-difference oracles.

Everything symbolic is exact (rational arithmetic, canonical polynomial
forms); numeric routines exist to corroborate the symbolic results, never to
replace them.
"""
from .jets import (
    JetConfig,
    base_coord,
    canonicalize,
    coordinate_count,
    enumerate_coordinates,
    field_coord,
    jet_coord,
    multiindices,
    splitting_count,
    splittings,
)
from .expressions import (
    Expr,
    PolynomialSection,
    coeff_symbol,
    generic_section,
    render_expr,
    substitute_section,
    total_derivative,
    x_var,
    y_var,
    z_var,
)
from .forms import (
    DifferentialForm,
    base_contraction,
    basis_vector,
    contact_form,
    contact_forms,
    dx,
    dy,
    dz,
    holonomic_pullback,
    holonomic_reduce,
    interior_product,
    is_semibasic,
    lie_derivative,
    render_form,
    vector_field,
    vertical_contractions,
    volume_form,
)
from .dedonder import (
    BoundaryCoefficients,
    BoundaryForm,
    DeDonderForm,
    Derivation,
    PhiDecomposition,
    assemble_boundary_form,
    compare_boundary_forms,
    decompose_phi,
    default_skew_perturbation,
    dedonder_form,
    dedonder_residual,
    derive,
    double_vertical_contraction_vanishes,
    lagrange_derivative,
    perturbed_coefficients,
    phi_from_lagrangian,
    skew_pair_perturbation,
    symmetric_boundary_coefficients,
    verify_condition3,
)
from .prolongations import (
    ProjectableField,
    flow_oracle,
    is_symmetry,
    noether_current,
    preserves_contact_ideal,
    prolong,
    reduced_current,
)
from .numeric import (
    CauchyState,
    EnergyFunctional,
    GridSpec,
    SampledSection,
    band_limited_state,
    cauchy_evolve,
    decomposition_terms,
    functional_derivative_oracle,
    integrate_action,
    numeric_jet,
    quadrature,
    sample_section,
)
from .problem import ProblemSpec, ProblemSyntaxError, parse_problem, render_problem

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
