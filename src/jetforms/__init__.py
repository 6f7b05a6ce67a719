"""Boundary forms and De Donder forms for higher-order variational problems.

The package builds, for a polynomial Lagrangian of jet order k on a trivial
fibration with m independent and n dependent variables:

* the symmetric boundary-form coefficients and the assembled boundary form,
* the De Donder form and its equivalence with the Euler-Lagrange equations,
* prolongations of projectable vector fields and Noether currents,
* numeric cross-checks in :mod:`jetforms.numeric`: a spectral solver for
  the fourth-order wave example with its slice energy, and a flow oracle
  for prolongations.

Everything symbolic is exact (rational arithmetic, canonical polynomial
forms); numeric routines exist to corroborate the symbolic results, never to
replace them.  ``import jetforms`` loads neither numpy nor scipy; they load
with ``jetforms.numeric``.

The library holds what the commands, demos and benchmarks call.  References
that only tests use (the Cartan-formula Lie derivative, the contact-ideal
check, the problem renderer, random polynomials, generic sections,
substitution by an arbitrary map, quadrature, sampled sections, the
force-decomposition integrals and the functional-derivative oracle) live
with the tests.
"""
from .jets import (
    JetConfig,
    base_coord,
    enumerate_coordinates,
    field_coord,
    jet_coord,
    multiindices,
    splittings,
)
from .expressions import (
    Expr,
    PolynomialSection,
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
    holonomic_pullback,
    holonomic_reduce,
    interior_product,
    is_semibasic,
    render_form,
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
    default_skew_perturbation,
    dedonder_form,
    dedonder_residual,
    derive,
    double_vertical_contraction_vanishes,
    lagrange_derivative,
    perturbed_coefficients,
    phi_from_lagrangian,
    symmetric_boundary_coefficients,
    verify_condition3,
)
from .prolongations import (
    ProjectableField,
    is_symmetry,
    noether_current,
    prolong,
)
from .problem import GridSpec, ProblemSpec, ProblemSyntaxError, parse_problem

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
