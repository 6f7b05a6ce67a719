"""Boundary forms for a second-order Lagrangian, step by step.

Starting from L(x, y, z) of jet order two, this script builds the exterior
derivative of the Lagrangian density, reads off its components, solves for
the fully symmetric boundary-form coefficients, and checks the defining
conditions.  It then perturbs the top-level coefficients by skew data and
shows that the difference leaves every observable unchanged.
"""
from jetforms import (
    JetConfig,
    assemble_boundary_form,
    compare_boundary_forms,
    phi_from_lagrangian,
    perturbed_coefficients,
    render_expr,
    render_form,
    symmetric_boundary_coefficients,
    verify_condition3,
    y_var,
    z_var,
)

# One dependent variable on a 2-dimensional base, order k = 2.
cfg = JetConfig(m=2, n=1, k=2)

# An inhomogeneous fourth-order model: a biharmonic-style quadratic term
# plus a lower-order coupling.
L = z_var(1, (1, 1)) ** 2 + z_var(1, (2, 2)) ** 2 + y_var(1) * z_var(1, (1, 2))
print("Lagrangian:")
print("  L =", render_expr(L))

# d(L d_2x) and its components Phi_a = dL/dy^a, Phi^I_a = dL/dz^a_I.
phi, dec = phi_from_lagrangian(cfg, L)
print("\nComponents of dLambda:")
print("  Phi_1      =", render_expr(dec.component(1)))
for I in ((1, 1), (1, 2), (2, 2)):
    print(f"  Phi^{I}_1 =", render_expr(dec.component(1, I)))

# The generalized De Donder construction: distribute each component over the
# distinct (first index, tail) splittings, then fold in divergences of the
# level above.
coeffs = symmetric_boundary_coefficients(dec)
print("\nSymmetric boundary coefficients p[a; i1 tail]:")
for (a, i1, tail), value in sorted(coeffs.table.items()):
    indices = " ".join(map(str, (i1,) + tail))
    print(f"  p[{a}; {indices}] = {render_expr(value)}")

xi = assemble_boundary_form(coeffs, dec)
print("\nAssembled boundary form:")
print("  Xi =", render_form(xi.form))

# Assembly checked the splitting system and two structural conditions (Xi
# also pulls back to zero by construction, which `jetforms verify` reduces
# and reports); the substantive condition is that the pullbacks of
# X -| (Phi + dXi) vanish for every vector field along the fibres of the
# target map.
report = verify_condition3(dec, xi)
print("\nAll target-vertical pullbacks vanish:", report.ok)

# Any other boundary form of the same Phi differs by skew data whose
# splitting sums vanish: here Q^{12}_1 = -Q^{21}_1 = y, each keyed
# (a, i1, T) as the top-level coefficient p^{i1,T}_1 it shifts.  The
# decomposition into body and boundary terms cannot see the difference.
delta = {(1, 1, (2,)): y_var(1), (1, 2, (1,)): -y_var(1)}
xi_alt = assemble_boundary_form(perturbed_coefficients(dec, delta), dec)
comparison = compare_boundary_forms(xi, xi_alt)
print("\nSkew-perturbed form: all invariance checks pass:", comparison.ok)
print("Divergence trace of the difference (must be 0):")
for a, residual in comparison.divergence_residuals.items():
    print(f"  sum_i D_i Q^i_{a} =", render_expr(residual))
