"""Prolongations, symmetry tests, and Noether currents.

Vector fields on the total space lift to jet spaces so that their flows
commute with jet extension; the lift of a Lagrangian symmetry contracts the
De Donder form into a current that is closed on solutions.
"""
from fractions import Fraction

from jetforms import (
    Expr,
    PolynomialSection,
    ProjectableField,
    is_symmetry,
    noether_current,
    prolong,
    render_expr,
    render_form,
    x_var,
    y_var,
)
from jetforms.jets import JetConfig
from jetforms.numeric import flow_oracle
from jetforms.wave import wave_problem

# A scaling field on a single-field line: Y = x d/dx + 2y d/dy.
cfg = JetConfig(m=1, n=1, k=2)
Y = ProjectableField(cfg, (x_var(1),), (2 * y_var(1),))
lifted = prolong(Y, 3)
print("Prolongation of x d/dx + 2y d/dy to order 3:")
for coord, comp in sorted(lifted.items()):
    print(f"  {render_expr(Expr.variable(coord))}-component:", render_expr(comp))

# The flow oracle: transport a section along the flow, difference in t.
sigma = PolynomialSection(cfg, (x_var(1) ** 3 + x_var(1),))
numeric = flow_oracle(Y, 3, sigma, (Fraction(1, 2),))
values = sigma.jet_values((Fraction(1, 2),), 3)
print("\nFlow-oracle agreement along sigma = x^3 + x at x0 = 1/2:")
for coord in sorted(numeric):
    exact = float(lifted.get(coord, Expr.zero()).evaluate(values))
    print(
        f"  {render_expr(Expr.variable(coord))}: "
        f"prolong {exact:+.6f}  flow {numeric[coord]:+.6f}"
    )

# The wave example has time/space translations and the Lorentz boost as
# symmetries; explicit time dependence would break the first one.
wp = wave_problem()
for name, field in (
    ("time translation", wp.time_translation),
    ("space translation", wp.space_translation),
    ("Lorentz boost", wp.lorentz_boost),
):
    flag, _ = is_symmetry(field, wp.lagrangian)
    print(f"\n{name} is a symmetry:", flag)

# A polynomial solution with nonzero d'Alembertian: box y = 6 t x for the
# first field, so the time-translation current is nontrivial yet closed.
x1, x2 = x_var(1), x_var(2)
solution = PolynomialSection(wp.cfg, (x1**3 * x2, x1**3 + x2**3))
current = noether_current(wp.time_translation, wp.theta_symmetric, solution)
print("\nEnergy current on a solution:")
print("  J =", render_form(current))
print("  dJ =", render_form(current.d()))

off_shell = PolynomialSection(wp.cfg, (x1**2 * x2**2, Expr.zero()))
leak = noether_current(wp.time_translation, wp.theta_symmetric, off_shell).d()
print("\nOff-shell the conservation fails:")
print("  dJ =", render_form(leak))
