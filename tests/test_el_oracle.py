"""Lagrange derivatives against sympy's euler_equations, and the d/dy entries
of the form-level reduced-contraction table of Phi + dXi against them.

The sympy side rebuilds each Lagrangian from its monomials as an expression
in the derivatives of functions y_a(x_1..x_m) and computes the variational
derivative with sympy alone, so agreement is an independent certificate.
"""
import random

import pytest

from jetforms.dedonder import derive, lagrange_derivative
from jetforms.expressions import Expr
from jetforms.forms import DifferentialForm, volume_form
from jetforms.jets import JetConfig, field_coord, jet_coord, multiindices
from tests.support import random_expr, reduced_vertical_contractions


def dense_lagrangian(cfg: JetConfig, rng) -> Expr:
    """A seeded coefficient on every product of two z^a_I, 1 <= |I| <= k."""
    coords = [
        jet_coord(a, I)
        for a in range(1, cfg.n + 1)
        for level in range(1, cfg.k + 1)
        for I in multiindices(cfg.m, level)
    ]
    return Expr.sum(
        Expr.monomial({u: 2} if u == v else {u: 1, v: 1}, rng.randint(1, 99))
        for pos, u in enumerate(coords)
        for v in coords[pos:]
    )


def lagrangians() -> list:
    rng = random.Random(20180)
    cases = [(JetConfig(2, 2, 2), dense_lagrangian(JetConfig(2, 2, 2), rng))]
    for shape in ((1, 1, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1), (2, 2, 2), (3, 1, 3)):
        cfg = JetConfig(*shape)
        for _ in range(2):
            cases.append((cfg, random_expr(rng, cfg, cfg.k, degree=3, terms=4)))
    return cases


CASES = lagrangians()


def to_sympy(sympy, e: Expr, xs, ys):
    out = sympy.Integer(0)
    for mono, coeff in e.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for coord, power in mono:
            if coord[0] == "x":
                factor = xs[coord[1] - 1]
            elif coord[0] == "y":
                factor = ys[coord[1] - 1]
            else:
                factor = sympy.Derivative(ys[coord[1] - 1], *(xs[i - 1] for i in coord[2]))
            term = term * factor**power
        out += term
    return out


IDS = [f"{c.m}{c.n}{c.k}-{i}" for i, (c, _) in enumerate(CASES)]


@pytest.mark.parametrize("cfg,L", CASES, ids=IDS)
def test_lagrange_derivative_matches_sympy_euler_equations(cfg, L):
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    xs = sympy.symbols(f"x1:{cfg.m + 1}")
    ys = [sympy.Function(f"y{a}")(*xs) for a in range(1, cfg.n + 1)]
    # sympy drops an equation that evaluates to True or False, as a constant
    # or null Lagrangian's does; a free c_a * y_a term keeps each one
    markers = sympy.symbols(f"c1:{cfg.n + 1}")
    marked = to_sympy(sympy, L, xs, ys) + sum(c * y for c, y in zip(markers, ys))
    equations = euler_equations(marked, ys, xs)
    ours = lagrange_derivative(cfg, L)
    assert len(equations) == len(ours) == cfg.n
    for equation, c, delta in zip(equations, markers, ours):
        assert sympy.expand(equation.lhs - c - to_sympy(sympy, delta, xs, ys)) == 0


@pytest.mark.parametrize("cfg,L", CASES, ids=IDS)
def test_reduced_table_carries_the_euler_lagrange_expressions(cfg, L):
    # the d/dz entries vanish (condition 3), the d/dy^a ones are dL/dy^a d_m x
    derivation = derive(cfg, L)
    xi = derivation.boundary_symmetric
    vol = volume_form(cfg)
    expected = {
        field_coord(a): DifferentialForm.from_scalar(delta).wedge(vol)
        for a, delta in enumerate(derivation.euler_lagrange(), start=1)
        if not delta.is_zero
    }
    assert reduced_vertical_contractions(xi.phi.form() + xi.form.d(), cfg) == expected
