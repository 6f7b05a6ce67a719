"""Independent check of lagrange_derivative with sympy's euler_equations.

The Lagrangian is rebuilt as a sympy expression in the derivatives of
functions y_a(x_1..x_m); sympy's variational derivative shares no code with
jetforms, so agreement after expansion is an independent certificate.
"""
from __future__ import annotations


def _to_sympy(sympy, e, xs, ys):
    out = sympy.Integer(0)
    for mono, coeff in e.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for coord, power in mono:
            tag = coord[0]
            if tag == "z":
                factor = sympy.Derivative(ys[coord[1] - 1], *(xs[i - 1] for i in coord[2]))
            elif tag == "y":
                factor = ys[coord[1] - 1]
            elif tag == "x":
                factor = xs[coord[1] - 1]
            else:
                raise ValueError(f"unexpected coordinate {coord!r}")
            term = term * factor**power
        out += term
    return out


def problems(cfg, lagrangian, lagrange_derivatives):
    """Differences between jetforms' dL/dy^a and sympy's; [] when they agree.
    Without sympy the oracle cannot run, which is reported as a problem so
    that such a run does not read as checked."""
    try:
        import sympy
        from sympy.calculus.euler import euler_equations
    except ImportError:
        return ["sympy is not installed, so the euler_equations oracle did not run"]
    xs = sympy.symbols(f"x1:{cfg.m + 1}")
    ys = [sympy.Function(f"y{a}")(*xs) for a in range(1, cfg.n + 1)]
    equations = euler_equations(_to_sympy(sympy, lagrangian, xs, ys), ys, xs)
    out = []
    for a, (equation, ours) in enumerate(zip(equations, lagrange_derivatives), start=1):
        if sympy.expand(equation.lhs - _to_sympy(sympy, ours, xs, ys)) != 0:
            out.append(f"dL/dy[{a}] disagrees with sympy's euler_equations")
    return out
