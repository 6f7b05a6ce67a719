"""The built-in fourth-order wave example (two fields on 1+1 spacetime).

With the Minkowski metric g = diag(1, -1) on both the base (t, x) and the
fibre, the Lagrangian

    L = g_ab g^ij g^kl z^a_ij z^b_kl

has Euler-Lagrange operator 2 g_ab (d^4/dt^4 - 2 d^4/dt^2 dx^2 + d^4/dx^4),
i.e. the square of the d'Alembertian per field.  ``wave_problem()`` is the
example's :class:`~jetforms.dedonder.Derivation` plus its symmetry fields:
the time and space translations and the Lorentz boost.  The same problem
ships as a DSL fixture in ``fixtures/fourth_order_wave.jet``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dedonder import Derivation, derive
from .expressions import Expr, z_var
from .jets import JetConfig
from .prolongations import ProjectableField

MINKOWSKI = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))


def wave_lagrangian(cfg: JetConfig) -> Expr:
    """g_ab g^ij g^kl z^a_ij z^b_kl with full (symmetric) index sums and
    g = MINKOWSKI on both the base and the fibre."""
    g = MINKOWSKI

    def trace(a: int) -> Expr:
        return Expr.sum(
            z_var(a, (i, j)) * g[i - 1][j - 1]
            for i in range(1, cfg.m + 1)
            for j in range(1, cfg.m + 1)
            if g[i - 1][j - 1] != 0
        )

    return Expr.sum(
        trace(a) * trace(b) * g[a - 1][b - 1]
        for a in range(1, cfg.n + 1)
        for b in range(1, cfg.n + 1)
        if g[a - 1][b - 1] != 0
    )


@dataclass
class WaveProblem(Derivation):
    """The example's derived objects and its symmetry fields."""

    time_translation: ProjectableField
    space_translation: ProjectableField
    lorentz_boost: ProjectableField


def wave_problem() -> WaveProblem:
    cfg = JetConfig(m=2, n=2, k=2)
    zero = Expr.zero()
    one = Expr.one()
    x1 = Expr.variable(("x", 1))
    x2 = Expr.variable(("x", 2))
    return WaveProblem(
        **vars(derive(cfg, wave_lagrangian(cfg))),
        time_translation=ProjectableField(cfg, (one, zero), (zero, zero)),
        space_translation=ProjectableField(cfg, (zero, one), (zero, zero)),
        lorentz_boost=ProjectableField(cfg, (x2, x1), (zero, zero)),
    )
