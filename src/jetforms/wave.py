"""The built-in fourth-order wave example (two fields on 1+1 spacetime).

With the Minkowski metric g = diag(1, -1) on both the base (t, x) and the
fibre, the Lagrangian

    L = g_ab g^ij g^kl z^a_ij z^b_kl

has Euler-Lagrange operator 2 g_ab (d^4/dt^4 - 2 d^4/dt^2 dx^2 + d^4/dx^4),
i.e. the square of the d'Alembertian per field.  The example is the DSL
fixture ``fixtures/fourth_order_wave.jet``; ``wave_problem()`` parses it and
returns its :class:`~jetforms.dedonder.Derivation` plus its symmetry fields
YT, YS and YL: the time and space translations and the Lorentz boost.
"""
from __future__ import annotations

import importlib.resources

from .dedonder import Derivation, derive
from .problem import parse_problem


class WaveProblem(Derivation):
    """The example's derived objects and its symmetry fields."""

    def __init__(self, derivation: Derivation, fields: dict):
        super().__init__(**vars(derivation))
        self.time_translation = fields["YT"]
        self.space_translation = fields["YS"]
        self.lorentz_boost = fields["YL"]


def wave_problem() -> WaveProblem:
    fixture = importlib.resources.files("jetforms").joinpath("fixtures/fourth_order_wave.jet")
    spec = parse_problem(fixture.read_text())
    return WaveProblem(derive(spec.cfg, spec.lagrangian), spec.fields)
