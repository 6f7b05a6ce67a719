"""The boundary coefficients against the first variation formula, in sympy.

For every variation Q^a(x) of a section y^a(x),

    d/de L(y + e Q) |_(e=0) = Q^a E_a + sum_i D_i (sum_{a,T} p^{i,T}_a D_T Q^a)

with E_a the Euler-Lagrange expressions of L.  The coefficients of D_I Q^a
on the two sides are the equations of the boundary system of d(L d_m x), so
the formula holds exactly when p solves that system: for the symmetric table
and for every skew one.  It checks the guards the library no longer runs on
itself (the Lagrange derivative as Phi_a - sum_i D_i p^i_a, the splitting
system behind condition 3 and Xi's pullback) by another route.

The sympy side shares no code with the library: y^a and Q^a are undefined
Functions of x^1..x^m, the variation is sympy's diff in e, E_a comes from
euler_equations and D_i is diff in x^i.  The Lagrangian is built on both
sides from the same drawn monomials; only the coefficients p cross over,
through Expr.terms().

For a strict symmetry Y of L the same formula, off shell, is Noether's
identity

    sum_i D_i J^i = -Q^a E_a ,   Q^a = Y^a - z^a_j Y^j ,

with J^i the density of J = noether_current(Y, theta, None) along
d/dx^i -| d_m x.  Only J crosses over, through Expr.terms(); L and the
components of Y are data, read into sympy the same way, and Q^a, E_a and
D_i are formed there.
"""
import importlib.resources

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.calculus.euler import euler_equations  # noqa: E402

from jetforms.dedonder import (  # noqa: E402
    derive,
    perturbed_coefficients,
)
from jetforms.expressions import Expr, y_var  # noqa: E402
from jetforms.jets import (  # noqa: E402
    JetConfig,
    base_coord,
    enumerate_coordinates,
    multiindices,
    splittings,
)
from jetforms.problem import parse_problem  # noqa: E402
from jetforms.prolongations import ProjectableField, is_symmetry, noether_current  # noqa: E402

ORACLE = settings(max_examples=4, derandomize=True, deadline=None)
# at k = 3 the top-down solve runs two levels below the top; (2, 2, 3) and
# (3, 1, 3) pass too, but take 9 to 16 s each
SHAPES = ((1, 1, 2), (2, 1, 2), (2, 2, 2), (1, 1, 3), (2, 1, 3))


def monomial_lists(coords, max_terms):
    """Raw (powers, coefficient) lists, built into an Expr and a sympy
    expression separately."""
    powers = st.dictionaries(st.sampled_from(coords), st.integers(1, 2), min_size=1, max_size=3)
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.lists(st.tuples(powers, coefficients), min_size=1, max_size=max_terms)


def library_expr(terms) -> Expr:
    return Expr.sum(Expr.monomial(powers, c) for powers, c in terms)


class Jets:
    """Sections y^a(x), variations Q^a(x) and the parameter e, in sympy."""

    def __init__(self, cfg: JetConfig):
        self.xs = sympy.symbols(f"x1:{cfg.m + 1}")
        self.ys = [sympy.Function(f"y{a}")(*self.xs) for a in range(1, cfg.n + 1)]
        self.qs = [sympy.Function(f"Q{a}")(*self.xs) for a in range(1, cfg.n + 1)]
        self.e = sympy.Symbol("e")

    def derivative(self, f, indices):
        return sympy.diff(f, *(self.xs[i - 1] for i in indices)) if indices else f

    def value(self, coord, fields):
        if coord[0] == "x":
            return self.xs[coord[1] - 1]
        if coord[0] == "y":
            return fields[coord[1] - 1]
        return self.derivative(fields[coord[1] - 1], coord[2])

    def crossed(self, e: Expr, fields):
        """An Expr read on ``fields`` through its terms()."""
        return self.polynomial([(dict(mono), c) for mono, c in e.terms()], fields)

    def euler_lagrange(self, lagrangian) -> list:
        """E_a of a sympy Lagrangian in the sections, by euler_equations."""
        # sympy drops an equation that evaluates to True or False, as a
        # constant or null Lagrangian's does; a free c_a * y_a term keeps each
        markers = sympy.symbols(f"c1:{len(self.ys) + 1}")
        marked = lagrangian + sum(c * y for c, y in zip(markers, self.ys))
        equations = euler_equations(marked, self.ys, self.xs)
        return [equation.lhs - c for equation, c in zip(equations, markers)]

    def polynomial(self, terms, fields):
        """sum c prod coord^power, with the coordinates read on ``fields``."""
        out = sympy.Integer(0)
        for powers, c in terms:
            term = sympy.Rational(c.numerator, c.denominator)
            for coord, power in powers.items():
                term *= self.value(coord, fields) ** power
            out += term
        return out


def first_variation_defect(cfg: JetConfig, lagrangian_terms, table: dict):
    """d/de L(y + e Q) - Q^a E_a - sum_i D_i(sum p^{i,T}_a D_T Q^a), expanded."""
    jets = Jets(cfg)
    varied = [y + jets.e * q for y, q in zip(jets.ys, jets.qs)]
    variation = sympy.diff(jets.polynomial(lagrangian_terms, varied), jets.e).subs(jets.e, 0)
    euler_lagrange = jets.euler_lagrange(jets.polynomial(lagrangian_terms, jets.ys))
    body = sum(q * e for q, e in zip(jets.qs, euler_lagrange))
    flux = [sympy.Integer(0)] * cfg.m
    for (a, i1, tail), p in table.items():
        # the one crossing from the library: p through Expr.terms()
        flux[i1 - 1] += jets.crossed(p, jets.ys) * jets.derivative(jets.qs[a - 1], tail)
    boundary = sum(sympy.diff(f, x) for f, x in zip(flux, jets.xs))
    return sympy.expand(variation - body - boundary)


@st.composite
def problems(draw, shape):
    """(cfg, Lagrangian terms, skew top-level data): +q and -q on two
    splittings of some top-level indices, none when m = 1."""
    cfg = JetConfig(*shape)
    coords = enumerate_coordinates(cfg, cfg.k)
    lagrangian_terms = draw(monomial_lists(coords, 4))
    delta: dict = {}
    for a in range(1, cfg.n + 1):
        for I in multiindices(cfg.m, cfg.k):
            parts = splittings(I)
            if len(parts) < 2 or not draw(st.booleans()):
                continue
            first, second = draw(st.permutations(parts))[:2]
            q = library_expr(draw(monomial_lists(coords, 2)))
            delta[(a, *first)] = delta.get((a, *first), Expr.zero()) + q
            delta[(a, *second)] = delta.get((a, *second), Expr.zero()) - q
    return cfg, lagrangian_terms, {key: q for key, q in delta.items() if not q.is_zero}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "".join(map(str, s)))
@ORACLE
@given(data=st.data())
def test_boundary_coefficients_satisfy_the_first_variation_formula(shape, data):
    cfg, lagrangian_terms, delta = data.draw(problems(shape))
    derivation = derive(cfg, library_expr(lagrangian_terms))
    symmetric = derivation.boundary_symmetric.coefficients
    assert first_variation_defect(cfg, lagrangian_terms, symmetric.table) == 0
    if delta:
        skew = perturbed_coefficients(derivation.decomposition, delta)
        assert first_variation_defect(cfg, lagrangian_terms, skew.table) == 0


def test_the_formula_rejects_a_table_off_by_one_coefficient():
    # the oracle has teeth: y^1 added to one level-two coefficient breaks the
    # formula, at k = 2 on the top level and at k = 3 one level below it
    x1, y1 = ("x", 1), ("y", 1)
    z11, z12 = ("z", 1, (1, 1)), ("z", 1, (1, 2))
    second_order = [({z11: 2}, 1), ({z12: 1, y1: 1}, 1), ({x1: 1, z11: 1}, 1)]
    third_order = [({("z", 1, (1, 1, 2)): 2}, 1), ({("z", 1, (2, 2, 2)): 1, z11: 1}, 1)]
    for k, lagrangian_terms in ((2, second_order), (3, second_order + third_order)):
        cfg = JetConfig(2, 1, k)
        derivation = derive(cfg, library_expr(lagrangian_terms))
        table = dict(derivation.boundary_symmetric.coefficients.table)
        assert first_variation_defect(cfg, lagrangian_terms, table) == 0
        key = (1, 2, (1,))
        assert key in table  # the level-two coefficient is one the solve wrote
        table[key] = table[key] + y_var(1)
        assert first_variation_defect(cfg, lagrangian_terms, table) != 0


def noether_defect(Y: ProjectableField, theta):
    """sum_i D_i J^i + Q^a E_a, expanded, for J = noether_current(Y, theta, None)."""
    cfg = theta.cfg
    jets = Jets(cfg)
    current = noether_current(Y, theta, None)
    divergence = sympy.Integer(0)
    for i in range(1, cfg.m + 1):
        # d/dx^i -| d_m x is (-1)^(i-1) times the wedge of the other dx^j
        wedge = [base_coord(j) for j in range(1, cfg.m + 1) if j != i]
        density = (-1) ** (i - 1) * jets.crossed(current.coefficient(wedge), jets.ys)
        divergence += sympy.diff(density, jets.xs[i - 1])
    base = [jets.crossed(comp, jets.ys) for comp in Y.base_components]
    characteristic = [
        jets.crossed(comp, jets.ys) - sum(sympy.diff(y, x) * b for x, b in zip(jets.xs, base))
        for comp, y in zip(Y.vertical_components, jets.ys)
    ]
    euler_lagrange = jets.euler_lagrange(jets.crossed(theta.lagrangian, jets.ys))
    return sympy.expand(divergence + sum(q * e for q, e in zip(characteristic, euler_lagrange)))


def test_the_wave_currents_satisfy_noethers_identity():
    # time and space translation and the Lorentz boost, whose base
    # components are not constant, with the symmetric Theta and the skew one
    # the fixture declares
    fixture = importlib.resources.files("jetforms").joinpath("fixtures/fourth_order_wave.jet")
    spec = parse_problem(fixture.read_text())
    derivation = derive(spec.cfg, spec.lagrangian)
    thetas = (
        derivation.theta_symmetric,
        derivation.theta_skew(spec.skew),
    )
    assert sorted(spec.fields) == ["YL", "YS", "YT"]
    for name, Y in spec.fields.items():
        assert is_symmetry(Y, spec.lagrangian)[0], name
        for theta in thetas:
            assert noether_defect(Y, theta) == 0, name


@st.composite
def translation_problems(draw, shape):
    """(Lagrangian in the jets z alone, field of constant components): each
    translation in x and y is a strict symmetry of such a Lagrangian."""
    cfg = JetConfig(*shape)
    jets = [c for c in enumerate_coordinates(cfg, cfg.k) if c[0] == "z"]
    lagrangian = library_expr(draw(monomial_lists(jets, 3)))
    constants = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    components = [Expr.constant(draw(constants)) for _ in range(cfg.m + cfg.n)]
    field = ProjectableField(cfg, tuple(components[: cfg.m]), tuple(components[cfg.m :]))
    return lagrangian, field


@pytest.mark.parametrize("shape", SHAPES[:3], ids=lambda s: "".join(map(str, s)))
@ORACLE
@given(data=st.data())
def test_translation_currents_satisfy_noethers_identity(shape, data):
    lagrangian, Y = data.draw(translation_problems(shape))
    assert is_symmetry(Y, lagrangian)[0]
    assert noether_defect(Y, derive(Y.cfg, lagrangian).theta_symmetric) == 0
