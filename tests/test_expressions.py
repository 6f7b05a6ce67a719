import functools
import random
import re
from fractions import Fraction

import pytest

from jetforms.expressions import (
    Expr,
    PolynomialSection,
    render_expr,
    substitute_section,
    sum_of_products,
    sum_of_total_derivatives,
    total_derivative,
    x_var,
    y_var,
    z_var,
)
from jetforms.jets import (
    JetConfig,
    base_coord,
    enumerate_coordinates,
    field_coord,
    jet_coord,
)
from tests.support import (
    assert_canonical,
    at_rationals,
    generic_product,
    generic_section,
    numerators,
    per_monomial_substitute,
    random_expr,
    times_lifts,
)


def test_ring_basics():
    z1 = z_var(1, (1,))
    assert z1 + 0 == z1
    assert y_var(1) * y_var(1) == y_var(1) ** 2
    # same canonical coordinate after sorting the index tuple
    assert z_var(1, (1, 2)) - z_var(1, (2, 1)) == Expr.zero()
    assert (z1 - z1).is_zero
    e = 2 * z1 + 1
    assert e - 1 == 2 * z1
    assert e * Fraction(1, 2) == z1 + Fraction(1, 2)
    assert (z1 + 1) * (z1 - 1) == z1**2 - 1
    assert z1**0 == Expr.one()
    with pytest.raises(ValueError):
        z1 ** (-1)
    with pytest.raises(ZeroDivisionError):
        z1 / 0


@pytest.mark.parametrize("exp", [-1, -2, Fraction(3, 2), Fraction(2), 1.5, 2.0, "2"])
def test_an_exponent_must_be_a_non_negative_int(exp):
    # x[1]^-1 is no polynomial, and x[1]^2 * x[1]^-2 used to give 3*x[1]^0,
    # an Expr unequal to the constant 3
    x1 = base_coord(1)
    message = r"the exponent of x\[1\] must be a non-negative integer"
    with pytest.raises(ValueError, match=message):
        Expr.monomial({x1: exp})
    with pytest.raises(ValueError, match=message):
        Expr.monomial({x1: exp}, 0)
    with pytest.raises(ValueError, match=message):
        Expr({((x1, 2), (x1, exp)): 3})
    with pytest.raises(ValueError, match=message):
        Expr([(((x1, exp),), 0)])


def test_exponents_of_a_coordinate_listed_twice_add():
    x1, y1 = base_coord(1), field_coord(1)
    assert Expr({((x1, 2), (y1, 1), (x1, 1)): 3}) == 3 * x_var(1) ** 3 * y_var(1)
    assert Expr({((x1, 2), (x1, 0)): 3}) == 3 * x_var(1) ** 2
    assert Expr({((x1, 0),): 3}) == Expr.constant(3)
    assert Expr.monomial({x1: 0, y1: 2}) == y_var(1) ** 2
    # the two listings of one monomial meet in one term
    assert Expr([(((x1, 1), (x1, 1)), 1), (((x1, 2),), 1)]) == 2 * x_var(1) ** 2


def test_partial_examples():
    z11 = z_var(1, (1, 1))
    assert (z11**2).partial(jet_coord(1, (1, 1))) == 2 * z11
    assert (z11**2).partial(field_coord(1)).is_zero
    e = x_var(1) * y_var(1) ** 3
    assert e.partial(field_coord(1)) == 3 * x_var(1) * y_var(1) ** 2


def test_partial_stores_integral_fractions_as_ints():
    L = Fraction(3, 2) * z_var(1, (1,)) ** 2 + Fraction(5, 2) * y_var(1) ** 2
    assert render_expr(L.partial(jet_coord(1, (1,)))) == "3*z[1;1]"
    assert render_expr(L.partial(field_coord(1))) == "5*y[1]"
    for partial in L.gradient().values():
        assert all(type(coeff) is int for _, coeff in partial.terms())


def reference_partial(e, coord):
    """One scan per coordinate: the partial derivative before gradient()."""
    out = {}
    for mono, coeff in e.terms():
        for pos, (c, k) in enumerate(mono):
            if c != coord:
                continue
            rest = mono[:pos] + ((c, k - 1),) + mono[pos + 1 :]
            rest = tuple(item for item in rest if item[1])
            out[rest] = out.get(rest, 0) + coeff * k
            break
    return Expr({mono: coeff for mono, coeff in out.items() if coeff != 0})


def test_gradient_matches_per_coordinate_partial():
    rng = random.Random(41)
    for cfg in (JetConfig(1, 1, 2), JetConfig(2, 2, 2)):
        coords = enumerate_coordinates(cfg, cfg.working_order) + [("c", "q")]
        for _ in range(20):
            e = random_expr(rng, cfg, cfg.working_order, degree=3, terms=6)
            e = e * Fraction(rng.randint(1, 5), rng.randint(1, 4))
            e = e + Expr.monomial({("c", "q"): 2, coords[0]: 1}, Fraction(1, 2))
            gradient = e.gradient()
            assert set(gradient) == e.variables()
            for c in coords:
                expected = reference_partial(e, c)
                assert gradient.get(c, Expr.zero()) == expected, c
                assert e.partial(c) == expected, c
    assert Expr.constant(3).gradient() == {}


def test_sum_equals_left_fold_of_add():
    rng = random.Random(8)
    cfg = JetConfig(2, 1, 2)
    for _ in range(20):
        exprs = [
            random_expr(rng, cfg, 2) * Fraction(1, rng.randint(1, 3))
            for _ in range(rng.randint(0, 6))
        ]
        exprs += [-e for e in exprs[: rng.randint(0, len(exprs))]]
        rng.shuffle(exprs)
        folded = functools.reduce(lambda u, v: u + v, exprs, Expr.zero())
        assert Expr.sum(exprs) == folded
        assert Expr.sum(iter(exprs)) == folded
    half = Fraction(1, 2) * y_var(1)
    total = Expr.sum([half, half, z_var(1, (1,)), -z_var(1, (1,))])
    assert list(total.terms()) == [(((field_coord(1), 1),), 1)]
    assert type(next(iter(total.terms()))[1]) is int
    assert Expr.sum([]).is_zero


def test_partial_leibniz_random():
    rng = random.Random(3)
    cfg = JetConfig(2, 2, 2)
    from jetforms.jets import enumerate_coordinates

    coords = enumerate_coordinates(cfg, 2)
    for _ in range(30):
        u = random_expr(rng, cfg, 2)
        v = random_expr(rng, cfg, 2)
        c = coords[rng.randrange(len(coords))]
        lhs = (u * v).partial(c)
        rhs = u.partial(c) * v + u * v.partial(c)
        assert lhs == rhs


def test_total_derivative_examples():
    cfg = JetConfig(2, 1, 2)
    assert total_derivative(z_var(1, (2,)), 1, cfg) == z_var(1, (1, 2))
    assert total_derivative(y_var(1), 1, cfg) == z_var(1, (1,))
    assert total_derivative(x_var(1) * x_var(2), 2, cfg) == x_var(1)
    # order guard
    top = z_var(1, (1, 1, 2))
    with pytest.raises(ValueError):
        total_derivative(top, 1, cfg)
    # explicit cap lets Lagrange derivatives reach order 2k
    assert total_derivative(top, 1, cfg, max_order=4) == z_var(1, (1, 1, 1, 2))


def test_total_derivatives_commute():
    cfg = JetConfig(2, 1, 2)
    e = z_var(1, (1,)) ** 2 * y_var(1)
    d12 = total_derivative(total_derivative(e, 1, cfg), 2, cfg)
    d21 = total_derivative(total_derivative(e, 2, cfg), 1, cfg)
    assert d12 == d21
    rng = random.Random(11)
    for _ in range(20):
        e = random_expr(rng, cfg, 1, degree=2)
        d12 = total_derivative(total_derivative(e, 1, cfg), 2, cfg)
        d21 = total_derivative(total_derivative(e, 2, cfg), 1, cfg)
        assert d12 == d21


def test_substitution_examples():
    cfg = JetConfig(1, 1, 2)
    sigma = PolynomialSection(cfg, (x_var(1) ** 3,))
    assert substitute_section(z_var(1, (1, 1)), sigma) == 6 * x_var(1)
    assert substitute_section(Expr.one(), sigma) == Expr.one()
    f = y_var(1) * z_var(1, (1,))
    sigma2 = PolynomialSection(cfg, (x_var(1) ** 2,))
    lhs = substitute_section(total_derivative(f, 1, cfg), sigma2)
    rhs = substitute_section(f, sigma2).partial(base_coord(1))
    assert lhs == rhs


def test_substitution_makes_no_product_with_a_zero_operand(monkeypatch):
    # an affine section has zero jets of order two: a monomial stops at its
    # first power whose image is zero, and a zero image is never raised
    cfg = JetConfig(2, 1, 2)
    sigma = PolynomialSection(cfg, (3 * x_var(1) - x_var(2) + 1,))
    e = Expr.sum(
        z_var(1, (1,)) ** j * z_var(1, (1, 2)) ** (j % 3) * y_var(1) for j in range(1, 7)
    ) + z_var(1, (2, 2)) * x_var(2)
    expected = per_monomial_substitute(
        e, {c: sigma.coordinate_value(c) for c in e.variables() if c[0] != "x"}
    )
    multiply, zero_operands = Expr.__mul__, []

    def counting(a, b):
        if isinstance(b, Expr) and (a.is_zero or b.is_zero):
            zero_operands.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(Expr, "__mul__", counting)
    got = substitute_section(e, sigma)
    monkeypatch.undo()
    assert got == expected
    assert not got.is_zero
    assert zero_operands == []


def test_chain_rule_keystone_property():
    # substitute(D_i e) == d/dx^i substitute(e), exactly, for random data
    rng = random.Random(2024)
    for cfg in (JetConfig(1, 1, 2), JetConfig(2, 1, 2), JetConfig(2, 2, 2)):
        for trial in range(15):
            e = random_expr(rng, cfg, cfg.working_order - 1, degree=2)
            comps = []
            for _ in range(cfg.n):
                comps.append(random_expr_in_x(rng, cfg))
            sigma = PolynomialSection(cfg, tuple(comps))
            i = rng.randint(1, cfg.m)
            lhs = substitute_section(total_derivative(e, i, cfg), sigma)
            rhs = substitute_section(e, sigma).partial(base_coord(i))
            assert lhs == rhs


def random_expr_in_x(rng, cfg, degree=4, terms=4):
    out = Expr.zero()
    for _ in range(terms):
        powers = {}
        for _ in range(rng.randrange(degree + 1)):
            i = rng.randint(1, cfg.m)
            powers[base_coord(i)] = powers.get(base_coord(i), 0) + 1
        out = out + Expr.monomial(powers, rng.randint(-4, 4))
    return out


@pytest.mark.parametrize("coord", [("y", 0), ("y", 3), ("z", 1, (2,))])
def test_section_substitution_rejects_a_coordinate_outside_the_section(coord):
    # m = 1, n = 2: no field 0 or 3 and no derivative along x[2];
    # coordinate_value reads the table that substitution fills, and checks
    # the coordinate alike
    section = PolynomialSection(JetConfig(1, 2, 1), (x_var(1), x_var(1) ** 2))
    with pytest.raises(ValueError, match=re.escape(str(coord))):
        substitute_section(Expr.variable(coord), section)
    with pytest.raises(ValueError, match=re.escape(str(coord))):
        section.coordinate_value(coord)


def test_generic_section_realizes_jets():
    # the coefficient-to-jet map is onto: at the origin every jet of order up
    # to the degree is a distinct coefficient symbol (times a factorial)
    from jetforms.jets import multiindices

    cfg = JetConfig(2, 1, 2)
    sigma = generic_section(cfg, degree=5)
    origin = {base_coord(1): 0, base_coord(2): 0}
    symbols = set()
    count = 0
    for level in range(0, 5):
        for I in multiindices(cfg.m, level):
            value = at_rationals(sigma.coordinate_value(jet_coord(1, I)), origin)
            free = {c for c in value.variables() if c[0] == "c"}
            assert len(free) == 1, (I, free)
            symbols |= free
            count += 1
    assert len(symbols) == count


def test_rendering_deterministic_and_sorted():
    e = z_var(1, (1, 2)) * 2 - y_var(1) + Fraction(1, 3)
    text = render_expr(e)
    assert text == "1/3 - y[1] + 2*z[1;1 2]"
    assert render_expr(Expr.zero()) == "0"
    assert render_expr(-y_var(2)) == "-y[2]"


def test_jet_values_exact():
    cfg = JetConfig(2, 1, 2)
    sigma = PolynomialSection(cfg, (x_var(1) ** 2 * x_var(2),))
    values = sigma.jet_values((Fraction(1), Fraction(2)), 3)
    assert values[jet_coord(1, (1, 1))] == 4  # d^2/dt^2 (t^2 x) = 2x
    assert values[jet_coord(1, (1, 2))] == 2  # d^2/dtdx = 2t
    assert values[field_coord(1)] == 2


def test_integer_numerators_over_one_content_reduced_denominator():
    x, y = ((base_coord(1), 1),), ((field_coord(1), 1),)
    e = Expr({x: Fraction(1, 2), y: Fraction(-2, 3), (): 0})
    assert numerators(e) == ({x: 3, y: -4}, 6)
    assert_canonical(e)
    assert dict(e.terms()) == {x: Fraction(1, 2), y: Fraction(-2, 3)}
    # scaling to integers clears the denominator; integral values come back as int
    assert numerators(e * 6) == ({x: 3, y: -4}, 1)
    assert [type(c) for _, c in (e * 6).terms()] == [int, int]
    assert (e * 6) / 6 == e and e * 4 == Expr({x: 2, y: Fraction(-8, 3)})
    # a sum whose content cancels is reduced again
    half = Expr({x: Fraction(1, 2)})
    assert numerators(half + half) == ({x: 1}, 1)
    assert numerators(e - e) == ({}, 1) and (e - e).is_zero
    assert e.constant_term() == 0 and (e + Fraction(5, 4)).constant_term() == Fraction(5, 4)
    with pytest.raises(TypeError):
        Expr({x: 0.5})


def test_monomial_kernel_matches_the_generic_product():
    rng = random.Random(17)
    cfg = JetConfig(2, 2, 2)
    coords = enumerate_coordinates(cfg, 2)
    for _ in range(30):
        e = random_expr(rng, cfg, 2, degree=3) * Fraction(rng.randint(1, 5), rng.randint(1, 6))
        powers = [(coords[rng.randrange(len(coords))], rng.randint(1, 2))
                  for _ in range(rng.randint(0, 3))]
        sign = rng.choice((1, -1))
        merged: dict = {}
        for coord, exp in powers:
            merged[coord] = merged.get(coord, 0) + exp
        # a +-1 monomial factor takes the kernel's route in Expr.__mul__
        got = e * Expr.monomial(merged, sign)
        expected = generic_product(e, Expr.constant(sign))
        for coord, exp in powers:
            expected = generic_product(expected, Expr.variable(coord) ** exp)
        assert got == expected
        assert list(got.terms()) == list(expected.terms())


def test_times_lifts_multiplies_by_the_holonomic_lifts():
    # the per-term reference of holonomic reduction against the generic
    # product, and sum_of_products of the coefficient, the lifts as one
    # monomial and the sign, the triple holonomic_reduce hands it, against
    # both
    rng = random.Random(23)
    cfg = JetConfig(3, 2, 2)
    vertical = [c for c in enumerate_coordinates(cfg, 1) if c[0] != "x"]
    for _ in range(30):
        e = random_expr(rng, cfg, 2, degree=3) * Fraction(rng.randint(1, 5), rng.randint(1, 6))
        coords = rng.sample(vertical, rng.randint(0, 2))
        directions = [rng.randint(1, cfg.m) for _ in coords]
        sign = rng.choice((1, -1))
        expected = generic_product(e, Expr.constant(sign))
        lifts = []
        for coord, i in zip(coords, directions):
            indices = coord[2] if coord[0] == "z" else ()
            lifts.append((jet_coord(coord[1], tuple(sorted(indices + (i,)))), 1))
            expected = generic_product(expected, Expr.variable(lifts[-1][0]))
        for got in (times_lifts(e, coords, directions, sign),
                    sum_of_products([(e, Expr([(lifts, 1)]), sign)])):
            assert got == expected
            assert list(got.terms()) == list(expected.terms())
    for constant in (base_coord(1), ("c", "k")):
        with pytest.raises(ValueError, match="has no holonomic lift"):
            times_lifts(Expr.one(), [constant], [1], 1)


def test_a_product_by_plus_or_minus_one_keeps_the_terms():
    # holonomic reduction hands every dx-only coefficient to sum_of_products
    # times 1 and a sign; here also times -1, on either side of the pair
    e = x_var(1) * z_var(1, (2,)) + Fraction(1, 3)
    for unit, sign, expected in ((Expr.one(), 1, e), (Expr.one(), -1, -e), (-Expr.one(), 1, -e)):
        for a, b in ((e, unit), (unit, e)):
            got = sum_of_products([(a, b, sign)])
            assert got == expected
            assert list(got.terms()) == list(expected.terms())
            assert_canonical(got)


def test_sum_of_products_examples():
    # -1 times a coordinate, a monomial of two ids times a constant plus x,
    # a pair of two terms each with the sign -1, and the denominators 2 and
    # 3 over their lcm
    z1, z2, x1 = z_var(1, (1,)), z_var(1, (2,)), x_var(1)
    terms = [(-z2, z1 * x1 + z2 / 2, 1), (z1 * z2, Fraction(1, 3) + x1, 1),
             (z1 + x1, z1 - x1, -1), (Expr.zero(), z1, 1)]
    got = sum_of_products(terms)
    expected = Expr.sum(generic_product(a, b) * sign for a, b, sign in terms)
    assert got == expected
    assert list(got.terms()) == list(expected.terms())
    assert_canonical(got)
    assert sum_of_products([]) == Expr.zero()


def test_derivation_inserts_one_id_images_in_order():
    # each coordinate of the monomials is sent to another of them, so that
    # images land before, between and after the ids of the rest
    coords = [base_coord(1), field_coord(1), jet_coord(1, (1,)), jet_coord(1, (1, 2))]
    e = Expr.monomial({c: 1 for c in coords}, 3) - Expr.monomial({coords[0]: 2, coords[2]: 1})
    for shift in (1, 2, 3):
        field = {c: Expr.variable(coords[(k + shift) % 4]) * (k + 1)
                 for k, c in enumerate(coords)}
        got = e.derivation(field, Expr.zero())
        expected = Expr.sum(generic_product(field[c], part) for c, part in e.gradient().items())
        assert got == expected
        assert list(got.terms()) == list(expected.terms())
        assert_canonical(got)


def test_a_multi_index_derivative_is_the_chain_of_single_ones():
    # lone ids up the lift table, x^i lowered then sent to zero, and longer
    # monomials by the Leibniz rule, against total_derivative one direction
    # after another
    cfg = JetConfig(2, 1, 3)
    z1 = z_var(1, (1,))
    assert sum_of_total_derivatives([(z1, (1, 2), 1)], cfg) == z_var(1, (1, 1, 2))
    for e in (z1 * 5, x_var(1) ** 2, x_var(1) * y_var(1) * z1 / 3, y_var(1) ** 2 - z_var(1, (2,)),
              Expr.variable(("c", "k")) * z1 + 1):
        for I in ((1,), (2, 1), (2, 1, 1)):
            chain = e
            for i in I:
                chain = total_derivative(chain, i, cfg, cfg.expression_order)
            got = sum_of_total_derivatives([(e, I, -1)], cfg, cfg.expression_order)
            assert got == -chain, (e, I)
