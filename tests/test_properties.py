"""Property tests of the exact core: the Expr ring against the reference
Fraction-dict ring, its canonical form, the product, D_i and substitution
kernels against the ones they replaced, D_I against the chain of single
D_i, the sum of products against the sum of the products, holonomic
reduction against one product per term, the Lagrange derivative against
the chain of total derivatives, the derivation along a field against the
gradient of the reference ring and, for images of one id, against the
route of the reference symmetry test, d, Cartan's formula, the
prolongation commutator, the recursive prolongation, the characteristic
jets, the symmetry residual and the currents against their routes through
the total derivatives of Q^a, the coefficient identity that condition 3, the De
Donder residual and the boundary-form comparison read, Phi assembled from its
components against d(L d_m x), the boundary form written from its
coefficient table against the contact-form reference and its pullback
against zero, the skew solve by linearity against a fresh solve, and the
Lagrange derivative against Phi_a - sum_i D_i p^i_a on the symmetric and the
skew table, the skew table's splitting sums and d_m x coefficient against a
fresh computation, the d_m x coefficient against one product per splitting
sum, substitution through a section against the
replacement map it replaced, and the structural checks of Xi on every
table whose keys pass the key check, and a band-limited Cauchy state's
steps and slice energies against the full-spectrum references.  These are
the guards the library no longer runs on itself.

The strategies draw small polynomials with rational coefficients over the
jet coordinates of (m, n, k) = (2, 1, 2), forms over their differentials,
vector fields, projectable fields and polynomial sections; the
prolongation draws fields with components of degree <= 2, Lagrangians and
sections at several (m, n, k) with 2k - 1 <= 3; the identity,
the boundary form and the skew solve draw Lagrangians, coefficient tables,
corruptions and homogeneous top-level data at several (m, n, k) with m <= 3,
n <= 2 and k <= 3.
Runs are derandomized, so the suite sees the same examples every time.
"""
import functools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetforms.dedonder import (  # noqa: E402
    STRUCTURAL_CHECKS,
    BoundaryCoefficients,
    BoundaryForm,
    PhiDecomposition,
    _check_key,
    _check_splitting_system,
    _solve_top_down,
    assemble_boundary_form,
    compare_boundary_forms,
    derive,
    lagrange_derivative,
    perturbed_coefficients,
    phi_from_lagrangian,
    symmetric_boundary_coefficients,
    verify_condition3,
)
from jetforms.expressions import (  # noqa: E402
    Expr,
    PolynomialSection,
    render_expr,
    substitute_section,
    sum_of_products,
    sum_of_total_derivatives,
    total_derivative,
)
from jetforms.forms import DifferentialForm, holonomic_reduce, volume_form  # noqa: E402
from jetforms.jets import (  # noqa: E402
    JetConfig,
    base_coord,
    coordinate_sort_key,
    enumerate_coordinates,
    field_coord,
    jet_coord,
    multiindices,
    splittings,
)
from jetforms.prolongations import (  # noqa: E402
    ProjectableField,
    characteristic_jets,
    is_symmetry,
    noether_current,
    prolong,
)
from tests.support import (  # noqa: E402
    ReferenceExpr,
    assert_canonical,
    basis_form,
    chain_lagrange_derivative,
    coefficient,
    contact_boundary_form,
    generic_product,
    lie_derivative,
    per_monomial_substitute,
    per_term_holonomic_reduce,
    reduced_vertical_contractions,
    reference_characteristic_jets,
    reference_is_symmetry,
    reference_noether_current,
    reference_prolong,
    reference_substitute_section,
    reference_total_derivative,
    repeated_power,
    substitute,
    two_pass_total_derivative,
)

CFG = JetConfig(2, 1, 2)
COORDS = {order: enumerate_coordinates(CFG, order) for order in (1, 2)}
BASE = [base_coord(1), base_coord(2)]
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polynomials(coords, max_terms=4, min_terms=0):
    monomial = st.dictionaries(st.sampled_from(coords), st.integers(1, 2), max_size=3)
    terms = st.lists(st.tuples(monomial, coefficients), min_size=min_terms, max_size=max_terms)
    return terms.map(
        lambda terms: Expr.sum(Expr.monomial(powers, c) for powers, c in terms)
    )


exprs = polynomials(COORDS[2])
# denominators up to 6, so that sums and products need common denominators
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def paired_polynomials(coords, max_terms=4):
    """(Expr, ReferenceExpr) pairs built from the same drawn terms."""
    monomial = st.dictionaries(st.sampled_from(coords), st.integers(1, 2), max_size=3)
    return st.lists(st.tuples(monomial, rationals), max_size=max_terms).map(
        lambda terms: (
            Expr.sum(Expr.monomial(powers, c) for powers, c in terms),
            ReferenceExpr.sum(ReferenceExpr.monomial(powers, c) for powers, c in terms),
        )
    )


pairs = paired_polynomials(COORDS[2])
low_order_exprs = polynomials(COORDS[1])
base_polynomials = polynomials(BASE)
fields = st.dictionaries(st.sampled_from(COORDS[2]), polynomials(COORDS[2], 2), max_size=3)
projectable_fields = st.builds(
    lambda base1, base2, vertical: ProjectableField(CFG, (base1, base2), (vertical,)),
    polynomials(BASE, 2),
    polynomials(BASE, 2),
    polynomials(BASE + [field_coord(1)], 2),
)


def wedge_all(factors):
    return functools.reduce(
        DifferentialForm.wedge, factors, DifferentialForm.from_scalar(Expr.one())
    )


@st.composite
def forms(draw, degree):
    terms = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(COORDS[2]), min_size=degree, max_size=degree, unique=True),
            polynomials(COORDS[2], 3),
        ),
        max_size=3,
    ))
    return DifferentialForm.sum(degree, (
        DifferentialForm.from_scalar(coeff).wedge(wedge_all(map(basis_form, w)))
        for w, coeff in terms
    ))


@PROPERTY
@given(exprs, exprs, exprs, coefficients)
def test_expr_ring_axioms(u, v, w, q):
    zero, one = Expr.zero(), Expr.one()
    assert u + v == v + u and u * v == v * u
    assert (u + v) + w == u + (v + w)
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + zero == u and u * one == u and (u * zero).is_zero
    assert (u - u).is_zero and u + (-u) == zero
    assert u * q == Expr.constant(q) * u
    assert Expr.sum([u, v, w]) == u + v + w
    # canonical storage: no zero coefficient, integral values as ints
    for e in (u + v, u * v, u * q):
        assert all(c != 0 for _, c in e.terms())
        assert not any(isinstance(c, Fraction) and c.denominator == 1 for _, c in e.terms())


@PROPERTY
@given(pairs, pairs, rationals, st.integers(-6, 6))
def test_ring_operations_match_the_reference_ring(u, v, q, k):
    (a, ra), (b, rb) = u, v
    results = [
        (a + b, ra + rb),
        (a - b, ra - rb),
        (-a, -ra),
        (a * b, ra * rb),
        (a * q, ra * q),
        (k * a, ra * k),
        (a**2, ra**2),
        (Expr.sum([a, b, -a, b]), ReferenceExpr.sum([ra, rb, -ra, rb])),
    ]
    if q:
        results.append((a / q, ra / q))
    if k:
        results.append((a / k, ra / k))
    for got, expected in results:
        assert render_expr(got) == render_expr(expected)
        assert_canonical(got)


@PROPERTY
@given(pairs, st.integers(1, 2))
def test_calculus_matches_the_reference_ring(u, i):
    a, ra = u
    gradient, expected = a.gradient(), ra.gradient()
    assert set(gradient) == set(expected)
    for c in COORDS[2]:
        text = render_expr(expected[c]) if c in expected else "0"
        for got in (gradient.get(c, Expr.zero()), a.partial(c)):
            assert render_expr(got) == text
            assert_canonical(got)
    got = total_derivative(a, i, CFG)
    assert render_expr(got) == render_expr(reference_total_derivative(ra, i))
    assert_canonical(got)


@PROPERTY
@given(pairs, st.dictionaries(st.sampled_from(COORDS[2]), paired_polynomials(COORDS[2], 2),
                              max_size=3))
def test_substitute_matches_the_reference_ring(u, replacements):
    a, ra = u
    got = substitute(a, {c: e for c, (e, _) in replacements.items()})
    expected = ra.substitute({c: r for c, (_, r) in replacements.items()})
    assert render_expr(got) == render_expr(expected)
    assert_canonical(got)


# x, y and z up to the working order 2k-1 = 3, where D_i meets its bound,
# and two coefficient symbols; exponents up to 6, so that a monomial holds
# long runs of one coordinate
KERNEL_COORDS = enumerate_coordinates(CFG, CFG.working_order) + [("c", "s"), ("c", "t")]
kernel_monomials = st.dictionaries(st.sampled_from(KERNEL_COORDS), st.integers(1, 6), max_size=3)
kernel_powers = st.tuples(st.sampled_from(KERNEL_COORDS), st.integers(0, 6))
# (coordinate, exponent) lists that name one coordinate twice, around up to
# two other powers, for Expr(terms) to add
listed_monomials = st.builds(
    lambda coord, first, others, last: [(coord, first), *others, (coord, last)],
    st.sampled_from(KERNEL_COORDS), st.integers(0, 6), st.lists(kernel_powers, max_size=2),
    st.integers(0, 6),
)
kernel_operands = st.one_of(
    st.lists(st.tuples(kernel_monomials, rationals), max_size=4).map(
        lambda terms: Expr.sum(Expr.monomial(powers, c) for powers, c in terms)
    ),
    st.lists(st.tuples(listed_monomials, rationals), max_size=4).map(Expr),
    # one monomial times +-1, the monomial route, or times another rational
    st.builds(Expr.monomial, kernel_monomials, st.sampled_from((1, -1))),
    st.builds(Expr.monomial, kernel_monomials, rationals.filter(bool)),
)


def outcome(kernel, *args):
    """The rendered result of a kernel, or the message of its ValueError."""
    try:
        return render_expr(kernel(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@PROPERTY
@given(st.lists(st.tuples(listed_monomials, rationals), max_size=4))
def test_a_coordinate_listed_twice_adds_its_exponents(terms):
    def merged(powers):
        out: dict = {}
        for coord, exp in powers:
            out[coord] = out.get(coord, 0) + exp
        return out

    got = Expr(terms)
    expected = ReferenceExpr.sum(ReferenceExpr.monomial(merged(mono), c) for mono, c in terms)
    assert render_expr(got) == render_expr(expected)
    assert_canonical(got)


@PROPERTY
@given(kernel_operands, kernel_operands)
def test_product_matches_the_generic_product(a, b):
    for got, expected in ((a * b, generic_product(a, b)), (b * a, generic_product(b, a))):
        assert got == expected
        # the same terms in the same order, which float evaluation reads
        assert list(got.terms()) == list(expected.terms())
        assert_canonical(got)


@PROPERTY
@given(kernel_operands, st.integers(0, 3), st.sampled_from((None, 3, 4)))
def test_total_derivative_matches_the_two_pass_kernel(a, i, max_order):
    # order-bound and index errors included
    got = outcome(total_derivative, a, i, CFG, max_order)
    assert got == outcome(two_pass_total_derivative, a, i, CFG, max_order)
    if not got.startswith("ValueError"):
        assert_canonical(total_derivative(a, i, CFG, max_order))


# bases whose terms are powers of one coordinate, such as x + x^2, so that
# distinct compositions of the exponent meet in one monomial
colliding_bases = st.builds(
    lambda coord, terms: Expr.sum(Expr.monomial({coord: e}, c) for e, c in terms),
    st.sampled_from(KERNEL_COORDS), st.lists(st.tuples(st.integers(0, 3), rationals), max_size=4),
)


@PROPERTY
@given(st.one_of(kernel_operands, colliding_bases), st.integers(0, 6))
def test_power_matches_repeated_multiplication(base, exponent):
    got = base**exponent
    expected = repeated_power(base, exponent)
    assert got == expected
    assert list(got.terms()) == list(expected.terms())
    assert_canonical(got)


def signed_two_pass_sum(terms, cfg, max_order):
    """sum sign * D_i e by the two-pass kernel over (e, (i,), sign), one
    triple after another."""
    return Expr.sum(
        sign * two_pass_total_derivative(e, i, cfg, max_order) for e, (i,), sign in terms
    )


def chain_of_single_derivatives(terms, cfg, max_order):
    """sum sign * D_I e as the chain of total_derivative calls, one direction
    of I after another, one triple after another."""

    def chain(e, I):
        for i in I:
            e = total_derivative(e, i, cfg, max_order)
        return e

    return Expr.sum(sign * chain(e, I) for e, I, sign in terms)


# operands below the top jet order, whose D_i meets no bound, besides the
# kernel operands
derivative_operands = st.one_of(
    st.lists(st.tuples(
        st.dictionaries(st.sampled_from([c for c in KERNEL_COORDS if len(c) < 3 or len(c[2]) < 3]),
                        st.integers(1, 6), max_size=3),
        rationals,
    ), max_size=4).map(lambda terms: Expr.sum(Expr.monomial(p, c) for p, c in terms)),
    kernel_operands,
)


@settings(PROPERTY, max_examples=80)
@given(st.lists(st.tuples(derivative_operands, st.tuples(st.integers(1, 2)),
                          st.sampled_from((1, -1))),
                max_size=4),
       st.sampled_from((None, 3, 4)))
def test_sum_of_total_derivatives_matches_the_two_pass_kernel(terms, max_order):
    # rational coefficients over several denominators, ids repeated up to
    # six times, x^i lowered, constants and coefficient symbols dropped, and
    # the order-bound error of the first triple that meets it
    got = outcome(sum_of_total_derivatives, terms, CFG, max_order)
    assert got == outcome(signed_two_pass_sum, terms, CFG, max_order)
    if not got.startswith("ValueError"):
        assert_canonical(sum_of_total_derivatives(terms, CFG, max_order))


def test_sum_of_total_derivatives_checks_every_direction_first():
    # the first triple would meet the order bound; a direction of the second
    # is out of range, and that is the error, raised before any derivative
    top = Expr.variable(jet_coord(1, (1, 1, 1)))
    for i in (0, 3):
        for I in ((i,), (1, i), (2, 1, i)):
            with pytest.raises(ValueError, match=rf"base index {i} out of range 1\.\.2"):
                sum_of_total_derivatives([(top, (1,), 1), (top, I, -1)], CFG)
    with pytest.raises(ValueError, match="jet order 4 beyond the allowed order 3"):
        sum_of_total_derivatives([(top, (1,), 1), (top, (2,), -1)], CFG)
    assert sum_of_total_derivatives([], CFG) == Expr.zero()


# Exprs of degree 0 to 3: x factors, coefficient symbols, y and z up to the
# working order, a coordinate listed twice adding its exponents, and
# coefficients over several denominators
chain_operands = st.lists(
    st.tuples(st.lists(st.sampled_from(KERNEL_COORDS), max_size=3), rationals), max_size=4
).map(lambda terms: Expr([([(c, 1) for c in coords], q) for coords, q in terms]))


@settings(PROPERTY, max_examples=80)
@given(st.lists(st.tuples(chain_operands, st.lists(st.integers(1, 2), min_size=1, max_size=3)
                          .map(tuple), st.sampled_from((1, -1))),
                max_size=4),
       st.sampled_from((None, 4, 6)))
def test_sum_of_total_derivatives_takes_a_multi_index_as_the_chain_of_single_ones(terms,
                                                                                  max_order):
    # one-id monomials up the lift table, longer ones by the Leibniz rule,
    # x^i lowered and then sent to zero, and the chain's error where a lift
    # passes the bound
    got = outcome(sum_of_total_derivatives, terms, CFG, max_order)
    assert got == outcome(chain_of_single_derivatives, terms, CFG, max_order)
    if not got.startswith("ValueError"):
        assert_canonical(sum_of_total_derivatives(terms, CFG, max_order))
        # the empty multi-index is the identity
        empty = [(e, (), sign) for e, _, sign in terms]
        assert sum_of_total_derivatives(empty, CFG) == Expr.sum(sign * e for e, _, sign in empty)


# factors for the product kernel: the kernel operands, zero and other
# constants over several denominators, and +-1 times one monomial
product_factors = st.one_of(
    kernel_operands,
    st.builds(Expr.constant, rationals),
    st.builds(Expr.monomial, kernel_monomials, st.sampled_from((1, -1))),
)


@PROPERTY
@given(st.lists(st.tuples(product_factors, product_factors, st.sampled_from((1, -1))),
                max_size=4))
def test_sum_of_products_matches_the_sum_of_the_products(terms):
    got = sum_of_products(terms)
    expected = Expr.sum(generic_product(a, b) * sign for a, b, sign in terms)
    assert got == expected == Expr.sum(a * b * sign for a, b, sign in terms)
    assert list(got.terms()) == list(expected.terms())
    assert_canonical(got)


@PROPERTY
@given(kernel_operands)
def test_partial_and_gradient_match_the_reference_ring(a):
    expected = ReferenceExpr(dict(a.terms())).gradient()
    gradient = a.gradient()
    assert list(gradient) == sorted(expected, key=coordinate_sort_key)
    for c in KERNEL_COORDS:
        text = render_expr(expected[c]) if c in expected else "0"
        for got in (gradient.get(c, Expr.zero()), a.partial(c)):
            assert render_expr(got) == text
            assert_canonical(got)


@PROPERTY
@given(kernel_operands, st.dictionaries(st.sampled_from(KERNEL_COORDS), kernel_operands,
                                        max_size=3))
def test_substitute_matches_the_per_monomial_kernel(a, replacements):
    got = substitute(a, replacements)
    expected = per_monomial_substitute(a, replacements)
    assert got == expected
    assert list(got.terms()) == list(expected.terms())
    assert_canonical(got)


# field keys: the kernel coordinates (x, y, z and coefficient symbols), a
# field index that no operand holds, and a coordinate never interned
FIELD_COORDS = KERNEL_COORDS + [field_coord(9), ("c", "unseen by any expression")]


@PROPERTY
@given(paired_polynomials(KERNEL_COORDS),
       st.dictionaries(st.sampled_from(FIELD_COORDS), paired_polynomials(KERNEL_COORDS, 2),
                       max_size=4),
       paired_polynomials(KERNEL_COORDS, 2))
def test_derivation_matches_the_gradient_of_the_reference_ring(u, field, weight):
    # sum_c Y^c de/dc + w e from ReferenceExpr.gradient, with rational
    # entries, entries on coordinates e does not hold, and a zero weight
    a, ra = u
    (w, rw) = weight
    gradient = ra.gradient()
    expected = ReferenceExpr.sum(
        [r * gradient[c] for c, (_, r) in field.items() if c in gradient] + [rw * ra]
    )
    values = {c: e for c, (e, _) in field.items()}
    for got, reference in ((a.derivation(values, w), expected),
                           (a.derivation(values, Expr.zero()), expected - rw * ra)):
        assert render_expr(got) == render_expr(reference)
        assert_canonical(got)


# images of one id, rational multiples of one coordinate, as the prolonged
# components of a field affine in x and y are, and constants
one_id_images = st.one_of(
    st.builds(lambda c, q: Expr.monomial({c: 1}, q), st.sampled_from(KERNEL_COORDS), rationals),
    st.builds(Expr.constant, rationals),
)


@PROPERTY
@given(kernel_operands,
       st.dictionaries(st.sampled_from(FIELD_COORDS),
                       st.lists(one_id_images, max_size=2).map(Expr.sum), max_size=4),
       one_id_images)
def test_derivation_along_one_id_images_matches_the_route_of_the_reference_symmetry_test(
        a, field, weight):
    # reference_is_symmetry's route: every entry times its partial, plus the
    # weight times the expression, by the generic product
    got = a.derivation(field, weight)
    expected = Expr.sum(
        [generic_product(field[c], part) for c, part in a.gradient().items() if c in field]
        + [generic_product(a, weight)]
    )
    assert got == expected
    assert list(got.terms()) == list(expected.terms())
    assert_canonical(got)


@PROPERTY
@given(pairs)
def test_terms_round_trip_through_the_dict_constructor(u):
    a, _ = u
    assert_canonical(a)
    assert Expr(dict(a.terms())) == a
    for _, c in a.terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    # the parser's bounds read these without sorting the terms
    assert a.term_count() == len(a.terms())
    assert a.largest_part() == max(
        [1] + [max(abs(Fraction(c).numerator), Fraction(c).denominator) for _, c in a.terms()])


# a field index and coefficient symbols that only the next property uses,
# their coordinates interned here in the reverse of the coordinate order, so
# that ids and coordinate order disagree whatever the other tests intern first
REVERSED = [field_coord(7)] + [
    jet_coord(7, I) for level in (1, 2, 3) for I in multiindices(2, level)
] + [("c", f"r{j}") for j in range(3)]
for _coord in reversed(REVERSED):
    Expr.variable(_coord)
mixed_monomials = st.dictionaries(
    st.sampled_from(KERNEL_COORDS + REVERSED), st.integers(1, 6), max_size=4
)
mixed_operands = st.lists(st.tuples(mixed_monomials, rationals), max_size=5).map(
    lambda terms: Expr.sum(Expr.monomial(powers, c) for powers, c in terms)
)


def assert_terms_in_coordinate_order(e):
    # the factors of each monomial in coordinate order, the monomials in
    # canonical order: by the (key, exponent) pairs of their factors
    monomials = []
    for mono, _ in e.terms():
        keys = [coordinate_sort_key(c) for c, _ in mono]
        assert keys == sorted(set(keys)), mono
        monomials.append([(coordinate_sort_key(c), exp) for c, exp in mono])
    assert monomials == sorted(monomials)
    assert Expr(e.terms()) == e


@PROPERTY
@given(mixed_operands, mixed_operands, st.integers(1, 2), st.integers(1, 3))
def test_terms_come_in_coordinate_order_whatever_the_ids(a, b, i, max_order):
    assert_terms_in_coordinate_order(a)
    assert_terms_in_coordinate_order(a * b)
    assert_terms_in_coordinate_order(total_derivative(a, i, CFG, 4))
    assert_terms_in_coordinate_order(substitute(a, {REVERSED[-1]: b, REVERSED[1]: b}))
    # an order-bound error names the first coordinate in coordinate order,
    # alone and inside a sum
    got = outcome(total_derivative, a, i, CFG, max_order)
    assert got == outcome(two_pass_total_derivative, a, i, CFG, max_order)
    terms = [(b, (3 - i,), 1), (a, (i,), -1)]
    got = outcome(sum_of_total_derivatives, terms, CFG, max_order)
    assert got == outcome(signed_two_pass_sum, terms, CFG, max_order)
    gradient = a.gradient()
    keys = [coordinate_sort_key(c) for c in gradient]
    assert keys == sorted(keys)
    for c, part in gradient.items():
        assert part == a.partial(c)
        assert_terms_in_coordinate_order(part)


@PROPERTY
@given(low_order_exprs)
def test_total_derivatives_commute(e):
    d12 = total_derivative(total_derivative(e, 1, CFG), 2, CFG)
    d21 = total_derivative(total_derivative(e, 2, CFG), 1, CFG)
    assert d12 == d21


@PROPERTY
@given(st.integers(0, 2).flatmap(forms))
def test_d_squared_is_zero(alpha):
    assert alpha.d().d().is_zero


def coordinate_lie_derivative(X, form):
    """L_X from coordinates: X(f) on coefficients and L_X dc = d(X^c) on
    every factor, independent of interior products."""
    pieces = []
    for wedge, f in form.terms():
        factors = [basis_form(b) for b in wedge]
        directional = Expr.sum(comp * f.partial(c) for c, comp in X.items())
        pieces.append(DifferentialForm.from_scalar(directional).wedge(wedge_all(factors)))
        for j, b in enumerate(wedge):
            comp = X.get(b, Expr.zero())
            swapped = factors[:j] + [DifferentialForm.from_scalar(comp).d()] + factors[j + 1:]
            pieces.append(DifferentialForm.from_scalar(f).wedge(wedge_all(swapped)))
    return DifferentialForm.sum(form.degree, pieces)


@PROPERTY
@given(fields, st.integers(0, 2).flatmap(forms))
def test_cartan_formula(X, alpha):
    assert lie_derivative(X, alpha) == coordinate_lie_derivative(X, alpha)


@PROPERTY
@given(st.integers(0, CFG.m).flatmap(forms))
def test_holonomic_reduce_matches_the_per_term_lifts(form):
    # each wedge's terms summed through one sum_of_products against one Expr
    # per term and choice of directions, coefficients over several
    # denominators
    got = holonomic_reduce(form, CFG)
    expected = per_term_holonomic_reduce(form, CFG)
    assert got.degree == expected.degree == form.degree
    assert dict(got.terms()) == dict(expected.terms())
    for _, coeff in got.terms():
        assert_canonical(coeff)


@PROPERTY
@given(exprs, base_polynomials, st.integers(1, 2))
def test_section_substitution_commutes_with_total_derivative(e, component, i):
    sigma = PolynomialSection(CFG, (component,))
    lhs = substitute_section(total_derivative(e, i, CFG), sigma)
    rhs = substitute_section(e, sigma).partial(base_coord(i))
    assert lhs == rhs


# x, y and z up to the expression order 2k = 4 and a coefficient symbol,
# exponents up to 6; the components are polynomials in x and the symbol,
# zero included, so zero components and derivatives past their degree give
# zero images
SECTION_COORDS = (
    enumerate_coordinates(CFG, CFG.working_order)
    + [jet_coord(1, I) for I in multiindices(CFG.m, CFG.expression_order)]
    + [("c", "s")]
)
section_monomials = st.dictionaries(st.sampled_from(SECTION_COORDS), st.integers(1, 6),
                                    max_size=3)
section_operands = st.lists(st.tuples(section_monomials, rationals), max_size=4).map(
    lambda terms: Expr.sum(Expr.monomial(powers, c) for powers, c in terms)
)


@st.composite
def section_substitutions(draw):
    """(component, exprs, order): several Exprs to substitute through one
    section, in the drawn order, repeats included."""
    component = draw(polynomials(BASE + [("c", "s")], 3))
    operands = draw(st.lists(section_operands, min_size=1, max_size=4))
    order = draw(st.lists(st.sampled_from(range(len(operands))), min_size=1, max_size=8))
    return component, operands, order


@settings(max_examples=80, derandomize=True, deadline=None)
@given(section_substitutions())
def test_section_substitution_matches_the_reference(problem):
    # the images a section keeps from one substitution serve the next
    component, operands, order = problem
    sigma = PolynomialSection(CFG, (component,))
    for j in order:
        got = substitute_section(operands[j], sigma)
        expected = reference_substitute_section(
            operands[j], PolynomialSection(CFG, (component,))
        )
        assert got == expected
        assert list(got.terms()) == list(expected.terms())
        assert_canonical(got)


@PROPERTY
@given(projectable_fields, exprs, st.integers(1, 2))
def test_prolongation_commutator(Y, f, i):
    # pr Y(D_i f) = D_i(pr Y f) - sum_j D_i(Y^j) D_j f for f of jet order
    # <= 2k-2, with pr Y f = sum_c Y^c df/dc read off prolong(Y, 2k-1)
    lifted = prolong(Y, CFG.working_order)

    def pr(g):
        return Expr.sum(
            lifted[c] * partial for c, partial in g.gradient().items() if c in lifted
        )

    shift = Expr.sum(
        total_derivative(comp, i, CFG) * total_derivative(f, j, CFG)
        for j, comp in enumerate(Y.base_components, 1)
    )
    assert pr(total_derivative(f, i, CFG)) == total_derivative(pr(f), i, CFG) - shift


IDENTITY_SHAPES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 2), (2, 2, 2), (1, 2, 3),
                   (2, 1, 3))


@st.composite
def boundary_problems(draw):
    """(cfg, L, corruption): a Lagrangian of jet order <= k and additions to
    at most two boundary coefficients p^{i1,T}_a, often none."""
    cfg = JetConfig(*draw(st.sampled_from(IDENTITY_SHAPES)))
    coords = enumerate_coordinates(cfg, cfg.k)
    keys = [
        (a, i1, tail)
        for a in range(1, cfg.n + 1)
        for i1 in range(1, cfg.m + 1)
        for level in range(cfg.k)
        for tail in multiindices(cfg.m, level)
    ]
    corruption = st.dictionaries(
        st.sampled_from(keys), polynomials(coords, 2, min_terms=1), max_size=2
    )
    return cfg, draw(polynomials(coords, min_terms=1)), draw(corruption)


@PROPERTY
@given(boundary_problems())
def test_vertical_contractions_of_phi_plus_dxi_follow_the_coefficient_identity(problem):
    # reduce X -| (Phi + dXi) for every source-vertical basis X at the form
    # level: (Phi_a - sum_i D_i p^i_a) d_m x at d/dy^a, -r^a_I d_m x at
    # d/dz^a_I, nothing else, for any coefficients p
    cfg, lagrangian, corruption = problem
    phi, dec = phi_from_lagrangian(cfg, lagrangian)
    # Phi from its components is d(L d_m x)
    assert phi == DifferentialForm.from_scalar(lagrangian).wedge(volume_form(cfg)).d()
    symmetric = symmetric_boundary_coefficients(dec)
    table = dict(symmetric.table)
    for key, delta in corruption.items():
        table[key] = table.get(key, Expr.zero()) + delta
    coeffs = BoundaryCoefficients(cfg, {key: p for key, p in table.items() if not p.is_zero})
    xi = BoundaryForm(coeffs, dec)  # built by hand: a corrupted table is not rejected
    reference = reduced_vertical_contractions(dec.form() + xi.form.d(), cfg)
    volume = volume_form(cfg)
    identity = {
        field_coord(a): volume * (dec.component(a) - coeffs.divergence(a, ()))
        for a in range(1, cfg.n + 1)
    }
    identity.update(
        (jet_coord(a, I), volume * -residual)
        for a, I, residual in _check_splitting_system(dec, coeffs)
    )
    assert reference == {c: form for c, form in identity.items() if not form.is_zero}
    # condition 3 reports the d/dz entries, signs and order included
    vol = tuple(base_coord(i) for i in range(1, cfg.m + 1))
    report = verify_condition3(dec, xi)
    assert report.failures == [
        (c[1], c[2], form.coefficient(vol)) for c, form in reference.items() if c[0] == "z"
    ]
    # the comparison against the symmetric boundary form reads the same
    # identity with Phi = 0 on the difference of the coefficients
    xi_symmetric = assemble_boundary_form(symmetric, dec)
    comparison = compare_boundary_forms(xi_symmetric, BoundaryForm(coeffs, dec))
    expected = reduced_vertical_contractions((xi_symmetric.form - xi.form).d(), cfg)
    assert [c for c, _ in comparison.pullback_failures] == list(expected)
    assert dict(comparison.pullback_failures) == expected
    assert comparison.ok == (not expected)


TABLE_SHAPES = ((1, 1, 1), (2, 1, 1), (3, 2, 1), (1, 2, 2), (2, 1, 2), (3, 2, 2), (2, 2, 2),
                (1, 1, 3), (2, 1, 3), (3, 2, 3))


def coefficient_keys(cfg):
    return [
        (a, i1, tail)
        for a in range(1, cfg.n + 1)
        for i1 in range(1, cfg.m + 1)
        for level in range(cfg.k)
        for tail in multiindices(cfg.m, level)
    ]


@st.composite
def coefficient_tables(draw):
    """(cfg, table, dec): the symmetric table of a random Lagrangian, plus
    additions at a few keys that often break the system, or a table of
    random coefficients against Phi = 0."""
    cfg = JetConfig(*draw(st.sampled_from(TABLE_SHAPES)))
    coords = enumerate_coordinates(cfg, cfg.k)
    additions = st.dictionaries(
        st.sampled_from(coefficient_keys(cfg)), polynomials(coords, 2, min_terms=1), max_size=3
    )
    if draw(st.booleans()):
        return cfg, draw(additions), PhiDecomposition(cfg, {})
    _, dec = phi_from_lagrangian(cfg, draw(polynomials(coords, min_terms=1)))
    table = dict(symmetric_boundary_coefficients(dec).table)
    for key, value in draw(additions).items():
        table[key] = table.get(key, Expr.zero()) + value
    return cfg, {key: p for key, p in table.items() if not p.is_zero}, dec


@PROPERTY
@given(coefficient_tables())
def test_boundary_form_from_the_table_equals_the_contact_form_reference(problem):
    # Xi written straight from the coefficient table is, term by term, the
    # sum of p^{i1,T}_a theta^a_T ^ (d/dx^{i1} -| d_m x) over contact forms,
    # whether or not the table solves the system of its Phi; it pulls back
    # to zero along every section, which assembly leaves to verify, and
    # assembly accepts the table exactly when it solves that system
    cfg, table, dec = problem
    coeffs = BoundaryCoefficients(cfg, table)
    xi = BoundaryForm(coeffs, dec)
    assert dict(xi.form.terms()) == dict(contact_boundary_form(table, cfg).terms())
    assert holonomic_reduce(xi.form, cfg).is_zero
    if _check_splitting_system(dec, coeffs):
        with pytest.raises(AssertionError, match="do not solve the boundary system"):
            assemble_boundary_form(coeffs, dec)
    else:
        assert assemble_boundary_form(coeffs, dec).form == xi.form


@st.composite
def drawn_key_tables(draw):
    """(cfg, keys): a few coefficient keys, drawn among the keys of levels 1
    to k+1 with canonical tails in range and keys whose every index may run
    one past its range, with tails up to length k in any order."""
    cfg = JetConfig(*draw(st.sampled_from(TABLE_SHAPES)))
    levels = [
        (a, i1, tail)
        for a in range(1, cfg.n + 1)
        for i1 in range(1, cfg.m + 1)
        for level in range(cfg.k + 1)
        for tail in multiindices(cfg.m, level)
    ]
    index = st.integers(0, cfg.m + 1)
    raw = st.tuples(st.integers(0, cfg.n + 1), index, st.lists(index, max_size=cfg.k).map(tuple))
    keys = st.lists(st.one_of(st.sampled_from(levels), raw), min_size=1, max_size=4)
    return cfg, draw(keys)


@PROPERTY
@given(drawn_key_tables())
def test_tables_whose_keys_pass_the_key_check_assemble_to_a_structural_boundary_form(problem):
    # assembly evaluates no structural predicate: a key that _check_key
    # accepts writes one dz^a_T factor with |T| <= k-1, so Xi meets both
    # STRUCTURAL_CHECKS; a table with a key it rejects raises a ValueError
    # before any system is checked
    cfg, keys = problem
    coeffs = BoundaryCoefficients(cfg, {key: Expr.variable(field_coord(1)) + 1 for key in keys})
    zero = PhiDecomposition(cfg, {})
    rejected = []
    for key in coeffs.table:
        try:
            _check_key(cfg, key)
        except ValueError:
            rejected.append(key)
    if rejected:
        with pytest.raises(ValueError, match="coefficient key"):
            assemble_boundary_form(coeffs, zero)
        return
    # the Phi the table solves: its residuals against Phi = 0
    solved = {jet_coord(a, I): r for a, I, r in _check_splitting_system(zero, coeffs)}
    xi = assemble_boundary_form(coeffs, PhiDecomposition(cfg, solved))
    assert all(holds(xi.form, cfg) for _, holds in STRUCTURAL_CHECKS)


PERTURBATION_SHAPES = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 2, 2), (3, 2, 3))


@st.composite
def perturbations(draw):
    """(L, dec, delta): a random Lagrangian, its Phi and homogeneous
    top-level data, +q and -q on two splittings of some top-level indices."""
    cfg = JetConfig(*draw(st.sampled_from(PERTURBATION_SHAPES)))
    coords = enumerate_coordinates(cfg, cfg.k)
    lagrangian = draw(polynomials(coords, min_terms=1))
    _, dec = phi_from_lagrangian(cfg, lagrangian)
    delta: dict = {}
    for a in range(1, cfg.n + 1):
        for I in multiindices(cfg.m, cfg.k):
            parts = splittings(I)
            if len(parts) < 2 or not draw(st.booleans()):
                continue
            first, second = draw(st.permutations(parts))[:2]
            q = draw(polynomials(coords, 2, min_terms=1))
            delta[(a, *first)] = delta.get((a, *first), Expr.zero()) + q
            delta[(a, *second)] = delta.get((a, *second), Expr.zero()) - q
    return lagrangian, dec, {key: q for key, q in delta.items() if not q.is_zero}


@PROPERTY
@given(perturbations())
def test_perturbed_coefficients_equal_a_fresh_solve(problem):
    # by linearity, the symmetric table plus the solve of delta with Phi = 0
    # is the solve of delta against Phi: every coefficient and every entry of
    # the divergence table
    lagrangian, dec, delta = problem
    cfg = dec.cfg
    perturbed = perturbed_coefficients(dec, delta)
    fresh = _solve_top_down(dec, delta)
    assert perturbed.table == fresh.table
    for a in range(1, cfg.n + 1):
        for level in range(cfg.k):
            for I in multiindices(cfg.m, level):
                assert perturbed.divergence(a, I) == fresh.divergence(a, I), (a, I)
    # the Euler operator is Phi_a - sum_i D_i p^i_a for the symmetric and the
    # skew solution alike, and a derivation reads the same list
    deltas = lagrange_derivative(cfg, lagrangian)
    assert derive(cfg, lagrangian).euler_lagrange() == deltas
    for coeffs in (symmetric_boundary_coefficients(dec), perturbed):
        assert deltas == [
            dec.component(a) - Expr.sum(
                total_derivative(coefficient(coeffs, a, i), i, cfg, cfg.expression_order)
                for i in range(1, cfg.m + 1)
            )
            for a in range(1, cfg.n + 1)
        ]


@PROPERTY
@given(perturbations())
def test_perturbed_splitting_sums_and_volume_coefficient_equal_a_fresh_computation(problem):
    # the summed table's divergences, splitting sums and d_m x coefficient
    # are those of the same table without parts, the empty index included
    _, dec, delta = problem
    cfg = dec.cfg
    perturbed = perturbed_coefficients(dec, delta)
    fresh = BoundaryCoefficients(cfg, dict(perturbed.table))
    for a in range(1, cfg.n + 1):
        for level in range(cfg.k):
            for I in multiindices(cfg.m, level):
                assert perturbed.divergence(a, I) == fresh.divergence(a, I), (a, I)
    assert perturbed.splitting_sums() == fresh.splitting_sums()
    assert perturbed.volume_coefficient() == fresh.volume_coefficient()


# prolongation shapes up to 2k - 1 = 3 and m = 3
@st.composite
def lagrangians(draw):
    """(cfg, L) at a perturbation shape: x, y, z up to order k and a
    coefficient symbol, degree up to 6 and coefficients over several
    denominators."""
    cfg = JetConfig(*draw(st.sampled_from(PERTURBATION_SHAPES)))
    return cfg, draw(polynomials(enumerate_coordinates(cfg, cfg.k) + [("c", "s")]))


@PROPERTY
@given(lagrangians())
def test_lagrange_derivative_matches_the_chain_of_total_derivatives(problem):
    cfg, lagrangian = problem
    got = lagrange_derivative(cfg, lagrangian)
    assert got == chain_lagrange_derivative(cfg, lagrangian)
    for delta in got:
        assert_canonical(delta)


@PROPERTY
@given(perturbations())
def test_volume_coefficient_is_minus_z_times_the_splitting_sums(problem):
    # the product kernel against one product Expr per splitting sum
    _, dec, delta = problem
    for coeffs in (symmetric_boundary_coefficients(dec), perturbed_coefficients(dec, delta)):
        expected = Expr.sum(
            generic_product(-Expr.variable(c), total)
            for c, total in coeffs.splitting_sums().items()
        )
        assert coeffs.volume_coefficient() == expected


FIELD_SHAPES = ((1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 2), (2, 1, 2), (1, 1, 2), (2, 2, 1))


def quadratics(coords, max_terms=3):
    """Polynomials of degree <= 2 in ``coords`` with rational coefficients,
    zero included."""
    monomial = st.lists(st.sampled_from(coords), max_size=2)
    return st.lists(st.tuples(monomial, rationals), max_size=max_terms).map(
        lambda terms: Expr([(tuple((c, 1) for c in mono), q) for mono, q in terms])
    )


@st.composite
def prolongation_problems(draw):
    """(Y, L, theta, sigma): a projectable field with base components of
    degree <= 2 in x and vertical ones of degree <= 2 in (x, y), zero ones
    included, a Lagrangian, its symmetric De Donder form and a section."""
    cfg = JetConfig(*draw(st.sampled_from(FIELD_SHAPES)))
    xs = [base_coord(i) for i in range(1, cfg.m + 1)]
    xys = xs + [field_coord(a) for a in range(1, cfg.n + 1)]
    zero = st.just(Expr.zero())
    Y = ProjectableField(
        cfg,
        tuple(draw(st.one_of(zero, quadratics(xs))) for _ in range(cfg.m)),
        tuple(draw(st.one_of(zero, quadratics(xys))) for _ in range(cfg.n)),
    )
    lagrangian = draw(polynomials(enumerate_coordinates(cfg, cfg.k), min_terms=1))
    theta = derive(cfg, lagrangian).theta_symmetric
    sigma = PolynomialSection(cfg, [draw(polynomials(xs, 3)) for _ in range(cfg.n)])
    return Y, lagrangian, theta, sigma


@PROPERTY
@given(prolongation_problems())
def test_prolongation_matches_the_characteristic_reference(problem):
    # the recursive formula against D_I Q^a + Y^j z^a_{I+j}: every order,
    # the key order, the characteristic jets, the symmetry residual and the
    # currents with a section and without
    Y, lagrangian, theta, sigma = problem
    cfg = Y.cfg
    for order in range(1, cfg.working_order + 1):
        got, expected = prolong(Y, order), reference_prolong(Y, order)
        assert got == expected and list(got) == list(expected)
    for order in range(cfg.working_order + 1):
        got = characteristic_jets(Y, order)
        expected = reference_characteristic_jets(Y, order)
        assert got == expected and list(got) == list(expected)
    flag, residual = is_symmetry(Y, lagrangian)
    ref_flag, ref_residual = reference_is_symmetry(Y, lagrangian)
    assert flag == ref_flag and residual == ref_residual
    for section in (sigma, None):
        assert noether_current(Y, theta, section) == reference_noether_current(Y, theta, section)


# -- the band of a Cauchy state ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _wave_energies():
    from jetforms.numeric import EnergyFunctional
    from jetforms.wave import wave_problem

    wp = wave_problem()
    return EnergyFunctional(wp.theta_symmetric), EnergyFunctional(wp.theta_skew())


@settings(PROPERTY, max_examples=30)
@given(
    st.sampled_from((16, 17, 64, 101, 256)),
    st.sampled_from(((0.0, 6.283185307179586), (-1.3, 2.8), (0.5, 0.87))),
    st.integers(2, 3),
    st.data(),
)
def test_a_band_limited_state_steps_and_weighs_as_the_full_spectrum_references(
    count, axis, n, data
):
    # a state stores only its band and a step and the energy read only that,
    # the references every mode: bit for bit the same spectra and energies,
    # and the modes past the band read exactly zero, whatever the steps'
    # signs.  Then steps of sizes k/16, exact in floats, go through at least
    # two step sizes and back to the first, the last one twice in a row
    import numpy as np

    from jetforms.numeric import (
        CauchyState, GridSpec, _time_scales, band_limited_state, cauchy_evolve,
    )
    from tests.support import reference_cauchy_evolve, reference_energy

    max_mode = data.draw(st.integers(1, (count - 1) // 2), label="max_mode")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    times = data.draw(
        st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=4), label="times"
    )
    sizes = data.draw(st.lists(
        st.integers(-64, 64).filter(bool), min_size=2, max_size=3, unique=True
    ), label="step sizes in 1/16")
    times = [*times, 0.0]
    for size in [*sizes, sizes[0], sizes[0]]:
        times.append(times[-1] + size / 16)
    grid = GridSpec(((axis[0], axis[1], count, True),))
    state = ref = band_limited_state(grid, n, max_mode, seed)
    for t in [0.0, *times]:
        state, ref = cauchy_evolve(state, t), reference_cauchy_evolve(ref, t)
        assert np.array_equal(state.spectrum, ref.spectrum)
        assert state.t == ref.t == t
        assert state._u.shape == (n, 4, max_mode + 1)
        assert state.spectrum.shape == (n, 4, count // 2 + 1)
        assert not state.spectrum[:, :, max_mode + 1 :].any()
        padded = np.fft.irfft(state.spectrum * _time_scales(grid), n=count, axis=2)
        assert np.array_equal(state.data, padded)
        for energy in _wave_energies():
            assert energy(state) == reference_energy(energy, ref)
    # the full band on the same grid constants, one more step of the last size
    full = CauchyState._from_spectrum(state.modes, state.spectrum, state.t)
    t = state.t + sizes[0] / 16
    assert np.array_equal(cauchy_evolve(full, t).spectrum,
                          reference_cauchy_evolve(ref, t).spectrum)
