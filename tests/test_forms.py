import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from jetforms.expressions import (
    Expr,
    PolynomialSection,
    x_var,
    y_var,
    z_var,
)
from jetforms.forms import (
    DifferentialForm,
    base_contraction,
    basis_vector,
    holonomic_pullback,
    holonomic_reduce,
    interior_product,
    is_semibasic,
    volume_form,
)
from jetforms.jets import JetConfig, base_coord, enumerate_coordinates, field_coord, jet_coord
from jetforms.wave import wave_problem
from tests.support import (
    basis_form,
    contact_forms,
    lie_derivative,
    random_expr,
    vertical_contractions,
)


def form_dx(i):
    return basis_form(base_coord(i))


def form_dy(a):
    return basis_form(field_coord(a))


def test_wedge_examples():
    assert form_dx(1).wedge(form_dx(1)).is_zero
    assert form_dy(1).wedge(form_dx(1)) == -(form_dx(1).wedge(form_dy(1)))
    cfg = JetConfig(3, 1, 1)
    vol = volume_form(cfg)
    assert len(dict(vol.terms())) == 1
    assert vol.coefficient((base_coord(1), base_coord(2), base_coord(3))) == Expr.one()


def test_coordinate_is_its_own_wedge_factor():
    # d of the coordinate function c is the basis one-form dc, and the basis
    # field d/dc contracts it to 1
    one = DifferentialForm.from_scalar(Expr.one())
    for cfg in (JetConfig(1, 1, 1), JetConfig(2, 2, 2), JetConfig(3, 1, 2)):
        for c in enumerate_coordinates(cfg, cfg.working_order):
            dc = basis_form(c)
            assert DifferentialForm.from_scalar(Expr.variable(c)).d() == dc, c
            assert interior_product(basis_vector(c), dc) == one, c


def test_wedge_graded_commutative_random():
    rng = random.Random(5)
    cfg = JetConfig(2, 2, 1)
    basis = [
        base_coord(1), base_coord(2), field_coord(1), field_coord(2),
        jet_coord(1, (1,)), jet_coord(2, (2,)),
    ]
    for _ in range(40):
        deg_a = rng.randint(0, 2)
        deg_b = rng.randint(0, 2)
        alpha = random_form(rng, cfg, basis, deg_a)
        beta = random_form(rng, cfg, basis, deg_b)
        sign = (-1) ** (deg_a * deg_b)
        assert alpha.wedge(beta) == beta.wedge(alpha) * sign
    gamma = random_form(rng, cfg, basis, 1)
    assert (alpha.wedge(beta)).wedge(gamma) == alpha.wedge(beta.wedge(gamma))


def random_form(rng, cfg, basis, degree, terms=3):
    out = DifferentialForm.zero(degree)
    for _ in range(terms):
        chosen = rng.sample(basis, degree) if degree else []
        block = DifferentialForm.from_scalar(random_expr(rng, cfg, 1, degree=2, terms=2))
        for b in chosen:
            block = block.wedge(basis_form(b))
        out = out + block
    return out


def test_exterior_derivative_examples():
    # d(y dx) = dy ^ dx = -(dx ^ dy)
    alpha = DifferentialForm.from_scalar(y_var(1)).wedge(form_dx(1))
    d_alpha = alpha.d()
    assert d_alpha.coefficient((base_coord(1), field_coord(1))) == Expr.constant(-1)
    wp = wave_problem()
    lam = DifferentialForm.from_scalar(wp.lagrangian).wedge(volume_form(wp.cfg))
    d_lam = lam.d()
    # wave example: dLambda = 2 g_ab g^ij g^kl z^b_kl dz^a_ij ^ d_2x; spot-check
    vol_wedge = (base_coord(1), base_coord(2))
    got = d_lam.coefficient(vol_wedge + (jet_coord(1, (1, 1)),))
    expected = 2 * (z_var(1, (1, 1)) - z_var(1, (2, 2)))
    assert got == expected
    # d of dXi vanishes
    assert wp.boundary_symmetric.form.d().d().is_zero


def test_d_squared_zero_random():
    rng = random.Random(12)
    cfg = JetConfig(2, 1, 2)
    basis = [
        base_coord(1), base_coord(2), field_coord(1),
        jet_coord(1, (1,)), jet_coord(1, (1, 2)),
    ]
    for degree in (0, 1, 2):
        for _ in range(10):
            alpha = random_form(rng, cfg, basis, degree)
            assert alpha.d().d().is_zero


def test_interior_product_examples():
    cfg = JetConfig(2, 1, 1)
    vol = volume_form(cfg)
    # d/dx^i -| d_2x = delta_i^1 dx2 - delta_i^2 dx1
    c1 = base_contraction(cfg, 1)
    assert c1 == basis_form(base_coord(2))
    c2 = base_contraction(cfg, 2)
    assert c2 == -basis_form(base_coord(1))
    # Y_T -| dx^j = delta_1^j
    y_t = basis_vector(base_coord(1))
    assert interior_product(y_t, form_dx(1)) == DifferentialForm.from_scalar(Expr.one())
    assert interior_product(y_t, form_dx(2)).is_zero
    with pytest.raises(ValueError):
        interior_product(y_t, DifferentialForm.from_scalar(Expr.one()))


def test_interior_product_alternation_and_antiderivation():
    rng = random.Random(9)
    cfg = JetConfig(2, 2, 1)
    basis = [
        base_coord(1), base_coord(2), field_coord(1), field_coord(2),
        jet_coord(1, (1,)), jet_coord(2, (2,)),
    ]
    X = {
        field_coord(1): y_var(2),
        jet_coord(1, (1,)): x_var(1),
        base_coord(2): Expr.one(),
    }
    for _ in range(20):
        alpha = random_form(rng, cfg, basis, 2)
        beta = random_form(rng, cfg, basis, 1)
        # X -| (X -| alpha) = 0
        assert interior_product(X, interior_product(X, alpha)).is_zero
        # antiderivation on wedges
        lhs = interior_product(X, alpha.wedge(beta))
        rhs = interior_product(X, alpha).wedge(beta) + alpha.wedge(
            interior_product(X, beta)
        )
        assert lhs == rhs


def test_vertical_contractions_match_interior_product():
    # the one-scan kernel against the per-field reference, on forms whose
    # terms share factors
    rng = random.Random(17)
    for cfg in (JetConfig(2, 1, 2), JetConfig(2, 2, 2), JetConfig(3, 1, 2)):
        coords = enumerate_coordinates(cfg, cfg.working_order)
        vertical = [c for c in coords if c[0] != "x"]
        for degree in range(1, cfg.m + 2):
            for _ in range(4):
                form = random_form(rng, cfg, coords, degree, terms=8)
                contractions = vertical_contractions(form)
                assert set(contractions) <= set(vertical)
                for c in vertical:
                    expected = interior_product(basis_vector(c), form)
                    got = contractions.get(c, DifferentialForm.zero(degree - 1))
                    assert got == expected, (cfg, degree, c)
    with pytest.raises(ValueError):
        vertical_contractions(DifferentialForm.from_scalar(Expr.one()))


def reference_holonomic_reduce(form, cfg):
    """The wedge chain holonomic_reduce replaced: each dy^a / dz^a_I factor
    becomes the 1-form sum_i z^a_{I+i} dx^i and the factors are wedged in
    order."""
    result = DifferentialForm.zero(form.degree)
    for wedge_key, coeff in form.terms():
        partial = DifferentialForm(0, {(): coeff})
        for b in wedge_key:
            if b[0] == "x":
                factor = basis_form(b)
            else:
                indices = b[2] if b[0] == "z" else ()
                terms = {}
                for i in range(1, cfg.m + 1):
                    lifted = tuple(sorted(indices + (i,)))
                    if len(lifted) > cfg.expression_order:
                        raise ValueError("order overflow")
                    terms[(base_coord(i),)] = Expr.variable(jet_coord(b[1], lifted))
                factor = DifferentialForm(1, terms)
            partial = partial.wedge(factor)
        result = result + partial
    return result


def test_holonomic_reduce_matches_wedge_chain_reference():
    rng = random.Random(23)
    for cfg in (JetConfig(2, 1, 2), JetConfig(2, 2, 2), JetConfig(3, 1, 2)):
        coords = enumerate_coordinates(cfg, cfg.working_order)
        for degree in range(0, cfg.m + 2):
            for _ in range(4):
                form = random_form(rng, cfg, coords, degree, terms=8)
                reduced = holonomic_reduce(form, cfg)
                assert reduced.degree == degree
                assert reduced == reference_holonomic_reduce(form, cfg), (cfg, degree)
                assert all(b[0] == "x" for w, _ in reduced.terms() for b in w)


def test_holonomic_reduce_rejects_order_overflow():
    cfg = JetConfig(2, 1, 2)  # dz of order 2k = 4 would lift to order 5
    deep = basis_form(jet_coord(1, (1, 1, 1, 2)))
    # raised even where no base direction is left for the factor
    crowded = volume_form(cfg).wedge(deep)
    for form in (deep, crowded, deep + basis_form(field_coord(1))):
        with pytest.raises(ValueError, match="jet order 5"):
            holonomic_reduce(form, cfg)
        with pytest.raises(ValueError):
            reference_holonomic_reduce(form, cfg)
    assert holonomic_reduce(basis_form(jet_coord(1, (1, 1, 2))), cfg) == (
        basis_form(base_coord(1)) * z_var(1, (1, 1, 1, 2))
        + basis_form(base_coord(2)) * z_var(1, (1, 1, 2, 2))
    )


def test_holonomic_reduce_rejects_a_factor_with_no_lift():
    # a coefficient symbol is a constant of every D_i, so dc has no holonomic
    # relation; the wedge is built by hand, as d never writes one
    cfg = JetConfig(2, 1, 2)
    form = DifferentialForm(2, {(base_coord(1), ("c", "k")): z_var(1, (1,))})
    with pytest.raises(ValueError, match=r"c\[k\] has no holonomic lift"):
        holonomic_reduce(form, cfg)


def test_form_sum_equals_left_fold_of_add():
    rng = random.Random(4)
    cfg = JetConfig(2, 2, 1)
    basis = [
        base_coord(1), base_coord(2), field_coord(1), field_coord(2),
        jet_coord(1, (1,)), jet_coord(2, (2,)),
    ]
    for degree in (0, 1, 2):
        forms = [random_form(rng, cfg, basis, degree) for _ in range(4)]
        forms += [-forms[0], DifferentialForm.zero(degree + 1)]
        folded = DifferentialForm.zero(degree)
        for form in forms:
            folded = folded + form
        assert DifferentialForm.sum(degree, forms) == folded
    with pytest.raises(ValueError, match="degree 1 and 2"):
        DifferentialForm.sum(1, [form_dx(1), form_dx(1).wedge(form_dy(1))])


def test_lie_derivative_examples():
    wp = wave_problem()
    lam = DifferentialForm.from_scalar(wp.lagrangian).wedge(volume_form(wp.cfg))
    from jetforms.prolongations import prolong

    y_t = prolong(wp.time_translation, wp.cfg.k)
    assert lie_derivative(y_t, lam).is_zero
    # degree 0: L_X f = X -| df
    f = DifferentialForm.from_scalar(y_var(1) ** 2)
    X = {field_coord(1): x_var(1)}
    assert lie_derivative(X, f) == interior_product(X, f.d())
    # closed form: L_X alpha = d(X -| alpha)
    closed = form_dx(1).wedge(form_dy(1))  # d(y dx) is closed... use exact form
    assert closed.d().is_zero
    assert lie_derivative(X, closed) == interior_product(X, closed).d()


def _flow_lie_derivative_oracle(X, alpha, cfg, point, order, t_step=1e-4, fd=1e-5):
    """Numeric Lie derivative via the flow: d/dt (phi_t^* alpha) at t = 0."""
    coords = enumerate_coordinates(cfg, order)
    index = {c: i for i, c in enumerate(coords)}

    def rhs(_, state):
        values = {c: state[i] for i, c in enumerate(coords)}
        return [
            float(X.get(c, Expr.zero()).evaluate(values)) if True else 0.0
            for c in coords
        ]

    def flow(theta, t):
        if t == 0.0:
            return np.asarray(theta, dtype=float)
        sol = solve_ivp(
            rhs, (0.0, t), np.asarray(theta, dtype=float), rtol=1e-12, atol=1e-14,
            dense_output=False,
        )
        return sol.y[:, -1]

    theta0 = np.array([float(point[c]) for c in coords])

    def pullback_components(t):
        base = flow(theta0, t)
        jacobian = np.zeros((len(coords), len(coords)))
        for j in range(len(coords)):
            bumped = theta0.copy()
            bumped[j] += fd
            up = flow(bumped, t)
            bumped[j] -= 2 * fd
            down = flow(bumped, t)
            jacobian[:, j] = (up - down) / (2 * fd)
        values = {c: base[i] for i, c in enumerate(coords)}
        comps = {}
        for pair in itertools.combinations(range(len(coords)), alpha.degree):
            total = 0.0
            for wedge_key, coeff in alpha.terms():
                rows = [index[c] for c in wedge_key]
                minor = jacobian[np.ix_(rows, list(pair))]
                total += float(coeff.evaluate(values)) * np.linalg.det(minor)
            comps[pair] = total
        return comps

    plus = pullback_components(t_step)
    minus = pullback_components(-t_step)
    return {pair: (plus[pair] - minus[pair]) / (2 * t_step) for pair in plus}


def test_lie_derivative_matches_flow_oracle():
    cfg = JetConfig(1, 1, 1)
    coords = enumerate_coordinates(cfg, 1)
    x, y, z1 = coords
    X = {
        x: Expr.constant(1) + Fraction(1, 2) * x_var(1),
        y: y_var(1) * x_var(1),
        z1: z_var(1, (1,)) - y_var(1),
    }
    one_form = (
        DifferentialForm.from_scalar(y_var(1) * z_var(1, (1,))).wedge(form_dx(1))
        + DifferentialForm.from_scalar(x_var(1)).wedge(form_dy(1))
    )
    two_form = (
        DifferentialForm.from_scalar(z_var(1, (1,))).wedge(
            form_dx(1).wedge(form_dy(1))
        )
        + DifferentialForm.from_scalar(y_var(1) - 2).wedge(
            form_dy(1).wedge(basis_form(jet_coord(1, (1,))))
        )
    )
    point = {x: 0.3, y: -0.7, z1: 1.1}
    basis = [base_coord(1), field_coord(1), jet_coord(1, (1,))]
    for alpha in (one_form, two_form):
        symbolic = lie_derivative(X, alpha)
        oracle = _flow_lie_derivative_oracle(X, alpha, cfg, point, 1)
        for pair, numeric in oracle.items():
            wedge_key = tuple(basis[i] for i in pair)
            exact = float(symbolic.coefficient(wedge_key).evaluate(point))
            assert abs(exact - numeric) < 1e-6, (pair, exact, numeric)


def test_contact_forms():
    cfg = JetConfig(1, 1, 1)
    forms = contact_forms(cfg, 1)
    assert len(forms) == 1
    theta = forms[0]
    assert theta.coefficient((field_coord(1),)) == Expr.one()
    assert theta.coefficient((base_coord(1),)) == -z_var(1, (1,))
    cfg2 = JetConfig(2, 1, 2)
    assert len(contact_forms(cfg2, 2)) == 3
    cfg3 = JetConfig(2, 2, 2)
    assert len(contact_forms(cfg3, 3)) == 12


def test_holonomic_pullback_annihilates_contact_ideal():
    rng = random.Random(31)
    for cfg in (JetConfig(1, 1, 2), JetConfig(2, 1, 2), JetConfig(2, 2, 2)):
        sections = []
        for _ in range(3):
            comps = tuple(
                sum(
                    (
                        Expr.monomial(
                            {base_coord(i): rng.randrange(3) for i in range(1, cfg.m + 1)},
                            rng.randint(-3, 3),
                        )
                        for _ in range(4)
                    ),
                    Expr.zero(),
                )
                for _ in range(cfg.n)
            )
            sections.append(PolynomialSection(cfg, comps))
        for theta in contact_forms(cfg, cfg.working_order):
            assert holonomic_reduce(theta, cfg).is_zero
            for sigma in sections:
                assert holonomic_pullback(theta, sigma).is_zero


def test_pullback_commutes_with_d():
    rng = random.Random(77)
    cfg = JetConfig(2, 1, 2)
    basis = [
        base_coord(1), base_coord(2), field_coord(1),
        jet_coord(1, (2,)), jet_coord(1, (1, 2)),
    ]
    sigma = PolynomialSection(
        cfg, (x_var(1) ** 3 + 2 * x_var(1) * x_var(2) ** 2 - x_var(2),)
    )
    for _ in range(10):
        alpha = random_form(rng, cfg, basis, 1)
        lhs = holonomic_pullback(alpha, sigma).d()
        rhs = holonomic_pullback(alpha.d(), sigma)
        assert lhs == rhs


def test_wave_lagrangian_pullback_vanishes_on_travelling_waves():
    # (x - t)^3 has equal pure second derivatives in t and x, so the metric
    # contraction in L collapses and the pulled-back density is zero
    wp = wave_problem()
    lam = DifferentialForm.from_scalar(wp.lagrangian).wedge(volume_form(wp.cfg))
    sigma = PolynomialSection(
        wp.cfg, ((x_var(2) - x_var(1)) ** 3, (x_var(2) - x_var(1)) ** 2)
    )
    assert holonomic_pullback(lam, sigma).is_zero
    # a generic section does not collapse it
    generic = PolynomialSection(wp.cfg, (x_var(1) ** 2, x_var(2) ** 3))
    assert not holonomic_pullback(lam, generic).is_zero


def test_is_semibasic():
    wp = wave_problem()
    cfg = wp.cfg
    lam = DifferentialForm.from_scalar(wp.lagrangian).wedge(volume_form(cfg))
    # semi-basic over the source map: no vertical field contracts to nonzero
    assert vertical_contractions(lam) == {}
    assert is_semibasic(wp.boundary_symmetric.form, ("forgetful", cfg.k - 1))
    assert vertical_contractions(wp.boundary_symmetric.form) != {}
    mixed = form_dy(1).wedge(form_dx(1))
    assert vertical_contractions(mixed) != {}
    # over the target map: every dz factor has |I| >= 1
    assert is_semibasic(mixed, ("forgetful", 0))
    deep = basis_form(jet_coord(1, (1, 1, 2)))
    assert not is_semibasic(deep, ("forgetful", 0))
    assert not is_semibasic(deep, ("forgetful", 1))
    assert is_semibasic(deep, ("forgetful", 3))
    for fibration in ("source", "target", ("target", 1), ("forgetful",)):
        with pytest.raises(ValueError, match="unknown fibration"):
            is_semibasic(mixed, fibration)
