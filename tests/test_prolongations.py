import random
from fractions import Fraction

import pytest

from jetforms.dedonder import derive, lagrange_derivative
from jetforms.expressions import (
    Expr,
    PolynomialSection,
    generic_section,
    random_expr,
    total_derivative,
    x_var,
    y_var,
    z_var,
)
from jetforms.forms import (
    DifferentialForm,
    holonomic_pullback,
    holonomic_reduce,
    interior_product,
    lie_derivative,
    volume_form,
)
from jetforms.jets import JetConfig, base_coord, field_coord, jet_coord
from jetforms.numeric import flow_oracle
from jetforms.prolongations import (
    ProjectableField,
    is_symmetry,
    noether_current,
    preserves_contact_ideal,
    prolong,
)
from jetforms.wave import wave_problem


def _check_against_flow(Y, order, sigma, x0, tol=1e-6):
    lifted = prolong(Y, order)
    numeric = flow_oracle(Y, order, sigma, x0)
    values = sigma.jet_values(x0, order)
    worst = 0.0
    for coord, approx in numeric.items():
        exact = float(lifted.get(coord, Expr.zero()).evaluate(values))
        worst = max(worst, abs(exact - approx))
    assert worst < tol, worst
    return worst


def test_constant_vertical_field_has_zero_jet_components():
    cfg = JetConfig(1, 1, 2)
    Y = ProjectableField(cfg, (Expr.zero(),), (Expr.one(),))
    comps = prolong(Y, 3)
    assert comps == {field_coord(1): Expr.one()}


def test_base_translation_prolongs_trivially():
    wp = wave_problem()
    comps = prolong(wp.time_translation, 3)
    assert comps == {base_coord(1): Expr.one()}


def test_linear_vertical_field_components():
    cfg = JetConfig(1, 1, 2)
    Y = ProjectableField(cfg, (Expr.zero(),), (y_var(1),))
    comps = prolong(Y, 3)
    assert comps[jet_coord(1, (1,))] == z_var(1, (1,))
    assert comps[jet_coord(1, (1, 1))] == z_var(1, (1, 1))
    assert comps[jet_coord(1, (1, 1, 1))] == z_var(1, (1, 1, 1))


def test_lorentz_boost_first_jet_components():
    wp = wave_problem()
    comps = prolong(wp.lorentz_boost, 1)
    for a in (1, 2):
        assert comps[jet_coord(a, (1,))] == -z_var(a, (2,))
        assert comps[jet_coord(a, (2,))] == -z_var(a, (1,))


def test_prolong_order_guard():
    cfg = JetConfig(1, 1, 1)
    Y = ProjectableField(cfg, (Expr.zero(),), (y_var(1),))
    with pytest.raises(ValueError):
        prolong(Y, 2)
    with pytest.raises(ValueError):
        prolong(Y, 0)


def test_flow_oracle_fixtures():
    # five (field, section, point) fixtures across the recursion depths
    cfg = JetConfig(1, 1, 2)
    x, y = x_var(1), y_var(1)
    cubic = PolynomialSection(cfg, (x**3 + 2 * x,))
    quad = PolynomialSection(cfg, (x**2,))
    _check_against_flow(
        ProjectableField(cfg, (Expr.zero(),), (Expr.one(),)), 3, cubic, (Fraction(1, 2),)
    )
    _check_against_flow(
        ProjectableField(cfg, (Expr.one(),), (Expr.zero(),)), 3, cubic, (Fraction(1, 2),)
    )
    _check_against_flow(
        ProjectableField(cfg, (Expr.zero(),), (y,)), 3, quad, (Fraction(1),)
    )
    _check_against_flow(
        ProjectableField(cfg, (x,), (2 * y + x,)), 3, cubic, (Fraction(1, 3),)
    )
    wp = wave_problem()
    sigma2 = PolynomialSection(
        wp.cfg, ((x_var(2) - x_var(1)) ** 3, (x_var(2) - x_var(1)) ** 2)
    )
    _check_against_flow(wp.lorentz_boost, 3, sigma2, (Fraction(1, 3), Fraction(1, 5)))
    _check_against_flow(wp.time_translation, 3, sigma2, (Fraction(0), Fraction(1, 2)))


def test_flow_oracle_scaling_example():
    # Y = y d/dy on sigma = x^2: first jet component equals z_(1) on the jet
    cfg = JetConfig(1, 1, 2)
    Y = ProjectableField(cfg, (Expr.zero(),), (y_var(1),))
    sigma = PolynomialSection(cfg, (x_var(1) ** 2,))
    numeric = flow_oracle(Y, 1, sigma, (Fraction(1),))
    assert abs(numeric[jet_coord(1, (1,))] - 2.0) < 1e-7  # z_(1)(x0=1) = 2


def test_flow_oracle_rejects_nonaffine():
    cfg = JetConfig(1, 1, 2)
    Y = ProjectableField(cfg, (Expr.zero(),), (y_var(1) ** 2,))
    sigma = PolynomialSection(cfg, (x_var(1),))
    with pytest.raises(ValueError, match="affine"):
        flow_oracle(Y, 1, sigma, (Fraction(0),))


def test_contact_ideal_preserved():
    cfg = JetConfig(1, 1, 2)
    fields = [
        ProjectableField(cfg, (Expr.zero(),), (y_var(1),)),
        ProjectableField(cfg, (x_var(1),), (Expr.zero(),)),
        ProjectableField(cfg, (Expr.one(),), (x_var(1) * y_var(1),)),
    ]
    for Y in fields:
        assert preserves_contact_ideal(Y, 3)
    wp = wave_problem()
    assert preserves_contact_ideal(wp.lorentz_boost, 3)


def test_projection_compatibility():
    # truncating the order-3 prolongation reproduces the lower prolongations
    wp = wave_problem()
    Y = ProjectableField(
        wp.cfg,
        (x_var(2), x_var(1)),
        (y_var(2), y_var(1)),
    )
    full = prolong(Y, 3)
    for order in (1, 2):
        reduced = {
            coord: comp
            for coord, comp in full.items()
            if coord[0] != "z" or len(coord[2]) <= order
        }
        assert reduced == prolong(Y, order)


def test_is_symmetry_examples():
    wp = wave_problem()
    ok, cert = is_symmetry(wp.time_translation, wp.lagrangian)
    assert ok and cert.is_zero
    ok, _ = is_symmetry(wp.space_translation, wp.lagrangian)
    assert ok
    ok, _ = is_symmetry(wp.lorentz_boost, wp.lagrangian)
    assert ok
    # explicit time dependence breaks time translation
    cfg = JetConfig(1, 1, 1)
    L = x_var(1) * z_var(1, (1,)) ** 2
    Y = ProjectableField(cfg, (Expr.one(),), (Expr.zero(),))
    ok, cert = is_symmetry(Y, L)
    assert not ok and not cert.is_zero


def test_noether_current_closed_on_shell():
    wp = wave_problem()
    cfg = wp.cfg
    x1, x2 = x_var(1), x_var(2)
    # box y != 0 but box^2 y = 0: a nontrivial conserved current
    sigma = PolynomialSection(cfg, (x1**3 * x2, x1**3 + x2**3))
    from jetforms.dedonder import dedonder_residual

    assert all(
        form.is_zero
        for form in dedonder_residual(wp.theta_symmetric, sigma).values()
    )
    current = noether_current(wp.time_translation, wp.theta_symmetric, sigma)
    assert not current.is_zero
    assert current.d().is_zero
    # off shell the current fails to close
    bad = PolynomialSection(cfg, (x1**2 * x2**2, Expr.zero()))
    assert not noether_current(wp.time_translation, wp.theta_symmetric, bad).d().is_zero
    # zero Lagrangian: zero current
    cfg1 = JetConfig(1, 1, 1)
    from jetforms.dedonder import dedonder_form, derive

    theta0 = dedonder_form(
        cfg1, Expr.zero(), derive(cfg1, Expr.zero()).boundary_symmetric
    )
    Y0 = ProjectableField(cfg1, (Expr.one(),), (Expr.zero(),))
    assert noether_current(
        Y0, theta0, PolynomialSection(cfg1, (x_var(1) ** 2,))
    ).is_zero


def test_boundary_form_lie_derivative_pulls_back_to_zero():
    # for any projectable Y, j*(L_{Y^(2k-1)} Xi) = 0: flowing a section along
    # Y produces sections, and Xi pulls back to zero along all of them
    wp = wave_problem()
    cfg = wp.cfg
    fields = [
        wp.time_translation,
        wp.lorentz_boost,
        ProjectableField(cfg, (x_var(1), x_var(2)), (y_var(2), x_var(1) * y_var(1))),
    ]
    for Y in fields:
        lifted = prolong(Y, cfg.working_order)
        derived = lie_derivative(lifted, wp.boundary_symmetric.form)
        assert holonomic_reduce(derived, cfg).is_zero
    # the same holds for a skew-perturbed boundary form
    lifted = prolong(wp.lorentz_boost, cfg.working_order)
    derived = lie_derivative(lifted, wp.skew_boundary().form)
    assert holonomic_reduce(derived, cfg).is_zero


def test_energy_current_matches_display_structure():
    # the reduced Y_T current reproduces the slice-energy integrand shape:
    # (dL/dz^a_2 - P^{(i1 2)}_{a,i1}) y_,j dx^j + P^{(2 i2)}_a y_,{i2 j} dx^j
    #   - (P^i_a y_,i + P^{ij}_a y_,ij - L) dx^2
    wp = wave_problem()
    cfg = wp.cfg
    coeffs = wp.boundary_symmetric.coefficients
    J = noether_current(wp.time_translation, wp.theta_symmetric, None)
    hand = {1: Expr.zero(), 2: Expr.zero()}
    for a in (1, 2):
        for j in (1, 2):
            hand[j] = hand[j] + coeffs.coefficient(a, 2) * z_var(a, (j,))
            for i2 in (1, 2):
                hand[j] = hand[j] + coeffs.coefficient(a, 2, (i2,)) * z_var(
                    a, tuple(sorted((i2, j)))
                )
    legendre = Expr.zero()
    for a in (1, 2):
        for i in (1, 2):
            legendre = legendre + coeffs.coefficient(a, i) * z_var(a, (i,))
            for i2 in (1, 2):
                legendre = legendre + coeffs.coefficient(a, i, (i2,)) * z_var(
                    a, tuple(sorted((i, i2)))
                )
    hand[2] = hand[2] - (legendre - wp.lagrangian)
    assert J.coefficient((("dx", 1),)) == hand[1]
    assert J.coefficient((("dx", 2),)) == hand[2]


def test_skew_current_contribution_is_exact():
    # difference of the currents for skew vs symmetric boundary form equals
    # the total-derivative differential of P^{[21]}_a y^a_,1
    wp = wave_problem()
    cfg = wp.cfg
    J_sym = noether_current(wp.time_translation, wp.theta_symmetric, None)
    J_skew = noether_current(wp.time_translation, wp.theta_skew(), None)
    potential = Expr.zero()
    for a in (1, 2):
        q12 = z_var(a, (2,))  # the default skew choice in WaveProblem
        potential = potential + (-q12) * z_var(a, (1,))
    for i in (1, 2):
        diff = J_skew.coefficient((("dx", i),)) - J_sym.coefficient((("dx", i),))
        assert diff == total_derivative(
            potential, i, cfg, max_order=cfg.expression_order
        )


def _nonaffine_field(cfg):
    x1, x2 = x_var(1), x_var(min(2, cfg.m))
    base = (x1 * x2, x1**2) + (x2,) * (cfg.m - 2)
    vertical = (y_var(cfg.n) ** 2 + x1,) + tuple(
        x1 * y_var(1) * y_var(a) for a in range(2, cfg.n + 1)
    )
    return ProjectableField(cfg, base[: cfg.m], vertical)


def _random_lagrangian(rng, cfg):
    # a seeded polynomial with an x-dependent top-order product, so that
    # every rung reaches jet order k and no field below is a symmetry
    top = x_var(1) * z_var(1, (1,) * cfg.k) * z_var(cfg.n, (cfg.m,) * cfg.k)
    return random_expr(rng, cfg, cfg.k, degree=3, terms=8) + top


def _translation_and_boost(cfg):
    zero, x1, x2 = Expr.zero(), x_var(1), x_var(2)
    rest = (zero,) * (cfg.m - 2)
    vertical = (zero,) * cfg.n
    return [
        ProjectableField(cfg, (Expr.one(), zero) + rest, vertical),
        ProjectableField(cfg, (x2, x1) + rest, vertical),
    ]


def test_currents_match_dense_contraction_reference():
    # the dense pipeline the characteristic kernel replaced: prolong Y to
    # order 2k-1, contract the whole of Theta, reduce (and pull back)
    def dense(Y, theta):
        return interior_product(prolong(Y, theta.cfg.working_order), theta.form)

    wp = wave_problem()
    x1, x2 = x_var(1), x_var(2)
    wave_fields = [wp.time_translation, wp.lorentz_boost, _nonaffine_field(wp.cfg)]
    wave_sections = [
        PolynomialSection(wp.cfg, ((x2 - x1) ** 3, (x2 - x1) ** 2)),
        generic_section(wp.cfg, 3),
    ]
    cases = [
        (theta, wave_fields, wave_sections)
        for theta in (wp.theta_symmetric, wp.theta_skew())
    ]
    rng = random.Random(2024)
    for shape in ((1, 1, 2), (1, 2, 3), (3, 2, 2)):
        cfg = JetConfig(*shape)
        derivation = derive(cfg, _random_lagrangian(rng, cfg))
        zero = (Expr.zero(),) * cfg.n
        fields = [
            ProjectableField(cfg, (Expr.one(),) + zero[: cfg.m - 1], zero),
            _nonaffine_field(cfg),
        ]
        sections = [
            PolynomialSection(cfg, tuple(x1**3 + a * x_var(cfg.m) for a in range(cfg.n))),
            generic_section(cfg, 2 if cfg.m > 1 else 2 * cfg.k + 1),
        ]
        cases.append((derivation.theta_symmetric, fields, sections))
    for theta, fields, sections in cases:
        for Y in fields:
            reduced = holonomic_reduce(dense(Y, theta), theta.cfg)
            assert noether_current(Y, theta, None) == reduced
            for sigma in sections:
                assert noether_current(Y, theta, sigma) == holonomic_pullback(
                    dense(Y, theta), sigma
                )


def test_first_variation_formula():
    # off shell and without a section:
    #   h(L_{Y^k}(L d_m x)) = h d(J) + Q^a dL/dy^a d_m x
    # with J = noether_current(Y, Theta, None), the section-free current, and
    # Q^a = Y^a - z^a_j Y^j; the left side prolongs Y densely
    wp = wave_problem()
    fields = [wp.time_translation, wp.space_translation, wp.lorentz_boost]
    cases = [(theta, fields) for theta in (wp.theta_symmetric, wp.theta_skew())]
    rng = random.Random(77)
    for shape in ((2, 2, 2), (3, 2, 2), (2, 2, 3)):
        cfg = JetConfig(*shape)
        theta = derive(cfg, _random_lagrangian(rng, cfg)).theta_symmetric
        cases.append((theta, _translation_and_boost(cfg) + [_nonaffine_field(cfg)]))
    for theta, fields in cases:
        cfg, L = theta.cfg, theta.lagrangian
        lam = DifferentialForm.from_scalar(L).wedge(volume_form(cfg))
        deltas = lagrange_derivative(cfg, L)
        for Y in fields:
            lhs = holonomic_reduce(lie_derivative(prolong(Y, cfg.k), lam), cfg)
            source = Expr.sum(
                (Y.vertical_components[a - 1] - Expr.sum(
                    z_var(a, (j,)) * Y.base_components[j - 1] for j in range(1, cfg.m + 1)
                )) * deltas[a - 1]
                for a in range(1, cfg.n + 1)
            )
            rhs = holonomic_reduce(noether_current(Y, theta, None).d(), cfg)
            assert lhs == rhs + volume_form(cfg) * source
