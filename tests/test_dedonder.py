import random
import re
from fractions import Fraction

import pytest

from jetforms import dedonder
from jetforms.dedonder import (
    BoundaryCoefficients,
    BoundaryForm,
    DeDonderForm,
    PhiDecomposition,
    _check_splitting_system,
    assemble_boundary_form,
    compare_boundary_forms,
    dedonder_form,
    dedonder_residual,
    derive,
    double_vertical_contraction_vanishes,
    lagrange_derivative,
    perturbed_coefficients,
    phi_from_lagrangian,
    symmetric_boundary_coefficients,
    verify_condition3,
)
from jetforms.expressions import (
    Expr,
    PolynomialSection,
    render_expr,
    substitute_section,
    total_derivative,
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
from jetforms.jets import (
    JetConfig,
    base_coord,
    enumerate_coordinates,
    field_coord,
    jet_coord,
    multiindices,
    splittings,
)
from jetforms.wave import wave_problem
from tests.support import (
    basis_form,
    coeff_symbol,
    coefficient,
    contact_form,
    eager_boundary_form,
    eager_dedonder_form,
    per_term_holonomic_reduce,
    random_expr,
    reference_compare_boundary_forms,
    summed_table,
    vertical_contractions,
)


def test_phi_from_lagrangian_examples():
    cfg = JetConfig(2, 1, 1)
    phi, dec = phi_from_lagrangian(cfg, Expr.zero())
    assert phi.is_zero and not any(c[0] == "z" for c in dec.components)
    # k=1, L = 1/2 sum z_i^2: Phi^i = z_i, Phi_a = 0
    L = (z_var(1, (1,)) ** 2 + z_var(1, (2,)) ** 2) / 2
    phi, dec = phi_from_lagrangian(cfg, L)
    assert dec.component(1, (1,)) == z_var(1, (1,))
    assert dec.component(1, (2,)) == z_var(1, (2,))
    assert dec.component(1).is_zero
    # order guard
    cfg2 = JetConfig(2, 1, 2)
    with pytest.raises(ValueError):
        phi_from_lagrangian(cfg2, z_var(1, (1, 1, 2)))


def test_wave_phi_components():
    wp = wave_problem()
    box = {
        a: z_var(a, (1, 1)) - z_var(a, (2, 2)) for a in (1, 2)
    }
    g = {1: 1, 2: -1}
    for a in (1, 2):
        assert wp.decomposition.component(a).is_zero
        for i in (1, 2):
            assert wp.decomposition.component(a, (i,)).is_zero
        # canonical components dL/dz^a_I carry the multiplicities
        assert wp.decomposition.component(a, (1, 1)) == 2 * g[a] * box[a]
        assert wp.decomposition.component(a, (2, 2)) == -2 * g[a] * box[a]
        assert wp.decomposition.component(a, (1, 2)).is_zero


def test_symmetric_coefficients_wave_closed_form():
    wp = wave_problem()
    coeffs = wp.boundary_symmetric.coefficients
    g = {1: Fraction(1), 2: Fraction(-1)}
    for a in (1, 2):
        box = z_var(a, (1, 1)) - z_var(a, (2, 2))
        for i1 in (1, 2):
            for i2 in (1, 2):
                expected = (
                    2 * g[a] * (g[i1] if i1 == i2 else Fraction(0)) * box
                )
                assert coefficient(coeffs, a, i1, (i2,)) == expected
        # p^i_a = - sum_j D_j p^{j,(i)}: third-order jets with the metric signs
        for i in (1, 2):
            expected = Expr.zero()
            for j in (1, 2):
                expected = expected - total_derivative(
                    coefficient(coeffs, a, j, (i,)), j, wp.cfg
                )
            assert coefficient(coeffs, a, i) == expected


def test_coefficient_order_bounds():
    # level-r coefficients have jet order at most 2k - r
    rng = random.Random(10)
    for cfg in (JetConfig(2, 1, 2), JetConfig(1, 1, 3)):
        L = random_expr(rng, cfg, cfg.k, degree=2, terms=5)
        _, dec = phi_from_lagrangian(cfg, L)
        coeffs = symmetric_boundary_coefficients(dec)
        for (a, i1, tail), value in coeffs.table.items():
            level = len(tail) + 1
            assert value.jet_order() <= 2 * cfg.k - level


def test_perturbed_with_empty_delta_is_symmetric():
    # the shared top-down solve: no perturbation gives the symmetric table
    rng = random.Random(23)
    for cfg in (JetConfig(2, 2, 2), JetConfig(2, 1, 3)):
        L = random_expr(rng, cfg, cfg.k, degree=2, terms=6)
        _, dec = phi_from_lagrangian(cfg, L)
        symmetric = symmetric_boundary_coefficients(dec)
        assert symmetric.table
        assert perturbed_coefficients(dec, {}).table == symmetric.table


def fresh_divergence(coeffs: BoundaryCoefficients, a: int, I: tuple) -> Expr:
    """sum_j D_j p^{j,I}_a computed now from the table, under the bounds the
    memoized divergence keeps."""
    cfg = coeffs.cfg
    limit = cfg.working_order if I else cfg.expression_order
    return Expr.sum(
        total_derivative(coefficient(coeffs, a, j, I), j, cfg, limit)
        for j in range(1, cfg.m + 1)
    )


def assert_divergences_are_fresh(coeffs: BoundaryCoefficients) -> None:
    cfg = coeffs.cfg
    for a in range(1, cfg.n + 1):
        for level in range(cfg.k):
            for I in multiindices(cfg.m, level):
                value = coeffs.divergence(a, I)
                assert value == fresh_divergence(coeffs, a, I), (a, I)
                assert coeffs.divergence(a, I) is value  # computed once


def test_divergence_table_matches_a_fresh_divergence():
    rng = random.Random(31)
    for cfg, delta in (
        (JetConfig(2, 2, 2), dedonder.default_skew_perturbation(JetConfig(2, 2, 2))),
        (JetConfig(3, 1, 2), {(1, 1, (2,)): z_var(1, (3,)), (1, 2, (1,)): -z_var(1, (3,))}),
        (JetConfig(2, 1, 3), None),
    ):
        top = z_var(1, (1,) * cfg.k)
        L = random_expr(rng, cfg, cfg.k, degree=2, terms=6) + top * top
        _, dec = phi_from_lagrangian(cfg, L)
        # the tables the solve leaves behind, symmetric and perturbed: their
        # divergences were memoized while the levels above them were solved
        assert_divergences_are_fresh(symmetric_boundary_coefficients(dec))
        if delta is not None:
            assert_divergences_are_fresh(perturbed_coefficients(dec, delta))
        # a hand-built table of random coefficients at every level
        hand_built = {
            (a, i1, tail): random_expr(rng, cfg, cfg.k, degree=2, terms=3)
            for a in range(1, cfg.n + 1)
            for i1 in range(1, cfg.m + 1)
            for level in range(cfg.k)
            for tail in multiindices(cfg.m, level)
        }
        assert_divergences_are_fresh(BoundaryCoefficients(cfg, hand_built))
        # a solved table with one coefficient corrupted, in a new instance
        corrupted = dict(symmetric_boundary_coefficients(dec).table)
        key = sorted(corrupted)[rng.randrange(len(corrupted))]
        corrupted[key] = corrupted[key] + y_var(1) * z_var(1, (1,))
        assert_divergences_are_fresh(BoundaryCoefficients(cfg, corrupted))


def test_comparison_reads_the_divergences_of_the_difference():
    # on solved, perturbed and corrupted tables, in both orders, the report's
    # divergence trace and homogeneous residuals are those of a fresh table
    # Q = p - p', and every field equals that of the full tables' difference,
    # whichever parts the two tables share
    rng = random.Random(41)
    for cfg, delta in (
        (JetConfig(2, 2, 2), dedonder.default_skew_perturbation(JetConfig(2, 2, 2))),
        (JetConfig(3, 1, 2), {(1, 1, (2,)): z_var(1, (3,)), (1, 2, (1,)): -z_var(1, (3,))}),
        (JetConfig(2, 1, 3), {}),
    ):
        top = z_var(1, (1,) * cfg.k)
        L = random_expr(rng, cfg, cfg.k, degree=2, terms=6) + top * top
        _, dec = phi_from_lagrangian(cfg, L)
        xi = assemble_boundary_form(symmetric_boundary_coefficients(dec), dec)
        alt = assemble_boundary_form(perturbed_coefficients(dec, delta), dec)
        corrupted = dict(xi.coefficients.table)
        key = sorted(corrupted)[rng.randrange(len(corrupted))]
        corrupted[key] = corrupted[key] + y_var(1) * z_var(1, (1,))
        bad = BoundaryForm(BoundaryCoefficients(cfg, corrupted), dec)
        doubled = assemble_boundary_form(
            perturbed_coefficients(dec, {key: 2 * p for key, p in delta.items()}), dec)
        for first, second in ((xi, alt), (alt, xi), (xi, bad), (bad, alt), (xi, xi),
                              (alt, doubled), (alt, alt)):
            report = compare_boundary_forms(first, second)
            expected = reference_compare_boundary_forms(first, second)
            for field in ("ok", "differences", "relation_failures", "divergence_residuals",
                          "pullback_failures"):
                assert getattr(report, field) == getattr(expected, field), field
            q = BoundaryCoefficients(cfg, report.differences)
            assert report.divergence_residuals == {
                a: fresh_divergence(q, a, ()) for a in range(1, cfg.n + 1)
            }
            fresh = _check_splitting_system(PhiDecomposition(cfg, {}), q)
            assert report.relation_failures == fresh
            assert report.ok == (first is not bad and second is not bad)


def count_total_derivatives(monkeypatch, calls: list) -> None:
    """Record in ``calls`` every D_i that dedonder applies, all of them as
    terms of sum_of_total_derivatives: one entry per (e, direction), where a
    term D_I e adds one entry per direction of I."""
    summed = dedonder.sum_of_total_derivatives
    assert not hasattr(dedonder, "total_derivative")

    def counting_sum(terms, *rest, **options):
        calls.extend((e, i) for e, I, _ in terms for i in I)
        return summed(terms, *rest, **options)

    monkeypatch.setattr(dedonder, "sum_of_total_derivatives", counting_sum)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 2, 3)],
                         ids=lambda shape: "-".join(map(str, shape)))
def test_holonomic_reduce_of_xi_matches_the_per_term_lifts(shape):
    # Xi reduces to zero, its dz terms and d_m x coefficient cancelling in
    # one store; Theta reduces to L d_m x; a contraction of dTheta keeps
    # terms on several dx wedges
    rng = random.Random(sum(shape))
    cfg = JetConfig(*shape)
    L = random_expr(rng, cfg, cfg.k, degree=2, terms=6) * Fraction(1, 3)
    derivation = derive(cfg, L)
    theta = derivation.theta_symmetric
    # +q and -q on the first two splittings of each top-level index
    delta: dict = {}
    for a in range(1, cfg.n + 1):
        for I in multiindices(cfg.m, cfg.k):
            parts = splittings(I)
            if len(parts) > 1:
                delta[(a, *parts[0])] = z_var(a, (1,)) * len(I)
                delta[(a, *parts[1])] = -z_var(a, (1,)) * len(I)
    skew = derivation.skew_boundary(delta)
    contracted = interior_product(basis_vector(jet_coord(1, (1,))), theta.form.d())
    for form in (theta.boundary.form, skew.form, theta.form, contracted):
        assert holonomic_reduce(form, cfg) == per_term_holonomic_reduce(form, cfg)
    assert holonomic_reduce(theta.boundary.form, cfg).is_zero
    assert holonomic_reduce(theta.form, cfg) == volume_form(cfg) * L


def test_checks_on_a_solved_table_compute_no_total_derivative(monkeypatch):
    calls = []
    count_total_derivatives(monkeypatch, calls)
    rng = random.Random(37)
    cfg = JetConfig(2, 2, 2)
    L = random_expr(rng, cfg, cfg.k, degree=2, terms=6)
    derivation = derive(cfg, L)
    assert calls  # the solve computes the divergences
    calls.clear()
    report = verify_condition3(derivation.decomposition, derivation.boundary_symmetric)
    assert report.ok and calls == []
    # the splitting check of assembly reads the skew solve's table as well
    delta = dedonder.default_skew_perturbation(cfg)
    coeffs = perturbed_coefficients(derivation.decomposition, delta)
    calls.clear()
    assemble_boundary_form(coeffs, derivation.decomposition)
    assert calls == []


def record_splitting_checks(monkeypatch, checks: list) -> None:
    """Record in ``checks`` the (phi, coeffs) of every splitting check."""
    check = dedonder._check_splitting_system

    def counted(phi, coeffs):
        checks.append((phi, coeffs))
        return check(phi, coeffs)

    monkeypatch.setattr(dedonder, "_check_splitting_system", counted)


def test_assembly_checks_only_the_part_no_earlier_check_verified(monkeypatch):
    # once assembly has verified the symmetric table against this Phi, a sum
    # table holding it checks only its skew part, against Phi = 0; a tampered
    # skew part fails there at the (a, I), and with the residual, of the full
    # check
    cfg = JetConfig(2, 2, 2)
    _, dec = phi_from_lagrangian(cfg, random_expr(random.Random(61), cfg, cfg.k, terms=6))
    symmetric = symmetric_boundary_coefficients(dec)
    full_check = dedonder._check_splitting_system
    checks = []
    record_splitting_checks(monkeypatch, checks)
    assemble_boundary_form(symmetric, dec)
    assert checks == [(dec, symmetric)]
    coeffs = perturbed_coefficients(dec, dedonder.default_skew_perturbation(cfg))
    parts = coeffs.parts()
    assert parts[0] is symmetric and symmetric.parts() == (symmetric,)
    checks.clear()
    assemble_boundary_form(coeffs, dec)
    assert len(checks) == 1
    phi, checked = checks[0]
    assert checked is parts[1] and phi.components == {}
    for key in sorted(parts[1].table):
        table = dict(parts[1].table)
        table[key] = table[key] + y_var(1) * z_var(2, (1,))
        tampered = dedonder._sum_of_tables(cfg, (symmetric, BoundaryCoefficients(cfg, table)))
        a, I, residual = full_check(dec, tampered)[0]
        with pytest.raises(AssertionError) as caught:
            assemble_boundary_form(tampered, dec)
        assert str(caught.value) == (
            f"coefficients do not solve the boundary system at a={a}, I={I}: "
            f"{render_expr(residual)}"
        )


def test_a_sum_table_whose_symmetric_part_was_never_assembled_is_checked_in_full(
    monkeypatch,
):
    # perturbed_coefficients solves the symmetric table without assembling
    # it, and a table assembled against another, equal Phi is not this
    # Phi's: both sum tables are checked whole against Phi
    cfg = JetConfig(2, 2, 2)
    L = random_expr(random.Random(67), cfg, cfg.k, terms=6)
    _, dec = phi_from_lagrangian(cfg, L)
    delta = dedonder.default_skew_perturbation(cfg)
    checks = []
    record_splitting_checks(monkeypatch, checks)
    coeffs = perturbed_coefficients(dec, delta)
    assemble_boundary_form(coeffs, dec)
    assert checks == [(dec, coeffs)]
    _, equal_dec = phi_from_lagrangian(cfg, L)
    assemble_boundary_form(coeffs.parts()[0], equal_dec)
    checks.clear()
    coeffs = perturbed_coefficients(dec, delta)
    assemble_boundary_form(coeffs, dec)
    assert checks == [(dec, coeffs)]
    # a part verified against Phi twice over is no solution of Phi
    symmetric = coeffs.parts()[0]
    assemble_boundary_form(symmetric, dec)
    twice = dedonder._sum_of_tables(cfg, (symmetric, symmetric))
    with pytest.raises(AssertionError, match="do not solve the boundary system"):
        assemble_boundary_form(twice, dec)


def test_k1_reduction_is_poincare_cartan():
    cfg = JetConfig(2, 1, 1)
    L = (z_var(1, (1,)) ** 2 + z_var(1, (2,)) ** 2) / 2
    xi = derive(cfg, L).boundary_symmetric
    theta = dedonder_form(cfg, L, xi)
    classical = DifferentialForm.from_scalar(L).wedge(volume_form(cfg))
    for i in (1, 2):
        p_i = L.partial(jet_coord(1, (i,)))
        classical = classical + (
            contact_form(cfg, 1, ()).wedge(base_contraction(cfg, i)) * p_i
        )
    assert theta.form == classical


def test_assemble_checks_and_condition3():
    wp = wave_problem()
    report = verify_condition3(wp.decomposition, wp.boundary_symmetric)
    assert report.ok
    # injected symmetric defect is detected at the right component
    broken = dict(wp.boundary_symmetric.coefficients.table)
    broken[(1, 1, (1,))] = broken.get((1, 1, (1,)), Expr.zero()) + y_var(1)
    # built by hand, the form is not checked
    bad_xi = BoundaryForm(BoundaryCoefficients(wp.cfg, broken), wp.decomposition)
    report = verify_condition3(wp.decomposition, bad_xi)
    assert not report.ok
    # failures come in coordinate order (|I|, a, I)
    assert [(a, I) for a, I, _ in report.failures] == [(1, (1,)), (1, (1, 1))]
    # assembling against the decomposition rejects the broken system and
    # names the first failure in that order
    with pytest.raises(AssertionError, match=r"at a=1, I=\(1,\): "):
        assemble_boundary_form(BoundaryCoefficients(wp.cfg, broken), wp.decomposition)


def test_double_vertical_contraction():
    wp = wave_problem()
    assert double_vertical_contraction_vanishes(wp.boundary_symmetric.form, wp.cfg)
    assert double_vertical_contraction_vanishes(wp.theta_symmetric.form, wp.cfg)
    two_vertical = DifferentialForm(
        2, {(field_coord(1), jet_coord(2, (1, 2))): y_var(1)}
    )
    assert not double_vertical_contraction_vanishes(two_vertical, wp.cfg)
    one_vertical = DifferentialForm(
        2, {(base_coord(1), jet_coord(2, (1, 2))): y_var(1)}
    )
    assert double_vertical_contraction_vanishes(one_vertical, wp.cfg)


def test_condition3_zero_phi():
    cfg = JetConfig(2, 1, 2)
    _, dec = phi_from_lagrangian(cfg, Expr.zero())
    xi = assemble_boundary_form(symmetric_boundary_coefficients(dec), dec)
    assert xi.form.is_zero
    assert verify_condition3(dec, xi).ok


def test_condition3_random_lagrangians():
    rng = random.Random(2718)
    configs = (
        JetConfig(1, 1, 1),
        JetConfig(2, 1, 1),
        JetConfig(2, 2, 1),
        JetConfig(1, 1, 2),
        JetConfig(2, 1, 2),
        JetConfig(2, 2, 2),
    )
    for cfg in configs:
        for _ in range(3):
            L = random_expr(rng, cfg, cfg.k, degree=2, terms=5)
            xi = derive(cfg, L).boundary_symmetric
            assert verify_condition3(xi.phi, xi).ok


def test_condition3_higher_order_k3():
    # the construction is not k=2 specific: check a third-order Lagrangian
    cfg = JetConfig(2, 1, 3)
    L = z_var(1, (1, 1, 2)) ** 2 + z_var(1, (1, 2)) * z_var(1, (2, 2, 2))
    xi = derive(cfg, L).boundary_symmetric
    assert verify_condition3(xi.phi, xi).ok


def test_lagrange_derivative_examples():
    wp = wave_problem()
    deltas = lagrange_derivative(wp.cfg, wp.lagrangian)
    for a, sign in ((1, 1), (2, -1)):
        expected = (
            z_var(a, (1, 1, 1, 1))
            - 2 * z_var(a, (1, 1, 2, 2))
            + z_var(a, (2, 2, 2, 2))
        ) * (2 * sign)
        assert deltas[a - 1] == expected
    assert lagrange_derivative(JetConfig(1, 1, 1), Expr.zero()) == [Expr.zero()]
    cfg = JetConfig(2, 1, 1)
    L = (z_var(1, (1,)) ** 2 + z_var(1, (2,)) ** 2) / 2
    assert lagrange_derivative(cfg, L) == [
        -z_var(1, (1, 1)) - z_var(1, (2, 2))
    ]


def test_el_consistency_of_dedonder_contractions():
    # pullback of d/dy^a -| dTheta equals the Lagrange derivative, exactly
    rng = random.Random(321)
    for cfg in (JetConfig(1, 1, 2), JetConfig(2, 1, 2), JetConfig(2, 2, 2)):
        for _ in range(3):
            L = random_expr(rng, cfg, cfg.k, degree=2, terms=4)
            xi = derive(cfg, L).boundary_symmetric
            theta = dedonder_form(cfg, L, xi)
            deltas = lagrange_derivative(cfg, L)
            comps = tuple(
                sum(
                    (
                        Expr.monomial(
                            {("x", i): rng.randrange(3) for i in range(1, cfg.m + 1)},
                            rng.randint(-2, 2),
                        )
                        for _ in range(4)
                    ),
                    Expr.zero(),
                )
                for _ in range(cfg.n)
            )
            sigma = PolynomialSection(cfg, comps)
            d_theta = theta.form.d()
            vol_wedge = tuple(base_coord(i) for i in range(1, cfg.m + 1))
            for a in range(1, cfg.n + 1):
                pulled = holonomic_pullback(
                    interior_product(basis_vector(field_coord(a)), d_theta), sigma
                )
                assert pulled.coefficient(vol_wedge) == substitute_section(
                    deltas[a - 1], sigma
                )


def test_decomposition_identity_symbolic():
    # the integrand-level form of the body/boundary split: for vertical Y,
    #   reduce(Y^k -| Phi) = sum_a [Phi_a - div p] Y^a + D_1 G_2 - D_2 G_1
    # with G the reduced boundary current; integrating over a box and using
    # Stokes turns the last term into the boundary integral
    rng = random.Random(4242)
    cfg = JetConfig(2, 2, 2)
    from jetforms.forms import holonomic_reduce as reduce_form
    from jetforms.forms import interior_product as contract
    from jetforms.prolongations import ProjectableField, prolong

    for _ in range(3):
        L = random_expr(rng, cfg, 2, degree=2, terms=5)
        xi = derive(cfg, L).boundary_symmetric
        dec = xi.phi
        Y = ProjectableField(
            cfg,
            (Expr.zero(), Expr.zero()),
            (random_expr(rng, cfg, 0, degree=2, terms=3),
             random_expr(rng, cfg, 0, degree=2, terms=3)),
        )
        total_expr = reduce_form(
            contract(prolong(Y, cfg.k), dec.form()), cfg
        ).coefficient((base_coord(1), base_coord(2)))
        body_expr = Expr.zero()
        for a in (1, 2):
            e_a = dec.component(a) - xi.coefficients.divergence(a, ())
            body_expr = body_expr + e_a * Y.vertical_components[a - 1]
        current = reduce_form(
            contract(prolong(Y, cfg.working_order), xi.form), cfg
        )
        div = total_derivative(
            current.coefficient((base_coord(2),)), 1, cfg, max_order=4
        ) - total_derivative(
            current.coefficient((base_coord(1),)), 2, cfg, max_order=4
        )
        assert (total_expr - body_expr - div).is_zero


def test_dedonder_residual_examples():
    wp = wave_problem()
    cfg = wp.cfg
    x1, x2 = x_var(1), x_var(2)
    sol = PolynomialSection(cfg, ((x2 - x1) ** 3, (x2 - x1) ** 2))
    res = dedonder_residual(wp.theta_symmetric, sol)
    assert all(form.is_zero for form in res.values())
    bad = PolynomialSection(cfg, (x1**2 * x2**2, Expr.zero()))
    res_bad = dedonder_residual(wp.theta_symmetric, bad)
    vol = (base_coord(1), base_coord(2))
    assert res_bad[field_coord(1)].coefficient(vol) == Expr.constant(-16)
    # only the d/dy contractions can be nonzero: the d/dz ones vanish for
    # every section by the boundary-form construction
    for coord, form in res_bad.items():
        if coord[0] == "z":
            assert form.is_zero, coord
    # zero Lagrangian: zero residuals for any section
    cfg1 = JetConfig(1, 1, 1)
    xi0 = derive(cfg1, Expr.zero()).boundary_symmetric
    theta0 = dedonder_form(cfg1, Expr.zero(), xi0)
    any_sigma = PolynomialSection(cfg1, (x_var(1) ** 4,))
    assert all(f.is_zero for f in dedonder_residual(theta0, any_sigma).values())


def test_dedonder_residual_rejects_a_section_or_theta_of_another_configuration():
    # an n = 3 section against an n = 2 Theta is refused by name rather
    # than read past its components
    wp = wave_problem()
    x1, x2 = x_var(1), x_var(2)
    wider = PolynomialSection(JetConfig(2, 3, 2), (x1, x2, x1 * x2))
    with pytest.raises(ValueError, match=re.escape("(m, n) = (2, 3)")):
        dedonder_residual(wp.theta_symmetric, wider)


def reference_dedonder_residual(theta, section):
    """dedonder_residual at the form level: contract the whole dTheta and
    pull every entry back."""
    cfg = theta.cfg
    contractions = vertical_contractions(theta.form.d())
    zero = DifferentialForm.zero(cfg.m)
    return {
        coord: holonomic_pullback(contractions.get(coord, zero), section)
        for coord in enumerate_coordinates(cfg, cfg.working_order)
        if coord[0] != "x"
    }


def test_dedonder_residual_matches_full_dtheta_reference():
    wp = wave_problem()
    x1, x2 = x_var(1), x_var(2)
    sections = [
        PolynomialSection(wp.cfg, ((x2 - x1) ** 3, (x2 - x1) ** 2)),
        PolynomialSection(wp.cfg, (x1**2 * x2**2, Expr.zero())),
    ]
    cases = [(wp.theta_symmetric, sections), (wp.theta_skew(), sections)]
    rng = random.Random(808)
    for cfg in (JetConfig(1, 1, 2), JetConfig(2, 2, 2), JetConfig(3, 1, 2), JetConfig(2, 1, 3)):
        L = random_expr(rng, cfg, cfg.k, degree=2, terms=5)
        sigma = PolynomialSection(cfg, tuple(
            Expr.sum(
                Expr.monomial(
                    {("x", i): rng.randrange(4) for i in range(1, cfg.m + 1)},
                    rng.randint(1, 3),
                )
                for _ in range(4)
            )
            for _ in range(cfg.n)
        ))
        cases.append((derive(cfg, L).theta_symmetric, [sigma]))
    for theta, sigmas in cases:
        for sigma in sigmas:
            expected = reference_dedonder_residual(theta, sigma)
            got = dedonder_residual(theta, sigma)
            assert list(got) == list(expected)
            assert got == expected


def test_dedonder_form_pullback_equals_lagrangian_pullback():
    # j*Theta = L(j^k sigma) d_m x, checked by explicit substitution; Theta
    # is semi-basic over J^{k-1} and reduces to L d_m x, for symmetric and
    # skew boundary forms (dedonder_form takes both from Xi's checks)
    cfg = JetConfig(2, 1, 2)
    L = z_var(1, (1, 1)) * z_var(1, (2, 2)) + y_var(1) ** 2
    derivation = derive(cfg, L)
    sigma = PolynomialSection(cfg, (x_var(1) ** 3 + x_var(1) * x_var(2) ** 2,))
    wp = wave_problem()
    wave_sigma = PolynomialSection(wp.cfg, (x_var(1) ** 2 * x_var(2), x_var(2) ** 3))
    cases = [
        (dedonder_form(cfg, L, derivation.boundary_symmetric), sigma),
        (derivation.theta_skew(), sigma),
        (wp.theta_symmetric, wave_sigma),
        (wp.theta_skew(), wave_sigma),
    ]
    vol = (base_coord(1), base_coord(2))
    for theta, section in cases:
        lagrangian_form = DifferentialForm.from_scalar(theta.lagrangian).wedge(
            volume_form(theta.cfg)
        )
        assert is_semibasic(theta.form, ("forgetful", theta.cfg.k - 1))
        assert holonomic_reduce(theta.form, theta.cfg) == lagrangian_form
        pulled = holonomic_pullback(theta.form, section)
        assert pulled.coefficient(vol) == substitute_section(theta.lagrangian, section)


def test_dedonder_form_requires_provenance():
    # the provenance of Theta is the Phi its Xi carries: a boundary form has
    # no Phi-less construction, and L's own coefficients under the Phi of
    # another Lagrangian are refused, while under L's Phi they are taken
    wp = wave_problem()
    coeffs = wp.boundary_symmetric.coefficients
    with pytest.raises(TypeError):
        assemble_boundary_form(coeffs)
    with pytest.raises(TypeError):
        BoundaryForm(coeffs)
    _, other = phi_from_lagrangian(wp.cfg, z_var(1, (1, 2)) ** 2)
    with pytest.raises(ValueError, match=r"built against d\(L d_m x\)"):
        dedonder_form(wp.cfg, wp.lagrangian, BoundaryForm(coeffs, other))
    own = BoundaryForm(coeffs, wp.decomposition)
    assert dedonder_form(wp.cfg, wp.lagrangian, own).form == wp.theta_symmetric.form


def test_derive_treats_coefficient_symbols_as_constants():
    # Phi and the provenance check of Theta both read only the y and z
    # partials, so a constant symbol in L is no partial of its own
    cfg = JetConfig(1, 1, 1)
    c, z = Expr.variable(coeff_symbol("c")), z_var(1, (1,))
    theta = derive(cfg, c * z**2).theta_symmetric
    assert theta.form == (
        basis_form(base_coord(1)) * (-c * z**2)
        + basis_form(field_coord(1)) * (2 * c * z)
    )


def test_dedonder_form_rejects_boundary_form_of_another_lagrangian():
    # Xi of L1 with L2 used to give a "Theta" whose d/dz^1_{12} residual on
    # x1*x2 is 2 dx1^dx2; a De Donder form has no nonzero d/dz residual
    cfg = JetConfig(2, 1, 2)
    L1 = z_var(1, (1, 1)) ** 2
    L2 = z_var(1, (1, 2)) ** 2 + y_var(1) ** 2
    xi = derive(cfg, L1).boundary_symmetric
    with pytest.raises(ValueError, match=r"built against d\(L d_m x\)"):
        dedonder_form(cfg, L2, xi)
    # L1 plus a function of x alone has the same Phi: accepted
    assert dedonder_form(cfg, L1 + x_var(1) ** 2, xi).boundary is xi


def test_dedonder_form_takes_the_gradient_only_for_a_phi_of_another_lagrangian(monkeypatch):
    # a Phi that of_lagrangian made from this very L, with an equal cfg,
    # holds L's partials by construction; every other Phi is compared
    cfg = JetConfig(2, 1, 2)
    L = z_var(1, (1, 1)) ** 2 + y_var(1) * z_var(1, (2,))
    _, dec = phi_from_lagrangian(cfg, L)
    xi = assemble_boundary_form(symmetric_boundary_coefficients(dec), dec)
    gradients = []
    of_lagrangian = PhiDecomposition.of_lagrangian

    def counted(cfg, L):
        gradients.append(L)
        return of_lagrangian(cfg, L)

    monkeypatch.setattr(PhiDecomposition, "of_lagrangian", counted)
    theta = dedonder_form(cfg, L, xi)
    assert theta.boundary is xi and gradients == []
    assert dedonder_form(JetConfig(2, 1, 2), L, xi).form == theta.form and gradients == []
    equal = z_var(1, (1, 1)) ** 2 + y_var(1) * z_var(1, (2,))
    assert equal == L and equal is not L
    assert dedonder_form(cfg, equal, xi).form == theta.form and gradients == [equal]
    other = z_var(1, (1, 2)) ** 2
    with pytest.raises(ValueError, match=r"built against d\(L d_m x\)"):
        dedonder_form(cfg, other, xi)
    assert gradients == [equal, other]
    hand = PhiDecomposition(cfg, dict(dec.components))
    hand_xi = assemble_boundary_form(symmetric_boundary_coefficients(hand), hand)
    assert dedonder_form(cfg, L, hand_xi).form == theta.form and gradients == [equal, other, L]
    with pytest.raises(ValueError, match=r"built against d\(L d_m x\)"):
        dedonder_form(cfg, other, hand_xi)


def test_dedonder_form_rejects_a_boundary_form_of_another_configuration():
    # L's partials are the same under k = 2 and k = 3, and under m = 2 and
    # m = 3, so only the configurations tell the Xi solved under (2,1,2) apart
    L = z_var(1, (1, 1)) ** 2
    xi = derive(JetConfig(2, 1, 2), L).boundary_symmetric
    for cfg in (JetConfig(2, 1, 3), JetConfig(3, 1, 2)):
        named = re.escape(str(xi.cfg)) + ".*" + re.escape(str(cfg))
        with pytest.raises(ValueError, match=named):
            dedonder_form(cfg, L, xi)
    assert dedonder_form(JetConfig(2, 1, 2), L, xi).cfg == xi.cfg


def test_phi_form_is_written_term_by_term_like_the_wedge_reference(monkeypatch):
    # each component c gives dc ^ d_m x, wedge-built and summed in the
    # reference; form() builds no wedge and no sum of forms, for m odd and
    # even, y and z components, a rational one and a zero one
    def reference(dec):
        vol = volume_form(dec.cfg)
        return DifferentialForm.sum(dec.cfg.m + 1, (
            DifferentialForm(1, {(c,): value}).wedge(vol) for c, value in dec.components.items()
        ))

    cases = []
    for seed, shape in enumerate(((1, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3))):
        cfg = JetConfig(*shape)
        L = random_expr(random.Random(seed), cfg, cfg.k, degree=3, terms=6) / 3
        _, dec = phi_from_lagrangian(cfg, L + y_var(1) * z_var(1, (1,)))
        cases.append(dec)
        components = dict(dec.components)
        components[field_coord(cfg.n)] = Expr.zero()
        cases.append(PhiDecomposition(cfg, components))
    expected = [reference(dec) for dec in cases]

    def forbidden(*args):
        raise AssertionError("form() built a wedge or a sum of forms")

    monkeypatch.setattr(DifferentialForm, "wedge", forbidden)
    monkeypatch.setattr(DifferentialForm, "sum", forbidden)
    written = [dec.form() for dec in cases]
    monkeypatch.undo()
    for form, reference_form in zip(written, expected):
        assert not reference_form.is_zero
        assert form == reference_form
        assert form.degree == reference_form.degree


def test_a_holding_splitting_system_forms_no_residual(monkeypatch):
    # each (a, I) compares S + D with Phi; only a failing one subtracts
    wp = wave_problem()
    dec, coeffs = wp.decomposition, wp.boundary_symmetric.coefficients
    subtractions = []
    sub = Expr.__sub__

    def counted(self, other):
        subtractions.append(other)
        return sub(self, other)

    monkeypatch.setattr(Expr, "__sub__", counted)
    assert _check_splitting_system(dec, coeffs) == []
    assert subtractions == []
    corrupted = dict(coeffs.table)
    corrupted[(1, 1, (1,))] = corrupted[(1, 1, (1,))] + y_var(1)
    failures = _check_splitting_system(dec, BoundaryCoefficients(wp.cfg, corrupted))
    assert [(a, I) for a, I, _ in failures] == [(1, (1,)), (1, (1, 1))]
    assert len(subtractions) == len(failures)


def test_skew_perturbation_invariance():
    wp = wave_problem()
    cfg = wp.cfg
    xi = wp.boundary_symmetric
    xi_skew = wp.skew_boundary()
    report = compare_boundary_forms(xi, xi_skew)
    assert report.ok
    assert not report.relation_failures
    assert all(v.is_zero for v in report.divergence_residuals.values())
    assert not report.pullback_failures
    # identical forms compare trivially
    assert compare_boundary_forms(xi, xi).ok


def test_divergence_trace_hand_checkable_instance():
    # Q^{12} = y, Q^{21} = -y: Q^1 = z_(2), Q^2 = -z_(1), divergence zero
    cfg = JetConfig(2, 1, 2)
    L = z_var(1, (1, 1)) ** 2 + z_var(1, (2, 2)) ** 2
    _, dec = phi_from_lagrangian(cfg, L)
    delta = {(1, 1, (2,)): y_var(1), (1, 2, (1,)): -y_var(1)}
    sym = symmetric_boundary_coefficients(dec)
    alt = perturbed_coefficients(dec, delta)
    q1 = coefficient(alt, 1, 1) - coefficient(sym, 1, 1)
    q2 = coefficient(alt, 1, 2) - coefficient(sym, 1, 2)
    assert q1 == z_var(1, (2,))
    assert q2 == -z_var(1, (1,))
    divergence = total_derivative(q1, 1, cfg, max_order=4) + total_derivative(
        q2, 2, cfg, max_order=4
    )
    assert divergence.is_zero


def test_invalid_skew_rejected():
    wp = wave_problem()
    # nonzero diagonal entry violates the homogeneous top-level relation
    with pytest.raises(ValueError, match="splitting sum"):
        perturbed_coefficients(
            wp.decomposition, {(1, 1, (1,)): y_var(1)}
        )
    # one-sided off-diagonal entry is not skew either
    with pytest.raises(ValueError, match="splitting sum"):
        perturbed_coefficients(wp.decomposition, {(1, 1, (2,)): y_var(1)})
    # excessive jet order in the perturbation
    with pytest.raises(ValueError, match="jet order"):
        perturbed_coefficients(
            wp.decomposition,
            {(1, 1, (2,)): z_var(1, (1, 1, 2)), (1, 2, (1,)): -z_var(1, (1, 1, 2))},
        )


def test_comparison_requires_same_phi():
    # Phi is compared by its components: equal ones from two derivations
    # pass, those of another Lagrangian are rejected
    cfg = JetConfig(2, 1, 2)
    xi_a = derive(cfg, z_var(1, (1, 1)) ** 2).boundary_symmetric
    xi_b = derive(cfg, z_var(1, (2, 2)) ** 2).boundary_symmetric
    with pytest.raises(ValueError, match="belong to different Phi"):
        compare_boundary_forms(xi_a, xi_b)
    with pytest.raises(ValueError, match="belong to different Phi"):
        compare_boundary_forms(xi_a, derive(cfg, 2 * z_var(1, (1, 1)) ** 2).boundary_symmetric)
    again = derive(cfg, z_var(1, (1, 1)) ** 2).boundary_symmetric
    assert again.phi is not xi_a.phi
    assert compare_boundary_forms(xi_a, again).ok


def test_divergence_trace_random_skew_family():
    # random skew data over a random Lagrangian: divergence trace vanishes
    rng = random.Random(99)
    cfg = JetConfig(2, 2, 2)
    for _ in range(3):
        L = random_expr(rng, cfg, 2, degree=2, terms=5)
        _, dec = phi_from_lagrangian(cfg, L)
        sym = symmetric_boundary_coefficients(dec)
        xi = assemble_boundary_form(sym, dec)
        skew = {}
        for a in range(1, cfg.n + 1):
            q = random_expr(rng, cfg, 2, degree=1, terms=3)
            skew[(a, 1, (2,))] = q
            skew[(a, 2, (1,))] = -q
        alt = assemble_boundary_form(perturbed_coefficients(dec, skew), dec)
        assert compare_boundary_forms(xi, alt).ok


def test_condition3_reads_the_check_of_assembly(monkeypatch):
    # a table assembled against a Phi passes condition 3 for that Phi with
    # no recompute, in the assembled form or in one built by hand around
    # it; another, equal Phi is checked anew, and a corrupted table fails
    wp = wave_problem()
    dec, xi = wp.decomposition, wp.boundary_symmetric
    checks = []
    check = dedonder._check_splitting_system

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(dedonder, "_check_splitting_system", counted)
    assert verify_condition3(dec, xi).ok and checks == []
    assert verify_condition3(dec, wp.skew_boundary()).ok
    assert len(checks) == 1  # the assembly of the skew form, not condition 3
    _, equal_dec = phi_from_lagrangian(wp.cfg, wp.lagrangian)
    assert verify_condition3(equal_dec, xi).ok and len(checks) == 2
    assert verify_condition3(dec, BoundaryForm(xi.coefficients, dec)).ok
    assert len(checks) == 2
    corrupted = dict(xi.coefficients.table)
    corrupted[(1, 1, (1,))] = corrupted[(1, 1, (1,))] + y_var(1)
    bad = BoundaryForm(BoundaryCoefficients(wp.cfg, corrupted), dec)
    report = verify_condition3(dec, bad)
    assert len(checks) == 3
    assert not report.ok
    assert [(a, I) for a, I, _ in report.failures] == [(1, (1,)), (1, (1, 1))]


@pytest.mark.parametrize(
    "key", [(2, 1, (1,)), (1, 3, (1,)), (1, 0, (1,)), (1, 1, (3,)), (1, 1, (1, 2))]
)
def test_coefficient_keys_out_of_range_are_rejected(key):
    cfg = JetConfig(2, 1, 2)
    _, dec = phi_from_lagrangian(cfg, z_var(1, (1, 2)) ** 2 + y_var(1) * z_var(1, (1, 1)))
    named = re.escape(str(key))
    with pytest.raises(ValueError, match=named):
        perturbed_coefficients(dec, {key: y_var(1)})
    table = dict(symmetric_boundary_coefficients(dec).table)
    table[key] = y_var(1)
    with pytest.raises(ValueError, match=named):
        assemble_boundary_form(BoundaryCoefficients(cfg, table), dec)


def test_a_tail_that_is_not_canonical_is_rejected():
    cfg = JetConfig(2, 1, 3)
    _, dec = phi_from_lagrangian(cfg, z_var(1, (1, 1, 2)) ** 2)
    key = (1, 1, (2, 1))
    with pytest.raises(ValueError, match=r"not canonical"):
        perturbed_coefficients(dec, {key: y_var(1), (1, 2, (1, 1)): -y_var(1)})
    with pytest.raises(ValueError, match=r"not canonical"):
        assemble_boundary_form(BoundaryCoefficients(cfg, {key: y_var(1)}), dec)


def test_perturbed_coefficients_add_the_homogeneous_solve_to_the_symmetric_table(monkeypatch):
    # the skew solve is the symmetric table plus the solve of delta alone:
    # untouched keys share their Expr, its part beside the symmetric table
    # differentiates only what the solve of delta alone does, and the result
    # equals a fresh solve
    cfg = JetConfig(3, 1, 2)
    L = random_expr(random.Random(53), cfg, cfg.k, degree=2, terms=6)
    _, dec = phi_from_lagrangian(cfg, L)
    symmetric = symmetric_boundary_coefficients(dec)
    assert symmetric_boundary_coefficients(dec) is symmetric  # solved once
    delta = {(1, 1, (2,)): z_var(1, (3,)), (1, 2, (1,)): -z_var(1, (3,))}
    indices = [(a, I) for a in range(1, cfg.n + 1)
               for level in range(cfg.k) for I in multiindices(cfg.m, level)]
    for a, I in indices:
        symmetric.divergence(a, I)
    differentiated = []

    def derivatives_of(solve):
        # the D_i of the solve and of its last part's divergences: the
        # perturbed table's is the solve of delta alone
        differentiated.clear()
        coeffs = solve()
        for a, I in indices:
            coeffs.parts()[-1].divergence(a, I)
        return coeffs, len(differentiated)

    count_total_derivatives(monkeypatch, differentiated)
    perturbed, count = derivatives_of(lambda: perturbed_coefficients(dec, delta))
    _, homogeneous = derivatives_of(
        lambda: dedonder._solve_top_down(PhiDecomposition(cfg, {}), delta))
    fresh, full = derivatives_of(lambda: dedonder._solve_top_down(dec, delta))
    monkeypatch.undo()
    assert 0 < count == homogeneous < full
    assert perturbed.table == fresh.table
    shared = [key for key, p in perturbed.table.items() if p is symmetric.table.get(key)]
    assert shared and len(shared) < len(perturbed.table)
    for a, I in indices:
        assert perturbed.divergence(a, I) == fresh.divergence(a, I), (a, I)


OUTSIDE = [
    (y_var(2) ** 2, ("y", 2)),
    (z_var(1, (3,)) ** 2, ("z", 1, (3,))),
    (x_var(3) * z_var(1, (1,)) ** 2, ("x", 3)),
]


@pytest.mark.parametrize("L,coord", OUTSIDE, ids=["y2", "z1_3", "x3"])
def test_a_lagrangian_outside_its_config_is_rejected(L, coord):
    # each entry point names the coordinate instead of dropping it or
    # failing a later consistency check
    from jetforms.prolongations import ProjectableField, is_symmetry

    cfg = JetConfig(2, 1, 2)
    translation = ProjectableField(cfg, (Expr.one(), Expr.zero()), (Expr.zero(),))
    named = re.escape(str(coord))
    for build in (phi_from_lagrangian, lagrange_derivative, derive):
        with pytest.raises(ValueError, match=named):
            build(cfg, L)
    with pytest.raises(ValueError, match=named):
        is_symmetry(translation, L)
    # a coefficient symbol is a constant of every configuration
    c = Expr.variable(coeff_symbol("c"))
    assert lagrange_derivative(cfg, c * z_var(1, (1,)) ** 2) == [-2 * c * z_var(1, (1, 1))]


def test_lagrange_derivative_is_the_euler_operator_alone(monkeypatch):
    # no boundary coefficients are solved and no form is built
    wp = wave_problem()
    solves, built = [], []
    monkeypatch.setattr(dedonder, "symmetric_boundary_coefficients", solves.append)
    monkeypatch.setattr(dedonder, "_solve_top_down", lambda *args: solves.append(args))
    init = DifferentialForm.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DifferentialForm, "__init__", counted)
    deltas = lagrange_derivative(wp.cfg, wp.lagrangian)
    assert solves == [] and built == []
    assert deltas == wp.euler_lagrange()


def test_phi_and_assembly_take_no_exterior_derivative_and_reduce_nothing(monkeypatch):
    import jetforms.forms as forms

    def forbidden(*args):
        raise AssertionError("a second route ran")

    monkeypatch.setattr(DifferentialForm, "d", forbidden)
    monkeypatch.setattr(forms, "holonomic_reduce", forbidden)
    monkeypatch.setattr(dedonder, "holonomic_reduce", forbidden, raising=False)
    cfg = JetConfig(2, 2, 2)
    L = random_expr(random.Random(7), cfg, cfg.k, degree=2, terms=5)
    phi, dec = phi_from_lagrangian(cfg, L)
    assert phi == dec.form()
    xi = assemble_boundary_form(symmetric_boundary_coefficients(dec), dec)
    skew = {(a, i1, (i2,)): sign * y_var(a)
            for a in (1, 2) for i1, i2, sign in ((1, 2, 1), (2, 1, -1))}
    assemble_boundary_form(perturbed_coefficients(dec, skew), dec)
    assert verify_condition3(dec, xi).ok


# -- the forms of Xi and Theta and a sum's table, formed when first read -------


def ladder_problem(shape: tuple, seed: int):
    """(cfg, L, delta) shaped as the symbolic ladder's rungs: a seeded
    coefficient on every product of two jet coordinates z^a_I with
    1 <= |I| <= k, and +q and -q on two splittings of each top-level index."""
    rng = random.Random(seed)
    cfg = JetConfig(*shape)
    coords = [Expr.variable(jet_coord(a, I)) for a in range(1, cfg.n + 1)
              for level in range(1, cfg.k + 1) for I in multiindices(cfg.m, level)]
    L = Expr.sum(u * v * rng.randint(1, 2**30 - 1)
                 for at, u in enumerate(coords) for v in coords[at:])
    delta = {}
    for a in range(1, cfg.n + 1):
        for I in multiindices(cfg.m, cfg.k):
            parts = splittings(I)
            if len(parts) < 2:
                continue
            q = z_var(rng.randint(1, cfg.n), (rng.randint(1, cfg.m),)) * rng.randint(1, 9)
            for (i1, tail), sign in zip(parts, (1, -1)):
                delta[(a, i1, tail)] = delta.get((a, i1, tail), Expr.zero()) + sign * q
    return cfg, L, delta


def build_like_the_ladder(cfg: JetConfig, L: Expr, delta: dict):
    """Phi, the symmetric Xi, its Theta and the skew Xi, as the ladder's
    build stage makes them."""
    _, dec = phi_from_lagrangian(cfg, L)
    xi = assemble_boundary_form(symmetric_boundary_coefficients(dec), dec)
    alt = assemble_boundary_form(perturbed_coefficients(dec, delta), dec)
    return dec, xi, dedonder_form(cfg, L, xi), alt


def assert_equal_to_the_eager_reference(L: Expr, boundaries):
    for xi in boundaries:
        coeffs = xi.coefficients
        assert coeffs.table == summed_table(coeffs)
        assert xi.form == eager_boundary_form(coeffs)
        assert DeDonderForm(xi.cfg, L, xi).form == eager_dedonder_form(L, coeffs)


def test_the_fixtures_forms_and_summed_table_equal_the_eager_reference():
    wp = wave_problem()
    alt = wp.skew_boundary()
    assert len(alt.coefficients.parts()) == 2
    assert_equal_to_the_eager_reference(wp.lagrangian, (wp.boundary_symmetric, alt))
    assert wp.theta_symmetric.form == eager_dedonder_form(
        wp.lagrangian, wp.boundary_symmetric.coefficients
    )


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (2, 2, 3)])
def test_ladder_shaped_forms_and_summed_tables_equal_the_eager_reference(shape):
    for seed in (0, 1):
        cfg, L, delta = ladder_problem(shape, seed)
        dec, xi, theta, alt = build_like_the_ladder(cfg, L, delta)
        assert_equal_to_the_eager_reference(L, (xi, alt))
        assert theta.form == eager_dedonder_form(L, xi.coefficients)


def test_a_build_like_the_ladders_writes_no_form_and_sums_no_table(monkeypatch):
    # the checks read the parts' tables and splitting sums, never a form,
    # the summed table or a d_m x coefficient
    volumes = []
    volume_coefficient = BoundaryCoefficients.volume_coefficient

    def counted(coeffs):
        volumes.append(coeffs)
        return volume_coefficient(coeffs)

    monkeypatch.setattr(BoundaryCoefficients, "volume_coefficient", counted)
    cfg, L, delta = ladder_problem((2, 2, 2), 0)
    dec, xi, theta, alt = build_like_the_ladder(cfg, L, delta)
    assert compare_boundary_forms(xi, alt).ok
    assert verify_condition3(dec, xi).ok and verify_condition3(dec, alt).ok
    assert not any("form" in vars(built) for built in (xi, theta, alt))
    assert "table" not in vars(alt.coefficients) and volumes == []
    # reading Theta writes the symmetric Xi once, with its d_m x
    # coefficient, and the skew Xi stays unwritten
    assert theta.form == eager_dedonder_form(L, xi.coefficients)
    assert theta.form is theta.form and xi.form is xi.form
    assert "form" in vars(xi) and volumes == [xi.coefficients]
    assert "form" not in vars(alt) and "table" not in vars(alt.coefficients)


def test_assembly_itself_rejects_a_key_out_of_range_and_a_failing_system():
    cfg = JetConfig(2, 1, 2)
    _, dec = phi_from_lagrangian(cfg, random_expr(random.Random(71), cfg, cfg.k, terms=6))
    symmetric = symmetric_boundary_coefficients(dec)
    out_of_range = BoundaryCoefficients(cfg, {(1, 3, (1,)): Expr.one()})
    for coeffs in (
        BoundaryCoefficients(cfg, {**symmetric.table, (1, 3, (1,)): Expr.one()}),
        dedonder._sum_of_tables(cfg, (symmetric, out_of_range)),
    ):
        with pytest.raises(ValueError, match=re.escape("key (1, 3, (1,)) is out of range")):
            assemble_boundary_form(coeffs, dec)
    key, value = next(iter(symmetric.table.items()))
    wrong = BoundaryCoefficients(cfg, {**symmetric.table, key: value + Expr.one()})
    with pytest.raises(AssertionError, match="do not solve the boundary system"):
        assemble_boundary_form(wrong, dec)


def test_an_assigned_form_overrides_the_one_written_on_first_read():
    wp = wave_problem()
    xi, theta, zero = wp.boundary_symmetric, wp.theta_symmetric, DifferentialForm.zero(wp.cfg.m)
    assert not xi.form.is_zero
    xi.form = zero
    assert xi.form is zero
    # Theta, first read after the assignment, adds the assigned Xi
    assert theta.form == volume_form(wp.cfg) * wp.lagrangian
    theta.form = zero
    assert theta.form is zero
