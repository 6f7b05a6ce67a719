"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The lines print even under pytest's capture.  Every tolerance here is
pinned; none are adjusted at runtime.
"""
import importlib.resources
import math
import random
import time

import numpy as np
import pytest

from jetforms.cli import main as cli_main
from jetforms.dedonder import (
    compare_boundary_forms,
    dedonder_form,
    derive,
    verify_condition3,
)
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
    holonomic_pullback,
    holonomic_reduce,
    volume_form,
)
from jetforms.jets import JetConfig, jet_coord
from jetforms.numeric import (
    CauchyState,
    EnergyFunctional,
    GridSpec,
    band_limited_state,
    cauchy_evolve,
    flow_oracle,
)
from jetforms.problem import ProblemError, parse_problem
from jetforms.prolongations import ProjectableField, prolong
from jetforms.wave import wave_problem
from tests.oracles import SampledSection, decomposition_terms, functional_derivative_oracle
from tests.support import contact_form, contact_forms, preserves_contact_ideal, random_expr

WAVE_PATH = str(
    importlib.resources.files("jetforms").joinpath("fixtures/fourth_order_wave.jet")
)
CONFIGS = (JetConfig(1, 1, 2), JetConfig(2, 1, 2), JetConfig(2, 2, 2))


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per criterion, regardless of capture."""

    def _report(number: int, title: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"criterion {number} ({title}): {status}{suffix}")
        assert ok, f"criterion {number} failed{suffix}"

    return _report


def test_criterion_1_euler_lagrange_reproduction(capsys, report):
    start = time.perf_counter()
    code = cli_main(["euler-lagrange", WAVE_PATH])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    wp = wave_problem()
    from jetforms.dedonder import lagrange_derivative

    deltas = lagrange_derivative(wp.cfg, wp.lagrangian)
    exact = True
    for a, delta in enumerate(deltas, start=1):
        pattern = (
            Expr.variable(jet_coord(a, (1, 1, 1, 1)))
            - 2 * Expr.variable(jet_coord(a, (1, 1, 2, 2)))
            + Expr.variable(jet_coord(a, (2, 2, 2, 2)))
        )
        lead = delta.partial(jet_coord(a, (1, 1, 1, 1))).constant_term()
        exact = exact and lead != 0 and delta == pattern * lead
    rendered = "deltaL/dy[1] = 2*z[1;1 1 1 1] - 4*z[1;1 1 2 2] + 2*z[1;2 2 2 2]"
    normalized = "z[1;1 1 1 1] - 2*z[1;1 1 2 2] + z[1;2 2 2 2]"
    ok = (
        code == 0
        and exact
        and rendered in out
        and normalized in out
        and elapsed < 1.0
    )
    report(1, "Euler-Lagrange reproduction", ok, f"runtime {elapsed * 1000:.0f} ms")


def test_criterion_2_condition3_symbolic_zero(report):
    start = time.perf_counter()
    wp = wave_problem()
    ok = verify_condition3(wp.decomposition, wp.boundary_symmetric).ok
    rng = random.Random(20250809)
    count = 0
    for cfg in CONFIGS:
        for _ in range(4):
            L = random_expr(rng, cfg, cfg.k, degree=2, terms=5)
            xi = derive(cfg, L).boundary_symmetric
            ok = ok and verify_condition3(xi.phi, xi).ok
            count += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "target-vertical pullbacks symbolic-zero",
        ok and count >= 10 and elapsed < 60.0,
        f"{count} random Lagrangians + wave example in {elapsed:.1f} s",
    )


def test_criterion_3_boundary_form_independence(report):
    wp = wave_problem()
    cfg = wp.cfg
    xi = wp.boundary_symmetric
    xi_skew = wp.skew_boundary()
    comparison = compare_boundary_forms(xi, xi_skew)
    symbolic_ok = comparison.ok and all(
        value.is_zero for value in comparison.divergence_residuals.values()
    )
    x1, x2 = x_var(1), x_var(2)
    region = GridSpec(((0.0, 1.0, 16, False), (0.0, 1.0, 16, False)))
    Y = ProjectableField(cfg, (Expr.zero(), Expr.zero()), (x1 * x2, y_var(1) - x2))
    fixtures = [
        PolynomialSection(cfg, (x1**3 * x2 + x2**2, x1**2 * x2**2)),
        PolynomialSection(cfg, (x1 * x2**3 - x1**2, x1**3 + x2)),
        PolynomialSection(cfg, (x1**2 * x2 + 1, x2**3 - x1 * x2)),
    ]
    numeric_ok = True
    worst = 0.0
    for sigma in fixtures:
        terms_sym = decomposition_terms(wp.decomposition, xi, Y, sigma, region)
        terms_skew = decomposition_terms(wp.decomposition, xi_skew, Y, sigma, region)
        for a, b in zip(terms_sym, terms_skew):
            rel = abs(a - b) / max(1.0, abs(a))
            worst = max(worst, rel)
            numeric_ok = numeric_ok and rel <= 1e-8
    report(
        3,
        "boundary-form independence",
        symbolic_ok and numeric_ok,
        f"3 fixtures, worst relative gap {worst:.2e}",
    )


def test_criterion_4_k1_reduction_and_oracle(report):
    cfg = JetConfig(2, 1, 1)
    L = (z_var(1, (1,)) ** 2 + z_var(1, (2,)) ** 2) / 2
    xi = derive(cfg, L).boundary_symmetric
    theta = dedonder_form(cfg, L, xi)
    classical = DifferentialForm.from_scalar(L).wedge(volume_form(cfg))
    for i in (1, 2):
        classical = classical + (
            contact_form(cfg, 1, ()).wedge(base_contraction(cfg, i))
            * L.partial(jet_coord(1, (i,)))
        )
    symbolic_ok = theta.form == classical
    # oracle calibration: width 0.03, eps 1e-3, N = 512 (convergence study in
    # tests/test_numeric.py); target tolerance 1e-3
    cfg1 = JetConfig(1, 1, 1)
    L1 = z_var(1, (1,)) ** 2 / 2
    grid = GridSpec(((0.0, 2.0 * math.pi, 512, True),))
    section = SampledSection(grid, [np.sin(grid.points(0))])
    x0 = math.pi / 2
    value = functional_derivative_oracle(
        cfg1, L1, section, 1, (x0,), eps=1e-3, width=0.03
    )
    gap = abs(value - math.sin(x0))
    report(
        4,
        "k=1 reduction to Poincare-Cartan",
        symbolic_ok and gap <= 1e-3,
        f"oracle gap {gap:.2e} at N=512",
    )


def test_criterion_5_prolongation_correctness(report):
    from fractions import Fraction

    cfg = JetConfig(1, 1, 2)
    x, y = x_var(1), y_var(1)
    cubic = PolynomialSection(cfg, (x**3 + 2 * x,))
    quad = PolynomialSection(cfg, (x**2,))
    wp = wave_problem()
    sigma2 = PolynomialSection(
        wp.cfg, ((x_var(2) - x_var(1)) ** 3, (x_var(2) - x_var(1)) ** 2)
    )
    fixtures = [
        (ProjectableField(cfg, (Expr.zero(),), (Expr.one(),)), 3, cubic, (Fraction(1, 2),)),
        (ProjectableField(cfg, (Expr.one(),), (Expr.zero(),)), 3, cubic, (Fraction(1, 2),)),
        (ProjectableField(cfg, (Expr.zero(),), (y,)), 3, quad, (Fraction(1),)),
        (ProjectableField(cfg, (x,), (2 * y + x,)), 3, cubic, (Fraction(1, 3),)),
        (wp.lorentz_boost, 3, sigma2, (Fraction(1, 3), Fraction(1, 5))),
        (wp.time_translation, 3, sigma2, (Fraction(0), Fraction(1, 2))),
    ]
    worst = 0.0
    for Y, order, sigma, x0 in fixtures:
        lifted = prolong(Y, order)
        numeric = flow_oracle(Y, order, sigma, x0)
        values = sigma.jet_values(x0, order)
        for coord, approx in numeric.items():
            exact = float(lifted.get(coord, Expr.zero()).evaluate(values))
            worst = max(worst, abs(exact - approx))
    contact_ok = all(
        preserves_contact_ideal(Y, min(order, 3))
        for Y, order, _, _ in fixtures
    )
    report(
        5,
        "prolongation vs flow oracle",
        worst <= 1e-6 and contact_ok and len(fixtures) >= 5,
        f"{len(fixtures)} fixtures, worst gap {worst:.2e}",
    )


def test_criterion_6_contact_ideal_pullback(report):
    rng = random.Random(99)
    ok = True
    for cfg in CONFIGS:
        sigma = PolynomialSection(
            cfg,
            tuple(
                sum(
                    (
                        Expr.monomial(
                            {("x", i): rng.randrange(3) for i in range(1, cfg.m + 1)},
                            rng.randint(-3, 3),
                        )
                        for _ in range(5)
                    ),
                    Expr.zero(),
                )
                for _ in range(cfg.n)
            ),
        )
        for theta in contact_forms(cfg, cfg.working_order):
            ok = ok and holonomic_reduce(theta, cfg).is_zero
            ok = ok and holonomic_pullback(theta, sigma).is_zero
    report(6, "contact ideal annihilated by pullback", ok)


def test_criterion_7_conservation(report):
    wp = wave_problem()
    grid = GridSpec(((0.0, 2.0 * math.pi, 256, True),))
    state = band_limited_state(grid, wp.cfg.n, max_mode=32, seed=7)
    e_sym = EnergyFunctional(wp.theta_symmetric)
    e_skew = EnergyFunctional(wp.theta_skew())
    e0 = e_sym(state)
    drift = 0.0
    gap = abs(e0 - e_skew(state))
    current = state
    samples = 8
    for step in range(1, samples + 1):
        current = cauchy_evolve(current, step / samples)
        es = e_sym(current)
        drift = max(drift, abs(es - e0))
        gap = max(gap, abs(es - e_skew(current)))
    scale = abs(e0)
    report(
        7,
        "energy conservation and boundary-form independence",
        scale > 0 and drift / scale <= 1e-6 and gap / scale <= 1e-10,
        f"drift {drift / scale:.2e}, symmetric-vs-skew {gap / scale:.2e}",
    )


def test_criterion_8_cauchy_exactness(report):
    grid = GridSpec(((0.0, 2.0 * math.pi, 256, True),))
    x = grid.points(0)
    data = np.stack([np.sin(x), -np.cos(x), -np.sin(x), np.cos(x)])[None, :, :]
    out = cauchy_evolve(CauchyState(grid, data), 1.0)
    h = grid.spacing(0)
    err = math.sqrt(float(np.sum((out.data[0, 0] - np.sin(x - 1.0)) ** 2) * h))
    report(8, "Cauchy solver exactness", err <= 1e-8, f"L2 error {err:.2e}")


def test_criterion_9_parser_corpus(report):
    from tests.test_problem import MALFORMED, VALID_FIXTURES, problem_data, render_problem

    positioned = 0
    for source, _, text, _ in MALFORMED:
        try:
            parse_problem(source)
        except ProblemError as exc:
            if str(exc) == text:
                positioned += 1
    wave_text = open(WAVE_PATH).read()
    round_trip = True
    for text in VALID_FIXTURES + [wave_text]:
        spec = parse_problem(text)
        again = parse_problem(render_problem(spec))
        round_trip = round_trip and problem_data(again) == problem_data(spec)
    report(
        9,
        "parser diagnostics and round-trip",
        positioned >= 20 and round_trip,
        f"{positioned} positioned diagnostics",
    )
