import math
import random
import re

import numpy as np
import pytest

from jetforms.dedonder import derive, skew_pair_perturbation
from jetforms.expressions import Expr, PolynomialSection, x_var, y_var, z_var
from jetforms.jets import JetConfig, base_coord, field_coord, jet_coord, multiindices
from jetforms.numeric import (
    CauchyState,
    EnergyFunctional,
    GridSpec,
    _derivative_symbol,
    _time_scales,
    band_limited_state,
    cauchy_evolve,
    decomposition_terms,
    evaluate_on_grid,
    functional_derivative_oracle,
    integrate_action,
    quadrature,
    sample_section,
    SampledSection,
)
from jetforms.prolongations import ProjectableField, noether_current
from jetforms.wave import wave_problem

TWO_PI = 2.0 * math.pi


def periodic_grid(n=256):
    return GridSpec(((0.0, TWO_PI, n, True),))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(((0.0, 1.0, 4, False),))
    with pytest.raises(ValueError):
        GridSpec(((0.0, 0.0, 16, False),))
    with pytest.raises(ValueError):
        GridSpec(((0.0, float("inf"), 16, False),))
    grid = GridSpec(((0.0, 1.0, 11, False), (0.0, TWO_PI, 16, True)))
    assert grid.shape == (11, 16)
    assert abs(grid.spacing(0) - 0.1) < 1e-15
    assert abs(grid.spacing(1) - TWO_PI / 16) < 1e-15


def test_numeric_jet_spectral_accuracy():
    grid = periodic_grid(256)
    x = grid.points(0)
    section = SampledSection(grid, [np.sin(x)])
    assert np.max(np.abs(section.jet(1, (1, 1)) + np.sin(x))) <= 1e-10
    # constants have vanishing jets
    flat = SampledSection(grid, [np.full(256, 3.25)])
    assert np.max(np.abs(flat.jet(1, (1,)))) <= 1e-12


def test_numeric_jet_exact_on_low_degree_polynomials():
    grid = GridSpec(((0.0, 1.0, 32, False),))
    x = grid.points(0)
    section = SampledSection(grid, [x])
    assert np.max(np.abs(section.jet(1, (1,)) - 1.0)) <= 1e-12
    assert np.max(np.abs(section.jet(1, (1, 1)))) <= 1e-10
    # degree-4 polynomial: fourth-order one-sided stencils stay exact
    section4 = SampledSection(grid, [x**4 - 2 * x**2])
    assert np.max(np.abs(section4.jet(1, (1, 1)) - (12 * x**2 - 4))) <= 1e-9


def test_integrate_action_examples():
    cfg = JetConfig(1, 1, 1)
    grid = periodic_grid(64)
    section = SampledSection(grid, [np.sin(grid.points(0))])
    assert integrate_action(cfg, Expr.zero(), section) == 0.0
    assert abs(integrate_action(cfg, Expr.one(), section) - TWO_PI) <= 1e-12
    # L = 1/2 z^2 on sin(x): integral of cos^2/2 = pi/2
    L = z_var(1, (1,)) ** 2 / 2
    assert abs(integrate_action(cfg, L, section) - math.pi / 2) <= 1e-10


def test_integrate_action_wave_slice():
    # L on the 2-d box for y^a = sin(x - t): box y = 0 so L vanishes; the
    # independent analytic value is 0
    wp = wave_problem()
    grid = GridSpec(((0.0, 1.0, 24, False), (0.0, TWO_PI, 64, True)))
    t_mesh, x_mesh = grid.meshes()
    data = np.sin(x_mesh - t_mesh)
    section = SampledSection(grid, [data, data])
    assert abs(integrate_action(wp.cfg, wp.lagrangian, section)) <= 1e-6
    # and a case with a nonzero analytic value: y = sin(x), box y = sin(x),
    # L = g_ab (box y)^a (box y)^b = sin^2 - sin^2 = 0 for equal fields; use
    # distinct fields to get integral of sin^2 - cos^2 over the box, which is 0
    section2 = SampledSection(grid, [np.sin(x_mesh), np.cos(x_mesh)])
    value = integrate_action(wp.cfg, wp.lagrangian, section2)
    assert abs(value - 0.0) <= 1e-8


def test_decomposition_identity_and_invariance():
    wp = wave_problem()
    cfg = wp.cfg
    x1, x2 = x_var(1), x_var(2)
    region = GridSpec(((0.0, 1.0, 16, False), (0.0, 1.0, 16, False)))
    rng = random.Random(14)
    fixtures = [
        PolynomialSection(cfg, (x1**3 * x2 + x2**2, x1**2 * x2**2)),
        PolynomialSection(cfg, (x1 * x2**3 - x1**2, x1**3 + x2)),
        PolynomialSection(cfg, (x1**2 * x2 + 1, x2**3 - x1 * x2)),
    ]
    Y = ProjectableField(
        cfg, (Expr.zero(), Expr.zero()), (x1 * x2, y_var(1) - x2)
    )
    xi_skew = wp.skew_boundary()
    for sigma in fixtures:
        total, body, boundary = decomposition_terms(
            wp.decomposition, wp.boundary_symmetric, Y, sigma, region
        )
        scale = max(1.0, abs(total))
        assert abs(total - body - boundary) <= 1e-8 * scale
        total2, body2, boundary2 = decomposition_terms(
            wp.decomposition, xi_skew, Y, sigma, region
        )
        assert abs(total - total2) <= 1e-8 * scale
        assert abs(body - body2) <= 1e-8 * max(1.0, abs(body))
        assert abs(boundary - boundary2) <= 1e-8 * max(1.0, abs(boundary))


def test_decomposition_zero_field():
    wp = wave_problem()
    cfg = wp.cfg
    Y0 = ProjectableField(
        cfg, (Expr.zero(), Expr.zero()), (Expr.zero(), Expr.zero())
    )
    region = GridSpec(((0.0, 1.0, 16, False), (0.0, 1.0, 16, False)))
    sigma = PolynomialSection(cfg, (x_var(1) ** 2, x_var(2) ** 2))
    assert decomposition_terms(
        wp.decomposition, wp.boundary_symmetric, Y0, sigma, region
    ) == (0.0, 0.0, 0.0)


def test_decomposition_requires_vertical():
    wp = wave_problem()
    region = GridSpec(((0.0, 1.0, 16, False), (0.0, 1.0, 16, False)))
    sigma = PolynomialSection(wp.cfg, (x_var(1), x_var(2)))
    with pytest.raises(ValueError, match="vertical"):
        decomposition_terms(
            wp.decomposition, wp.boundary_symmetric, wp.time_translation, sigma, region
        )


def test_decomposition_trapezoid_path():
    # the sampled path reproduces the exact values at quadrature accuracy
    wp = wave_problem()
    cfg = wp.cfg
    x1, x2 = x_var(1), x_var(2)
    Y = ProjectableField(cfg, (Expr.zero(), Expr.zero()), (x1, x2))
    sigma = PolynomialSection(cfg, (x1**2 * x2, x2**2))
    fine = GridSpec(((0.0, 1.0, 96, False), (0.0, 1.0, 96, False)))
    exact = decomposition_terms(
        wp.decomposition, wp.boundary_symmetric, Y, sigma, fine
    )
    approx = decomposition_terms(
        wp.decomposition, wp.boundary_symmetric, Y, sigma, fine, method="trapezoid"
    )
    for e_val, a_val in zip(exact, approx):
        assert abs(e_val - a_val) <= 5e-3 * max(1.0, abs(e_val))


def test_cauchy_zero_data_stays_zero():
    grid = periodic_grid(64)
    state = CauchyState(grid, np.zeros((1, 4, 64)))
    out = cauchy_evolve(state, 3.7)
    assert np.max(np.abs(out.data)) == 0.0
    assert out.t == 3.7


def test_cauchy_travelling_wave_exact():
    grid = periodic_grid(256)
    x = grid.points(0)
    h = grid.spacing(0)
    # single-mode travelling waves solve box y = 0, hence box^2 y = 0; the
    # per-mode exponential reproduces them without time-stepping error
    for k, t in ((1, 1.0), (5, 0.37), (11, 1.0)):
        data = np.stack(
            [
                np.sin(k * x),
                -k * np.cos(k * x),
                -(k**2) * np.sin(k * x),
                k**3 * np.cos(k * x),
            ]
        )[None, :, :]
        out = cauchy_evolve(CauchyState(grid, data), t)
        exact = np.sin(k * (x - t))
        err = math.sqrt(float(np.sum((out.data[0, 0] - exact) ** 2) * h))
        assert err <= 1e-8, (k, t, err)


def test_cauchy_zero_mode_cubic_growth():
    grid = periodic_grid(32)
    data = np.zeros((1, 4, 32))
    data[0, 3] = 2.0  # constant third time derivative
    out = cauchy_evolve(CauchyState(grid, data), 1.5)
    expected = 2.0 * 1.5**3 / 6.0
    assert abs(float(out.data[0, 0].mean()) - expected) <= 1e-12
    assert abs(float(out.data[0, 2].mean()) - 2.0 * 1.5) <= 1e-12


def test_cauchy_state_keeps_physical_data():
    grid = periodic_grid(64)
    data = np.random.default_rng(3).normal(size=(2, 4, 64))
    state = CauchyState(grid, data, t=0.25)
    assert state.spectrum.shape == (2, 4, 33)
    assert np.max(np.abs(state.data - data)) <= 1e-14
    # a zero step hands back the state itself
    assert cauchy_evolve(state, 0.25) is state


def test_cauchy_step_and_energy_take_no_fft(monkeypatch):
    # the state is its scaled spectrum: a step transforms nothing, and the
    # energy reads the spectrum per mode (the *freq and *shift helpers are
    # not transforms and stay available)
    wp = wave_problem()
    state = band_limited_state(periodic_grid(64), wp.cfg.n, 8, seed=1)

    def forbidden(*args, **kwargs):
        raise AssertionError("unexpected FFT")

    for name in np.fft.__all__:
        if not name.endswith(("freq", "shift")):
            monkeypatch.setattr(np.fft, name, forbidden)
    evolved = cauchy_evolve(state, 0.7)
    for theta in (wp.theta_symmetric, wp.theta_skew()):
        assert EnergyFunctional(theta)(evolved) != 0.0


def _scaled_roundtrip(count, seed, t):
    grid = periodic_grid(count)
    max_mode = count // 8
    state = band_limited_state(grid, 2, max_mode, seed)
    back = cauchy_evolve(cauchy_evolve(state, t), 0.0)
    err = np.linalg.norm(back.spectrum - state.spectrum) / np.linalg.norm(state.spectrum)
    # on 0..2 pi the top populated wavenumber is max_mode itself
    bound = np.finfo(float).eps * (1.0 + max_mode * abs(t)) ** 2
    return err, bound, state, back


@pytest.mark.parametrize("count", [4096, 16384])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cauchy_roundtrip_within_scaled_bound(count, seed):
    # the bound argued in the cauchy_evolve docstring; measured at 0.08 of it
    err, bound, _, _ = _scaled_roundtrip(count, seed, 1.0)
    assert err <= bound, (err, bound)


def test_cauchy_physical_roundtrip_at_16384_points():
    # the physical rows are diagnostics: the independently drawn y_ttt row
    # carries no xi^3 scale, so its round trip is far above the scaled one
    # (0.08 here; 39 when the state was stored as physical samples)
    _, _, state, back = _scaled_roundtrip(16384, 1, 1.0)
    err = np.linalg.norm(back.data - state.data) / np.linalg.norm(state.data)
    assert err < 1.0, err


def test_cauchy_band_limited_travelling_wave_at_16384_points():
    # y = f(x - t) for band-limited f, with rows d_t^r y = (-1)^r f^(r)
    count, max_mode, t = 16384, 2048, 1.0
    grid = periodic_grid(count)
    rng = np.random.default_rng([1, 1])
    spectrum = np.zeros(count // 2 + 1, dtype=complex)
    spectrum[1 : max_mode + 1] = rng.normal(size=max_mode) + 1j * rng.normal(size=max_mode)
    k = np.arange(count // 2 + 1)

    def rows(time, orders):
        factors = [(-1j * k) ** r * np.exp(-1j * k * time) for r in orders]
        return np.fft.irfft(spectrum * np.array(factors), n=count, axis=1)

    out = cauchy_evolve(CauchyState(grid, rows(0.0, range(4))[None]), t)
    exact = rows(t, [0])[0]
    err = np.linalg.norm(out.data[0, 0] - exact) / np.linalg.norm(exact)
    assert err <= 1e-8, err  # 2.4e-9 measured


def _companion_exponential(xi, dt):
    from scipy.linalg import expm

    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-(xi**4), 0.0, -2.0 * xi**2, 0.0],
        ]
    )
    return expm(dt * A)


@pytest.mark.parametrize("dt", [0.37, -1.0])
def test_cauchy_propagator_matches_matrix_exponential(dt):
    # per mode xi the evolution is exp(dt A) on the spectrum of
    # (y, y_t, y_tt, y_ttt); read it off column by column from single-mode data
    count = 16
    grid = periodic_grid(count)
    for xi in (0, 1, 3, 7):
        propagator = np.empty((4, 4), dtype=complex)
        for j in range(4):
            spectrum = np.zeros((1, 4, count // 2 + 1), dtype=complex)
            spectrum[0, j, xi] = 1.0
            data = np.fft.irfft(spectrum, n=count, axis=2)
            out = cauchy_evolve(CauchyState(grid, data, t=0.5), 0.5 + dt)
            propagator[:, j] = np.fft.rfft(out.data, axis=2)[0, :, xi]
        expected = _companion_exponential(xi, dt)
        err = np.max(np.abs(propagator - expected))
        assert err <= 1e-14 * np.max(np.abs(expected)), (xi, dt, err)


def _band_limited_loop(grid, n, max_mode, seed):
    # reference: the mode-by-mode cos/sin sum the FFT construction replaces
    rng = np.random.default_rng(seed)
    x = grid.points(0)
    lo, hi, _, _ = grid.axes[0]
    base = TWO_PI / (hi - lo)
    data = np.zeros((n, 4, grid.shape[0]))
    for a in range(n):
        for row in range(4):
            for mode in range(1, max_mode + 1):
                amp_c, amp_s = rng.normal(size=2) / max_mode
                data[a, row] += amp_c * np.cos(mode * base * x)
                data[a, row] += amp_s * np.sin(mode * base * x)
    return data


@pytest.mark.parametrize("count", [64, 256])
@pytest.mark.parametrize("lo", [0.0, -1.3])
def test_band_limited_state_matches_mode_loop(count, lo):
    grid = GridSpec(((lo, lo + 4.1, count, True),))
    for max_mode in (1, count // 8, count // 2 - 1):
        state = band_limited_state(grid, 2, max_mode, seed=11)
        expected = _band_limited_loop(grid, 2, max_mode, seed=11)
        assert state.t == 0.0
        assert np.max(np.abs(state.data - expected)) <= 1e-13, max_mode


def test_band_limited_state_rejects_nyquist_modes():
    for count in (64, 65):
        grid = periodic_grid(count)
        band_limited_state(grid, 1, (count - 1) // 2, seed=0)
        with pytest.raises(ValueError, match="Nyquist"):
            band_limited_state(grid, 1, (count + 1) // 2, seed=0)


def test_cauchy_rejects_bad_grids():
    grid = GridSpec(((0.0, 1.0, 32, False),))
    with pytest.raises(ValueError, match="periodic"):
        CauchyState(grid, np.zeros((1, 4, 32)))
    with pytest.raises(ValueError, match="finite"):
        CauchyState(periodic_grid(16), np.full((1, 4, 16), np.nan))


def test_energy_conservation_and_boundary_form_independence():
    wp = wave_problem()
    grid = periodic_grid(256)
    state = band_limited_state(grid, wp.cfg.n, max_mode=32, seed=20240817)
    e_sym = EnergyFunctional(wp.theta_symmetric)
    e_skew = EnergyFunctional(wp.theta_skew())
    e0 = e_sym(state)
    assert abs(e0) > 1.0  # scale sanity for the relative tolerances
    drift = 0.0
    gap = abs(e_sym(state) - e_skew(state))
    current = state
    for step in range(1, 9):
        current = cauchy_evolve(current, step / 8.0)
        es = e_sym(current)
        drift = max(drift, abs(es - e0))
        gap = max(gap, abs(es - e_skew(current)))
    assert drift / abs(e0) <= 1e-6
    # the skew part cancels inside the table, so the energies are one number
    assert e_sym.entries == e_skew.entries
    assert gap == 0.0
    # other skew data gives the same table, such as z[1;1], whose exact
    # derivative leaves the real |v_1|^2 under an odd phase
    for q in (z_var(1, (1,)), z_var(1, (1, 1))):
        delta = skew_pair_perturbation(wp.cfg, {(1, 1, 2): q, (1, 2, 1): -q})
        assert EnergyFunctional(wp.theta_skew(delta)).entries == e_sym.entries


def test_energy_integral_examples():
    wp = wave_problem()
    grid = periodic_grid(64)
    zero = CauchyState(grid, np.zeros((2, 4, 64)))
    assert EnergyFunctional(wp.theta_symmetric)(zero) == 0.0
    # evolved travelling-wave data conserves the energy value
    x = grid.points(0)
    rows = np.stack([np.sin(x), -np.cos(x), -np.sin(x), np.cos(x)])
    state = CauchyState(grid, np.stack([rows, rows]))
    e0 = EnergyFunctional(wp.theta_symmetric)(state)
    e1 = EnergyFunctional(wp.theta_symmetric)(cauchy_evolve(state, 1.0))
    assert abs(e1 - e0) <= 1e-6 * max(1.0, abs(e0))


def state_coordinate_arrays(state, cfg, order):
    """Reference: jet coordinates on a constant-t slice, one irfft each.

    The library's slice energy evaluated its density on these arrays before
    it read the stored spectrum per mode: y^a and z^a_I with r ones and s
    twos are the arrays irfft((i xi)^s xi^r u_r).
    """
    values = {base_coord(1): state.t, base_coord(2): state.grid.points(0)}
    lo, hi, count, _ = state.grid.axes[0]
    symbol = _derivative_symbol(count, hi - lo)
    scaled = state.spectrum * _time_scales(state.grid)
    for a in range(1, cfg.n + 1):
        for level in range(order + 1):
            for I in multiindices(cfg.m, level):
                r = sum(1 for i in I if i == 1)
                coord = jet_coord(a, I) if I else field_coord(a)
                spectrum = symbol ** (len(I) - r) * scaled[a - 1, r]
                values[coord] = np.fft.irfft(spectrum, n=count)
    return values


def quadrature_energy(theta, state):
    """Reference: the slice energy as the quadrature of its density.

    Returns the energy and its roundoff scale, the quadrature of the density
    with every term c P Q replaced by |c| |P| |Q|.
    """
    cfg, grid = theta.cfg, state.grid
    y_t = ProjectableField(
        cfg, (Expr.one(), Expr.zero()), tuple(Expr.zero() for _ in range(cfg.n))
    )
    density = noether_current(y_t, theta, None).coefficient((("dx", 2),))
    magnitude = Expr({mono: abs(coeff) for mono, coeff in density.terms()})
    values = state_coordinate_arrays(state, cfg, cfg.working_order)
    sizes = {coord: np.abs(value) for coord, value in values.items()}
    return (
        quadrature(evaluate_on_grid(density, values, grid.shape), grid),
        quadrature(evaluate_on_grid(magnitude, sizes, grid.shape), grid),
    )


@pytest.mark.parametrize("kind", ["band-limited", "full-spectrum"])
@pytest.mark.parametrize("count", [16, 17, 64, 65, 256, 1024, 4096, 16384])
def test_energy_matches_quadrature_reference(count, kind):
    # Parseval makes the per-mode sum and the quadrature of the irfft arrays
    # the same number; they differ by roundoff, bounded here by 8 eps A for
    # the reference's scale A (at most 2.1 eps A measured over seeds 0-4 and
    # these).  E itself is indefinite: A / |E| reaches 3e8 on band-limited
    # data at 16384 points, so a bound relative to |E| would say little.
    wp = wave_problem()
    # a density with an odd phase: its table reads Im(conj(v_1) v_2)
    mixed = z_var(1, (1,)) * z_var(1, (2,)) + z_var(1, (1, 1)) * z_var(1, (1, 2))
    odd = derive(JetConfig(2, 1, 2), mixed + z_var(1, (2, 2)) ** 2).theta_symmetric
    grid = periodic_grid(count)
    if kind == "band-limited":
        state = band_limited_state(grid, wp.cfg.n, max(1, count // 8), seed=count)
    else:
        data = np.random.default_rng(count).normal(size=(wp.cfg.n, 4, count))
        state = CauchyState(grid, data)
    for t in (0.0, 0.6):
        current = cauchy_evolve(state, t)
        for theta in (wp.theta_symmetric, wp.theta_skew(), odd):
            reference, scale = quadrature_energy(theta, current)
            err = abs(EnergyFunctional(theta)(current) - reference)
            assert err <= 8.0 * np.finfo(float).eps * scale, (t, err, scale)


def test_state_coordinate_arrays_guard():
    # the slice data carries three time derivatives, so a density that reads
    # a fourth is refused, as is one that is not a constant-coefficient
    # quadratic form in y and z (the wave L plus a null Lagrangian)
    wp = wave_problem()
    cases = [
        (JetConfig(2, 1, 3), z_var(1, (1, 1, 1)) ** 2, "-2*z[1;1]*z[1;1 1 1 1 1]"),
        (wp.cfg, wp.lagrangian + z_var(1, (2,)) * y_var(1) ** 2, "y[1]^2*z[1;2]"),
        (wp.cfg, wp.lagrangian + x_var(1) * z_var(2, (2,)), "x[1]*z[2;2]"),
    ]
    for cfg, L, term in cases:
        theta = derive(cfg, L).theta_symmetric
        message = f"three time derivatives, not the term {term}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EnergyFunctional(theta)


def test_functional_derivative_oracle_matches_lagrange_derivative():
    # calibrated: width 0.03 and eps 1e-3 at N = 512 give ~5e-4 agreement
    cfg = JetConfig(1, 1, 1)
    L = z_var(1, (1,)) ** 2 / 2
    grid = periodic_grid(512)
    x = grid.points(0)
    section = SampledSection(grid, [np.sin(x)])
    value = functional_derivative_oracle(
        cfg, L, section, 1, (math.pi / 2,), eps=1e-3, width=0.03
    )
    assert abs(value - math.sin(math.pi / 2)) <= 1e-3
    # zero Lagrangian
    assert functional_derivative_oracle(cfg, Expr.zero(), section, 1, (1.0,)) == 0.0


def test_functional_derivative_oracle_random_fixtures():
    # five random fixtures against the substituted Lagrange derivative
    from jetforms.dedonder import lagrange_derivative

    rng = random.Random(6)
    cfg = JetConfig(1, 1, 1)
    L = z_var(1, (1,)) ** 2 / 2 + y_var(1) ** 2
    delta = lagrange_derivative(cfg, L)[0]  # -y'' + 2y
    grid = periodic_grid(512)
    x = grid.points(0)
    for trial in range(5):
        k = rng.randint(1, 3)
        phase = rng.uniform(0, TWO_PI)
        section = SampledSection(grid, [np.sin(k * x + phase)])
        x0 = rng.uniform(1.0, TWO_PI - 1.0)
        got = functional_derivative_oracle(
            cfg, L, section, 1, (x0,), eps=1e-3, width=0.02
        )
        expected = (k * k + 2.0) * math.sin(k * x0 + phase)
        assert abs(got - expected) <= 2e-3 * max(1.0, abs(expected)), (
            trial,
            got,
            expected,
        )


def test_functional_derivative_oracle_wave_fixture():
    # the t^2 x^2 fixture of the fourth-order example: expect -16
    wp = wave_problem()
    region = GridSpec(((0.0, 1.0, 96, False), (0.0, 1.0, 96, False)))
    x1, x2 = x_var(1), x_var(2)
    section = sample_section(
        PolynomialSection(wp.cfg, (x1**2 * x2**2, Expr.zero())), region
    )
    value = functional_derivative_oracle(
        wp.cfg, wp.lagrangian, section, 1, (0.5, 0.5), eps=1e-3, width=0.06
    )
    assert abs(value + 16.0) <= 1e-2


def test_bump_boundary_guard():
    cfg = JetConfig(1, 1, 1)
    grid = GridSpec(((0.0, 1.0, 64, False),))
    section = SampledSection(grid, [np.zeros(64)])
    with pytest.raises(ValueError, match="boundary"):
        functional_derivative_oracle(
            cfg, Expr.zero(), section, 1, (0.01,), width=0.05
        )
