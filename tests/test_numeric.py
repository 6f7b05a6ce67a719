import math
import random
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from jetforms.cli import _squared_wave_pattern
from jetforms.dedonder import derive, lagrange_derivative
from jetforms.expressions import Expr, PolynomialSection, render_expr, x_var, y_var, z_var
from jetforms.jets import JetConfig, base_coord, field_coord, jet_coord, multiindices
from jetforms.numeric import (
    CauchyState,
    EnergyFunctional,
    GridSpec,
    _derivative_symbol,
    _time_scales,
    band_limited_state,
    cauchy_evolve,
)
from jetforms.prolongations import ProjectableField, noether_current
from jetforms.wave import wave_problem

from tests.oracles import (
    SampledSection,
    decomposition_terms,
    evaluate_on_grid,
    functional_derivative_oracle,
    integrate_action,
    meshes,
    quadrature,
    sample_section,
)
from tests.support import (
    reference_band_limited_state,
    reference_cauchy_evolve,
    reference_energy,
)

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
    t_mesh, x_mesh = meshes(grid)
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
    state = CauchyState(grid, data)
    state.t = 0.25
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


def _assert_matches_the_replaced_evaluation(energies, state, ref):
    assert np.array_equal(state.spectrum, ref.spectrum)
    assert state.t == ref.t
    for energy in energies:
        assert energy(state) == reference_energy(energy, ref)


@pytest.mark.parametrize("count", [256, 4096, 16384])
def test_cauchy_step_and_energy_equal_the_evaluation_they_replaced(count):
    # the step into preallocated buffers and the energy from per-grid
    # weights do the same float operations as the references, so every bit
    # agrees: on the fixture's grid (256 points, 8 steps to t = 1) and at
    # the benchmark's sizes, with max_mode N/8 as evolve draws it
    wp = wave_problem()
    energies = [EnergyFunctional(wp.theta_symmetric), EnergyFunctional(wp.theta_skew())]
    grid = periodic_grid(count)
    state = ref = band_limited_state(grid, wp.cfg.n, count // 8, seed=count)
    for step in range(9):
        state, ref = cauchy_evolve(state, step / 8), reference_cauchy_evolve(ref, step / 8)
        _assert_matches_the_replaced_evaluation(energies, state, ref)
    # back and forth: the round trip of the scaled-bound test
    for t in (-0.3, 1.0, 0.0):
        state, ref = cauchy_evolve(state, t), reference_cauchy_evolve(ref, t)
        _assert_matches_the_replaced_evaluation(energies, state, ref)
    # every mode populated, the Nyquist mode included, through the constructor
    data = np.random.default_rng(count).normal(size=(wp.cfg.n, 4, count))
    state = ref = CauchyState(grid, data)
    _assert_matches_the_replaced_evaluation(energies, state, ref)
    for t in (0.37, -1.0, 0.0):
        state, ref = cauchy_evolve(state, t), reference_cauchy_evolve(ref, t)
        _assert_matches_the_replaced_evaluation(energies, state, ref)
    # a functional's weights belong to one grid: another grid gets its own
    other = band_limited_state(periodic_grid(64), wp.cfg.n, 8, seed=1)
    _assert_matches_the_replaced_evaluation(energies, other, other)
    _assert_matches_the_replaced_evaluation(energies, state, ref)


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


def test_states_of_two_bands_on_one_grid_step_in_alternation_as_the_references():
    # a step keeps its scratch per grid and band, and the energy its weights
    # per grid and band: a band-limited state and the full band of the same
    # spectrum, on one grid's constants, take turns, so each step and call
    # meets the other band's scratch, rotation and weights.  Every step and
    # energy is the references' to the bit; the padding past the narrow
    # band is compared by value, as the references' zeros there carry signs
    wp = wave_problem()
    energies = [EnergyFunctional(wp.theta_symmetric), EnergyFunctional(wp.theta_skew())]
    narrow = band_limited_state(periodic_grid(256), wp.cfg.n, 32, seed=6)
    wide = CauchyState._from_spectrum(narrow.modes, narrow.spectrum, narrow.t)
    states, refs = [narrow, wide], [narrow, wide]
    for t in (0.125, 0.25, 0.375, -0.5, -0.375, 1.0):
        for i, band in enumerate((33, 129)):
            states[i] = cauchy_evolve(states[i], t)
            refs[i] = reference_cauchy_evolve(refs[i], t)
            state, ref = states[i], refs[i]
            assert state._band == band and state.modes is narrow.modes
            assert np.array_equal(_bits(state._u), _bits(ref.spectrum[:, :, :band]))
            assert np.array_equal(state.spectrum, ref.spectrum)
            for energy in energies:
                assert energy(state) == reference_energy(energy, ref)


def test_a_warm_step_allocates_only_the_state_it_returns():
    # at the benchmark's size, a second step of the same size on the same
    # grid and band reuses the first one's scratch and rotation: numpy
    # reports its allocations to tracemalloc, and the step's peak is its
    # output, the finiteness check's mask of it (one byte per float) and at
    # most one numpy buffer that casts a float operand to complex; the five
    # scratch buffers, 5/4 of the output, no longer fit
    state = band_limited_state(periodic_grid(16384), 2, 2048, seed=3)
    state = cauchy_evolve(state, 0.125)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = cauchy_evolve(state, 0.25)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out._u.nbytes == 262272
    slack = out._u.nbytes // 8 + np.getbufsize() * 16 + 4096
    assert peak <= out._u.nbytes + slack, (peak, out._u.nbytes)


def test_concurrent_steps_on_one_grid_never_share_a_scratch_set():
    # a step takes its scratch off the grid's modes and hands it back at its
    # end.  Six threads step states of one grid and band at once, each by its
    # own dt, so they also replace the grid's rotation under each other;
    # numpy lets go of the interpreter lock inside its loops, so steps
    # interleave, and each state ends as it does alone
    base = band_limited_state(periodic_grid(4096), 2, 512, seed=8)
    starts = [CauchyState._from_spectrum(base.modes, base._u * (k + 1), 0.0)
              for k in range(6)]

    def walk(index):
        state = starts[index]
        for j in range(1, 25):
            state = cauchy_evolve(state, j * (index + 1) / 16)
        return state._u

    alone = [walk(index) for index in range(len(starts))]
    together = [None] * len(starts)

    def run(index):
        together[index] = walk(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(starts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for mine, ref in zip(together, alone):
        assert mine is not None and np.array_equal(_bits(mine), _bits(ref))


def test_energy_beyond_the_float_range_raises_as_the_replaced_evaluation():
    # xi^3 stays finite on a period of 1e-100, so the state is built, but
    # xi^4 overflows: both evaluations raise the same error
    wp = wave_problem()
    grid = GridSpec(((0.0, 1e-100, 64, True),))
    state = CauchyState(grid, np.random.default_rng(5).normal(size=(wp.cfg.n, 4, 64)))
    energy = EnergyFunctional(wp.theta_symmetric)
    message = "a period of 1e-100 puts xi^S outside the float range"
    with pytest.raises(ValueError) as new:
        energy(state)
    with pytest.raises(ValueError) as old:
        reference_energy(energy, state)
    assert str(new.value) == str(old.value) == message


def test_a_state_from_physical_data_keeps_the_full_band():
    # data with every mode populated, the Nyquist mode included: no mode is
    # known to be zero, so every step and energy reads all N // 2 + 1
    wp = wave_problem()
    energy = EnergyFunctional(wp.theta_symmetric)
    grid = periodic_grid(64)
    data = np.random.default_rng(9).normal(size=(wp.cfg.n, 4, 64))
    state = ref = CauchyState(grid, data)
    assert state._band == 33
    for t in (0.6, -2.0):
        state, ref = cauchy_evolve(state, t), reference_cauchy_evolve(ref, t)
        assert state._band == 33
        assert np.array_equal(state.spectrum, ref.spectrum)
        assert np.all(state.spectrum[:, :, 32] != 0)
        assert energy(state) == reference_energy(energy, ref)


def test_a_non_finite_mode_inside_the_band_raises():
    state = band_limited_state(periodic_grid(64), 2, 8, seed=4)
    state._u[1, 2, 8] = complex(0.0, np.nan)  # the stored band's last mode
    with pytest.raises(ValueError, match="non-finite"):
        cauchy_evolve(state, 0.5)


def test_writing_into_the_spectrum_leaves_the_state_unchanged():
    # .spectrum is a zero-padded copy of the stored band, made on each read
    wp = wave_problem()
    energy = EnergyFunctional(wp.theta_symmetric)
    state = band_limited_state(periodic_grid(64), wp.cfg.n, 8, seed=4)
    spectrum, data, before = state.spectrum, state.data, energy(state)
    written = state.spectrum
    written[:] = complex(np.nan, np.nan)
    assert np.array_equal(state.spectrum, spectrum)
    assert np.array_equal(state.data, data)
    assert energy(state) == before
    assert np.array_equal(cauchy_evolve(state, 0.5).spectrum,
                          reference_cauchy_evolve(state, 0.5).spectrum)


def test_a_weight_past_the_float_range_outside_the_band_still_raises():
    # on a period of 1e-74, xi^4 passes the float range only in modes far
    # above a band of two, whose energy alone is finite; the weights are
    # checked in every mode, so the call raises as the full sum would
    wp = wave_problem()
    state = band_limited_state(GridSpec(((0.0, 1e-74, 1024, True),)), wp.cfg.n, 1, seed=0)
    energy = EnergyFunctional(wp.theta_symmetric)
    message = "a period of 1e-74 puts xi^S outside the float range"
    for _ in range(2):  # a failed check keeps no weights
        with pytest.raises(ValueError) as raised:
            energy(state)
        assert str(raised.value) == message
    # a finite xi^S whose weight c xi^4 passes the range is the coefficient's
    huge = derive(wp.cfg, wp.lagrangian * 10**300)
    state = band_limited_state(periodic_grid(1024), wp.cfg.n, 1, seed=0)
    with pytest.raises(OverflowError) as raised:
        EnergyFunctional(huge.theta_symmetric)(state)
    assert str(raised.value) == (
        "the slice-energy weight 1e+300*xi^4 of a period of 6.28319 passes the float range"
    )


def test_an_energy_coefficient_beyond_the_float_range_raises():
    # 10^400 in front of L derives exactly, but its table's coefficients
    # have no float: the call names them, not float(), before any weight
    # or the grid's xi^S is formed, and keeps no weights
    wp = wave_problem()
    huge = derive(wp.cfg, wp.lagrangian * 10**400)
    energy = EnergyFunctional(huge.theta_symmetric)
    assert max(abs(c) for c in energy.entries.values()) > sys.float_info.max
    state = band_limited_state(periodic_grid(64), wp.cfg.n, 8, seed=0)
    for _ in range(2):
        with pytest.raises(OverflowError) as raised:
            energy(state)
        assert str(raised.value) == "the slice energy has a coefficient beyond the float range"
    # the coefficient is blamed before a period out of range
    short = CauchyState(GridSpec(((0.0, 1e-100, 64, True),)), np.zeros((wp.cfg.n, 4, 64)))
    with pytest.raises(OverflowError, match="coefficient beyond the float range"):
        energy(short)


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
            state = CauchyState(grid, data)
            state.t = 0.5
            out = cauchy_evolve(state, 0.5 + dt)
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


@pytest.mark.parametrize("count", [64, 256, 4096, 16384])
def test_band_limited_state_equals_the_expression_it_replaced_bit_for_bit(count):
    # the spectrum formed in place in the array of the draws, a - i b as
    # the conjugate of a + i b, has every bit of the one-expression formula
    for n, lo, seed in ((1, 0.0, 0), (2, -1.3, 7), (3, 2.5, 2**40 + 1)):
        grid = GridSpec(((lo, lo + 4.1, count, True),))
        for max_mode in (1, count // 8, count // 2 - 1):
            state = band_limited_state(grid, n, max_mode, seed)
            ref = reference_band_limited_state(grid, n, max_mode, seed)
            assert state._u.shape == ref._u.shape == (n, 4, max_mode + 1)
            assert np.array_equal(_bits(state._u), _bits(ref._u)), (n, lo, seed, max_mode)


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
        delta = {(1, 1, (2,)): q, (1, 2, (1,)): -q}
        assert EnergyFunctional(wp.theta_skew(delta)).entries == e_sym.entries


def test_a_null_lagrangian_puts_cross_field_odd_phase_terms_that_cancel_in_the_table():
    # L + D_x(y^1 z^2_t) has the fixture's Lagrange derivatives, so evolve
    # accepts it, yet its time density holds two cross-field terms under an
    # odd phase: the table's "imag" and cross-field entries must sum them,
    # and the two cancel there, leaving the fixture's table
    wp = wave_problem()
    null = z_var(1, (2,)) * z_var(2, (1,)) + y_var(1) * z_var(2, (1, 2))
    derivation = derive(wp.cfg, wp.lagrangian + null)
    assert derivation.euler_lagrange() == lagrange_derivative(wp.cfg, wp.lagrangian)
    assert _squared_wave_pattern(wp.cfg, derivation.euler_lagrange())
    y_t = ProjectableField(wp.cfg, (Expr.one(), Expr.zero()), (Expr.zero(),) * wp.cfg.n)
    density = noether_current(y_t, derivation.theta_symmetric, None).coefficient(
        (base_coord(2),)
    )
    cross_odd = []
    for mono, coeff in density.terms():
        (a, s), (b, s2) = sorted(
            (c[1], c[2].count(2) if c[0] == "z" else 0)
            for c, exp in mono if c[0] != "x" for _ in range(exp)
        )
        if a != b and (s2 - s) % 2:
            cross_odd.append(render_expr(Expr({mono: coeff})))
    assert sorted(cross_odd) == ["1/2*y[1]*z[2;1 2]", "1/2*z[1;2]*z[2;1]"]
    energy = EnergyFunctional(derivation.theta_symmetric)
    assert energy.entries == EnergyFunctional(wp.theta_symmetric).entries
    assert all(a == b and part == "real" for a, _, b, _, _, part in energy.entries)


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
    density = noether_current(y_t, theta, None).coefficient((base_coord(2),))
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


def _sine_jets_at(e: Expr, k: int, phase: float, x0: float) -> float:
    """e at x0 on the section y = sin(k x + phase) of one field over one
    base coordinate: each jet coordinate of order l reads
    k^l sin(k x0 + phase + l pi/2)."""
    values = {}
    for coord in e.variables():
        order = len(coord[2]) if coord[0] == "z" else 0
        values[coord] = k**order * math.sin(k * x0 + phase + order * math.pi / 2)
    return float(evaluate_on_grid(e, values, ()))


def test_functional_derivative_oracle_matches_lagrange_derivative():
    # calibrated: width 0.03 and eps 1e-3 at N = 512 give ~5e-4 agreement
    from jetforms.dedonder import lagrange_derivative

    cfg = JetConfig(1, 1, 1)
    L = z_var(1, (1,)) ** 2 / 2
    grid = periodic_grid(512)
    x = grid.points(0)
    section = SampledSection(grid, [np.sin(x)])
    value = functional_derivative_oracle(
        cfg, L, section, 1, (math.pi / 2,), eps=1e-3, width=0.03
    )
    expected = _sine_jets_at(lagrange_derivative(cfg, L)[0], 1, 0.0, math.pi / 2)
    assert abs(value - expected) <= 1e-3
    assert abs(expected - math.sin(math.pi / 2)) <= 1e-12  # -y'' = sin
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
        expected = _sine_jets_at(delta, k, phase, x0)
        assert abs(got - expected) <= 2e-3 * max(1.0, abs(expected)), (
            trial,
            got,
            expected,
        )
        by_hand = (k * k + 2.0) * math.sin(k * x0 + phase)
        assert abs(expected - by_hand) <= 1e-12 * max(1.0, abs(by_hand)), (trial, delta)


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
