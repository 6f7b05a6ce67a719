"""Numeric side: sampled sections, quadrature, the wave evolution, oracles.

Everything here exists to corroborate the symbolic machinery:

* sampled sections with spectral (periodic) or fourth-order finite-difference
  jets, and quadrature of Lagrangians and pulled-back forms;
* the decomposition of a force functional into body and boundary terms, with
  an exact-integration path for polynomial fixtures (the identities under
  test hold to roundoff there, quadrature error would only obscure them);
* the Cauchy evolution of the fourth-order wave example, advanced exactly
  for all spatial Fourier modes at once by the closed-form propagator of the
  mode equation, so conservation checks see no time-stepping error at all;
  the state is carried as its scaled spectrum d_t^j y^ / xi^j, a step takes
  no FFT, and the slice energy reads that spectrum mode by mode (Parseval);
* a finite-difference functional-derivative oracle for Lagrange derivatives;
* a flow oracle for prolongations.  The supported symmetry-field class keeps
  flows closed-form: base components affine in x, vertical components affine
  in (x, y) jointly.  That covers translations, the Lorentz generator,
  scalings and linear internal mixings, and lets the oracle evaluate
  e^{tY}* sigma exactly (up to the float matrix exponential) so only the
  t-derivative is finite-differenced.

This is the one module that imports numpy (and, inside the flow oracle,
scipy); the symbolic core and the package import load neither.

Periodic grids stand in for the decay-at-infinity assumptions of the
continuum statements: both make boundary terms and exact forms integrate to
zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .dedonder import (
    BoundaryForm,
    DeDonderForm,
    PhiDecomposition,
)
from .expressions import Expr, PolynomialSection, _monomial_sort_key, substitute_section
from .expressions import render_expr
from .jets import JetConfig, base_coord, field_coord, jet_coord, multiindices
from .problem import GridSpec
from .prolongations import ProjectableField, characteristic_jets, noether_current


def quadrature(values: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid rule; exact-weight (flat) trapezoid on periodic axes."""
    acc = np.asarray(values, dtype=float)
    for axis in range(grid.ndim - 1, -1, -1):
        w = grid.quadrature_weights(axis)
        acc = np.tensordot(acc, w, axes=([axis], [0]))
    return float(acc)


def evaluate_on_grid(e: Expr, values: dict, shape: tuple) -> np.ndarray:
    """Float evaluation of an expression on coordinate arrays.

    Monomials are summed in canonical order, so the float result does not
    depend on the insertion order of the expression's terms (and hence not on
    the interpreter's hash seed).
    """
    total = np.zeros(shape)
    for mono, coeff in sorted(e.terms(), key=lambda item: _monomial_sort_key(item[0])):
        term = np.full(shape, float(coeff))
        for coord, exp in mono:
            term = term * np.asarray(values[coord], dtype=float) ** exp
        total += term
    return total


def _wavenumbers(count: int, length: float) -> np.ndarray:
    """Angular wavenumber xi of each rfft bin of a periodic axis."""
    return 2.0 * np.pi * np.fft.rfftfreq(count, d=length / count)


def _derivative_symbol(count: int, length: float) -> np.ndarray:
    """i xi per rfft bin, with the Nyquist bin zeroed for odd derivatives."""
    freqs = _wavenumbers(count, length)
    if count % 2 == 0:
        freqs[-1] = 0.0
    return 1j * freqs


def _spectral_derivative(values: np.ndarray, axis: int, length: float) -> np.ndarray:
    n = values.shape[axis]
    symbol = _derivative_symbol(n, length)
    shape = [1] * values.ndim
    shape[axis] = symbol.size
    spectrum = np.fft.rfft(values, axis=axis) * symbol.reshape(shape)
    return np.fft.irfft(spectrum, n=n, axis=axis)


def _fd_matrix(n: int, h: float) -> np.ndarray:
    """Dense fourth-order first-derivative matrix with one-sided edge rows."""
    if n < 5:
        raise ValueError("fourth-order stencils need at least 5 points")
    D = np.zeros((n, n))
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    for i in range(2, n - 2):
        D[i, i - 2 : i + 3] = c
    D[0, :5] = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    D[1, :5] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    D[n - 2, n - 5 :] = -np.array([-3.0, -10.0, 18.0, -6.0, 1.0])[::-1] / 12.0
    D[n - 1, n - 5 :] = -np.array([-25.0, 48.0, -36.0, 16.0, -3.0])[::-1] / 12.0
    return D / h


def _derivative(values: np.ndarray, axis: int, grid: GridSpec) -> np.ndarray:
    lo, hi, count, periodic = grid.axes[axis]
    if periodic:
        return _spectral_derivative(values, axis, hi - lo)
    D = _fd_matrix(count, grid.spacing(axis))
    moved = np.moveaxis(values, axis, -1)
    out = moved @ D.T
    return np.moveaxis(out, -1, axis)


@dataclass
class SampledSection:
    """Grid samples of a section, with lazily computed jet arrays.

    Jet arrays are produced by this module's own differentiation (spectral on
    periodic axes, fourth-order finite differences otherwise) and stored per
    canonical multi-index, so mixed partials are symmetric by construction.
    """

    grid: GridSpec
    values: list
    jets: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in self.values:
            if arr.shape != self.grid.shape:
                raise ValueError("sample shape does not match the grid")

    @property
    def n(self) -> int:
        return len(self.values)

    def jet(self, a: int, indices: tuple) -> np.ndarray:
        indices = tuple(sorted(indices))
        if not indices:
            return self.values[a - 1]
        key = (a, indices)
        cached = self.jets.get(key)
        if cached is None:
            lower = self.jet(a, indices[:-1])
            cached = _derivative(lower, indices[-1] - 1, self.grid)
            self.jets[key] = cached
        return cached

    def coordinate_arrays(self, cfg: JetConfig, order: int) -> dict:
        """Coordinate -> array mapping for evaluating expressions on the grid."""
        meshes = self.grid.meshes()
        values = {base_coord(i + 1): meshes[i] for i in range(self.grid.ndim)}
        for a in range(1, self.n + 1):
            for level in range(order + 1):
                for I in multiindices(cfg.m, level):
                    values[jet_coord(a, I) if I else field_coord(a)] = self.jet(a, I)
        return values


def sample_section(section: PolynomialSection, grid: GridSpec) -> SampledSection:
    """Evaluate a (fully determined) polynomial section on a grid."""
    if grid.ndim != section.cfg.m:
        raise ValueError("grid dimension does not match the configuration")
    meshes = grid.meshes()
    values = {base_coord(i + 1): meshes[i] for i in range(grid.ndim)}
    arrays = []
    for comp in section.components:
        if any(c[0] == "c" for c in comp.variables()):
            raise ValueError("cannot sample a section with free coefficients")
        arrays.append(evaluate_on_grid(comp, values, grid.shape))
    return SampledSection(grid, arrays)


def integrate_action(
    cfg: JetConfig, L: Expr, section: SampledSection, grid: GridSpec | None = None
) -> float:
    """Quadrature of the action integrand L(j^k sigma) over the grid."""
    grid = section.grid if grid is None else grid
    values = section.coordinate_arrays(cfg, cfg.k)
    return quadrature(evaluate_on_grid(L, values, grid.shape), grid)


# -- decomposition of force functionals ---------------------------------------


def _exact_antiderivative(e: Expr, coord) -> Expr:
    def raised(mono, coeff) -> Expr:
        powers = dict(mono)
        exp = powers.get(coord, 0)
        powers[coord] = exp + 1
        return Expr.monomial(powers, Fraction(coeff, exp + 1))

    return Expr.sum(raised(mono, coeff) for mono, coeff in e.terms())


def _exact_integral_1d(e: Expr, coord, lo: Fraction, hi: Fraction) -> Expr:
    anti = _exact_antiderivative(e, coord)
    upper = anti.substitute({coord: Expr.constant(hi)})
    lower = anti.substitute({coord: Expr.constant(lo)})
    return upper - lower


def _exact_box_integral(e: Expr, grid: GridSpec) -> Fraction:
    out = e
    for axis in range(grid.ndim):
        lo, hi, _, _ = grid.axes[axis]
        out = _exact_integral_1d(
            out, base_coord(axis + 1), Fraction(lo), Fraction(hi)
        )
    value = out.constant_term()
    if out != Expr.constant(value):
        raise AssertionError("integral left free variables behind")
    return Fraction(value)


def decomposition_terms(
    dec: PhiDecomposition,
    xi: BoundaryForm,
    Y,
    section,
    region: GridSpec,
    method: str = "exact",
):
    """Body/boundary decomposition of the force functional on a box.

    Returns ``(total, body, boundary)`` with

        total    = integral over K of j^k sigma*(Y^k -| Phi),
        body     = integral over K of [j sigma*(Phi_a) - P^i_{a,i}] Y^a d_m x,
        boundary = integral over the boundary of K of j sigma*(Y^{2k-1} -| Xi),

    and total = body + boundary (Stokes).  ``Y`` must be a vertical
    projectable field, so Q = Y: the total integrand is sum_{|I|<=k} Phi^I_a
    D_I Y^a and the boundary one the Noether current of 0 d_m x + Xi.  With
    ``method="exact"`` (polynomial sections only) the integrands are
    integrated exactly and the identity holds to roundoff;
    ``method="trapezoid"`` samples a :class:`SampledSection` on the region
    grid and is limited by quadrature accuracy.
    """
    if not isinstance(Y, ProjectableField) or not Y.is_vertical:
        raise ValueError("the decomposition requires a vertical projectable field")
    cfg = dec.cfg
    if cfg.m not in (1, 2):
        raise ValueError("boundary integrals are implemented for m in {1, 2}")
    total_expr = Expr.sum(
        dec.component(a, I) * value
        for (a, I), value in characteristic_jets(Y, cfg.k).items()
    )
    # Y^i = 0, so the Lagrangian drops out: Y -| Xi reduces like Y -| (0 d_m x + Xi)
    theta = DeDonderForm(cfg, Expr.zero(), xi)
    if method == "exact":
        if not isinstance(section, PolynomialSection):
            raise ValueError("exact integration needs a PolynomialSection")
        body_expr = Expr.sum(
            (dec.component(a) - xi.coefficients.holonomic_divergence(a))
            * Y.vertical_components[a - 1]
            for a in range(1, cfg.n + 1)
        )
        total = float(_exact_box_integral(substitute_section(total_expr, section), region))
        body = float(_exact_box_integral(substitute_section(body_expr, section), region))
        pulled = noether_current(Y, theta, section)
        boundary = float(_exact_boundary_integral(pulled, region))
        return total, body, boundary
    if method != "trapezoid":
        raise ValueError(f"unknown method {method!r}")
    if isinstance(section, SampledSection):
        if section.grid.axes != region.axes:
            raise ValueError("the sampled section does not live on the region grid")
        sampled = section
    else:
        sampled = sample_section(section, region)
    # jets stop at the working order 2k-1; the divergence of the level-one
    # coefficients (an order-2k object) is taken on the grid instead
    arrays = sampled.coordinate_arrays(cfg, cfg.working_order)
    total = quadrature(evaluate_on_grid(total_expr, arrays, region.shape), region)
    body_vals = np.zeros(region.shape)
    for a in range(1, cfg.n + 1):
        density = evaluate_on_grid(dec.component(a), arrays, region.shape)
        for i in range(1, cfg.m + 1):
            p_i = evaluate_on_grid(
                xi.coefficients.coefficient(a, i), arrays, region.shape
            )
            density = density - _derivative(p_i, i - 1, region)
        body_vals += density * evaluate_on_grid(
            Y.vertical_components[a - 1], arrays, region.shape
        )
    body = quadrature(body_vals, region)
    boundary = _sampled_boundary_integral(noether_current(Y, theta, None), arrays, region)
    return total, body, boundary


def _exact_boundary_integral(current, region: GridSpec) -> Fraction:
    """Integral of a pulled-back (m-1)-form over the oriented box boundary."""
    if current.degree == 0:
        lo, hi, _, _ = region.axes[0]
        g = current.coefficient(())
        upper = g.substitute({base_coord(1): Expr.constant(Fraction(hi))})
        lower = g.substitute({base_coord(1): Expr.constant(Fraction(lo))})
        return Fraction((upper - lower).constant_term())
    (lo1, hi1, _, _), (lo2, hi2, _, _) = region.axes[0], region.axes[1]
    lo1, hi1, lo2, hi2 = map(Fraction, (lo1, hi1, lo2, hi2))
    g1 = current.coefficient((("dx", 1),))
    g2 = current.coefficient((("dx", 2),))
    x1, x2 = base_coord(1), base_coord(2)
    total = Fraction(0)
    # counterclockwise: bottom (+dx1), right (+dx2), top (-dx1), left (-dx2)
    bottom = _exact_integral_1d(g1.substitute({x2: Expr.constant(lo2)}), x1, lo1, hi1)
    top = _exact_integral_1d(g1.substitute({x2: Expr.constant(hi2)}), x1, lo1, hi1)
    right = _exact_integral_1d(g2.substitute({x1: Expr.constant(hi1)}), x2, lo2, hi2)
    left = _exact_integral_1d(g2.substitute({x1: Expr.constant(lo1)}), x2, lo2, hi2)
    for piece, sign in ((bottom, 1), (right, 1), (top, -1), (left, -1)):
        total += sign * Fraction(piece.constant_term())
    return total


def _sampled_boundary_integral(current, arrays: dict, region: GridSpec) -> float:
    cfg_m = region.ndim
    if cfg_m == 1:
        values = evaluate_on_grid(current.coefficient(()), arrays, region.shape)
        return float(values[-1] - values[0])
    g1 = evaluate_on_grid(current.coefficient((("dx", 1),)), arrays, region.shape)
    g2 = evaluate_on_grid(current.coefficient((("dx", 2),)), arrays, region.shape)
    w1 = region.quadrature_weights(0)
    w2 = region.quadrature_weights(1)
    bottom = float(np.dot(g1[:, 0], w1))
    top = float(np.dot(g1[:, -1], w1))
    right = float(np.dot(g2[-1, :], w2))
    left = float(np.dot(g2[0, :], w2))
    return bottom + right - top - left


# -- the fourth-order wave Cauchy problem -------------------------------------


class CauchyState:
    """Cauchy data (y, y_t, y_tt, y_ttt) per field on a periodic spatial grid.

    Stored only as the scaled spectrum u_j = rfft(d_t^j y) / xi^j, shape
    (n, 4, N // 2 + 1), with xi = 1 in the zero mode; a step and the slice
    energy read it without a transform.  The constructor takes physical rows
    (n, 4, N) through one forward FFT; ``data`` is the physical view, one
    inverse FFT.
    """

    def __init__(self, grid: GridSpec, data, t: float = 0.0):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3 or data.shape[1] != 4:
            raise ValueError("state data must have shape (n, 4, N)")
        if data.shape[2] != grid.shape[0]:
            raise ValueError("state data does not match the grid")
        self._set(grid, np.fft.rfft(data, axis=2) / _time_scales(grid), t)

    @classmethod
    def _from_spectrum(cls, grid: GridSpec, spectrum: np.ndarray, t: float):
        state = cls.__new__(cls)
        state._set(grid, spectrum, t)
        return state

    def _set(self, grid: GridSpec, spectrum: np.ndarray, t: float):
        if not np.all(np.isfinite(spectrum)):
            raise ValueError("state data contains non-finite values")
        self.grid, self.spectrum, self.t = grid, spectrum, t

    @property
    def data(self) -> np.ndarray:
        scaled = self.spectrum * _time_scales(self.grid)
        return np.fft.irfft(scaled, n=self.grid.shape[0], axis=2)


def _time_scales(grid: GridSpec) -> np.ndarray:
    """xi^j per rfft bin in row j = 0..3, with xi = 1 in the zero mode."""
    if grid.ndim != 1 or not grid.axes[0][3]:
        raise ValueError("Cauchy evolution needs a 1-D periodic grid")
    lo, hi, count, _ = grid.axes[0]
    xi = _wavenumbers(count, hi - lo)
    xi[0] = 1.0
    with np.errstate(over="ignore"):
        scales = xi ** np.arange(4)[:, None]
    if not np.all((scales > 0.0) & (scales < np.inf)):
        raise ValueError(f"a period of {hi - lo:g} puts xi^3 outside the float range")
    return scales


def cauchy_evolve(state: CauchyState, t_target: float) -> CauchyState:
    """Advance the fourth-order wave system exactly, all Fourier modes at once.

    Per spatial mode xi != 0 the system is (d_t^2 + xi^2)^2 y = 0, whose
    solutions are y = (A + B tau) cos tau + (C + D tau) sin tau with
    tau = xi t.  On the stored scaled data u_j = d_t^j y / xi^j the
    propagator over dt has entries of size O(1 + |xi dt|), so it is
    evaluated in closed form for every mode by broadcasting, with no FFT, no
    matrix exponential and no time-stepping error.  Each entry carries a
    relative rounding error of a few eps times its size, so one step moves u
    by O(eps (1 + xi_max |dt|)) |u|, xi_max the largest wavenumber carrying
    data.  A round trip t -> t + dt -> t, whose second propagator amplifies
    the first one's error by the same factor, returns u within
    O(eps (1 + xi_max |dt|)^2) |u|.  The xi = 0 mode advances by the exact
    cubic Taylor polynomial in dt.
    """
    dt = t_target - state.t
    if dt == 0.0:
        return state
    taylor = [1.0, dt, dt**2 / 2.0, dt**3 / 6.0]  # a huge dt raises OverflowError
    lo, hi, count, _ = state.grid.axes[0]
    tau = _wavenumbers(count, hi - lo)[1:] * dt
    u0, u1, u2, u3 = np.moveaxis(state.spectrum[:, :, 1:], 1, 0)
    c, s = np.cos(tau), np.sin(tau)
    A, B = u0, -(u1 + u3) / 2.0
    C, D = (3.0 * u1 + u3) / 2.0, (u0 + u2) / 2.0
    Bt, Dt = B * tau, D * tau
    out = np.empty_like(state.spectrum)
    out[:, 0, 1:] = (A + Bt) * c + (C + Dt) * s
    out[:, 1, 1:] = (B + C + Dt) * c + (D - A - Bt) * s
    out[:, 2, 1:] = (2.0 * D - A - Bt) * c - (2.0 * B + C + Dt) * s
    out[:, 3, 1:] = (-3.0 * B - C - Dt) * c + (A - 3.0 * D + Bt) * s
    # zero mode: u_i <- sum over j >= i of taylor[j - i] u_j
    shift = [[taylor[j - i] if j >= i else 0.0 for i in range(4)] for j in range(4)]
    out[:, :, 0] = state.spectrum[:, :, 0] @ np.array(shift)
    return CauchyState._from_spectrum(state.grid, out, t_target)


class EnergyFunctional:
    """Spatial integral of the time-translation current of a De Donder form.

    On a constant-t slice only the dx^2 component of j sigma*(Y_T -| Theta),
    Y_T = d/dx^1, survives; it must be a constant-coefficient quadratic form
    in y and z with at most three time indices per factor (else ValueError).
    A coordinate with r time and s space indices has the mode value
    (i xi)^s v_r, v_r = rfft(d_t^r y^a); by Parseval E = (L / N^2) sum_k w_k
    sum_e c_e xi_k^S part_e(conj(v_r) v'_r'), w_k = 1 in the zero and Nyquist
    modes and 2 elsewhere.  ``entries`` maps (a, r, b, r', S = s + s', part_e)
    to the exact c_e, which absorbs the phase i^(s' - s); an exact
    x-derivative cancels inside it, so all boundary forms give one table.
    """

    def __init__(self, theta: DeDonderForm):
        cfg = theta.cfg
        if cfg.m != 2:
            raise ValueError("the slice energy is defined for m = 2")
        y_t = ProjectableField(cfg, (Expr.one(), Expr.zero()), (Expr.zero(),) * cfg.n)
        density = noether_current(y_t, theta, None).coefficient((("dx", 2),))
        entries: dict = {}
        for mono, coeff in sorted(density.terms(), key=lambda t: _monomial_sort_key(t[0])):
            slots = sorted(  # (a, r, s) of each y/z factor
                (c[1], c[2].count(1), c[2].count(2)) if c[0] == "z" else (c[1], 0, 0)
                for c, exp in mono if c[0] != "x" for _ in range(exp)
            )
            degree = sum(exp for _, exp in mono)
            if degree != 2 or len(slots) != 2 or max(r for _, r, _ in slots) > 3:
                raise ValueError(
                    "the slice energy needs a quadratic form in y and z with constant "
                    "coefficients and at most three time derivatives, not the term "
                    + render_expr(Expr({mono: coeff}))
                )
            (a, r, s), (b, r2, s2) = slots
            if (a, r) == (b, r2) and (s2 - s) % 2:
                continue  # conj(v_r) v_r is real, so an odd phase leaves no real part
            # Re(i^d X) = sign * part(X) for the phase d = s' - s
            sign, part = ((1, "real"), (-1, "imag"), (-1, "real"), (1, "imag"))[(s2 - s) % 4]
            key = (a, r, b, r2, s + s2, part)
            entries[key] = entries.get(key, 0) + sign * coeff
        self.entries = {key: c for key, c in sorted(entries.items()) if c != 0}

    def __call__(self, state: CauchyState) -> float:
        lo, hi, count, _ = state.grid.axes[0]
        # products of the stored u_r = v_r / xi^r would overflow on wide domains
        rows = state.spectrum * _time_scales(state.grid)
        xi = _derivative_symbol(count, hi - lo).imag  # 0 in the Nyquist mode
        per_mode = np.zeros(count // 2 + 1)
        for (a, r, b, r2, total_s, part), coeff in self.entries.items():
            pair = np.conj(rows[a - 1, r]) * rows[b - 1, r2]
            per_mode += float(coeff) * xi**total_s * getattr(pair, part)
        per_mode[1 : (count + 1) // 2] *= 2.0  # all but the zero and Nyquist modes
        return float(per_mode.sum()) * (hi - lo) / count**2


def band_limited_state(
    grid: GridSpec, n: int, max_mode: int, seed: int
) -> CauchyState:
    """Random band-limited Cauchy data (modes 1..max_mode, unit-scale).

    Each field and stored time derivative is sum_k a_c cos(k b x) +
    a_s sin(k b x) with b = 2 pi / length and normal amplitudes a / max_mode,
    drawn in (field, row, mode, cos/sin) order; the state stores the
    matching spectrum, scaled, without a transform.
    """
    count = grid.shape[0]
    if 2 * max_mode >= count:
        raise ValueError(
            f"max_mode {max_mode} must lie below the Nyquist mode of {count} points"
        )
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n, 4, max_mode, 2)) / max_mode
    lo, hi, _, _ = grid.axes[0]
    k = np.arange(1, max_mode + 1)
    phase = np.exp(1j * k * (2.0 * np.pi / (hi - lo)) * lo)
    spectrum = np.zeros((n, 4, count // 2 + 1), dtype=complex)
    spectrum[:, :, 1 : max_mode + 1] = (
        (amps[..., 0] - 1j * amps[..., 1]) * (count / 2.0) * phase
    ) / _time_scales(grid)[:, 1 : max_mode + 1]
    return CauchyState._from_spectrum(grid, spectrum, 0.0)


# -- functional-derivative oracle ---------------------------------------------


def _bump(grid: GridSpec, center: Sequence[float], width: float) -> np.ndarray:
    meshes = grid.meshes()
    r2 = np.zeros(grid.shape)
    for axis in range(grid.ndim):
        lo, hi, _, periodic = grid.axes[axis]
        delta = meshes[axis] - center[axis]
        if periodic:
            length = hi - lo
            delta = (delta + length / 2.0) % length - length / 2.0
        r2 = r2 + delta**2
    return np.exp(-r2 / (2.0 * width**2))


def functional_derivative_oracle(
    cfg: JetConfig,
    L: Expr,
    section: SampledSection,
    a: int,
    center: Sequence[float],
    eps: float = 1e-3,
    width: float = 0.05,
) -> float:
    """Central difference of the action under a localized bump of field a.

    Returns (A(s + eps phi) - A(s - eps phi)) / (2 eps integral(phi)), which
    converges to the Lagrange derivative at the bump center as the width and
    spacing shrink; the bump (and its order-k stencil footprint) must stay
    inside the region.
    """
    grid = section.grid
    phi = _bump(grid, center, width)
    for axis in range(grid.ndim):
        lo, hi, count, periodic = grid.axes[axis]
        if not periodic:
            margin = (cfg.k + 2) * grid.spacing(axis) + 3.0 * width
            if center[axis] - margin < lo or center[axis] + margin > hi:
                raise ValueError("bump too close to the region boundary")
    mass = quadrature(phi, grid)

    def action(sign: float) -> float:
        shifted = list(section.values)
        shifted[a - 1] = shifted[a - 1] + sign * eps * phi
        return integrate_action(cfg, L, SampledSection(grid, shifted))

    return (action(1.0) - action(-1.0)) / (2.0 * eps * mass)


# -- prolongation flow oracle -------------------------------------------------


def _affine_generator(Y: ProjectableField) -> np.ndarray:
    """Generator of the flow on (x, y, 1) for the affine field class."""
    cfg = Y.cfg
    m, n = cfg.m, cfg.n
    G = np.zeros((m + n + 1, m + n + 1))
    for i in range(1, m + 1):
        comp = Y.base_components[i - 1]
        G[i - 1, m + n] = float(comp.constant_term())
        for j in range(1, m + 1):
            G[i - 1, j - 1] = float(comp.partial(base_coord(j)).constant_term())
    for a in range(1, n + 1):
        comp = Y.vertical_components[a - 1]
        G[m + a - 1, m + n] = float(comp.constant_term())
        for j in range(1, m + 1):
            G[m + a - 1, j - 1] = float(comp.partial(base_coord(j)).constant_term())
        for b in range(1, n + 1):
            G[m + a - 1, m + b - 1] = float(
                comp.partial(field_coord(b)).constant_term()
            )
    return G


def _flowed_jet_coordinates(
    Y: ProjectableField, order: int, section: PolynomialSection, x0, t: float
) -> dict:
    """Coordinates of j^order(e^{tY}* sigma) at the flowed base point.

    With phi_{-t} the inverse base flow, the transported section is
    sigma_t = C(t) sigma(phi_{-t} x) + D(t) phi_{-t}(x) + e(t); evaluating its
    jets at x_t = e^{tY^0} x0 pulls phi_{-t}(x_t) back to x0, so only the jets
    of sigma at x0 enter, contracted with powers of the affine matrix.
    """
    from scipy.linalg import expm  # the flow oracle is scipy's only user

    cfg = Y.cfg
    m, n = cfg.m, cfg.n
    G = _affine_generator(Y)
    fwd = expm(t * G)
    back = expm(-t * G)
    x0 = np.asarray([float(v) for v in x0])
    x_t = fwd[:m, :m] @ x0 + fwd[:m, m + n]
    M = back[:m, :m]  # Jacobian of phi_{-t}
    C = fwd[m : m + n, m : m + n]
    D = fwd[m : m + n, :m]
    e_shift = fwd[m : m + n, m + n]
    values = section.jet_values(x0, order)
    sigma0 = np.array([float(values[field_coord(a)]) for a in range(1, n + 1)])
    coords = {base_coord(i + 1): x_t[i] for i in range(m)}
    values0 = C @ sigma0 + D @ (M @ x_t + back[:m, m + n]) + e_shift
    for a in range(1, n + 1):
        coords[field_coord(a)] = values0[a - 1]
    for level in range(1, order + 1):
        for I in multiindices(cfg.m, level):
            for a in range(1, n + 1):
                total = 0.0
                for J in product(range(1, m + 1), repeat=level):
                    weight = 1.0
                    for idx_out, idx_in in zip(I, J):
                        weight *= M[idx_in - 1, idx_out - 1]
                    chain = sum(
                        C[a - 1, b - 1] * float(values[jet_coord(b, tuple(sorted(J)))])
                        for b in range(1, n + 1)
                    )
                    total += weight * chain
                if level == 1:
                    # the affine D(t) x term contributes to first derivatives
                    total += float(D[a - 1] @ M[:, I[0] - 1])
                coords[jet_coord(a, I)] = total
    return coords


def flow_oracle(
    Y: ProjectableField,
    order: int,
    section: PolynomialSection,
    x0: Sequence,
    h: float = 1e-4,
) -> dict:
    """Numeric prolongation components along a section, by flow differencing.

    Central difference in t of the jet coordinates of e^{tY}* sigma at the
    flowed base point; at t = 0 this is by construction the prolonged vector
    field evaluated at j^order sigma(x0).  Used solely as a test oracle for
    :func:`prolong`.
    """
    cfg = Y.cfg
    if not 1 <= order <= cfg.working_order:
        raise ValueError(f"order {order} outside 1..{cfg.working_order}")
    if not Y.is_affine:
        raise ValueError(
            "the flow oracle supports fields with Y^i affine in x and "
            "Y^a affine in (x, y); general flows have no closed form here"
        )
    plus = _flowed_jet_coordinates(Y, order, section, x0, +h)
    minus = _flowed_jet_coordinates(Y, order, section, x0, -h)
    return {
        coord: (plus[coord] - minus[coord]) / (2.0 * h) for coord in plus
    }
