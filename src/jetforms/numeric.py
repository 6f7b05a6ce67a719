"""Numeric side: the wave evolution, its slice energy and the flow oracle.

Everything here exists to corroborate the symbolic machinery:

* the Cauchy evolution of the fourth-order wave example, advanced exactly
  mode by mode by the closed-form propagator of the mode equation, so
  conservation checks see no time-stepping error at all; the state is
  carried as its scaled spectrum d_t^j y^ / xi^j, a step takes no FFT, and
  the slice energy reads that spectrum mode by mode (Parseval).  A state
  stores only its band, the modes below which all of its data lies, and
  the stored width is the band: the propagator keeps a zero mode zero, so
  a step and the energy read and write only the band, and a band-limited
  state costs in proportion to its band, not to its grid.  The full
  spectrum is zero-padded on read.  Each spectral operation runs once: a
  grid's wavenumbers, xi^j scales and energy powers xi^S are computed once
  and travel with the state or the functional, the rotation xi dt with its
  cosine and sine is formed once per step size, the energy weights once per
  band, a step writes into five scratch buffers allocated once per grid and
  band, an energy call scales each row it reads once, and one energy table
  serves every boundary form.  So each array that a step or an energy call
  reads from one call to the next is allocated once per ``evolve`` command:
  a step allocates only the state it returns, an energy call only its
  band-length rows and its sum.  Every power is taken on the full grid, as
  numpy's pow of a shorter array can differ in the last bit;
* a flow oracle for prolongations.  The supported symmetry-field class keeps
  flows closed-form: base components affine in x, vertical components affine
  in (x, y) jointly.  That covers translations, the Lorentz generator,
  scalings and linear internal mixings, and lets the oracle evaluate
  e^{tY}* sigma exactly (up to the float matrix exponential) so only the
  t-derivative is finite-differenced.

Quadrature, sampled sections with finite-difference jets, the
force-decomposition integrals and the functional-derivative oracle serve
only the tests, and live with them.

This is the one module that imports numpy (and, inside the flow oracle,
scipy); the symbolic core and the package import load neither.

Periodic grids stand in for the decay-at-infinity assumptions of the
continuum statements: both make boundary terms and exact forms integrate to
zero.
"""
from __future__ import annotations

import sys
from itertools import product
from typing import Sequence

import numpy as np

from .dedonder import DeDonderForm
from .expressions import Expr, PolynomialSection, render_expr
from .jets import base_coord, field_coord, jet_coord, multiindices
from .problem import GridSpec
from .prolongations import ProjectableField, noether_current


def _wavenumbers(count: int, length: float) -> np.ndarray:
    """Angular wavenumber xi of each rfft bin of a periodic axis."""
    return 2.0 * np.pi * np.fft.rfftfreq(count, d=length / count)


def _derivative_symbol(count: int, length: float) -> np.ndarray:
    """i xi per rfft bin, with the Nyquist bin zeroed for odd derivatives."""
    freqs = _wavenumbers(count, length)
    if count % 2 == 0:
        freqs[-1] = 0.0
    return 1j * freqs


# -- the fourth-order wave Cauchy problem -------------------------------------


class CauchyState:
    """Cauchy data (y, y_t, y_tt, y_ttt) per field on a periodic spatial grid.

    Stored only as the scaled spectrum u_j = rfft(d_t^j y) / xi^j, with
    xi = 1 in the zero mode, and of that only its band: the first b modes,
    shape (n, 4, b), every mode from b on being exactly zero.  A step and the
    slice energy read the stored band without a transform.  The constructor
    takes physical rows (n, 4, N) through one forward FFT, keeps the whole
    rfft, so its band is N // 2 + 1, and starts at t = 0;
    ``band_limited_state`` stores max_mode + 1 modes, and a step keeps the
    band.  ``spectrum`` is the full (n, 4, N // 2 + 1) spectrum, a copy
    zero-padded on each read; ``data`` is the physical view, one inverse FFT
    that pads the band itself.  The grid's constants (``modes``) are computed
    once and handed from state to evolved state.
    """

    def __init__(self, grid: GridSpec, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3 or data.shape[1] != 4:
            raise ValueError("state data must have shape (n, 4, N)")
        if data.shape[2] != grid.shape[0]:
            raise ValueError("state data does not match the grid")
        modes = _GridModes(grid)
        self._set(modes, np.fft.rfft(data, axis=2) / modes.scales, 0.0)

    @classmethod
    def _from_spectrum(cls, modes: "_GridModes", u: np.ndarray, t: float):
        state = cls.__new__(cls)
        state._set(modes, u, t)
        return state

    def _set(self, modes: "_GridModes", u: np.ndarray, t: float):
        if not np.isfinite(u.view(float)).all():  # both parts of every stored mode
            raise ValueError("state data contains non-finite values")
        self.grid, self.modes, self._u, self.t = modes.grid, modes, u, t

    @property
    def _band(self) -> int:
        return self._u.shape[2]

    @property
    def spectrum(self) -> np.ndarray:
        n, _, band = self._u.shape
        spectrum = np.zeros((n, 4, self.grid.shape[0] // 2 + 1), dtype=complex)
        spectrum[:, :, :band] = self._u
        return spectrum

    @property
    def data(self) -> np.ndarray:
        scaled = self._u * self.modes.scales[:, : self._band]
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


class _GridModes:
    """The constants of a 1-D periodic grid that a step and the slice energy
    read: the xi^j time scales, the wavenumbers xi != 0 that the propagator
    multiplies by dt, and xi of the derivative symbol, 0 in the Nyquist mode.
    It also keeps the rotation of the last step, (dt, band, tau, cos tau,
    sin tau), which a step of the same float dt and band reuses, and the
    five scratch buffers of a step, one set per shape of a band's rows."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.scales = _time_scales(grid)
        lo, hi, count, _ = grid.axes[0]
        self.xi = _wavenumbers(count, hi - lo)[1:]
        self.symbol_xi = _derivative_symbol(count, hi - lo).imag
        self._rotation = (None, None)
        self.scratch: dict = {}

    def rotation(self, dt: float, band: int) -> tuple:
        """tau = xi dt, cos tau and sin tau in the modes 1..band-1."""
        rotation = self._rotation  # read once: a concurrent step may replace it
        if rotation[:2] != (dt, band):
            tau = self.xi[: band - 1] * dt
            rotation = self._rotation = (dt, band, tau, np.cos(tau), np.sin(tau))
        return rotation[2:]


def cauchy_evolve(state: CauchyState, t_target: float) -> CauchyState:
    """Advance the fourth-order wave system exactly, every mode of the band at once.

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

    The propagator maps a zero mode to zero, so a step reads and writes only
    the stored band b of the state, and the evolved state keeps it: the
    zero mode through the Taylor shift, the modes 1..b-1 through the
    propagator.  The wavenumbers come with the state, computed once per
    grid, and tau = xi dt with its cosine and sine once per step size:
    consecutive steps of one float dt share them.  Every other array
    operation writes into the new band's rows or into five scratch buffers,
    all b - 1 modes wide, allocated on the grid's first step of that band
    and reused by its later ones.  A step takes the set off the grid's
    modes and hands it back at its end, so two concurrent steps never share
    one.  The new state's band is allocated on every step, as callers keep
    states.  The operations are the float operations of the expressions in
    the comments below, in the same order, a halving written as a product
    with 0.5, so no temporary is allocated and the result is the same to
    the bit.
    """
    dt = t_target - state.t
    if dt == 0.0:
        return state
    taylor = [1.0, dt, dt**2 / 2.0, dt**3 / 6.0]  # a huge dt raises OverflowError
    band, modes = state._band, state.modes
    tau, c, s = modes.rotation(dt, band)
    u0, u1, u2, u3 = np.moveaxis(state._u[:, :, 1:band], 1, 0)
    out = np.empty_like(state._u)
    v0, v1, v2, v3 = np.moveaxis(out[:, :, 1:band], 1, 0)
    # five buffers: one block of the five was faster but raised the
    # evolve_16k benchmark's peak RSS by 0.7 MB more
    shape = u0.shape
    scratch = modes.scratch.pop(shape, None)
    if scratch is None:
        scratch = tuple(np.empty_like(u0) for _ in range(5))
    B, C, D, Bt, Dt = scratch
    w = v3  # scratch until row 3, which is written last
    # A = u0, B = -(u1 + u3) / 2, C = (3 u1 + u3) / 2, D = (u0 + u2) / 2
    np.add(u1, u3, out=B)
    B *= -0.5
    np.multiply(3.0, u1, out=C)
    C += u3
    C *= 0.5
    np.add(u0, u2, out=D)
    D *= 0.5
    np.multiply(B, tau, out=Bt)
    np.multiply(D, tau, out=Dt)
    # v0 = (A + Bt) c + (C + Dt) s
    np.add(u0, Bt, out=v0)
    v0 *= c
    np.add(C, Dt, out=w)
    w *= s
    v0 += w
    # v1 = (B + C + Dt) c + (D - A - Bt) s
    np.add(B, C, out=v1)
    v1 += Dt
    v1 *= c
    np.subtract(D, u0, out=w)
    w -= Bt
    w *= s
    v1 += w
    # v2 = (2 D - A - Bt) c - (2 B + C + Dt) s
    np.multiply(2.0, D, out=v2)
    v2 -= u0
    v2 -= Bt
    v2 *= c
    np.multiply(2.0, B, out=w)
    w += C
    w += Dt
    w *= s
    v2 -= w
    # v3 = (-3 B - C - Dt) c + (A - 3 D + Bt) s, the first half in B's buffer
    np.multiply(-3.0, B, out=B)
    B -= C
    B -= Dt
    B *= c
    np.multiply(3.0, D, out=v3)
    np.subtract(u0, v3, out=v3)
    v3 += Bt
    v3 *= s
    np.add(B, v3, out=v3)
    # zero mode: u_i <- sum over j >= i of taylor[j - i] u_j
    shift = [[taylor[j - i] if j >= i else 0.0 for i in range(4)] for j in range(4)]
    out[:, :, 0] = state._u[:, :, 0] @ np.array(shift)
    modes.scratch[shape] = scratch
    return CauchyState._from_spectrum(modes, out, t_target)


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
    x-derivative cancels inside it, so all boundary forms give one table,
    and ``evolve`` evaluates that one table once per state.  A call scales
    each distinct (field, row) spectrum the table reads once, in the modes
    of the state's stored band, then pairs and weights them.  The weights
    c_e xi^S are formed on the first call of a grid and band and kept, in
    the modes of the band only; each power xi^S, one per distinct S, is
    formed and checked in every mode of the grid and then cut to the band.
    A c_e past the float range is the coefficients' fault (OverflowError),
    checked first; then an xi^S past it is the grid's (ValueError); a
    finite xi^S whose weight is not, or a sum of finite weighted terms that
    is not, is again the coefficients' (OverflowError).
    """

    def __init__(self, theta: DeDonderForm):
        cfg = theta.cfg
        if cfg.m != 2:
            raise ValueError("the slice energy is defined for m = 2")
        y_t = ProjectableField(cfg, (Expr.one(), Expr.zero()), (Expr.zero(),) * cfg.n)
        density = noether_current(y_t, theta, None).coefficient((base_coord(2),))
        entries: dict = {}
        for mono, coeff in density.terms():
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
        # per entry the (field, row) spectra it pairs, its part, S and c_e;
        # the weights c_e xi^S are evaluated once per grid and band
        self._terms = [((a - 1, r), (b - 1, r2), part, S, c)
                       for (a, r, b, r2, S, part), c in self.entries.items()]
        self._rows = list(dict.fromkeys(key for term in self._terms for key in term[:2]))
        # a (key, value) pair, read and replaced whole
        self._weights = (None, None)

    def _weights_on(self, modes: _GridModes, band: int) -> list:
        """c_e xi^S per entry in the modes 0..band-1, each the product of
        c_e with the power xi^S taken in every mode of the grid, xi = 0 in
        the Nyquist mode, and cut to the band: numpy's pow of the band alone
        may differ from it in the last bit.  A power or weight past the
        float range in any mode raises, as the band may leave that mode out.
        A weight is checked through its largest mode, c_e max|xi^S|: a
        product of floats rounds monotonically, so it passes the range if
        and only if the weight does in some mode."""
        if any(abs(c) > sys.float_info.max for *_, c in self._terms):
            raise OverflowError("the slice energy has a coefficient beyond the float range")
        lo, hi, _, _ = modes.grid.axes[0]
        exponents = dict.fromkeys(S for *_, S, _ in self._terms)
        with np.errstate(over="ignore"):
            powers = {S: modes.symbol_xi**S for S in exponents}
        if not all(np.isfinite(power).all() for power in powers.values()):
            raise ValueError(f"a period of {hi - lo:g} puts xi^S outside the float range")
        peaks = {S: float(max(power.max(), -power.min())) for S, power in powers.items()}
        for *_, S, c in self._terms:
            if not np.isfinite(float(c) * peaks[S]):
                raise OverflowError(
                    f"the slice-energy weight {float(c):g}*xi^{S} of a period of "
                    f"{hi - lo:g} passes the float range"
                )
        return [float(c) * powers[S][:band] for *_, S, c in self._terms]

    def __call__(self, state: CauchyState) -> float:
        lo, hi, count, _ = state.grid.axes[0]
        modes, band = state.modes, state._band
        of, weights = self._weights
        if of != (modes, band):
            weights = self._weights_on(modes, band)
            self._weights = ((modes, band), weights)
        # products of the stored u_r = v_r / xi^r would overflow on wide domains
        rows = {key: state._u[key] * modes.scales[key[1], :band] for key in self._rows}
        pair = np.empty(band, dtype=complex)
        term = np.empty(band)
        # full length with zeros past the band: the pairwise sum of a
        # shorter array would round differently
        per_mode = np.zeros(count // 2 + 1)
        head = per_mode[:band]
        with np.errstate(over="ignore", invalid="ignore"):
            for (left, right, part, *_), weight in zip(self._terms, weights):
                np.conjugate(rows[left], out=pair)
                pair *= rows[right]
                np.multiply(weight, getattr(pair, part), out=term)
                head += term
            head[1 : (count + 1) // 2] *= 2.0  # all but the zero and Nyquist modes
            total = float(per_mode.sum())
        if not np.isfinite(total):  # finite weights: a product with the data overflowed
            raise OverflowError(f"the slice energy at t = {state.t:g} passes the float range")
        return total * (hi - lo) / count**2


def band_limited_state(
    grid: GridSpec, n: int, max_mode: int, seed: int
) -> CauchyState:
    """Random band-limited Cauchy data (modes 1..max_mode, unit-scale).

    Each field and stored time derivative is sum_k a_c cos(k b x) +
    a_s sin(k b x) with b = 2 pi / length and normal amplitudes a / max_mode,
    drawn in (field, row, mode, cos/sin) order; the state stores the
    matching spectrum, scaled, without a transform, in its band of
    max_mode + 1 modes, mode 0 a zero, so a step and the energy read those
    modes only.  The spectrum (a - i b) (N / 2) e^{i k b lo} / xi^j is
    formed in the array of the draws, read as complex a + i b and
    conjugated in place, which gives a - i b to the bit (but for the sign
    of a draw of exactly zero); each later factor is one in-place
    operation, the division writing into the band.
    """
    count = grid.shape[0]
    if 2 * max_mode >= count:
        raise ValueError(
            f"max_mode {max_mode} must lie below the Nyquist mode of {count} points"
        )
    modes = _GridModes(grid)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n, 4, max_mode, 2))
    amps /= max_mode
    lo, hi, _, _ = grid.axes[0]
    k = np.arange(1, max_mode + 1)
    phase = np.exp(1j * k * (2.0 * np.pi / (hi - lo)) * lo)
    u = np.zeros((n, 4, max_mode + 1), dtype=complex)
    z = amps.view(complex)[..., 0]
    np.conjugate(z, out=z)
    z *= count / 2.0
    z *= phase
    np.divide(z, modes.scales[:, 1 : max_mode + 1], out=u[:, :, 1:])
    return CauchyState._from_spectrum(modes, u, 0.0)


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
                        C[a - 1, b - 1] * float(values[jet_coord(b, J)])
                        for b in range(1, n + 1)
                    )
                    total += weight * chain
                if level == 1:
                    # the affine D(t) x term contributes to first derivatives
                    total += float(D[a - 1] @ M[:, I[0] - 1])
                coords[jet_coord(a, I)] = total
    return coords


def flow_oracle(
    Y: ProjectableField, order: int, section: PolynomialSection, x0: Sequence
) -> dict:
    """Numeric prolongation components along a section, by flow differencing.

    Central difference in t, step 1e-4, of the jet coordinates of e^{tY}*
    sigma at the flowed base point; at t = 0 this is by construction the
    prolonged vector field evaluated at j^order sigma(x0).  Used solely as a
    test oracle for :func:`prolong`.
    """
    cfg = Y.cfg
    if not 1 <= order <= cfg.working_order:
        raise ValueError(f"order {order} outside 1..{cfg.working_order}")
    if not Y.is_affine:
        raise ValueError(
            "the flow oracle supports fields with Y^i affine in x and "
            "Y^a affine in (x, y); general flows have no closed form here"
        )
    h = 1e-4
    plus = _flowed_jet_coordinates(Y, order, section, x0, h)
    minus = _flowed_jet_coordinates(Y, order, section, x0, -h)
    return {coord: (plus[coord] - minus[coord]) / (2.0 * h) for coord in plus}
