"""Numeric oracles that only the tests call.

Each one reaches a statement of the symbolic core by integration or
differencing on a grid, with none of the core's algebra:

* ``quadrature`` and ``integrate_action``: the action integral of
  L(j^k sigma) over a box, the trapezoid rule on open axes and the flat
  (exact for trigonometric polynomials) rule on periodic ones;
* ``SampledSection``: the jets of a sampled section, spectral on periodic
  axes and fourth-order finite differences otherwise, stored per canonical
  multi-index so that mixed partials agree by construction;
* ``decomposition_terms``: the paper's decomposition of the force
  functional, integral of j^k sigma*(Y^k -| Phi) = integral of
  [Phi_a - P^i_{a,i}] Y^a d_m x + boundary integral of
  j sigma*(Y^{2k-1} -| Xi) (Stokes), and with it the independence of the
  body and boundary terms from the choice of boundary form Xi.  Polynomial
  sections integrate exactly, so the identities hold to roundoff there;
  quadrature error would only obscure them;
* ``functional_derivative_oracle``: the Lagrange derivative delta L /
  delta y^a as the derivative of the action under a localized bump, which
  also checks that the De Donder form reduces to the Poincare-Cartan form
  at k = 1 (acceptance criterion 4).

The prolongation flow oracle stays in :mod:`jetforms.numeric`, since a demo
runs it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from jetforms.dedonder import BoundaryForm, DeDonderForm, PhiDecomposition
from jetforms.expressions import Expr, PolynomialSection, substitute_section
from jetforms.jets import JetConfig, base_coord, jet_coord, multiindices
from jetforms.numeric import GridSpec, _derivative_symbol
from jetforms.prolongations import ProjectableField, characteristic_jets, noether_current
from tests.support import at_rationals, coefficient


def meshes(grid: GridSpec) -> list:
    """The coordinate arrays of every grid point, one per axis."""
    return list(np.meshgrid(*(grid.points(i) for i in range(grid.ndim)), indexing="ij"))


def quadrature_weights(grid: GridSpec, axis: int) -> np.ndarray:
    lo, hi, count, periodic = grid.axes[axis]
    h = grid.spacing(axis)
    if periodic:
        return np.full(count, h)
    w = np.full(count, h)
    w[0] = w[-1] = h / 2
    return w


def quadrature(values: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid rule; exact-weight (flat) trapezoid on periodic axes."""
    acc = np.asarray(values, dtype=float)
    for axis in range(grid.ndim - 1, -1, -1):
        w = quadrature_weights(grid, axis)
        acc = np.tensordot(acc, w, axes=([axis], [0]))
    return float(acc)


def evaluate_on_grid(e: Expr, values: dict, shape: tuple) -> np.ndarray:
    """Float evaluation of an expression on coordinate arrays.

    Monomials are summed in the canonical order of ``terms()``, so the float
    result does not depend on how the expression was built (and hence not on
    the interpreter's hash seed).
    """
    total = np.zeros(shape)
    for mono, coeff in e.terms():
        term = np.full(shape, float(coeff))
        for coord, exp in mono:
            term = term * np.asarray(values[coord], dtype=float) ** exp
        total += term
    return total


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


class SampledSection:
    """Grid samples of a section, with lazily computed jet arrays.

    Jet arrays are produced by this module's own differentiation (spectral on
    periodic axes, fourth-order finite differences otherwise) and stored per
    canonical multi-index, so mixed partials are symmetric by construction.
    """

    def __init__(self, grid: GridSpec, values: list, jets: dict | None = None):
        for arr in values:
            if arr.shape != grid.shape:
                raise ValueError("sample shape does not match the grid")
        self.grid = grid
        self.values = values
        self.jets = {} if jets is None else jets

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
        grids = meshes(self.grid)
        values = {base_coord(i + 1): grids[i] for i in range(self.grid.ndim)}
        for a in range(1, self.n + 1):
            for level in range(order + 1):
                for I in multiindices(cfg.m, level):
                    values[jet_coord(a, I)] = self.jet(a, I)
        return values


def sample_section(section: PolynomialSection, grid: GridSpec) -> SampledSection:
    """Evaluate a (fully determined) polynomial section on a grid."""
    if grid.ndim != section.cfg.m:
        raise ValueError("grid dimension does not match the configuration")
    grids = meshes(grid)
    values = {base_coord(i + 1): grids[i] for i in range(grid.ndim)}
    arrays = []
    for comp in section.components:
        if any(c[0] == "c" for c in comp.variables()):
            raise ValueError("cannot sample a section with free coefficients")
        arrays.append(evaluate_on_grid(comp, values, grid.shape))
    return SampledSection(grid, arrays)


def integrate_action(cfg: JetConfig, L: Expr, section: SampledSection) -> float:
    """Quadrature of the action integrand L(j^k sigma) over the section's grid."""
    values = section.coordinate_arrays(cfg, cfg.k)
    return quadrature(evaluate_on_grid(L, values, section.grid.shape), section.grid)


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
    upper = at_rationals(anti, {coord: hi})
    lower = at_rationals(anti, {coord: lo})
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
    if not isinstance(Y, ProjectableField) or not all(c.is_zero for c in Y.base_components):
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
            (dec.component(a) - xi.coefficients.divergence(a, ()))
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
                coefficient(xi.coefficients, a, i), arrays, region.shape
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
        upper = at_rationals(g, {base_coord(1): hi})
        lower = at_rationals(g, {base_coord(1): lo})
        return Fraction((upper - lower).constant_term())
    (lo1, hi1, _, _), (lo2, hi2, _, _) = region.axes[0], region.axes[1]
    lo1, hi1, lo2, hi2 = map(Fraction, (lo1, hi1, lo2, hi2))
    x1, x2 = base_coord(1), base_coord(2)
    g1, g2 = current.coefficient((x1,)), current.coefficient((x2,))
    total = Fraction(0)
    # counterclockwise: bottom (+dx1), right (+dx2), top (-dx1), left (-dx2)
    bottom = _exact_integral_1d(at_rationals(g1, {x2: lo2}), x1, lo1, hi1)
    top = _exact_integral_1d(at_rationals(g1, {x2: hi2}), x1, lo1, hi1)
    right = _exact_integral_1d(at_rationals(g2, {x1: hi1}), x2, lo2, hi2)
    left = _exact_integral_1d(at_rationals(g2, {x1: lo1}), x2, lo2, hi2)
    for piece, sign in ((bottom, 1), (right, 1), (top, -1), (left, -1)):
        total += sign * Fraction(piece.constant_term())
    return total


def _sampled_boundary_integral(current, arrays: dict, region: GridSpec) -> float:
    cfg_m = region.ndim
    if cfg_m == 1:
        values = evaluate_on_grid(current.coefficient(()), arrays, region.shape)
        return float(values[-1] - values[0])
    g1 = evaluate_on_grid(current.coefficient((base_coord(1),)), arrays, region.shape)
    g2 = evaluate_on_grid(current.coefficient((base_coord(2),)), arrays, region.shape)
    w1 = quadrature_weights(region, 0)
    w2 = quadrature_weights(region, 1)
    bottom = float(np.dot(g1[:, 0], w1))
    top = float(np.dot(g1[:, -1], w1))
    right = float(np.dot(g2[-1, :], w2))
    left = float(np.dot(g2[0, :], w2))
    return bottom + right - top - left


# -- functional-derivative oracle ---------------------------------------------


def _bump(grid: GridSpec, center: Sequence[float], width: float) -> np.ndarray:
    grids = meshes(grid)
    r2 = np.zeros(grid.shape)
    for axis in range(grid.ndim):
        lo, hi, _, periodic = grid.axes[axis]
        delta = grids[axis] - center[axis]
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
