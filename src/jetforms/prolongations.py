"""Prolongation of projectable vector fields and Noether currents.

A projectable field Y = Y^i(x) d/dx^i + Y^a(x,y) d/dy^a lifts uniquely to
each jet space so that its flow commutes with jet extension.  The jet
components follow the contact-preservation recursion

    Y^a_{I+j} = D_j Y^a_I - sum_{j'} z^a_{I+j'} dY^{j'}/dx^j ,

seeded with Y^a_{()} = Y^a.  Because total derivatives commute, the right
side is independent of how the canonical multi-index is split into (I, j);
the implementation asserts that agreement instead of symmetrizing.

Currents need only D_T Q^a = Y^r -| theta^a_T for the characteristic
Q^a = Y^a - z^a_j Y^j, with |T| <= k-1 since Xi is semi-basic over J^{k-1}:

    h(Y -| Theta) = sum_i [Y^i L + sum p^{i,T}_a D_T Q^a] d/dx^i -| d_m x .

The supported symmetry-field class keeps flows closed-form: base components
affine in x, vertical components affine in (x, y) jointly.  That covers
translations, the Lorentz generator, scalings and linear internal mixings,
and lets the flow oracle evaluate e^{tY}* sigma exactly (up to the float
matrix exponential) so only the t-derivative is finite-differenced.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .dedonder import DeDonderForm
from .expressions import Expr, PolynomialSection, substitute_section, total_derivative, z_var
from .forms import (
    DifferentialForm,
    base_contraction,
    contact_forms,
    holonomic_reduce,
    lie_derivative,
    volume_form,
)
from .jets import (
    JetConfig,
    base_coord,
    field_coord,
    jet_coord,
    multiindices,
)


def _is_affine(e: Expr, allowed_tags: tuple) -> bool:
    for mono, _ in e.terms():
        if sum(exp for _, exp in mono) > 1:
            return False
        if any(coord[0] not in allowed_tags for coord, _ in mono):
            return False
    return True


@dataclass
class ProjectableField:
    """Y^i(x) d/dx^i + Y^a(x,y) d/dy^a, polynomial components.

    Projectability is structural: base components may not involve y or z,
    vertical components may not involve z.  The flow oracle additionally
    requires the affine subclass (see :func:`flow_oracle`).
    """

    cfg: JetConfig
    base_components: tuple  # Y^i, Exprs in x
    vertical_components: tuple  # Y^a, Exprs in (x, y)

    def __post_init__(self):
        cfg = self.cfg
        if len(self.base_components) != cfg.m:
            raise ValueError(f"expected {cfg.m} base components")
        if len(self.vertical_components) != cfg.n:
            raise ValueError(f"expected {cfg.n} vertical components")
        for comp in self.base_components:
            if any(c[0] != "x" for c in comp.variables()):
                raise ValueError("base components must depend on x only")
        for comp in self.vertical_components:
            if any(c[0] not in ("x", "y") for c in comp.variables()):
                raise ValueError("vertical components must depend on (x, y) only")

    @property
    def is_vertical(self) -> bool:
        return all(c.is_zero for c in self.base_components)

    @property
    def is_affine(self) -> bool:
        return all(
            _is_affine(c, ("x",)) for c in self.base_components
        ) and all(_is_affine(c, ("x", "y")) for c in self.vertical_components)


def prolong(Y: ProjectableField, order: int) -> dict:
    """Prolongation of Y to the order-``order`` jet space.

    Returns the vector-field mapping coordinate -> Expr.  Components at a
    canonical multi-index are computed from any single splitting; all other
    splittings are checked to agree, which is the commutativity of total
    derivatives in action.
    """
    cfg = Y.cfg
    if not 1 <= order <= cfg.working_order:
        raise ValueError(f"order {order} outside 1..{cfg.working_order}")
    components: dict = {}
    for i in range(1, cfg.m + 1):
        if not Y.base_components[i - 1].is_zero:
            components[base_coord(i)] = Y.base_components[i - 1]
    level_values = {
        (a, ()): Y.vertical_components[a - 1] for a in range(1, cfg.n + 1)
    }
    for a in range(1, cfg.n + 1):
        if not level_values[(a, ())].is_zero:
            components[field_coord(a)] = level_values[(a, ())]
    base_x_partials = {
        (j, i): Y.base_components[j - 1].partial(base_coord(i))
        for j in range(1, cfg.m + 1)
        for i in range(1, cfg.m + 1)
    }
    for level in range(1, order + 1):
        next_values: dict = {}
        for a in range(1, cfg.n + 1):
            for J in multiindices(cfg.m, level):
                value = None
                seen = set()
                for pos in range(len(J)):
                    j = J[pos]
                    if j in seen:
                        continue
                    seen.add(j)
                    I = J[:pos] + J[pos + 1 :]
                    shift = Expr.sum(
                        Expr.variable(jet_coord(a, tuple(sorted(I + (jp,)))))
                        * base_x_partials[(jp, j)]
                        for jp in range(1, cfg.m + 1)
                    )
                    candidate = total_derivative(level_values[(a, I)], j, cfg) - shift
                    if value is None:
                        value = candidate
                    elif not (value - candidate).is_zero:
                        raise AssertionError(
                            f"prolongation recursion inconsistent at {a}, {J}"
                        )
                next_values[(a, J)] = value
                if not value.is_zero:
                    components[jet_coord(a, J)] = value
        level_values.update(next_values)
    return components


def is_symmetry(Y: ProjectableField, L: Expr):
    """Infinitesimal-symmetry test: Lie derivative of d(L d_m x) along Y^k.

    Returns (flag, certificate); the certificate is the residual form and is
    zero exactly when the flag is true.
    """
    cfg = Y.cfg
    if L.jet_order() > cfg.k:
        raise ValueError("Lagrangian exceeds the configured order k")
    lam = DifferentialForm.from_scalar(L).wedge(volume_form(cfg))
    residual = lie_derivative(prolong(Y, cfg.k), lam.d())
    return residual.is_zero, residual


def characteristic_jets(
    Y: ProjectableField, order: int, section: PolynomialSection | None = None
) -> dict:
    """{(a, I): D_I Q^a} for canonical |I| <= order, Q^a = Y^a - z^a_j Y^j; a
    section is substituted into Q first, so D_I then acts on x-polynomials."""
    cfg = Y.cfg
    jets = {}
    for a in range(1, cfg.n + 1):
        q = Y.vertical_components[a - 1] - Expr.sum(
            z_var(a, (j,)) * Y.base_components[j - 1] for j in range(1, cfg.m + 1)
        )
        jets[(a, ())] = q if section is None else substitute_section(q, section)
    for level in range(1, order + 1):
        for a, I in product(range(1, cfg.n + 1), multiindices(cfg.m, level)):
            jets[(a, I)] = total_derivative(jets[(a, I[:-1])], I[-1], cfg)
    return jets


def noether_current(
    Y: ProjectableField, theta: DeDonderForm, section: PolynomialSection
) -> DifferentialForm:
    """The current j sigma*(Y^{2k-1} -| Theta), an (m-1)-form on the base.

    sum_i [Y^i L + sum p^{i,T}_a D_T Q^a] d/dx^i -| d_m x, |T| <= k-1 as Theta
    is semi-basic over J^{k-1}, with sigma (unless None) substituted into L,
    p and Q first.  Closed whenever Y is a symmetry of the Lagrangian and the
    section solves the De Donder equations; conservation fails off-shell.
    """
    cfg = theta.cfg
    pull = (lambda e: e) if section is None else (lambda e: substitute_section(e, section))
    jets = characteristic_jets(Y, cfg.k - 1, section)
    lagrangian = pull(theta.lagrangian)
    densities = [[Y.base_components[i] * lagrangian] for i in range(cfg.m)]
    for (a, i, tail), p in theta.boundary.coefficients.table.items():
        if not jets[(a, tail)].is_zero:
            densities[i - 1].append(pull(p) * jets[(a, tail)])
    return DifferentialForm.sum(cfg.m - 1, (
        base_contraction(cfg, i) * Expr.sum(terms) for i, terms in enumerate(densities, 1)
    ))


def reduced_current(Y: ProjectableField, theta: DeDonderForm) -> DifferentialForm:
    """Holonomic reduction of Y^{2k-1} -| Theta, with jet-coordinate coefficients.

    sum_i [Y^i L + sum p^{i,T}_a D_T Q^a] d/dx^i -| d_m x, |T| <= k-1 as Theta
    is semi-basic over J^{k-1}; on sampled jets it gives the numeric densities.
    """
    return noether_current(Y, theta, None)


def preserves_contact_ideal(Y: ProjectableField, order: int) -> bool:
    """Check L_{Y^order} theta lies in the contact ideal, for every theta."""
    cfg = Y.cfg
    lifted = prolong(Y, order)
    for theta in contact_forms(cfg, order):
        if not holonomic_reduce(lie_derivative(lifted, theta), cfg).is_zero:
            return False
    return True


# -- flow oracle -------------------------------------------------------------


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


def _jet_table(section: PolynomialSection, x0, order: int) -> dict:
    """Float partial derivatives of the section at a point, all full tuples."""
    cfg = section.cfg
    point = {base_coord(i + 1): Fraction(x) for i, x in enumerate(x0)}
    table = {}
    for a in range(1, cfg.n + 1):
        for level in range(order + 1):
            for I in multiindices(cfg.m, level):
                value = float(section.jet(a, I).evaluate(point))
                table[(a, I)] = value
    return table


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
    jets = _jet_table(section, x0, order)
    sigma0 = np.array([jets[(a, ())] for a in range(1, n + 1)])
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
                        C[a - 1, b - 1] * jets[(b, tuple(sorted(J)))]
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
