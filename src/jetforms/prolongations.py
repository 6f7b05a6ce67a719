"""Prolongation of projectable vector fields and Noether currents.

A projectable field Y = Y^i(x) d/dx^i + Y^a(x,y) d/dy^a lifts uniquely to
each jet space so that its flow commutes with jet extension.  Every
prolonged object here reads one table, the jet components built level by
level by the recursive form of the prolongation formula (P. J. Olver,
*Applications of Lie Groups to Differential Equations*, ch. 2 and 4):

    Y^a_() = Y^a ,   Y^a_{I+j} = D_j Y^a_I - sum_i (d_j Y^i) z^a_{I+i} ,

valid because the base components depend on x only.  Each canonical I is
reached along the one path (I[:-1], I[-1]).  A translation multiplies
nothing, and a field with constant d_j Y^i multiplies one constant by one
coordinate per correction.  The total derivatives of the characteristic
Q^a = Y^a - z^a_j Y^j are read off the same table,

    D_I Q^a = Y^a_I - sum_j Y^j z^a_{I+j} ,

and the symmetry test forms the one scalar

    E = sum_c Y^{k,c} dL/dc + L sum_i d_i Y^i

in one scan of the monomials of L (:meth:`Expr.derivation`), so that
L_{Y^k}(L d_m x) = E d_m x, as Y^i depends on x only.

Currents need only D_T Q^a = Y^r -| theta^a_T, with |T| <= k-1 since Xi is
semi-basic over J^{k-1}:

    h(Y -| Theta) = sum_i [Y^i L + sum p^{i,T}_a D_T Q^a] d/dx^i -| d_m x ,

with a section substituted into L, p and D_T Q^a afterwards.  The density
in the brackets is formed in one place, :func:`current_densities`, for the
directions asked for: :func:`noether_current` sums it over every i, and
the slice energy of :mod:`jetforms.numeric` reads i = 1 alone.  Everything
here is exact; the flow oracle that corroborates :func:`prolong`
numerically lives in :mod:`jetforms.numeric`.
"""
from __future__ import annotations

from itertools import product

from .dedonder import DeDonderForm, check_lagrangian
from .expressions import Expr, PolynomialSection, substitute_section, total_derivative, z_var
from .forms import (
    DifferentialForm,
    base_contraction,
    volume_form,
)
from .jets import JetConfig, base_coord, jet_coord, multiindices


def _is_affine(e: Expr, allowed_tags: tuple) -> bool:
    for mono, _ in e.terms():
        if sum(exp for _, exp in mono) > 1:
            return False
        if any(coord[0] not in allowed_tags for coord, _ in mono):
            return False
    return True


class ProjectableField:
    """Y^i(x) d/dx^i + Y^a(x,y) d/dy^a, polynomial components.

    Projectability is structural: base components may not involve y or z,
    vertical components may not involve z.  The flow oracle additionally
    requires the affine subclass (see :func:`jetforms.numeric.flow_oracle`).
    """

    def __init__(self, cfg: JetConfig, base_components: tuple, vertical_components: tuple):
        if len(base_components) != cfg.m:
            raise ValueError(f"expected {cfg.m} base components")
        if len(vertical_components) != cfg.n:
            raise ValueError(f"expected {cfg.n} vertical components")
        for comp in base_components:
            if any(c[0] != "x" for c in comp.variables()):
                raise ValueError("base components must depend on x only")
        for comp in vertical_components:
            if any(c[0] not in ("x", "y") for c in comp.variables()):
                raise ValueError("vertical components must depend on (x, y) only")
        self.cfg = cfg
        self.base_components = base_components  # Y^i, Exprs in x
        self.vertical_components = vertical_components  # Y^a, Exprs in (x, y)

    def __eq__(self, other):
        if other.__class__ is not ProjectableField:
            return NotImplemented
        return (self.cfg, self.base_components, self.vertical_components) == (
            other.cfg, other.base_components, other.vertical_components
        )

    @property
    def is_affine(self) -> bool:
        return all(
            _is_affine(c, ("x",)) for c in self.base_components
        ) and all(_is_affine(c, ("x", "y")) for c in self.vertical_components)


def _jet_components(Y: ProjectableField, order: int) -> dict:
    """{(a, I): Y^a_I} for canonical |I| <= order, zeros kept, by

        Y^a_() = Y^a ,   Y^a_{I+j} = D_j Y^a_I - sum_i (d_j Y^i) z^a_{I+i} ,

    each I reached from (I[:-1], I[-1]).  The correction reads the partials
    d_j Y^i once, as Y^i depends on x only; a zero partial enters no
    product."""
    cfg = Y.cfg
    shifts = {}
    for j in range(1, cfg.m + 1):
        parts = [(i, comp.partial(base_coord(j))) for i, comp in enumerate(Y.base_components, 1)]
        shifts[j] = [(i, -part) for i, part in parts if not part.is_zero]
    jets = {(a, ()): comp for a, comp in enumerate(Y.vertical_components, 1)}
    for level in range(1, order + 1):
        for a, I in product(range(1, cfg.n + 1), multiindices(cfg.m, level)):
            J, j = I[:-1], I[-1]
            value = total_derivative(jets[(a, J)], j, cfg)
            if shifts[j]:
                value = Expr.sum([value, *(z_var(a, J + (i,)) * part for i, part in shifts[j])])
            jets[(a, I)] = value
    return jets


def prolong(Y: ProjectableField, order: int) -> dict:
    """Prolongation of Y to the order-``order`` jet space.

    Returns the vector field as a map coordinate -> nonzero Expr: the base
    components as given and the jet components Y^a_I for |I| <= order, in
    the order of :func:`characteristic_jets`.
    """
    cfg = Y.cfg
    if not 1 <= order <= cfg.working_order:
        raise ValueError(f"order {order} outside 1..{cfg.working_order}")
    components = {
        base_coord(i): comp for i, comp in enumerate(Y.base_components, 1) if not comp.is_zero
    }
    for (a, I), value in _jet_components(Y, order).items():
        if not value.is_zero:
            components[jet_coord(a, I)] = value
    return components


def is_symmetry(Y: ProjectableField, L: Expr):
    """Strict infinitesimal-symmetry test of the Lagrangian L along Y.

    With E = sum_c Y^{k,c} dL/dc + L sum_i d_i Y^i, the residual E d_m x is
    L_{Y^k}(L d_m x).  E is one derivation of L along the prolonged field,
    with no gradient of L.  Returns (E == 0, E d_m x); a divergence
    symmetry, with E a nonzero total divergence, does not pass.  L must lie
    within ``Y.cfg`` (:func:`jetforms.dedonder.check_lagrangian`).
    """
    cfg = Y.cfg
    check_lagrangian(cfg, L)
    divergence = Expr.sum(
        comp.partial(base_coord(i)) for i, comp in enumerate(Y.base_components, 1)
    )
    variation = L.derivation(prolong(Y, cfg.k), divergence)
    return variation.is_zero, volume_form(cfg) * variation


def characteristic_jets(Y: ProjectableField, order: int) -> dict:
    """{(a, I): D_I Q^a} for canonical |I| <= order, Q^a = Y^a - z^a_j Y^j,
    read off the prolonged components as Y^a_I - sum_j Y^j z^a_{I+j}.
    D_I Q^a may reach jet order |I| + 1."""
    base = [(j, -comp) for j, comp in enumerate(Y.base_components, 1) if not comp.is_zero]
    jets = _jet_components(Y, order)
    if not base:
        return jets
    return {
        (a, I): Expr.sum([value, *(z_var(a, I + (j,)) * comp for j, comp in base)])
        for (a, I), value in jets.items()
    }


def current_densities(
    Y: ProjectableField, theta: DeDonderForm, section: PolynomialSection | None, directions
) -> dict:
    """{i: Y^i L + sum p^{i,T}_a D_T Q^a} for each i in ``directions``, the
    coefficients of :func:`noether_current` on d/dx^i -| d_m x, with sigma
    substituted into L, p and D_T Q, or nothing substituted for
    ``section=None``.  A direction that is not asked for forms no product:
    the slice energy reads only i = 1.  A section of another (m, n) than
    Theta's raises a ``ValueError``.
    """
    cfg = theta.cfg
    if section is not None:
        theta.check_section(section)
    pull = (lambda e: e) if section is None else (lambda e: substitute_section(e, section))
    jets = {key: pull(dq) for key, dq in characteristic_jets(Y, cfg.k - 1).items()}
    lagrangian = pull(theta.lagrangian)
    densities = {i: [Y.base_components[i - 1] * lagrangian] for i in directions}
    for (a, i, tail), p in theta.boundary.coefficients.table.items():
        dq = jets[(a, tail)]
        if i in densities and not dq.is_zero:
            densities[i].append(pull(p) * dq)
    return {i: Expr.sum(terms) for i, terms in densities.items()}


def noether_current(
    Y: ProjectableField, theta: DeDonderForm, section: PolynomialSection | None
) -> DifferentialForm:
    """The current j sigma*(Y^{2k-1} -| Theta), an (m-1)-form on the base.

    sum_i [Y^i L + sum p^{i,T}_a D_T Q^a] d/dx^i -| d_m x, |T| <= k-1 as Theta
    is semi-basic over J^{k-1}, with sigma substituted into L, p and D_T Q:
    the densities of :func:`current_densities` in every direction.
    With ``section=None`` nothing is substituted and the result is the
    holonomic reduction of Y^{2k-1} -| Theta, with jet-coordinate
    coefficients; on sampled jets it gives the numeric densities.  Closed
    whenever Y is a symmetry of the Lagrangian and the section solves the De
    Donder equations; conservation fails off-shell.  A section of another
    (m, n) than Theta's raises a ``ValueError``.
    """
    m = theta.cfg.m
    densities = current_densities(Y, theta, section, range(1, m + 1))
    return DifferentialForm.sum(m - 1, (
        base_contraction(theta.cfg, i) * density for i, density in densities.items()
    ))
