"""Helpers that only the tests call: the Cartan-formula Lie derivative, the
contact forms of a jet space, the contact-ideal test built from them, and a
seeded random polynomial generator.

The library reaches the same statements by other routes (prolongation from
the characteristic jets, the symmetry test through d(E d_m x)); these stay as
independent references.
"""
from __future__ import annotations

from jetforms.expressions import Expr
from jetforms.forms import (
    DifferentialForm,
    VectorFieldOnJet,
    contact_form,
    holonomic_reduce,
    interior_product,
)
from jetforms.jets import JetConfig, enumerate_coordinates, multiindices
from jetforms.prolongations import ProjectableField, prolong


def lie_derivative(X: VectorFieldOnJet, form: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L_X = X -| d + d (X -| .)."""
    if form.degree == 0:
        return interior_product(X, form.d())
    return interior_product(X, form.d()) + interior_product(X, form).d()


def contact_forms(cfg: JetConfig, order: int) -> list:
    """All contact forms of the order-``order`` jet space."""
    if not 1 <= order <= cfg.working_order:
        raise ValueError(f"order {order} outside 1..{cfg.working_order}")
    forms = []
    for level in range(order):
        for a in range(1, cfg.n + 1):
            for I in multiindices(cfg.m, level):
                forms.append(contact_form(cfg, a, I))
    return forms


def preserves_contact_ideal(Y: ProjectableField, order: int) -> bool:
    """Check L_{Y^order} theta lies in the contact ideal, for every theta."""
    cfg = Y.cfg
    lifted = prolong(Y, order)
    for theta in contact_forms(cfg, order):
        if not holonomic_reduce(lie_derivative(lifted, theta), cfg).is_zero:
            return False
    return True


def random_expr(rng, cfg: JetConfig, order: int, degree: int = 2, terms: int = 4,
                coeff_range: int = 3) -> Expr:
    """Random polynomial in the jet coordinates up to the given order."""
    coords = enumerate_coordinates(cfg, order)

    def term() -> Expr:
        total = rng.randrange(degree + 1)
        powers: dict = {}
        for _ in range(total):
            coord = coords[rng.randrange(len(coords))]
            powers[coord] = powers.get(coord, 0) + 1
        coeff = 0
        while coeff == 0:
            coeff = rng.randrange(-coeff_range, coeff_range + 1)
        return Expr.monomial(powers, coeff)

    return Expr.sum(term() for _ in range(terms))
