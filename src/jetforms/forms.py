"""Exterior calculus on the jet-coordinate chart.

Differential forms are stored fully expanded over the coordinate one-forms
``dx^i, dy^a, dz^a_I`` with :class:`~jetforms.expressions.Expr`
coefficients.  The wedge factor dc is the coordinate ``c`` itself, rendered
as ``"d" + render_coordinate(c)``.  Each term is an Expr times a strictly
increasing wedge of coordinates under ``coordinate_sort_key`` (x by i, then y
by a, then z by (|I|, a, I)), which pins down every sign once and for all.

Vector fields on the jet space are plain mappings ``coordinate -> Expr``;
missing entries are zero.  Fields with dx-components are allowed (time
translation in the wave example is one), verticality is checked where an
operation requires it.

Every sum of forms adds the Exprs landing on a wedge into one running Expr
sum in place, by ``expressions.sum_by_key``; ``d`` differentiates each
coefficient once, by ``Expr.gradient``.

``holonomic_reduce`` is the workhorse for "for every section" statements: it
rewrites dy^a -> z^a_(i) dx^i and dz^a_I -> z^a_{I+i} dx^i, which is exactly
what pulling back along the jet extension of an arbitrary section does to the
form part.  It is a map per term: each dy/dz factor takes one of the base
directions the term's dx factors leave free, injectively, and the sign is the
parity of that choice.  Each choice names its lifts as coordinates,
z^a_{I+i} = ``jet_coord(a, I + (i,))``, in one monomial, and the terms
landing on one dx wedge are summed by one ``expressions.sum_of_products``
of their (coefficient, lifts, sign) triples: each lift goes into the
coefficient's monomials as it is added, with no product Expr per term, and
the interned coordinate ids stay inside ``jetforms.expressions``.  A form
pulls back to zero along every section iff its reduction is the zero form,
because jets of polynomial sections realize every combination of
coordinate values.

The "for every source-vertical X" conditions on boundary and De Donder forms
contract no form here: ``jetforms.dedonder`` reads them from an identity on
the boundary-form coefficients.
"""
from __future__ import annotations

from itertools import combinations, permutations
from typing import Mapping, Sequence

from .expressions import Expr, PolynomialSection, render_coordinate, render_expr
from .expressions import substitute_section, sum_by_key, sum_of_products
from .jets import JetConfig, base_coord, coordinate_order, coordinate_sort_key, jet_coord


_ONE = Expr.one()


def _merge_wedges(wedge_a: tuple, wedge_b: tuple):
    """Sort wedge_a ^ wedge_b, counting inversions; None on a repeated factor."""
    out = []
    sign = 1
    ia, ib = 0, 0
    while ia < len(wedge_a) and ib < len(wedge_b):
        key_a = coordinate_sort_key(wedge_a[ia])
        key_b = coordinate_sort_key(wedge_b[ib])
        if key_a == key_b:
            return None
        if key_a < key_b:
            out.append(wedge_a[ia])
            ia += 1
        else:
            if (len(wedge_a) - ia) % 2:
                sign = -sign
            out.append(wedge_b[ib])
            ib += 1
    out.extend(wedge_a[ia:])
    out.extend(wedge_b[ib:])
    return tuple(out), sign


class DifferentialForm:
    """Graded sum of Expr-coefficient wedges of coordinate one-forms."""

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms: dict | None = None):
        self.degree = degree
        self._terms = terms if terms is not None else {}

    @staticmethod
    def zero(degree: int = 0) -> "DifferentialForm":
        return DifferentialForm(degree)

    @staticmethod
    def from_scalar(e: Expr) -> "DifferentialForm":
        return DifferentialForm(0, {(): e} if not e.is_zero else {})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        return self._terms.items()

    def coefficient(self, wedge: Sequence[tuple]) -> Expr:
        return self._terms.get(tuple(wedge), Expr.zero())

    @staticmethod
    def sum(degree: int, forms) -> "DifferentialForm":
        """The sum of forms of one degree (or zero), accumulated in one dict."""

        def pairs():
            for form in forms:
                if form._terms and form.degree != degree:
                    raise ValueError(
                        f"cannot add forms of degree {degree} and {form.degree}"
                    )
                yield from form._terms.items()

        return DifferentialForm(degree, sum_by_key(pairs()))

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return DifferentialForm.sum(self.degree, (self, other))

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.degree, {w: -c for w, c in self._terms.items()}
        )

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "DifferentialForm":
        # Expr decides which scalars it takes; it returns NotImplemented for
        # any other, a form among them
        products = {}
        for w, c in self._terms.items():
            product = c.__mul__(scalar)
            if product is NotImplemented:
                return NotImplemented
            products[w] = product
        return DifferentialForm(self.degree, sum_by_key(products.items()))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            return False
        return (self - other).is_zero

    __hash__ = None

    def __repr__(self):
        return f"DifferentialForm({render_form(self)})"

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        if not isinstance(other, DifferentialForm):
            raise TypeError("wedge expects a DifferentialForm")

        def pairs():
            for wedge_a, coeff_a in self._terms.items():
                for wedge_b, coeff_b in other._terms.items():
                    merged = _merge_wedges(wedge_a, wedge_b)
                    if merged is not None:
                        coeff = coeff_a * coeff_b
                        yield merged[0], coeff if merged[1] == 1 else -coeff

        return DifferentialForm(self.degree + other.degree, sum_by_key(pairs()))

    def d(self) -> "DifferentialForm":
        """Exterior derivative; differentiates coefficients in every
        coordinate present (coefficient symbols are constants)."""

        def pairs():
            for wedge, coeff in self._terms.items():
                for coord, dcoeff in coeff.gradient().items():
                    if coord[0] == "c":
                        continue
                    inserted = _merge_wedges((coord,), wedge)
                    if inserted is not None:
                        yield inserted[0], dcoeff if inserted[1] == 1 else -dcoeff

        return DifferentialForm(self.degree + 1, sum_by_key(pairs()))


VectorFieldOnJet = Mapping[tuple, Expr]


def basis_vector(coord) -> dict:
    return {tuple(coord): Expr.one()}


def interior_product(X: VectorFieldOnJet, form: DifferentialForm) -> DifferentialForm:
    """Left interior product (contraction) X -| form."""
    if form.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")

    def pairs():
        for wedge_key, coeff in form.terms():
            for pos, b in enumerate(wedge_key):
                comp = X.get(b)
                if comp is None or comp.is_zero:
                    continue
                signed = coeff * comp
                yield wedge_key[:pos] + wedge_key[pos + 1 :], (
                    signed if pos % 2 == 0 else -signed
                )

    return DifferentialForm(form.degree - 1, sum_by_key(pairs()))


def volume_form(cfg: JetConfig) -> DifferentialForm:
    return DifferentialForm(
        cfg.m, {tuple(base_coord(i) for i in range(1, cfg.m + 1)): Expr.one()}
    )


def base_contraction(cfg: JetConfig, i: int) -> DifferentialForm:
    """The (m-1)-form d/dx^i -| d_m x."""
    return interior_product(basis_vector(base_coord(i)), volume_form(cfg))


def is_semibasic(form: DifferentialForm, fibration) -> bool:
    """True iff X -| form = 0 for every X tangent to the fibres of the
    forgetful fibration ``fibration = ("forgetful", l)``, J^r -> J^l, that is
    for every X along some z^a_I with |I| > l.  On the expanded coordinate
    basis this is the statement that no term contains such a dz^a_I.
    """
    if not isinstance(fibration, tuple) or len(fibration) != 2 or fibration[0] != "forgetful":
        raise ValueError(f"unknown fibration {fibration!r}")
    level = fibration[1]
    for wedge_key in form._terms:
        for b in wedge_key:
            if b[0] == "z" and len(b[2]) > level:
                return False
    return True


def holonomic_reduce(form: DifferentialForm, cfg: JetConfig) -> DifferentialForm:
    """Rewrite dy and dz factors through the holonomic relations.

    The result has only dx factors; its coefficients are polynomials in the
    jet coordinates (one order above those appearing as dz).  Pulling ``form``
    back along j^r sigma equals substituting sigma into the reduction, for
    every section sigma.  Each term maps directly, as the module docstring
    describes: a factor dy^a or dz^a_I in direction i becomes z^a_{I+i} dx^i.
    """
    groups: dict = {}  # output wedge -> (coefficient, lifts, sign) triples
    # dx indices -> (directions, output wedge, sign) per choice of directions;
    # a term's lifts are its own, as no (coordinate, direction) pair comes
    # twice in Xi or in the contractions of dTheta
    choices_of: dict = {}
    for wedge_key, coeff in form.terms():
        fixed = tuple(b[1] for b in wedge_key if b[0] == "x")
        # the canonical order puts every dx factor first
        vertical = wedge_key[len(fixed) :]
        top = max((coordinate_order(b) + 1 for b in vertical), default=0)
        if top > cfg.expression_order:
            raise ValueError(
                f"holonomic reduction needs jet order {top} "
                f"beyond the allowed order {cfg.expression_order}"
            )
        choices = choices_of.get(fixed)
        if choices is None:  # every term has the form's degree
            free = [i for i in range(1, cfg.m + 1) if i not in fixed]
            choices = choices_of[fixed] = [
                (choice, tuple(base_coord(i) for i in sorted(fixed + choice)),
                 -1 if sum(u > v for u, v in combinations(fixed + choice, 2)) % 2 else 1)
                for choice in permutations(free, len(vertical))
            ]
        for choice, wedge, sign in choices:
            lifts = _ONE
            for b, i in zip(vertical, choice):
                if b[0] not in ("y", "z"):
                    raise ValueError(f"{render_coordinate(b)} has no holonomic lift")
                indices = b[2] if b[0] == "z" else ()
                lifts = lifts * Expr.variable(jet_coord(b[1], indices + (i,)))
            groups.setdefault(wedge, []).append((coeff, lifts, sign))
    reduced = ((wedge, sum_of_products(terms)) for wedge, terms in groups.items())
    return DifferentialForm(form.degree, {wedge: e for wedge, e in reduced if not e.is_zero})


def holonomic_pullback(
    form: DifferentialForm, section: PolynomialSection
) -> DifferentialForm:
    """Pull back along the jet extension of a polynomial section.

    Returns a form on the base: dx factors only, coefficients polynomial in x
    (plus any free coefficient symbols the section carries).
    """
    cfg = section.cfg
    if form.degree > cfg.m:
        return DifferentialForm.zero(form.degree)
    reduced = holonomic_reduce(form, cfg)
    return DifferentialForm(
        form.degree,
        sum_by_key(
            (wedge_key, substitute_section(coeff, section))
            for wedge_key, coeff in reduced.terms()
        ),
    )


def render_form(form: DifferentialForm) -> str:
    """Deterministic text rendering: `(coeff) dc1^dc2^...` per term."""
    if form.is_zero:
        return "0"
    parts = []
    for wedge_key, coeff in sorted(
        form.terms(), key=lambda item: tuple(coordinate_sort_key(c) for c in item[0])
    ):
        body = "^".join("d" + render_coordinate(c) for c in wedge_key)
        if not body:
            parts.append(f"({render_expr(coeff)})")
        else:
            parts.append(f"({render_expr(coeff)}) {body}")
    return " + ".join(parts)
