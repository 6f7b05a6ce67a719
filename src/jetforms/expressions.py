"""Exact-rational polynomial expressions over jet coordinates.

An :class:`Expr` is a canonical sum of monomials with rational coefficients.
The variables are the tagged coordinate tuples from :mod:`jetforms.jets`,
plus free "coefficient symbols" ``("c", name)`` that behave as constants
under all differential operators (used for undetermined-coefficient generic
sections).  Canonical form means: no zero coefficients, one entry per
power-product, so expression equality is mathematical equality.

Every sum (``+``, ``*``, ``Expr.sum``, ``gradient``) goes through one
accumulator that keeps that form, adding into one dict in place.

The two derivations that matter are the formal partial derivative with
respect to a single canonical coordinate (one entry of the gradient) and the
total derivative

    D_i = d/dx^i + z^a_(i) d/dy^a + sum_I z^a_{I+i} d/dz^a_I ,

which differentiates along the i-th base direction treating jet coordinates
as holonomic.  Their interplay with polynomial sections (substitution
commutes with D_i) is the keystone property the test-suite pins down.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from .jets import (
    JetConfig,
    base_coord,
    canonicalize,
    check_coordinate,
    coordinate_order,
    coordinate_sort_key,
    field_coord,
    jet_coord,
    multiindices,
)

Monomial = tuple  # sorted tuple of (coordinate, exponent) pairs


def _norm_coeff(q):
    """Keep integer coefficients as ints; they are much faster than Fraction."""
    if isinstance(q, Fraction):
        return int(q) if q.denominator == 1 else q
    if isinstance(q, int):
        return q
    raise TypeError(f"coefficient must be rational, got {type(q).__name__}")


def _accumulate(store: dict, pairs) -> dict:
    """Add (monomial, coefficient) pairs into ``store`` in place.

    This is the one rule every sum follows: a coefficient that reaches zero
    is dropped and an integral Fraction is stored as an int.  Returns
    ``store``.
    """
    get = store.get
    for mono, coeff in pairs:
        acc = get(mono, 0) + coeff
        if not acc:
            store.pop(mono, None)
        elif acc.__class__ is Fraction and acc.denominator == 1:
            store[mono] = acc.numerator
        else:
            store[mono] = acc
    return store


class Expr:
    """Polynomial with exact rational coefficients in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        # terms is assumed normalized; use the constructors below otherwise.
        self._terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return Expr({})

    @staticmethod
    def one() -> "Expr":
        return Expr({(): 1})

    @staticmethod
    def constant(q) -> "Expr":
        q = _norm_coeff(Fraction(q) if not isinstance(q, (int, Fraction)) else q)
        return Expr({(): q} if q != 0 else {})

    @staticmethod
    def variable(coord) -> "Expr":
        return Expr({((tuple(coord), 1),): 1})

    @staticmethod
    def monomial(powers: Mapping[tuple, int], coeff=1) -> "Expr":
        coeff = _norm_coeff(coeff)
        if coeff == 0:
            return Expr.zero()
        key = tuple(
            sorted(
                ((tuple(c), e) for c, e in powers.items() if e),
                key=lambda item: coordinate_sort_key(item[0]),
            )
        )
        return Expr({key: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        return self._terms.items()

    def variables(self) -> set:
        out = set()
        for mono in self._terms:
            for coord, _ in mono:
                out.add(coord)
        return out

    def jet_order(self) -> int:
        """Highest jet order of any coordinate occurring in the expression."""
        order = 0
        for mono in self._terms:
            for coord, _ in mono:
                order = max(order, coordinate_order(coord))
        return order

    def constant_term(self):
        return self._terms.get((), 0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def sum(exprs) -> "Expr":
        """The sum of an iterable of Exprs, accumulated in one dict."""
        return Expr(_accumulate({}, (item for e in exprs for item in e._terms.items())))

    def __add__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return Expr(_accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Expr":
        return _as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            pairs = ((mono, coeff * other) for mono, coeff in self._terms.items())
        elif isinstance(other, Expr):
            pairs = (
                (_merge_monomials(mono_a, mono_b), coeff_a * coeff_b)
                for mono_a, coeff_a in self._terms.items()
                for mono_b, coeff_b in other._terms.items()
            )
        else:
            return NotImplemented
        return Expr(_accumulate({}, pairs))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Expr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of an expression by zero")
        return self * (Fraction(1) / scalar)

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponents must be non-negative integers")
        result = Expr.one()
        square = self
        e = exponent
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def __eq__(self, other) -> bool:
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # mutable-dict backed; use canonical rendering as a key

    def __repr__(self):
        return f"Expr({render_expr(self)})"

    # -- calculus ----------------------------------------------------------

    def gradient(self) -> dict:
        """Every first partial derivative in one scan: coordinate -> Expr.

        Exactly the coordinates the expression contains are present, each
        with a nonzero partial.
        """
        pairs: dict = {}
        for mono, coeff in self._terms.items():
            for pos, (c, e) in enumerate(mono):
                lowered = ((c, e - 1),) if e > 1 else ()
                rest = mono[:pos] + lowered + mono[pos + 1 :]
                pairs.setdefault(c, []).append((rest, coeff * e))
        return {c: Expr(_accumulate({}, items)) for c, items in pairs.items()}

    def partial(self, coord) -> "Expr":
        """Formal partial derivative w.r.t. one canonical coordinate: one
        entry of :meth:`gradient`."""
        return self.gradient().get(tuple(coord), Expr.zero())

    def evaluate(self, values: Mapping[tuple, object]):
        """Evaluate at a point; values may be numbers or numpy arrays."""
        total = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for coord, exp in mono:
                term = term * values[coord] ** exp
            total = total + term
        return total

    def substitute(self, replacements: Mapping[tuple, "Expr"]) -> "Expr":
        """Replace coordinates by expressions (exact, simultaneous)."""

        def image(mono, coeff) -> "Expr":
            term = Expr.constant(coeff)
            for coord, exp in mono:
                repl = replacements.get(coord)
                factor = repl if repl is not None else Expr.variable(coord)
                term = term * factor**exp
            return term

        return Expr.sum(image(mono, coeff) for mono, coeff in self._terms.items())


def _as_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.constant(value)
    return NotImplemented


def _merge_monomials(mono_a: Monomial, mono_b: Monomial) -> Monomial:
    if not mono_a:
        return mono_b
    if not mono_b:
        return mono_a
    powers = dict(mono_a)
    for coord, exp in mono_b:
        powers[coord] = powers.get(coord, 0) + exp
    return tuple(
        sorted(powers.items(), key=lambda item: coordinate_sort_key(item[0]))
    )


def x_var(i: int) -> Expr:
    return Expr.variable(base_coord(i))


def y_var(a: int) -> Expr:
    return Expr.variable(field_coord(a))


def z_var(a: int, indices, m: int | None = None) -> Expr:
    indices = tuple(sorted(indices)) if m is None else canonicalize(indices, m)
    return Expr.variable(jet_coord(a, indices))


def coeff_symbol(name: str) -> tuple:
    return ("c", name)


# -- rendering ---------------------------------------------------------------


def render_coordinate(coord) -> str:
    tag = coord[0]
    if tag == "x":
        return f"x[{coord[1]}]"
    if tag == "y":
        return f"y[{coord[1]}]"
    if tag == "z":
        return f"z[{coord[1]};{' '.join(map(str, coord[2]))}]"
    return f"c[{coord[1]}]"


def _monomial_sort_key(mono: Monomial):
    return tuple((coordinate_sort_key(c), e) for c, e in mono)


def render_expr(e: Expr) -> str:
    """Deterministic text form, re-parseable by the problem DSL."""
    if e.is_zero:
        return "0"
    pieces = []
    for mono, coeff in sorted(e.terms(), key=lambda item: _monomial_sort_key(item[0])):
        factors = []
        for coord, exp in mono:
            name = render_coordinate(coord)
            factors.append(name if exp == 1 else f"{name}^{exp}")
        body = "*".join(factors)
        magnitude = abs(coeff)
        coeff_text = (
            str(magnitude)
            if isinstance(magnitude, int)
            else f"{magnitude.numerator}/{magnitude.denominator}"
        )
        if not body:
            chunk = coeff_text
        elif magnitude == 1:
            chunk = body
        else:
            chunk = f"{coeff_text}*{body}"
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, chunk))
    first_sign, first_chunk = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_chunk
    for sign, chunk in pieces[1:]:
        text += f" {sign} {chunk}"
    return text


# -- total derivative --------------------------------------------------------


def total_derivative(
    e: Expr, i: int, cfg: JetConfig, max_order: int | None = None
) -> Expr:
    """The holonomic total derivative ``D_i e``.

    ``max_order`` bounds the jet order of the result; by default it is the
    working order 2k-1.  Internal callers (Lagrange derivatives) may raise it
    to the expression order 2k.
    """
    if not 1 <= i <= cfg.m:
        raise ValueError(f"base index {i} out of range 1..{cfg.m}")
    limit = cfg.working_order if max_order is None else max_order

    def terms():
        for coord, partial in e.gradient().items():
            tag = coord[0]
            if tag == "x" and coord[1] == i:
                yield partial
            elif tag in ("y", "z"):  # coefficient symbols are constants
                I = coord[2] if tag == "z" else ()
                if len(I) + 1 > limit:
                    raise ValueError(
                        f"total derivative would need jet order {len(I) + 1} "
                        f"beyond the allowed order {limit}"
                    )
                lifted = jet_coord(coord[1], tuple(sorted(I + (i,))))
                yield Expr.variable(lifted) * partial

    return Expr.sum(terms())


# -- polynomial sections -----------------------------------------------------


class PolynomialSection:
    """A section given per field by a polynomial in the base variables.

    Components may contain coefficient symbols (undetermined coefficients),
    which makes a single instance stand for a whole family of sections.
    """

    def __init__(self, cfg: JetConfig, components: Sequence[Expr]):
        if len(components) != cfg.n:
            raise ValueError(f"expected {cfg.n} components, got {len(components)}")
        for comp in components:
            for coord in comp.variables():
                if coord[0] == "x":
                    check_coordinate(cfg, coord)
                elif coord[0] != "c":
                    raise ValueError(
                        f"section components must be polynomials in x (and free "
                        f"coefficients); found {coord}"
                    )
        self.cfg = cfg
        self.components = tuple(components)
        self._jets: dict = {}

    def jet(self, a: int, indices: Sequence[int]) -> Expr:
        """Exact partial derivative of component a along the multi-index."""
        key = (a, tuple(sorted(indices)))
        cached = self._jets.get(key)
        if cached is not None:
            return cached
        expr = self.components[a - 1]
        for i in key[1]:
            expr = expr.partial(base_coord(i))
        self._jets[key] = expr
        return expr

    def coordinate_value(self, coord) -> Expr:
        tag = coord[0]
        if tag == "x":
            return Expr.variable(coord)
        if tag == "y":
            return self.components[coord[1] - 1]
        if tag == "z":
            return self.jet(coord[1], coord[2])
        return Expr.variable(coord)

    def jet_values(self, x0: Sequence, order: int) -> dict:
        """Exact coordinate values of the jet extension at a point.

        Unlike the form machinery this may go one past the working order,
        since expressions (Lagrange derivatives) reach jet order 2k.
        """
        if order > self.cfg.expression_order:
            raise ValueError(
                f"order {order} exceeds the expression order "
                f"{self.cfg.expression_order}"
            )
        for comp in self.components:
            if any(c[0] == "c" for c in comp.variables()):
                raise ValueError(
                    "jet values need a fully determined section, not one with "
                    "free coefficients"
                )
        point = {base_coord(i + 1): Fraction(x) for i, x in enumerate(x0)}
        values = dict(point)
        for a in range(1, self.cfg.n + 1):
            values[field_coord(a)] = self.components[a - 1].evaluate(point)
            for level in range(1, order + 1):
                for I in multiindices(self.cfg.m, level):
                    values[jet_coord(a, I)] = self.jet(a, I).evaluate(point)
        return values


def substitute_section(e: Expr, section: PolynomialSection) -> Expr:
    """Replace every y/z coordinate by the exact derivative of the section."""
    replacements = {}
    for coord in e.variables():
        if coord[0] in ("y", "z"):
            replacements[coord] = section.coordinate_value(coord)
    return e.substitute(replacements)


def generic_section(cfg: JetConfig, degree: int, tag: str = "s") -> PolynomialSection:
    """Undetermined-coefficient polynomial section of given total degree.

    The coefficient of ``x^d`` in component ``a`` is the free symbol
    ``c[{tag}{a}_{d}]``.  Substituting such a section and requiring the result
    to vanish identically in x and all symbols certifies "for every section":
    the map from coefficients to the jet of the section at any point is onto
    once ``degree`` is at least the jet order probed.
    """
    def monomials(a: int):
        for total in range(degree + 1):
            for exponents in itertools.combinations_with_replacement(
                range(1, cfg.m + 1), total
            ):
                powers = {base_coord(i): exponents.count(i) for i in set(exponents)}
                label = f"{tag}{a}_" + "".join(map(str, exponents))
                powers[coeff_symbol(label)] = 1
                yield Expr.monomial(powers)

    return PolynomialSection(
        cfg, [Expr.sum(monomials(a)) for a in range(1, cfg.n + 1)]
    )
