"""Exact-rational polynomial expressions over jet coordinates.

An :class:`Expr` is a canonical sum of monomials with rational coefficients.
The variables are the tagged coordinate tuples from :mod:`jetforms.jets`,
plus free "coefficient symbols" ``("c", name)`` that behave as constants
under all differential operators (used for undetermined-coefficient generic
sections).

The coefficients are stored as integer numerators over one positive common
denominator, as FLINT's ``fmpq_poly`` stores a polynomial over Q: a dict
``monomial -> int`` and one ``int``.  The form is canonical: no numerator is
zero, and the denominator and all numerators have gcd 1 (the zero
expression has denominator 1).  So expression equality is structural, and
no ``Fraction`` object is made inside the ring.  Every operation works on
Python ints and ends with at most one lcm or product of denominators and
one content reduction, which is skipped when the denominator is 1, the
common case for integer data.  ``terms()`` gives the coefficients back as
rationals: ints where integral, ``Fraction`` otherwise.

Every sum (``+``, ``-``, ``Expr.sum`` and the sums of forms) goes through one
accumulator, which adds integer multiples of numerators into one dict in
place and brings them to a common denominator only when a new denominator
arrives.  Multiplying by one monomial and a sign has its own kernel: it
inserts the coordinates into each sorted monomial and keeps the
denominator, since it changes no numerator's content.  ``*`` routes every
product with a factor +-1 times one monomial to that kernel, and a factor
+-1 gives the other factor itself or its negation, so such products share
their Exprs instead of copying them.

The two derivations that matter are the formal partial derivative with
respect to a single canonical coordinate and the total derivative

    D_i = d/dx^i + z^a_(i) d/dy^a + sum_I z^a_{I+i} d/dz^a_I ,

which differentiates along the i-th base direction treating jet coordinates
as holonomic.  ``total_derivative`` walks each monomial once: it lowers the
x^i factor, and lifts each y/z factor in place, lowering its exponent and
inserting the lifted coordinate into the rest of the monomial, which sorts
after it.  Each coordinate's lift is checked against the jet-order bound
once.  ``Expr.substitute`` raises each (coordinate, exponent) power once per
call and adds every numerator times the product of its powers into one
accumulator.  Their interplay with polynomial sections (substitution
commutes with D_i) is the keystone property the test-suite pins down.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .jets import (
    JetConfig,
    base_coord,
    check_coordinate,
    coordinate_order,
    coordinate_sort_key,
    field_coord,
    jet_coord,
    multiindices,
)

Monomial = tuple  # sorted tuple of (coordinate, exponent) pairs


def _split(q) -> tuple:
    """(numerator, denominator) of a rational coefficient."""
    if isinstance(q, int):
        return int(q), 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    raise TypeError(f"coefficient must be rational, got {type(q).__name__}")


def _rational(numerator: int, denominator: int):
    """numerator/denominator as an int when integral, else as a Fraction."""
    if denominator == 1:
        return numerator
    quotient, remainder = divmod(numerator, denominator)
    return quotient if not remainder else Fraction(numerator, denominator)


def _expr(num: dict, den: int) -> "Expr":
    """An Expr over numerators and denominator already in canonical form."""
    e = object.__new__(Expr)
    e._num = num
    e._den = den
    return e


def _reduced(num: dict, den: int) -> "Expr":
    """The Expr num/den, for nonzero numerators and den > 0: the one content
    reduction, skipped when den is 1."""
    if den != 1:
        if not num:
            den = 1
        else:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {mono: n // g for mono, n in num.items()}
    return _expr(num, den)


def _insert(mono: Monomial, coord, exp: int) -> Monomial:
    """mono times coord^exp, kept sorted by the coordinate order."""
    key = coordinate_sort_key(coord)
    for pos, (c, e) in enumerate(mono):
        if c == coord:
            return mono[:pos] + ((c, e + exp),) + mono[pos + 1 :]
        if coordinate_sort_key(c) > key:
            return mono[:pos] + ((coord, exp),) + mono[pos:]
    return mono + ((coord, exp),)


def _merge_monomials(mono_a: Monomial, mono_b: Monomial) -> Monomial:
    if len(mono_a) < len(mono_b):
        mono_a, mono_b = mono_b, mono_a
    for coord, exp in mono_b:
        mono_a = _insert(mono_a, coord, exp)
    return mono_a


def _add_into(store: dict, num: dict, scale: int = 1) -> None:
    """Add ``scale`` times the numerators ``num`` into ``store`` in place,
    dropping every entry that cancels to zero."""
    get = store.get
    for mono, n in num.items():
        acc = get(mono, 0) + n * scale
        if acc:
            store[mono] = acc
        else:
            del store[mono]


def _partials(num: dict) -> dict:
    """coordinate -> numerators of the first partial derivative, over the
    denominator of ``num``, for every coordinate in one scan."""
    parts: dict = {}
    for mono, n in num.items():
        for pos, (c, e) in enumerate(mono):
            lowered = ((c, e - 1),) if e > 1 else ()
            rest = mono[:pos] + lowered + mono[pos + 1 :]
            # distinct monomials stay distinct once one c is removed
            part = parts.get(c)
            if part is None:
                parts[c] = {rest: n * e}
            else:
                part[rest] = n * e
    return parts


class _Accumulator:
    """A running sum of Exprs: numerators added into one dict in place, over
    the lcm of the denominators seen so far."""

    __slots__ = ("num", "den")

    def __init__(self, first: "Expr | None" = None):
        self.num: dict = {}
        self.den = 1
        if first is not None:
            self.add(first)

    def add(self, e: "Expr", scale: int = 1) -> None:
        """Add ``scale`` times ``e``, for an integer ``scale``."""
        items = e._num
        if not items:
            return
        store, d = self.num, e._den
        if not store:
            self.num = dict(items) if scale == 1 else {m: n * scale for m, n in items.items()}
            self.den = d
            return
        den = self.den
        if d != den:
            if den % d == 0:
                scale *= den // d
            else:
                common = lcm(den, d)
                up = common // den
                for mono in store:
                    store[mono] *= up
                self.den = common
                scale *= common // d
        _add_into(store, items, scale)

    def result(self) -> "Expr":
        return _reduced(self.num, self.den)


class Expr:
    """Polynomial with exact rational coefficients in canonical form:
    integer numerators ``_num`` over one positive denominator ``_den``."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping | None = None):
        """The expression with the given ``{monomial: int | Fraction}``
        coefficients; zero coefficients are dropped."""
        num: dict = {}
        den = 1
        if terms:
            pairs = [(mono, _split(q)) for mono, q in terms.items() if q]
            den = lcm(*(d for _, (_, d) in pairs))
            num = {mono: n * (den // d) for mono, (n, d) in pairs}
        reduced = _reduced(num, den)
        self._num = reduced._num
        self._den = reduced._den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return _expr({}, 1)

    @staticmethod
    def one() -> "Expr":
        return _expr({(): 1}, 1)

    @staticmethod
    def constant(q) -> "Expr":
        n, d = _split(Fraction(q) if not isinstance(q, (int, Fraction)) else q)
        return _expr({(): n} if n else {}, d if n else 1)

    @staticmethod
    def variable(coord) -> "Expr":
        return _expr({((tuple(coord), 1),): 1}, 1)

    @staticmethod
    def monomial(powers: Mapping[tuple, int], coeff=1) -> "Expr":
        n, d = _split(coeff)
        if n == 0:
            return Expr.zero()
        key = tuple(
            sorted(
                ((tuple(c), e) for c, e in powers.items() if e),
                key=lambda item: coordinate_sort_key(item[0]),
            )
        )
        return _expr({key: n}, d)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def terms(self):
        """(monomial, coefficient) pairs, coefficients as ints where
        integral and as Fractions otherwise."""
        den = self._den
        if den == 1:
            return self._num.items()
        return {mono: _rational(n, den) for mono, n in self._num.items()}.items()

    def variables(self) -> set:
        out = set()
        for mono in self._num:
            for coord, _ in mono:
                out.add(coord)
        return out

    def jet_order(self) -> int:
        """Highest jet order of any coordinate occurring in the expression."""
        order = 0
        for mono in self._num:
            for coord, _ in mono:
                order = max(order, coordinate_order(coord))
        return order

    def constant_term(self):
        return _rational(self._num.get((), 0), self._den)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def sum(exprs) -> "Expr":
        """The sum of an iterable of Exprs, accumulated in one dict."""
        acc = _Accumulator()
        for e in exprs:
            acc.add(e)
        return acc.result()

    def __add__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        acc = _Accumulator(self)
        acc.add(other)
        return acc.result()

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _expr({mono: -n for mono, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        acc = _Accumulator(self)
        acc.add(other, -1)
        return acc.result()

    def __rsub__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def _scaled(self, p: int, q: int) -> "Expr":
        """self * p/q for integers p and q > 0."""
        if not p or not self._num:
            return Expr.zero()
        den = self._den
        if q == 1:
            if p == 1:
                return self
            # gcd(den, numerators) = 1, so dividing out gcd(p, den) is the
            # whole content reduction
            g = gcd(p, den) if den != 1 else 1
            p //= g
            return _expr({mono: n * p for mono, n in self._num.items()}, den // g)
        return _reduced({mono: n * p for mono, n in self._num.items()}, den * q)

    def _times_monomial(self, powers: Sequence, sign: int) -> "Expr":
        """The monomial kernel: self * sign * prod c^e over the (coordinate,
        exponent) pairs of ``powers``, for sign = +-1.

        Each monomial gains the coordinates by insertion.  Distinct monomials
        stay distinct and no numerator changes its magnitude, so the result
        needs neither accumulation nor a content reduction.
        """
        out = {}
        for mono, n in self._num.items():
            for coord, exp in powers:
                mono = _insert(mono, coord, exp)
            out[mono] = n if sign == 1 else -n
        return _expr(out, self._den)

    def __mul__(self, other) -> "Expr":
        if other.__class__ is Expr:
            if not self._num or not other._num:
                return Expr.zero()
            # the monomial route: a factor +-1 * c^e goes to the kernel above,
            # and a factor +-1 gives the other factor itself or its negation
            for unit, rest in ((other, self), (self, other)):
                if len(unit._num) == 1 and unit._den == 1:
                    (mono, sign), = unit._num.items()
                    if sign == 1 or sign == -1:
                        if not mono:
                            return rest if sign == 1 else -rest
                        return rest._times_monomial(mono, sign)
            store: dict = {}
            get = store.get
            other_items = other._num.items()
            for mono_a, n_a in self._num.items():
                for mono_b, n_b in other_items:
                    mono = _merge_monomials(mono_a, mono_b)
                    acc = get(mono, 0) + n_a * n_b
                    if acc:
                        store[mono] = acc
                    else:
                        del store[mono]
            return _reduced(store, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            n, d = _split(other)
            return self._scaled(n, d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Expr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of an expression by zero")
        n, d = _split(scalar)
        return self._scaled(-d, -n) if n < 0 else self._scaled(d, n)

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
        return self._den == other._den and self._num == other._num

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
        den = self._den
        return {c: _reduced(part, den) for c, part in _partials(self._num).items()}

    def partial(self, coord) -> "Expr":
        """Formal partial derivative w.r.t. one canonical coordinate, from
        the monomials that contain it."""
        coord = tuple(coord)
        part = {}
        for mono, n in self._num.items():
            for pos, (c, e) in enumerate(mono):
                if c == coord:
                    lowered = ((c, e - 1),) if e > 1 else ()
                    part[mono[:pos] + lowered + mono[pos + 1 :]] = n * e
                    break
        return _reduced(part, self._den)

    def evaluate(self, values: Mapping[tuple, object]):
        """Evaluate at a point; values may be numbers or numpy arrays."""
        total = 0
        for mono, coeff in self.terms():
            term = coeff
            for coord, exp in mono:
                term = term * values[coord] ** exp
            total = total + term
        return total

    def substitute(self, replacements: Mapping[tuple, "Expr"]) -> "Expr":
        """Replace coordinates by expressions (exact, simultaneous).

        Each power factor^exp is computed once per call, and every monomial
        adds its numerator times the product of its powers into one sum.
        """
        powers: dict = {}  # (coordinate, exponent) -> image of that power
        acc = _Accumulator()
        for mono, n in self._num.items():
            term = _ONE
            for power in mono:
                image = powers.get(power)
                if image is None:
                    coord, exp = power
                    repl = replacements.get(coord)
                    factor = repl if repl is not None else Expr.variable(coord)
                    image = powers[power] = factor**exp
                term = term * image
            acc.add(term, n)
        return _reduced(acc.num, acc.den * self._den)


_ONE = Expr.one()


def _as_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.constant(value)
    return NotImplemented


def x_var(i: int) -> Expr:
    return Expr.variable(base_coord(i))


def y_var(a: int) -> Expr:
    return Expr.variable(field_coord(a))


def z_var(a: int, indices) -> Expr:
    return Expr.variable(jet_coord(a, tuple(sorted(indices))))


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
    x_i = base_coord(i)
    lifts: dict = {}  # y/z coordinate -> its lift, checked against the bound once
    # every image keeps e's denominator, so the sum is over numerators
    store: dict = {}
    get = store.get
    for mono, n in e._num.items():
        for pos, (c, exp) in enumerate(mono):
            tag = c[0]
            if tag == "x":
                if c != x_i:
                    continue
                tail = mono[pos + 1 :]
            elif tag == "c":  # coefficient symbols are constants
                continue
            else:
                lifted = lifts.get(c)
                if lifted is None:
                    I = c[2] if tag == "z" else ()
                    if len(I) + 1 > limit:
                        raise ValueError(
                            f"total derivative would need jet order {len(I) + 1} "
                            f"beyond the allowed order {limit}"
                        )
                    lifted = lifts[c] = jet_coord(c[1], tuple(sorted(I + (i,))))
                # the lift sorts after c, so it goes into the tail
                tail = _insert(mono[pos + 1 :], lifted, 1)
            image = mono[:pos] + (((c, exp - 1),) if exp > 1 else ()) + tail
            acc = get(image, 0) + n * exp
            if acc:
                store[image] = acc
            else:
                del store[image]
    return _reduced(store, e._den)


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
