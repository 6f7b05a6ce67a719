"""Exact-rational polynomial expressions over jet coordinates.

An :class:`Expr` is a canonical sum of monomials with rational coefficients.
The variables are the tagged coordinate tuples from :mod:`jetforms.jets`,
plus free "coefficient symbols" ``("c", name)`` that behave as constants
under all differential operators (used for undetermined-coefficient generic
sections).

Every coordinate is interned once: a module-level registry gives it a small
int id the first time it is seen, and per-id tables hold the coordinate, its
jet order and its ``coordinate_sort_key``.  One lift table, which every
D_i and D_I reads, holds per base direction i and id the id of the D_i
lift (x^i and the constants, other x and ``("c", name)``, are marked
instead).  A monomial is one flat tuple of ids, sorted ascending, with each
id repeated by its exponent: x1^2*z is ``(i, i, j)`` and ``()`` is the
constant.  So a monomial is one object, a hash reads a tuple of small ints,
and a product is a sort of ints, in the spirit of the packed monomials of
computer-algebra kernels (M. Monagan and R. Pearce, "POLY: a new polynomial
data structure for Maple 17", 2014).  The kernels walk a monomial one id
occurrence at a time, so exponents appear only at the edges: in
``_monomial_of``, ``terms()`` and ``**``, which forms each term of a power
once, by the multinomial theorem.  The ids never leave this module:
``Expr(terms)``, ``Expr.monomial``, ``Expr.variable`` and ``partial`` take
coordinate tuples, and ``terms()``, ``variables()`` and ``gradient()`` give
coordinate tuples back; holonomic reduction names each lift z^a_{I+i} as a
coordinate too.  An exponent given to ``Expr(terms)`` or ``Expr.monomial``
must be a non-negative int.
``terms()`` owns the canonical order of an Expr: each run of one id becomes
one (coordinate, exponent) factor, the factors of each monomial in
``coordinate_sort_key`` order, and the monomials sorted by the (key,
exponent) pairs of their factors, the order ``render_expr`` prints.
``gradient()`` gives its keys in coordinate order.  So nothing an Expr
shows, its errors included, depends on the order in which coordinates were
first seen.

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
arrives.  Every product goes through one product kernel, which adds the
numerators of a * b straight into a store: ``*`` runs it into a fresh
store, and ``sum_of_products`` runs it once per (a, b, sign) triple into
one store over the lcm of the products' denominators, so a sum of products
such as the d_m x coefficient -sum z^a_I S^a_I of a boundary form, or a
holonomic reduction's coefficients times their lifts, lands in its sum
with no product Expr.  A factor that is one monomial goes into each monomial of the other:
a single id, as in every product by one coordinate and every lift, goes
after a last id no larger than it, or else where ``bisect_right`` places
it, and several ids by a sort; any other pair takes the double loop.  In
``*`` a factor +-1 gives the other factor itself or its negation, so such
products share their Exprs instead of copying them.

The two derivations that matter are the formal partial derivative with
respect to a single canonical coordinate and the total derivative

    D_i = d/dx^i + z^a_(i) d/dy^a + sum_I z^a_{I+i} d/dz^a_I ,

which differentiates along the i-th base direction treating jet coordinates
as holonomic.  Both follow the product rule one occurrence at a time:
removing any one copy of c from c^e*r leaves the same rest, so the e
occurrences each add the numerator into one sum.  One D_i loop walks each
monomial once and adds +-D_i e straight into its caller's store of
numerators: it lowers the x^i factor, and lifts each y/z factor in place,
writing the lift's id, read from the shared lift table, where it keeps the
monomial sorted (the image of a lone id is the lift alone).  The sign and
the scale to the store's denominator are folded into each numerator once.
``total_derivative`` runs that loop into a fresh store.
``sum_of_total_derivatives`` takes D_I for a tuple I of directions, once
per (e, I, sign) triple, into one store over the lcm of their
denominators, so a divergence sum_j D_j p^j, or a whole Euler operator
sum_I (-1)^|I| D_I dL/dz^a_I, lands in its sum with no intermediate Expr.
D_I walks each monomial once: a lone id goes up the lift table once per
direction and is stored once, and a longer monomial distributes the
directions over its occurrences by the Leibniz rule, one direction after
another through small stores of its own images, adding only the final
images into the sum.  Every direction is checked before any work.  A lift
beyond the jet-order bound raises the ``ValueError`` that the chain of
single D_i would raise, for the first such coordinate in coordinate order;
only then is that chain replayed.  ``Expr.derivation`` applies a vector
field, sum_c Y^c d/dc, plus a multiple of the identity in one walk of each
monomial: every occurrence of a coordinate in the field adds the rest of
the monomial times the field's entry straight into one sum, with no partial
derivative and no product Expr in between; an entry's term of one id is
inserted where it keeps the rest sorted.  ``substitute_section`` runs
the substitution loop, which adds every numerator times the product of the
images of its ids, one factor per occurrence, into one accumulator; a
monomial stops at its first id whose image is zero.  It reads the table of
images the section keeps, one image per coordinate, which every
substitution through the section shares.  Its interplay with polynomial
sections (substitution commutes with D_i) is the keystone property the
test-suite pins down.
"""
from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from collections.abc import Mapping, Sequence

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

Monomial = tuple  # coordinate ids sorted ascending, each repeated by its exponent

# -- the coordinate registry ---------------------------------------------------

_IDS: dict = {}  # coordinate -> id
_COORDS: list = []  # id -> coordinate
_ORDERS: list = []  # id -> jet order
_KEYS: list = []  # id -> coordinate_sort_key
# base direction i -> {id -> id of the D_i lift, or _LOWER for x^i, or
# _CONSTANT for the other x and the coefficient symbols}, filled on first use
_LIFTS: dict = {}
_LOWER, _CONSTANT = -1, -2


def _id(coord) -> int:
    """The id of a coordinate tuple, registered the first time it is seen."""
    cid = _IDS.get(coord)
    if cid is None:
        cid = _IDS[coord] = len(_COORDS)
        _COORDS.append(coord)
        _ORDERS.append(coordinate_order(coord))
        _KEYS.append(coordinate_sort_key(coord))
    return cid


def _lift(cid: int, i: int) -> int:
    """The D_i entry of the lift table for one id, filled on first use."""
    row = _LIFTS.setdefault(i, {})
    lifted = row.get(cid)
    if lifted is None:
        coord = _COORDS[cid]
        tag = coord[0]
        if tag == "y" or tag == "z":
            indices = coord[2] if tag == "z" else ()
            lifted = _id(jet_coord(coord[1], indices + (i,)))
        elif tag == "x" and coord[1] == i:
            lifted = _LOWER
        else:
            lifted = _CONSTANT
        row[cid] = lifted
    return lifted


def _monomial_of(pairs) -> Monomial:
    """The id monomial of (coordinate, exponent) pairs; the exponents of a
    repeated coordinate add and zero exponents drop.  An exponent that is
    not a non-negative int raises a ``ValueError`` naming its coordinate."""
    ids, get = [], _IDS.get
    for coord, exp in pairs:
        coord = tuple(coord)
        if not isinstance(exp, int) or exp < 0:
            raise ValueError(
                f"the exponent of {render_coordinate(coord)} must be a non-negative "
                f"integer, got {exp!r}"
            )
        if exp:
            cid = get(coord)
            ids += [_id(coord) if cid is None else cid] * exp
    ids.sort()
    return tuple(ids)


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
    """id -> numerators of the first partial derivative, over the
    denominator of ``num``, for every coordinate in one scan; the ids come
    in coordinate order.  Each occurrence of an id adds the numerator."""
    parts: dict = {}
    for mono, n in num.items():
        for pos, c in enumerate(mono):
            part = parts.get(c)
            if part is None:
                part = parts[c] = {}
            rest = mono[:pos] + mono[pos + 1 :]
            # distinct monomials stay distinct once one c is removed, so no
            # sum cancels
            part[rest] = part.get(rest, 0) + n
    return {c: parts[c] for c in sorted(parts, key=_KEYS.__getitem__)}


class Accumulator:
    """A running sum of Exprs: numerators added into one dict in place, over
    the lcm of the denominators seen so far."""

    __slots__ = ("num", "den")

    def __init__(self, first: "Expr | None" = None):
        self.num: dict = {}
        self.den = 1
        if first is not None:
            self.add(first)

    def _over(self, d: int) -> int:
        """Bring the store to a denominator that ``d`` divides; the factor
        that takes a numerator over ``d`` to it."""
        den, store = self.den, self.num
        if not store:
            self.den = d
            return 1
        if den % d == 0:
            return den // d
        common = lcm(den, d)
        up = common // den
        for mono in store:
            store[mono] *= up
        self.den = common
        return common // d

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
        if d != self.den:  # most adds share the denominator: no call for them
            scale *= self._over(d)
        _add_into(store, items, scale)

    def add_product(self, factors: list, scale: int) -> None:
        """Add ``scale`` times the product of ``factors``, each an int, a
        Fraction or an Expr of at most one term, as one monomial with its
        coefficient: no product Expr is formed."""
        n, d, ids = scale, 1, ()
        for f in factors:
            if f.__class__ is Expr:
                if not f._num:
                    return
                (mono, c), = f._num.items()
                ids += mono
                n *= c
                d *= f._den
            else:
                n *= f.numerator
                d *= f.denominator
        if not n:
            return
        n *= self._over(d)
        store, mono = self.num, tuple(sorted(ids))
        acc = store.get(mono, 0) + n
        if acc:
            store[mono] = acc
        else:
            del store[mono]

    def result(self) -> "Expr":
        return _reduced(self.num, self.den)


def sum_by_key(pairs) -> dict:
    """Sum (key, Expr) pairs into key -> Expr, zero sums dropped.

    A key hit once keeps its Expr; a key hit again gets an accumulator of
    its own, and every later Expr on it is added into that in place.
    """
    out: dict = {}
    for key, e in pairs:
        acc = out.get(key)
        if acc is None:
            out[key] = e
            continue
        if acc.__class__ is Expr:
            out[key] = acc = Accumulator(acc)
        acc.add(e)
    sums = ((key, acc if acc.__class__ is Expr else acc.result()) for key, acc in out.items())
    return {key: e for key, e in sums if e._num}


class Expr:
    """Polynomial with exact rational coefficients in canonical form:
    integer numerators ``_num``, keyed by id monomials, over one positive
    denominator ``_den``."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        """The expression with the given coefficients: a mapping
        ``{monomial: int | Fraction}`` or (monomial, coefficient) pairs such
        as ``terms()`` gives, each monomial a sequence of (coordinate,
        exponent) pairs with non-negative int exponents; the exponents of a
        coordinate listed twice add.  Zero coefficients are dropped."""
        num: dict = {}
        den = 1
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            # every monomial is read, so a bad exponent raises whatever its
            # coefficient
            pairs = [(_monomial_of(mono), q) for mono, q in items]
            pairs = [(mono, _split(q)) for mono, q in pairs if q]
            den = lcm(*(d for _, (_, d) in pairs))
            # monomials that differ only in factor order meet in one id monomial
            for mono, (n, d) in pairs:
                acc = num.get(mono, 0) + n * (den // d)
                if acc:
                    num[mono] = acc
                else:
                    del num[mono]
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
        return _expr({(_id(tuple(coord)),): 1}, 1)

    @staticmethod
    def monomial(powers: Mapping[tuple, int], coeff=1) -> "Expr":
        mono = _monomial_of(powers.items())
        n, d = _split(coeff)
        if n == 0:
            return Expr.zero()
        return _expr({mono: n}, d)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def terms(self) -> list:
        """(monomial, coefficient) pairs in canonical order: each monomial a
        tuple of (coordinate, exponent) pairs in coordinate_sort_key order,
        the monomials sorted by the (key, exponent) pairs of their factors,
        each coefficient an int where integral and a Fraction otherwise."""
        den, coords, keys = self._den, _COORDS, _KEYS
        # (key, exponent, id) per run of one id: the keys are distinct, so
        # the sort compares (key, exponent) pairs and never an id or a numerator
        ordered = sorted(
            (sorted([(keys[c], mono.count(c), c) for c in dict.fromkeys(mono)]), n)
            for mono, n in self._num.items()
        )
        return [
            (tuple([(coords[c], e) for _, e, c in factors]),
             n if den == 1 else _rational(n, den))
            for factors, n in ordered
        ]

    def term_count(self) -> int:
        """The number of terms, without the sort of ``terms()``."""
        return len(self._num)

    def largest_part(self) -> int:
        """The largest numerator or denominator of the coefficients in
        lowest terms, 1 for zero, without the sort of ``terms()``."""
        den = self._den
        return max([1] + [max(abs(n), den) // gcd(n, den) for n in self._num.values()])

    def _ids(self) -> set:
        return set().union(*self._num)

    def variables(self) -> set:
        return {_COORDS[c] for c in self._ids()}

    def degree(self) -> int:
        """Highest total degree of a monomial; 0 for a constant."""
        return max(map(len, self._num), default=0)

    def jet_order(self) -> int:
        """Highest jet order of any coordinate occurring in the expression."""
        return max((_ORDERS[c] for c in self._ids()), default=0)

    def constant_term(self):
        return _rational(self._num.get((), 0), self._den)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def sum(exprs) -> "Expr":
        """The sum of an iterable of Exprs, accumulated in one dict."""
        acc = Accumulator()
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
        acc = Accumulator(self)
        acc.add(other)
        return acc.result()

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _expr({mono: -n for mono, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        acc = Accumulator(self)
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

    def __mul__(self, other) -> "Expr":
        if other.__class__ is Expr:
            if not self._num or not other._num:
                return Expr.zero()
            # a factor +-1 gives the other factor itself or its negation
            for unit, rest in ((other, self), (self, other)):
                if unit._den == 1 and len(unit._num) == 1:
                    sign = unit._num.get(())
                    if sign == 1 or sign == -1:
                        return rest if sign == 1 else -rest
            store: dict = {}
            _add_product(store, self, other, 1)
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
        """self^e by the multinomial theorem: (sum_j n_j m_j)^e / d^e has one
        term (e! / prod_j k_j!) prod_j n_j^k_j m_j^k_j per composition k of e
        over the t terms, formed once, with no intermediate power.

        The compositions come in reverse lexicographic order.  Each is the
        saved one at the last slot j < t-1 that it decrements, c_j = (k_1,
        ..., k_j, R, 0, ..., 0), with one unit moved from slot j to j+1, so
        its coefficient is c_j's times k_j n_{j+1} over (R+1) n_j: one
        multiplication and one exact division.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponents must be non-negative integers")
        terms = list(self._num.items())
        if not terms:
            return Expr.one() if exponent == 0 else Expr.zero()
        last = len(terms) - 1
        monos = [list(mono) for mono, _ in terms]
        nums = [n for _, n in terms]
        k = [exponent] + [0] * last
        coeff = nums[0] ** exponent
        saved = [coeff] * len(terms)  # slot j -> the coefficient of c_j
        store: dict = {}
        get = store.get
        while True:
            ids = []
            for mono, count in zip(monos, k):
                if count:
                    ids += mono * count
            ids.sort()
            mono = tuple(ids)
            acc = get(mono, 0) + coeff
            if acc:
                store[mono] = acc
            else:
                del store[mono]
            j = last - 1  # the last slot before the final one that holds a unit
            while j >= 0 and not k[j]:
                j -= 1
            if j < 0:
                return _reduced(store, self._den**exponent)
            rest = k[last]  # the slots between j and the last are empty
            coeff = saved[j] * (k[j] * nums[j + 1]) // ((rest + 1) * nums[j])
            k[j] -= 1
            k[last] = 0
            k[j + 1] = rest + 1
            saved[j] = saved[j + 1] = coeff

    def __eq__(self, other) -> bool:
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

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
        return {_COORDS[c]: _reduced(part, den) for c, part in _partials(self._num).items()}

    def derivation(self, field: Mapping[tuple, "Expr"], weight: "Expr") -> "Expr":
        """sum_c field[c] d(self)/dc + weight * self, in one scan of the
        monomials; ``field`` maps coordinates to Exprs, missing ones zero.

        Each occurrence of a coordinate c of the field in a monomial adds
        the rest of the monomial times each term of field[c] straight into
        one sum of numerators over the common denominator of the field and
        the weight, and the product kernel adds weight * self into the same
        sum; no partial derivative and no product Expr is built.  A term of
        field[c] with one id goes where it keeps the rest sorted, as the
        product kernel inserts it; any other term joins by a sort.
        """
        # id -> the terms of field[c], each as (its id if it has one id, else
        # None, monomial, numerator), over the common denominator of the
        # field and the weight; a coordinate never seen occurs in no monomial
        parts = [(_IDS[c], v) for c, v in field.items() if v._num and c in _IDS]
        common = lcm(weight._den, *(v._den for _, v in parts))
        images = {
            cid: [(mono[0] if len(mono) == 1 else None, mono, n * (common // v._den))
                  for mono, n in v._num.items()]
            for cid, v in parts
        }
        store: dict = {}
        get = store.get
        for mono, n in self._num.items():
            for pos, c in enumerate(mono):
                image = images.get(c)
                if image is None:
                    continue
                rest = mono[:pos] + mono[pos + 1 :]
                for fid, fmono, fn in image:
                    if fid is None:
                        key = tuple(sorted(rest + fmono))
                    elif not rest or rest[-1] <= fid:
                        key = rest + fmono
                    else:
                        at = bisect_right(rest, fid)
                        key = rest[:at] + fmono + rest[at:]
                    acc = get(key, 0) + n * fn
                    if acc:
                        store[key] = acc
                    else:
                        del store[key]
        if weight._num:
            _add_product(store, self, weight, common // weight._den)
        return _reduced(store, self._den * common)

    def partial(self, coord) -> "Expr":
        """Formal partial derivative w.r.t. one canonical coordinate, from
        the monomials that contain it."""
        cid = _IDS.get(tuple(coord))
        part = {}
        for mono, n in self._num.items():
            if cid in mono:
                pos = mono.index(cid)
                part[mono[:pos] + mono[pos + 1 :]] = n * mono.count(cid)
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


_ONE = Expr.one()


def _substituted(e: Expr, images: dict, image_of) -> Expr:
    """The substitution loop: every monomial of ``e`` adds its numerator
    times the product of the images of its ids, one factor per occurrence,
    into one sum, stopping at its first id whose image is zero.  ``images``
    maps an id to its image, and ``image_of(id)`` fills it on first use."""
    acc = Accumulator()
    for mono, n in e._num.items():
        term = _ONE
        for c in mono:
            image = images.get(c)
            if image is None:
                image = images[c] = image_of(c)
            if not image._num:
                break
            term = term * image
        else:
            acc.add(term, n)
    return _reduced(acc.num, acc.den * e._den)


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
    return Expr.variable(jet_coord(a, indices))


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


class DigitLimitError(ValueError):
    """A coefficient has more digits than the interpreter converts to text."""


def exceeds_digit_limit(value: int) -> bool:
    """Whether ``value`` has more digits than the interpreter converts
    (``sys.get_int_max_str_digits``, 0 being no limit)."""
    limit = sys.get_int_max_str_digits()
    # 10^limit has more than 3 * limit bits, so only a longer number is compared
    return bool(limit) and value.bit_length() > 3 * limit and abs(value) >= 10**limit


def render_rational(q) -> str:
    """An int or Fraction as the problem DSL writes it: "n" or "n/d"; a
    :class:`DigitLimitError` when either part has too many digits."""
    if exceeds_digit_limit(q.numerator) or exceeds_digit_limit(q.denominator):
        limit = sys.get_int_max_str_digits()
        raise DigitLimitError(f"a coefficient of more than {limit} digits")
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_expr(e: Expr) -> str:
    """Deterministic text form in ``terms()`` order, re-parseable by the
    problem DSL."""
    if e.is_zero:
        return "0"
    pieces = []
    for mono, coeff in e.terms():
        factors = []
        for coord, exp in mono:
            name = render_coordinate(coord)
            factors.append(name if exp == 1 else f"{name}^{exp}")
        body = "*".join(factors)
        magnitude = abs(coeff)
        coeff_text = render_rational(magnitude)
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


class _BeyondBound(Exception):
    """A lift went beyond the jet-order bound; the caller raises the error."""


def total_derivative(
    e: Expr, i: int, cfg: JetConfig, max_order: int | None = None
) -> Expr:
    """The holonomic total derivative ``D_i e``.

    ``max_order`` bounds the jet order of the result; by default it is the
    working order 2k-1.  A caller may raise it to the expression order 2k,
    where Lagrange derivatives live.
    """
    limit = _derivative_limit((i,), cfg, max_order)
    store: dict = {}
    try:
        _add_derivative(store, e._num, i, limit, 1)
    except _BeyondBound:
        raise _order_bound_error(e, i, limit) from None
    return _reduced(store, e._den)


def sum_of_total_derivatives(
    terms: Sequence, cfg: JetConfig, max_order: int | None = None
) -> Expr:
    """sum sign * D_I e over the (e, I, sign) triples of ``terms``, I a tuple
    of directions and sign = +-1, added into one sum of numerators over the
    lcm of the denominators; ``max_order`` as for :func:`total_derivative`.
    Every direction is checked before any derivative is taken.  A lift
    beyond the bound raises the error of the chain D_{I[-1]} ... D_{I[0]} e
    of :func:`total_derivative` calls, which is replayed to find it."""
    limit = _derivative_limit([i for _, I, _ in terms for i in I], cfg, max_order)
    den = lcm(*(e._den for e, _, _ in terms))
    store: dict = {}
    try:
        for e, I, sign in terms:
            _add_total_derivatives(store, e._num, I, limit, sign * (den // e._den))
    except _BeyondBound:
        # D_i raises the top jet order of the y/z coordinates by exactly one,
        # so the chain meets a lift beyond the bound too, and raises its own
        # first error
        def step(e, i):
            return total_derivative(e, i, cfg, limit)

        return Expr.sum(sign * reduce(step, I, e) for e, I, sign in terms)
    return _reduced(store, den)


def _derivative_limit(directions, cfg: JetConfig, max_order: int | None) -> int:
    """The jet-order bound of D_i, each i in ``directions`` checked to be a
    base index of ``cfg``."""
    for i in directions:
        if not 1 <= i <= cfg.m:
            raise ValueError(f"base index {i} out of range 1..{cfg.m}")
    return cfg.working_order if max_order is None else max_order


def _add_total_derivatives(store: dict, num: dict, I: tuple, limit: int, scale: int) -> None:
    """Add ``scale`` times D_I of the numerators ``num`` into ``store`` in
    place, raising ``_BeyondBound`` at a lift beyond ``limit``.

    A lone id goes up the lift table once per direction and is stored once;
    x^i lowered is a constant, which a further direction sends to zero.  A
    longer monomial takes every direction but the last by the Leibniz rule
    into a small store of its own images, and the last into ``store``.
    """
    if len(I) < 2:
        if I:
            _add_derivative(store, num, I[0], limit, scale)
        else:
            _add_into(store, num, scale)
        return
    rows = [(i, _LIFTS.setdefault(i, {})) for i in I]
    orders, get = _ORDERS, store.get
    for mono, n in num.items():
        if len(mono) != 1:
            images = {mono: n}
            for i in I[:-1]:
                images, previous = {}, images
                _add_derivative(images, previous, i, limit, 1)
            _add_derivative(store, images, I[-1], limit, scale)
            continue
        c = mono[0]
        for i, row in rows:
            lifted = row.get(c)
            if lifted is None:
                lifted = _lift(c, i)
            if lifted < 0:
                break
            if orders[lifted] > limit:
                raise _BeyondBound
            c = lifted
        else:
            acc = get((c,), 0) + n * scale
            if acc:
                store[(c,)] = acc
            else:
                del store[(c,)]


def _add_derivative(store: dict, num: dict, i: int, limit: int, scale: int) -> None:
    """Add ``scale`` times D_i of the numerators ``num`` into ``store`` in
    place, raising ``_BeyondBound`` at a lift beyond ``limit``.

    Each occurrence of an id in a monomial adds the numerator once: x^i is
    dropped, and a y/z id is replaced by its lift, which goes where it
    keeps the monomial sorted; the lift of a lone id is the image itself.
    """
    lifts, orders = _LIFTS.setdefault(i, {}), _ORDERS
    get = store.get
    for mono, n in num.items():
        n *= scale
        for pos, c in enumerate(mono):
            lifted = lifts.get(c)
            if lifted is None:
                lifted = _lift(c, i)
            if lifted == _CONSTANT:
                continue
            if lifted == _LOWER:
                image = mono[:pos] + mono[pos + 1 :]
            else:
                if orders[lifted] > limit:
                    raise _BeyondBound
                if len(mono) == 1:
                    image = (lifted,)
                elif mono[-1] <= lifted:
                    image = mono[:pos] + mono[pos + 1 :] + (lifted,)
                else:
                    # the lift goes after the ids no larger than it, and c is
                    # left out on whichever side of it c lies
                    at = bisect_right(mono, lifted)
                    if at <= pos:
                        image = mono[:at] + (lifted,) + mono[at:pos] + mono[pos + 1 :]
                    else:
                        image = mono[:pos] + mono[pos + 1 : at] + (lifted,) + mono[at:]
            acc = get(image, 0) + n
            if acc:
                store[image] = acc
            else:
                del store[image]


def _order_bound_error(e: Expr, i: int, limit: int) -> ValueError:
    """The jet-order error of D_i e, for the first coordinate in coordinate
    order whose lift goes beyond ``limit``."""
    for c in sorted(e._ids(), key=_KEYS.__getitem__):
        lifted = _lift(c, i)
        if lifted >= 0 and _ORDERS[lifted] > limit:
            return ValueError(
                f"total derivative would need jet order {_ORDERS[lifted]} "
                f"beyond the allowed order {limit}"
            )


def sum_of_products(terms) -> Expr:
    """sum sign * a * b over the (a, b, sign) triples of Exprs a, b and
    sign = +-1, added into one sum of numerators over the lcm of the
    products' denominators."""
    terms = list(terms)
    den = lcm(*(a._den * b._den for a, b, _ in terms))
    store: dict = {}
    for a, b, sign in terms:
        if a._num and b._num:
            _add_product(store, a, b, sign * (den // (a._den * b._den)))
    return _reduced(store, den)


def _add_product(store: dict, a: Expr, b: Expr, scale: int) -> None:
    """Add ``scale`` times the numerators of a * b into ``store`` in place.

    A factor that is one monomial goes into each monomial of the other: a
    single id after a last id no larger than it, or else where
    ``bisect_right`` places it, and several ids by a sort.  Any other pair
    takes the double loop.
    """
    if len(a._num) == 1:
        a, b = b, a
    get = store.get
    if len(b._num) != 1:
        for mono_a, n_a in a._num.items():
            n_a *= scale
            for mono_b, n_b in b._num.items():
                mono = tuple(sorted(mono_a + mono_b))
                acc = get(mono, 0) + n_a * n_b
                if acc:
                    store[mono] = acc
                else:
                    del store[mono]
        return
    (ids, n_b), = b._num.items()
    n_b *= scale
    cid = ids[0] if len(ids) == 1 else None
    for mono, n in a._num.items():
        if cid is None:
            mono = tuple(sorted(mono + ids)) if ids else mono
        elif not mono or mono[-1] <= cid:
            mono = mono + ids
        else:
            pos = bisect_right(mono, cid)
            mono = mono[:pos] + ids + mono[pos:]
        acc = get(mono, 0) + n * n_b
        if acc:
            store[mono] = acc
        else:
            del store[mono]


# -- polynomial sections -----------------------------------------------------


class PolynomialSection:
    """A section given per field by a polynomial in the base variables.

    Components may contain coefficient symbols (undetermined coefficients),
    which makes a single instance stand for a whole family of sections.
    The section owns one table of images, keyed by coordinate id: the
    value of each coordinate on the section, filled the first time
    :meth:`coordinate_value` or a substitution asks for it, and shared by
    both.
    """

    def __init__(self, cfg: JetConfig, components: Sequence[Expr]):
        if len(components) != cfg.n:
            raise ValueError(f"expected {cfg.n} components, got {len(components)}")
        for comp in components:
            for coord in comp.variables():
                if coord[0] in ("y", "z"):
                    raise ValueError(
                        f"section components must be polynomials in x (and free "
                        f"coefficients); found {coord}"
                    )
                check_coordinate(cfg, coord)
        self.cfg = cfg
        self.components = tuple(components)
        self._images: dict = {}  # id -> the coordinate's value

    def coordinate_value(self, coord) -> Expr:
        """The value of a coordinate on the section, read from the table."""
        cid = _id(coord)
        image = self._images.get(cid)
        if image is None:
            image = self._images[cid] = self._image(cid)
        return image

    def _image(self, cid: int) -> Expr:
        """The image of the coordinate of ``cid``: component a for y^a, the
        derivative along I[-1] of the image of z^a_{I[:-1]} for z^a_I, and
        the coordinate itself for x and the coefficient symbols.  A
        coordinate outside the section's configuration raises a
        ``ValueError`` that names it."""
        coord = _COORDS[cid]
        check_coordinate(self.cfg, coord)
        tag = coord[0]
        if tag == "y":
            return self.components[coord[1] - 1]
        if tag == "z":
            lower = self.coordinate_value(jet_coord(coord[1], coord[2][:-1]))
            return lower.partial(base_coord(coord[2][-1]))
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
            for level in range(order + 1):
                for I in multiindices(self.cfg.m, level):
                    coord = jet_coord(a, I)
                    values[coord] = self.coordinate_value(coord).evaluate(point)
        return values


def substitute_section(e: Expr, section: PolynomialSection) -> Expr:
    """Replace every y/z coordinate by the exact derivative of the section.

    Each coordinate's image is built once per section: it is read from, or
    added to, the section's image table, so substituting many expressions
    through one section builds every image once in all.
    """
    return _substituted(e, section._images, section._image)
