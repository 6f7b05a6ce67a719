"""Helpers that only the tests call: the Cartan-formula Lie derivative, the
basis one-forms dc, the contact forms of a jet space, the boundary form
summed from them, the contact-ideal test built from them, the one-scan
vertical contractions of a form and their holonomic reductions, a seeded
random polynomial generator, generic sections with free coefficients, the
wave example's Lagrangian built in Python, a reference ring, the
determinant by minors, the problem tokenizer as a character loop, the
problem parser's expression values with no memo of leaves and one sum per
sum level, the Expr kernels the library replaced, holonomic reduction with
one product Expr per term and choice of directions (``times_lifts``), the
Euler operator
with D_{I[:-1]} of each partial formed by a chain of total derivatives,
and the prolongation, symmetry test, characteristic jets and currents by
the total derivatives of the characteristic Q^a, the Cauchy step and slice
energy as they were before each spectral operation ran once, the seeded
band-limited spectrum as one expression of temporaries, powers by
repeated multiplication, one coefficient of a boundary table read by its
key, the comparison of two boundary forms by their full tables'
difference, the summed coefficient table and the forms of Xi and Theta
written out at once from it, and the substitution of an arbitrary
coordinate map, which runs the library's substitution loop with
a table of images made for the call (for the property tests of that loop;
the other tests set coordinates to rational numbers through the public
``terms()``, by ``at_rationals``).

The library reaches the same statements by other routes (prolongation by
the recursive formula, the symmetry test through E d_m x in one scan of L,
the characteristic jets and currents read off the prolonged components, the
boundary-form conditions through the splitting system of the coefficients,
the boundary form written from its coefficient table, the wave example
read from its fixture, integer numerators over one denominator, D_i in one
pass over the monomials, D_I of each partial and the sums of products in
one store, substitution through one table of images per coordinate, a
section's substitution through the section's own table of images,
products with one monomial by insertion, monomials over interned
coordinate ids, the determinant by elimination, the problem tokenizer by
one regular expression, the parser's leaves evaluated once per binding
with nested sums added into one sum, the Cauchy step into scratch buffers
kept per grid and band, the slice energy from band-length weights, the
seeded spectrum formed in place in the array of its draws, powers by the multinomial
theorem, the comparison through the parts the two tables share, and the
summed table and the forms of Xi and Theta formed when first read); these
stay as independent references.  The kernels read an Expr only through
``terms()``, so they work on coordinate monomials whatever ids the library
gives the coordinates.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

from jetforms.dedonder import (
    BoundaryCoefficients,
    ComparisonReport,
    DeDonderForm,
    PhiDecomposition,
    _check_splitting_system,
    check_lagrangian,
)
from jetforms.expressions import (
    _IDS,
    Expr,
    PolynomialSection,
    _expr,
    _substituted,
    render_coordinate,
    substitute_section,
    sum_by_key,
    sum_of_total_derivatives,
    total_derivative,
    z_var,
)
from jetforms.forms import (
    DifferentialForm,
    VectorFieldOnJet,
    base_contraction,
    holonomic_reduce,
    interior_product,
    volume_form,
)
from jetforms.jets import (
    JetConfig,
    base_coord,
    coordinate_order,
    coordinate_sort_key,
    enumerate_coordinates,
    field_coord,
    jet_coord,
    multiindices,
)
from jetforms.numeric import (
    CauchyState,
    _derivative_symbol,
    _GridModes,
    _time_scales,
    _wavenumbers,
)
from jetforms.problem import (
    ProblemSemanticError,
    ProblemSyntaxError,
    _MAX_DEGREE,
    _Parser,
)
from jetforms.prolongations import ProjectableField, prolong


def lie_derivative(X: VectorFieldOnJet, form: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L_X = X -| d + d (X -| .)."""
    if form.degree == 0:
        return interior_product(X, form.d())
    return interior_product(X, form.d()) + interior_product(X, form).d()


def basis_form(coord: tuple) -> DifferentialForm:
    """The one-form d(coord)."""
    return DifferentialForm(1, {(coord,): Expr.one()})


def contact_form(cfg: JetConfig, a: int, indices: tuple) -> DifferentialForm:
    """theta^a_I = dz^a_I - z^a_{I+i} dx^i (dy^a - z^a_(i) dx^i for |I|=0)."""
    terms = {(jet_coord(a, indices),): Expr.one()}
    for i in range(1, cfg.m + 1):
        terms[(base_coord(i),)] = -Expr.variable(jet_coord(a, (*indices, i)))
    return DifferentialForm(1, terms)


def contact_boundary_form(coefficients: dict, cfg: JetConfig) -> DifferentialForm:
    """Xi = sum p^{i1,T}_a theta^a_T ^ (d/dx^{i1} -| d_m x) from contact forms,
    wedges and interior products: the reference for the boundary form that
    ``assemble_boundary_form`` writes straight from the coefficient table."""
    return DifferentialForm.sum(cfg.m, (
        contact_form(cfg, a, tail).wedge(base_contraction(cfg, i1)) * value
        for (a, i1, tail), value in coefficients.items()
    ))


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


def vertical_contractions(form: DifferentialForm) -> dict:
    """X -| form for every vertical basis field X, in one scan of the form.

    Returns a mapping coordinate -> form whose entry at ``c`` equals
    ``interior_product(basis_vector(c), form)`` for every y and z coordinate
    ``c``; coordinates whose contraction vanishes are absent.
    """
    if form.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    out: dict = {}
    for wedge_key, coeff in form.terms():
        for pos, b in enumerate(wedge_key):
            if b[0] == "x":
                continue
            # distinct terms sharing the factor b stay distinct once b is
            # removed, so nothing accumulates and no entry can cancel
            terms = out.setdefault(b, {})
            reduced = wedge_key[:pos] + wedge_key[pos + 1 :]
            terms[reduced] = coeff if pos % 2 == 0 else -coeff
    return {
        coord: DifferentialForm(form.degree - 1, terms) for coord, terms in out.items()
    }


def reduced_vertical_contractions(form: DifferentialForm, cfg: JetConfig) -> dict:
    """{coordinate: holonomic reduction of X -| form} for the source-vertical
    basis fields X of order <= 2k-1 whose reduction is nonzero, in
    coordinate order: the form-level reference for the coefficient identity
    that condition 3, the De Donder residual and the boundary-form
    comparison read."""
    contractions = vertical_contractions(form)
    reduced = ((c, holonomic_reduce(contractions[c], cfg))
               for c in enumerate_coordinates(cfg, cfg.working_order) if c in contractions)
    return {c: entry for c, entry in reduced if not entry.is_zero}


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


def wave_lagrangian(cfg: JetConfig) -> Expr:
    """g_ab g^ij g^kl z^a_ij z^b_kl with full (symmetric) index sums and the
    Minkowski metric g = diag(1, -1) on both the base and the fibre: the
    Lagrangian of the bundled fixture ``fourth_order_wave.jet``, built
    without the problem language."""
    g = ((1, 0), (0, -1))

    def trace(a: int) -> Expr:
        return Expr.sum(
            z_var(a, (i, j)) * g[i - 1][j - 1]
            for i in range(1, cfg.m + 1)
            for j in range(1, cfg.m + 1)
            if g[i - 1][j - 1] != 0
        )

    return Expr.sum(
        trace(a) * trace(b) * g[a - 1][b - 1]
        for a in range(1, cfg.n + 1)
        for b in range(1, cfg.n + 1)
        if g[a - 1][b - 1] != 0
    )


def coeff_symbol(name: str) -> tuple:
    """The coordinate of a free coefficient; it sorts after every jet coordinate."""
    return ("c", name)


def generic_section(cfg: JetConfig, degree: int) -> PolynomialSection:
    """Undetermined-coefficient polynomial section of given total degree.

    The coefficient of ``x^d`` in component ``a`` is the free symbol
    ``c[s{a}_{d}]``.  Substituting such a section and requiring the result
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
                label = f"s{a}_" + "".join(map(str, exponents))
                powers[coeff_symbol(label)] = 1
                yield Expr.monomial(powers)

    return PolynomialSection(
        cfg, [Expr.sum(monomials(a)) for a in range(1, cfg.n + 1)]
    )


# -- reference ring ----------------------------------------------------------


def _accumulate(store: dict, pairs) -> dict:
    """Add (monomial, coefficient) pairs into ``store``: zero sums dropped,
    integral Fractions stored as ints."""
    for mono, coeff in pairs:
        acc = store.get(mono, 0) + coeff
        if not acc:
            store.pop(mono, None)
        elif isinstance(acc, Fraction) and acc.denominator == 1:
            store[mono] = acc.numerator
        else:
            store[mono] = acc
    return store


def _merge_monomials(mono_a: tuple, mono_b: tuple) -> tuple:
    powers = dict(mono_a)
    for coord, exp in mono_b:
        powers[coord] = powers.get(coord, 0) + exp
    return tuple(sorted(powers.items(), key=lambda item: coordinate_sort_key(item[0])))


class ReferenceExpr:
    """The ring as a ``{monomial: int | Fraction}`` dict, one Fraction per
    coefficient.  It has the ``is_zero`` and ``terms()`` that ``render_expr``
    reads, so both rings render through the same function."""

    def __init__(self, terms: dict | None = None):
        self._terms = _accumulate({}, (terms or {}).items())

    @staticmethod
    def monomial(powers: dict, coeff) -> "ReferenceExpr":
        key = tuple(sorted(
            ((c, e) for c, e in powers.items() if e),
            key=lambda item: coordinate_sort_key(item[0]),
        ))
        return ReferenceExpr({key: coeff})

    @staticmethod
    def variable(coord) -> "ReferenceExpr":
        return ReferenceExpr({((coord, 1),): 1})

    @staticmethod
    def sum(exprs) -> "ReferenceExpr":
        store: dict = {}
        for e in exprs:
            _accumulate(store, e._terms.items())
        return ReferenceExpr(store)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """The monomials in the canonical order of ``Expr.terms()``."""
        return sorted(self._terms.items(), key=lambda item: [
            (coordinate_sort_key(c), e) for c, e in item[0]
        ])

    def __add__(self, other: "ReferenceExpr") -> "ReferenceExpr":
        return ReferenceExpr.sum((self, other))

    def __neg__(self) -> "ReferenceExpr":
        return ReferenceExpr({mono: -c for mono, c in self._terms.items()})

    def __sub__(self, other: "ReferenceExpr") -> "ReferenceExpr":
        return self + (-other)

    def __mul__(self, other) -> "ReferenceExpr":
        if isinstance(other, ReferenceExpr):
            return ReferenceExpr(_accumulate({}, (
                (_merge_monomials(mono_a, mono_b), c_a * c_b)
                for mono_a, c_a in self._terms.items()
                for mono_b, c_b in other._terms.items()
            )))
        return ReferenceExpr({mono: c * other for mono, c in self._terms.items()})

    def __truediv__(self, scalar) -> "ReferenceExpr":
        return self * (Fraction(1) / scalar)

    def __pow__(self, exponent: int) -> "ReferenceExpr":
        result = ReferenceExpr({(): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def gradient(self) -> dict:
        pairs: dict = {}
        for mono, coeff in self._terms.items():
            for pos, (c, e) in enumerate(mono):
                lowered = ((c, e - 1),) if e > 1 else ()
                rest = mono[:pos] + lowered + mono[pos + 1 :]
                pairs.setdefault(c, []).append((rest, coeff * e))
        return {c: ReferenceExpr(_accumulate({}, items)) for c, items in pairs.items()}

    def substitute(self, replacements: dict) -> "ReferenceExpr":
        def image(mono, coeff):
            term = ReferenceExpr({(): coeff})
            for coord, exp in mono:
                repl = replacements.get(coord)
                factor = repl if repl is not None else ReferenceExpr.variable(coord)
                term = term * factor**exp
            return term

        return ReferenceExpr.sum(image(mono, coeff) for mono, coeff in self._terms.items())


def reference_total_derivative(e: ReferenceExpr, i: int) -> ReferenceExpr:
    """D_i e by the generic product, with no jet-order bound."""
    terms = []
    for coord, partial in e.gradient().items():
        if coord == ("x", i):
            terms.append(partial)
        elif coord[0] in ("y", "z"):
            I = coord[2] if coord[0] == "z" else ()
            lifted = jet_coord(coord[1], tuple(sorted(I + (i,))))
            terms.append(ReferenceExpr.variable(lifted) * partial)
    return ReferenceExpr.sum(terms)


# -- the Expr kernels the library replaced ----------------------------------


def generic_product(a: Expr, b: Expr) -> Expr:
    """a * b by the double loop over the coordinate monomials of ``terms()``,
    with no monomial route."""
    return Expr(_accumulate({}, (
        (_merge_monomials(mono_a, mono_b), c_a * c_b)
        for mono_a, c_a in a.terms()
        for mono_b, c_b in b.terms()
    )))


def two_pass_total_derivative(
    e: Expr, i: int, cfg: JetConfig, max_order: int | None = None
) -> Expr:
    """D_i e as every first partial in one scan, then each y/z partial times
    its lifted coordinate by the generic product, with the library's bound
    on the jet order and its error messages."""
    if not 1 <= i <= cfg.m:
        raise ValueError(f"base index {i} out of range 1..{cfg.m}")
    limit = cfg.working_order if max_order is None else max_order
    terms = []
    for coord, partial in e.gradient().items():
        if coord == base_coord(i):
            terms.append(partial)
        elif coord[0] in ("y", "z"):
            I = coord[2] if coord[0] == "z" else ()
            if len(I) + 1 > limit:
                raise ValueError(
                    f"total derivative would need jet order {len(I) + 1} "
                    f"beyond the allowed order {limit}"
                )
            lifted = jet_coord(coord[1], tuple(sorted(I + (i,))))
            terms.append(generic_product(partial, Expr.variable(lifted)))
    return Expr.sum(terms)


def times_lifts(e: Expr, coords, directions, sign: int) -> Expr:
    """``sign * e`` times the D_i lift of each y/z coordinate in ``coords``,
    z^a_I -> z^a_{I+i} with i the matching entry of ``directions``, for
    sign = +-1, one product per lift: the per-term product that holonomic
    reduction formed before it summed each wedge's terms in one store."""
    out = e if sign == 1 else -e
    for coord, i in zip(coords, directions):
        if coord[0] not in ("y", "z"):
            raise ValueError(f"{render_coordinate(coord)} has no holonomic lift")
        indices = coord[2] if coord[0] == "z" else ()
        out = out * Expr.variable(jet_coord(coord[1], indices + (i,)))
    return out


def per_term_holonomic_reduce(form: DifferentialForm, cfg: JetConfig) -> DifferentialForm:
    """holonomic_reduce as one Expr per term and choice of directions, each
    the coefficient times its lifts by :func:`times_lifts`, summed by wedge
    through ``sum_by_key``."""

    def pairs():
        for wedge_key, coeff in form.terms():
            fixed = tuple(b[1] for b in wedge_key if b[0] == "x")
            vertical = wedge_key[len(fixed) :]
            top = max((coordinate_order(b) + 1 for b in vertical), default=0)
            if top > cfg.expression_order:
                raise ValueError(
                    f"holonomic reduction needs jet order {top} "
                    f"beyond the allowed order {cfg.expression_order}"
                )
            free = [i for i in range(1, cfg.m + 1) if i not in fixed]
            for choice in itertools.permutations(free, len(vertical)):
                order = fixed + choice
                inversions = sum(u > v for u, v in itertools.combinations(order, 2))
                sign = -1 if inversions % 2 else 1
                yield tuple(base_coord(i) for i in sorted(order)), times_lifts(
                    coeff, vertical, choice, sign
                )

    return DifferentialForm(form.degree, sum_by_key(pairs()))


def chain_lagrange_derivative(cfg: JetConfig, L: Expr) -> list:
    """lagrange_derivative with D_{I[:-1]} of each partial formed as an Expr
    by a chain of ``total_derivative`` calls, the last D of each term summed
    by ``sum_of_total_derivatives``, and dL/dy^a added on after."""
    order = cfg.expression_order
    plain = {a: Expr.zero() for a in range(1, cfg.n + 1)}
    outer: dict = {a: [] for a in plain}
    for c, term in PhiDecomposition.of_lagrangian(cfg, L).components.items():
        if c[0] == "y":
            plain[c[1]] = term
            continue
        I = c[2]
        for i in I[:-1]:
            term = total_derivative(term, i, cfg, max_order=order)
        outer[c[1]].append((term, (I[-1],), -1 if len(I) % 2 else 1))
    return [plain[a] + sum_of_total_derivatives(outer[a], cfg, order) for a in plain]


def repeated_power(base: Expr, exponent: int) -> Expr:
    """base^exponent by repeated multiplication with the generic product."""
    out = Expr.one()
    for _ in range(exponent):
        out = generic_product(out, base)
    return out


def at_rationals(e: Expr, values: dict) -> Expr:
    """e with some coordinates set to rational numbers, through the public
    ``terms()`` and ``Expr.monomial``: each monomial's coefficient times
    value^exp for every coordinate set, the other coordinates kept."""

    def term(mono, coeff) -> Expr:
        powers = {}
        for coord, exp in mono:
            if coord in values:
                coeff *= Fraction(values[coord]) ** exp
            else:
                powers[coord] = exp
        return Expr.monomial(powers, coeff)

    return Expr.sum(term(mono, coeff) for mono, coeff in e.terms())


def substitute(e: Expr, replacements: dict) -> Expr:
    """Replace coordinates by expressions (exact, simultaneous), through the
    library's substitution loop: one table for the call maps each id to its
    image, the replacement or else the coordinate itself."""
    # the library calls this loop only through substitute_section, whose
    # images come from a section; the property tests of the loop itself need
    # arbitrary images, so this reads the interned ids and the private loop.
    # A coordinate never seen occurs in no monomial
    images = {_IDS[c]: repl for c, repl in replacements.items() if c in _IDS}
    return _substituted(e, images, lambda cid: _expr({(cid,): 1}, 1))


def per_monomial_substitute(e: Expr, replacements: dict) -> Expr:
    """substitute as one image Expr per monomial, every power raised
    anew, by the generic product."""

    def power(factor: Expr, exp: int) -> Expr:
        out = Expr.one()
        for _ in range(exp):
            out = generic_product(out, factor)
        return out

    def image(mono, coeff) -> Expr:
        term = Expr.constant(coeff)
        for coord, exp in mono:
            factor = replacements.get(coord)
            if factor is None:
                factor = Expr.variable(coord)
            term = generic_product(term, power(factor, exp))
        return term

    return Expr.sum(image(mono, coeff) for mono, coeff in e.terms())


def reference_substitute_section(e: Expr, section: PolynomialSection) -> Expr:
    """substitute_section as one replacement map per call: every y/z
    coordinate of ``e`` mapped to the section's value, every power raised
    anew by substitute."""
    replacements = {}
    for coord in e.variables():
        if coord[0] in ("y", "z"):
            replacements[coord] = section.coordinate_value(coord)
    return substitute(e, replacements)


def minors_determinant(matrix) -> Fraction:
    """The determinant by expansion along the first row: the parser's
    reference, factorial in the size."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(size):
        minor = tuple(tuple(row[:j] + row[j + 1 :]) for row in matrix[1:])
        term = matrix[0][j] * minors_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


_PUNCT = {";", ",", "=", "(", ")", "[", "]", "+", "-", "*", "/", "^"}
_DIGITS = frozenset("0123456789")


def reference_tokenize(text: str) -> list:
    """The problem tokenizer as a loop over characters: the parser's
    reference, with (kind, text, line, column) per token, each position
    counted as the loop goes.  After a comment that ends the input with no
    newline, its end token keeps the comment's first column."""
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = column
        if ch in _DIGITS or (ch == "." and text[i + 1 : i + 2] in _DIGITS):
            j = i
            seen_dot = seen_exp = False
            while j < len(text):
                c = text[j]
                if c in _DIGITS:
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp:
                    # an exponent needs a digit after its optional sign
                    digit = j + 2 if text[j + 1 : j + 2] in ("+", "-") else j + 1
                    if text[digit : digit + 1] not in _DIGITS:
                        break
                    seen_exp = True
                    j = digit
                else:
                    break
            chunk = text[i:j]
            kind = "float" if (seen_dot or seen_exp) else "int"
            tokens.append((kind, chunk, line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, line, start_col))
            i += 1
            column += 1
            continue
        raise ProblemSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("end", "", line, column))
    return tokens


def _converted(parser, i: int) -> int:
    """The value of the int token ``i``; one with more digits than the
    interpreter converts is an error at the token."""
    text = parser.texts[i]
    try:
        return int(text)
    except ValueError:
        raise ProblemSemanticError(
            f"integer of {len(text)} digits is too long", *parser.at(i)
        ) from None


class ReferenceParser(_Parser):
    """The problem parser with its expression values as they were before
    each leaf kept its value per parse, a zero product skipped its later
    multiplications and sums added into one accumulator: every chain of +
    and - and every sum builds its own ``Expr.sum``, a sum over a copy of
    the bindings, every product multiplies its factors' Exprs one by one,
    and every leaf checks its indices and builds its value on each
    evaluation.  An integer literal is converted by its own converter each
    time its value is evaluated.  A sum's count of body evaluations is the
    product of the ranges of the sums around it in the text, found while
    parsing, and is checked where the sum is evaluated; so both errors come
    after every syntax error.  The expression rules are its own, on the
    library's token lists; the statements, the bound on nesting, the power
    and the checks outside expressions are the library's."""

    def __init__(self, text: str):
        super().__init__(text)
        self.nesting = 1  # the body evaluations of the sum being parsed

    def evaluate(self, value, scale=1, env=None):
        return scale * value({} if env is None else env)

    def basis_follows(self, i: int) -> bool:
        """Whether the tokens after token ``i`` open ``dx[i]`` or ``dy[a]``."""
        ahead = self.texts[i + 1 : i + 5]
        return len(ahead) == 4 and ahead[0] in ("dx", "dy") and ahead[3] == "]"

    def parse_expr(self, i):
        value, i = self.parse_product(i)
        terms = [(False, value)]
        while self.kinds[i] in ("+", "-"):
            negate = self.kinds[i] == "-"
            value, i = self.parse_product(i + 1)
            terms.append((negate, value))
        if len(terms) == 1:
            return terms[0][1], i

        def total(env):
            return Expr.sum([-term(env) if negate else term(env) for negate, term in terms])
        return total, i

    def parse_product(self, i):
        first, i = self.parse_factor(i)
        rest = []
        while self.kinds[i] in ("*", "/") and not self.basis_follows(i):
            op = i
            factor, i = self.parse_factor(i + 1)
            rest.append((op, factor))
        if not rest:
            return first, i

        def product(env):
            value = first(env)
            for op, factor in rest:
                if self.texts[op] == "*":
                    other = factor(env)
                    self.check_product(value, other, op)
                    value = value * other
                    continue
                constant = self.constant(factor(env), "division is only allowed by constants", op)
                if constant == 0:
                    raise ProblemSemanticError("division by zero", *self.at(op))
                value = value / constant
            return value
        return product, i

    def parse_factor(self, i):
        if self.kinds[i] in ("+", "-"):
            self.enter(i)
            inner, j = self.parse_factor(i + 1)
            self.depth -= 1
            return (inner if self.kinds[i] == "+" else lambda env: -inner(env)), j
        base, i = self.parse_atom(i)
        if self.kinds[i] != "^":
            return base, i
        if self.kinds[i + 1] != "int":
            self.fail(i + 1, "a non-negative integer exponent")
        return self.power(base, i + 1), i + 2

    def parse_atom(self, i):
        kind = self.kinds[i]
        if kind == "int":
            return (lambda env: Expr.constant(_converted(self, i))), i + 1
        if kind == "float":
            raise ProblemSyntaxError(
                "decimal literals are not allowed in expressions; use rationals",
                *self.at(i), expected=["an integer"],
            )
        if kind == "(":
            self.enter(i)
            value, j = self.parse_expr(i + 1)
            self.depth -= 1
            if self.kinds[j] != ")":
                self.fail(j, ")")
            return value, j + 1
        if kind != "name":
            self.fail(i, "a number", "'('", "'x'", "'y'", "'z'", "'sum'", "a metric name")
        name = self.texts[i]
        if name == "sum":
            head = (("(", "("), ("name", "an index variable"), (",", ","),
                    ("int", "a lower bound"), (",", ","), ("int", "an upper bound"), (",", ","))
            for j, (want, what) in enumerate(head, start=i + 1):
                if self.kinds[j] != want:
                    self.fail(j, what)
            j = i + 1 + len(head)
            var, lo_at, hi_at = self.texts[i + 2], i + 4, i + 6
            outer = count = self.nesting
            try:  # a bound too long to convert raises its error where the sum runs
                count = outer * max(0, int(self.texts[hi_at]) - int(self.texts[lo_at]) + 1)
            except ValueError:
                pass
            self.nesting = count
            self.enter(i)
            body, j = self.parse_expr(j)
            self.depth -= 1
            self.nesting = outer
            if self.kinds[j] != ")":
                self.fail(j, ")")

            def total(env):
                lo, hi = _converted(self, lo_at), _converted(self, hi_at)
                if count > _MAX_DEGREE:
                    raise ProblemSemanticError(
                        f"sum evaluates its body {count} times, more than {_MAX_DEGREE}",
                        *self.at(i),
                    )
                terms = []
                for value in range(lo, hi + 1):
                    terms.append(body({**env, var: value}))
                return Expr.sum(terms)
            return total, j + 1
        if name in ("x", "y"):
            if self.kinds[i + 1] != "[":
                self.fail(i + 1, "[")
            index, j = self.parse_index(i + 2)
            if self.kinds[j] != "]":
                self.fail(j, "]")

            def coordinate(env):
                bound = self.cfg.m if name == "x" else self.cfg.n
                idx = self.in_range(f"{name} index", index(env), bound, i)
                return Expr.variable(base_coord(idx) if name == "x" else field_coord(idx))
            return coordinate, j + 1
        if name == "z":
            if self.kinds[i + 1] != "[":
                self.fail(i + 1, "[")
            field_index, j = self.parse_index(i + 2)
            if self.kinds[j] != ";":
                self.fail(j, ";")
            index, j = self.parse_index(j + 1)
            jet_indices = [index]
            while self.kinds[j] in ("int", "name"):
                index, j = self.parse_index(j)
                jet_indices.append(index)
            if self.kinds[j] != "]":
                self.fail(j, "]")

            def jet(env):
                cfg = self.cfg
                a = self.in_range("field index", field_index(env), cfg.n, i)
                indices = [index(env) for index in jet_indices]
                for idx in indices:
                    self.in_range("jet index", idx, cfg.m, i)
                if len(indices) > cfg.k:
                    raise ProblemSemanticError(
                        f"jet order {len(indices)} > k = {cfg.k}", *self.at(i)
                    )
                return Expr.variable(jet_coord(a, indices))
            return jet, j + 1
        if self.kinds[i + 1] == "[":
            i_index, j = self.parse_index(i + 2)
            j_index, j = self.parse_index(j)
            if self.kinds[j] != "]":
                self.fail(j, "]")

            def entry(env):
                matrix = self.metrics.get(name)
                if matrix is None:
                    raise ProblemSemanticError(f"unknown metric {name!r}", *self.at(i))
                r, c = i_index(env), j_index(env)
                for idx in (r, c):
                    self.in_range("metric index", idx, len(matrix), i)
                return matrix[r - 1][c - 1]
            return entry, j + 1
        return (lambda env: Expr.constant(self.index(i, env, "identifier"))), i + 1

    def parse_index(self, i):
        kind = self.kinds[i]
        if kind == "int":
            return (lambda env: _converted(self, i)), i + 1
        if kind == "name":
            return (lambda env: self.index(i, env)), i + 1
        raise ProblemSyntaxError(
            f"unexpected {self.texts[i]!r}", *self.at(i),
            expected=["an index (integer or bound name)"],
        )


def reference_parse_problem(text: str):
    """``parse_problem`` through :class:`ReferenceParser`."""
    return ReferenceParser(text).parse_problem()


def numerators(e: Expr) -> tuple:
    """({coordinate monomial: integer numerator}, common denominator), the
    numerators read back through ``terms()``."""
    den = e._den
    return {mono: int(c * den) for mono, c in e.terms()}, den


def assert_canonical(e: Expr) -> None:
    """Integer numerators over one positive denominator, none zero, with
    gcd 1 over all of them; the zero expression has denominator 1."""
    num, den = list(e._num.values()), e._den
    assert type(den) is int and den > 0, den
    assert all(type(n) is int and n != 0 for n in num), num
    assert gcd(den, *num) == 1, (den, num)
    assert num or den == 1, den


def reference_compare_boundary_forms(xi, xi_prime) -> ComparisonReport:
    """compare_boundary_forms by the difference of the two full tables, the
    checks run on a fresh table of it."""
    cfg = xi.cfg
    differences = sum_by_key([
        *xi.coefficients.table.items(),
        *((key, -p) for key, p in xi_prime.coefficients.table.items()),
    ])
    q = BoundaryCoefficients(cfg, differences)
    relation_failures = _check_splitting_system(PhiDecomposition(cfg, {}), q)
    divergence_residuals = {a: q.divergence(a, ()) for a in range(1, cfg.n + 1)}
    volume = volume_form(cfg)
    pullback_failures = [
        (field_coord(a), volume * -residual)
        for a, residual in divergence_residuals.items() if not residual.is_zero
    ] + [(jet_coord(a, I), volume * -residual) for a, I, residual in relation_failures]
    return ComparisonReport(
        not pullback_failures, differences, relation_failures, divergence_residuals,
        pullback_failures,
    )


def coefficient(coeffs: BoundaryCoefficients, a: int, i1: int, tail: tuple = ()) -> Expr:
    """p^{i1,tail}_a of ``coeffs``, zero where its table has no such key."""
    return coeffs.table.get((a, i1, tuple(tail)), Expr.zero())


def summed_table(coeffs: BoundaryCoefficients) -> dict:
    """The coefficients of ``coeffs``, its parts' values added key by key;
    zero sums dropped."""
    table: dict = {}
    for part in coeffs.parts():
        for key, p in part.table.items():
            table[key] = table.get(key, Expr.zero()) + p
    return {key: p for key, p in table.items() if not p.is_zero}


def eager_boundary_form(coeffs: BoundaryCoefficients) -> DifferentialForm:
    """Xi written at once from the summed table: one term
    (-1)^(i1+m) p^{i1,T}_a d_m x^- ^ dz^a_T per coefficient and the d_m x
    coefficient -sum z^a_I S^a_I, its splitting sums added key by key."""
    cfg, table = coeffs.cfg, summed_table(coeffs)
    dx = [base_coord(i) for i in range(1, cfg.m + 1)]
    terms, sums = {}, {}
    for (a, i1, tail), p in table.items():
        terms[(*dx[: i1 - 1], *dx[i1:], jet_coord(a, tail))] = p if (i1 + cfg.m) % 2 == 0 else -p
        c = jet_coord(a, (*tail, i1))
        sums[c] = sums.get(c, Expr.zero()) + p
    volume = -Expr.sum(Expr.variable(c) * total for c, total in sums.items())
    if not volume.is_zero:
        terms[tuple(dx)] = volume
    return DifferentialForm(cfg.m, terms)


def eager_dedonder_form(L: Expr, coeffs: BoundaryCoefficients) -> DifferentialForm:
    """Theta = L d_m x + Xi, with Xi from :func:`eager_boundary_form`."""
    return volume_form(coeffs.cfg) * L + eager_boundary_form(coeffs)


# -- the prolongation routes the library replaced ----------------------------


def reference_characteristic_jets(
    Y: ProjectableField, order: int, section: PolynomialSection | None = None
) -> dict:
    """{(a, I): D_I Q^a} for canonical |I| <= order by total derivatives of
    Q^a = Y^a - z^a_j Y^j itself, a section substituted into Q first, so
    that D_I then acts on x-polynomials."""
    cfg = Y.cfg
    jets = {}
    for a in range(1, cfg.n + 1):
        q = Y.vertical_components[a - 1] - Expr.sum(
            z_var(a, (j,)) * comp
            for j, comp in enumerate(Y.base_components, 1)
            if not comp.is_zero
        )
        jets[(a, ())] = q if section is None else substitute_section(q, section)
    for level in range(1, order + 1):
        for a, I in itertools.product(range(1, cfg.n + 1), multiindices(cfg.m, level)):
            jets[(a, I)] = total_derivative(
                jets[(a, I[:-1])], I[-1], cfg, max_order=cfg.expression_order
            )
    return jets


def reference_prolong(Y: ProjectableField, order: int) -> dict:
    """Y^a_I = D_I Q^a + sum_j Y^j z^a_{I+j} from the reference
    characteristic jets, which build the terms -Y^j z^a_{I+j} that the sum
    cancels; the base components as given and zeros dropped."""
    cfg = Y.cfg
    if not 1 <= order <= cfg.working_order:
        raise ValueError(f"order {order} outside 1..{cfg.working_order}")
    components = {
        base_coord(i): comp for i, comp in enumerate(Y.base_components, 1) if not comp.is_zero
    }
    for (a, I), dq in reference_characteristic_jets(Y, order).items():
        value = dq + Expr.sum(
            z_var(a, I + (j,)) * comp
            for j, comp in enumerate(Y.base_components, 1)
            if not comp.is_zero
        )
        if not value.is_zero:
            components[jet_coord(a, I)] = value
    return components


def reference_is_symmetry(Y: ProjectableField, L: Expr):
    """(E == 0, E d_m x) with E = sum_c Y^{k,c} dL/dc + L div Y^0 from the
    gradient of L and the reference prolongation."""
    cfg = Y.cfg
    check_lagrangian(cfg, L)
    lifted = reference_prolong(Y, cfg.k)
    divergence = Expr.sum(
        comp.partial(base_coord(i)) for i, comp in enumerate(Y.base_components, 1)
    )
    variation = Expr.sum(
        lifted[c] * partial for c, partial in L.gradient().items() if c in lifted
    ) + L * divergence
    return variation.is_zero, volume_form(cfg) * variation


def reference_noether_current(
    Y: ProjectableField, theta: DeDonderForm, section: PolynomialSection | None
) -> DifferentialForm:
    """sum_i [Y^i L + sum p^{i,T}_a D_T Q^a] d/dx^i -| d_m x from the
    reference characteristic jets, the section substituted into Q first."""
    cfg = theta.cfg
    pull = (lambda e: e) if section is None else (lambda e: substitute_section(e, section))
    jets = reference_characteristic_jets(Y, cfg.k - 1, section)
    lagrangian = pull(theta.lagrangian)
    densities = [[Y.base_components[i] * lagrangian] for i in range(cfg.m)]
    for (a, i, tail), p in theta.boundary.coefficients.table.items():
        if not jets[(a, tail)].is_zero:
            densities[i - 1].append(pull(p) * jets[(a, tail)])
    return DifferentialForm.sum(cfg.m - 1, (
        base_contraction(cfg, i) * Expr.sum(terms) for i, terms in enumerate(densities, 1)
    ))


# -- the Cauchy step and the slice energy the library replaced ----------------


def reference_cauchy_evolve(state, t_target: float):
    """``cauchy_evolve`` as it was before it wrote into preallocated buffers
    and kept a band: the time scales and wavenumbers recomputed per call, a
    temporary for every operation, and every mode advanced, so the result
    has the full band."""
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
    return CauchyState._from_spectrum(state.modes, out, t_target)


def reference_band_limited_state(grid, n: int, max_mode: int, seed: int):
    """``band_limited_state`` as it was before it formed the spectrum in the
    array of its draws: (a - i b) (N / 2) e^{i k b lo} / xi^j as one
    expression, each operation into a new temporary."""
    count = grid.shape[0]
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n, 4, max_mode, 2)) / max_mode
    lo, hi, _, _ = grid.axes[0]
    k = np.arange(1, max_mode + 1)
    phase = np.exp(1j * k * (2.0 * np.pi / (hi - lo)) * lo)
    u = np.zeros((n, 4, max_mode + 1), dtype=complex)
    u[:, :, 1:] = (
        (amps[..., 0] - 1j * amps[..., 1]) * (count / 2.0) * phase
    ) / _time_scales(grid)[:, 1 : max_mode + 1]
    return CauchyState._from_spectrum(_GridModes(grid), u, 0.0)


def reference_energy(energy, state) -> float:
    """``EnergyFunctional.__call__`` as it was before the per-grid weights
    and the band: every (field, row) spectrum scaled in every mode, and xi^S
    formed per entry and call."""
    lo, hi, count, _ = state.grid.axes[0]
    # products of the stored u_r = v_r / xi^r would overflow on wide domains
    rows = state.spectrum * _time_scales(state.grid)
    xi = _derivative_symbol(count, hi - lo).imag  # 0 in the Nyquist mode
    per_mode = np.zeros(count // 2 + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, r, b, r2, total_s, part), coeff in energy.entries.items():
            pair = np.conj(rows[a - 1, r]) * rows[b - 1, r2]
            per_mode += float(coeff) * xi**total_s * getattr(pair, part)
        per_mode[1 : (count + 1) // 2] *= 2.0  # all but the zero and Nyquist modes
        total = float(per_mode.sum())
    if not np.isfinite(total):
        raise ValueError(f"a period of {hi - lo:g} puts xi^S outside the float range")
    return total * (hi - lo) / count**2
