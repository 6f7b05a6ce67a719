"""Text format for Lagrangian problems, with positioned diagnostics.

A problem file is a sequence of statements::

    dims 2 2 2;
    metric g = diag(1, -1);
    L = sum(a,1,2, ... z[a; i j] ...);
    field YT = dx[1];
    skewQ[1; 1 2] = z[1; 2];
    section sol = ((x[2] - x[1])^3, (x[2] - x[1])^2);
    grid 0 6.283185307179586 256 periodic;
    evolve 0 1 16;

Expressions are sums, products and non-negative integer powers of rational
constants, ``x[i]``, ``y[a]``, ``z[a; i1 i2 ...]``, metric entries
``name[i j]``, and explicit contractions ``sum(idx, lo, hi, body)``; division
is permitted by (nonzero) constants only.  Every value in a file is written
in this one grammar: a metric entry is an expression that evaluates to a
rational constant, naming no metric, and a field term is a product of
factors, joined by ``*`` and ``/`` as in expressions, times ``dx[i]`` or
``dy[a]`` (the product may be left out).  Numbers are written in ASCII
digits.  Sums and products may be arbitrarily long; parentheses, sum bodies
and unary signs nest at most 200 levels deep, a power's degree is at most
10000, so is C(e + t - 1, t - 1), the most terms that a power e of a base
of t terms can have, and that count times the power's degree is at most
5000000.  A product ``a*b`` forms at most 1000000 pairs of terms, and its
pairs times its degree are at most 5000000.  A ``sum`` evaluates its body
at most 10000 times, its range times the ranges of the sums around it.
No coefficient of a power, nor of a declared value, may have more digits
than the interpreter converts (``sys.get_int_max_str_digits``).  Jet
indices are canonicalized on parse.  ``skewQ[a; i1 i2] = Q`` declares the
top-level datum Q^{i1 i2}_a of an alternative boundary form of a k = 2
problem; the parsed problem keeps it under the key ``(a, i1, (i2,))``, the
one that :func:`jetforms.dedonder.perturbed_coefficients` takes, which
checks its top-level relations.

The parser makes one pass over the tokens, and each grammar rule returns
its value as a function rather than a tree; the values are evaluated once
the whole file has parsed, so the statements may come in any order and a
syntax error anywhere is reported before any error in a value.  That pass
converts no number and checks no bound: a literal is converted only where
its value is evaluated, so an integer with more digits than the interpreter
converts, in an expression, an index, an exponent, a sum bound, a ``skewQ``
index or a declaration, is an error in a value, as is a sum past its bound.
The values of the declarations (``dims``, a metric's shape, ``grid`` and
``evolve``) are checked first, in the order they are given, then the file
is checked for its ``dims`` and ``L``, then the expressions are evaluated.
Every syntax error carries a line/column position and the expected tokens;
semantic errors (index ranges, order overflow, asymmetric metrics, duplicate
declarations) point at the offending token.

A leaf (``x[i]``, ``y[a]``, ``z[...]`` or a metric entry) is evaluated once
per parse for each tuple of the values that the sums bind to the index names
it reads: the body of the fixture's six-fold contraction, run 64 times,
computes 28 leaf values for its 320 leaf reads.  A product whose value is
zero still evaluates each later factor, so that its errors are raised where
they always were, but multiplies no more.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .expressions import Expr, PolynomialSection, exceeds_digit_limit
from .jets import JetConfig, base_coord, field_coord, jet_coord
from .prolongations import ProjectableField


class ProblemError(Exception):
    """Base for problem-file errors; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int, expected=None):
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected) if expected else ()
        suffix = ""
        if self.expected:
            suffix = " (expected " + " or ".join(self.expected) + ")"
        super().__init__(f"{line}:{column}: {message}{suffix}")


class ProblemSyntaxError(ProblemError):
    pass


class ProblemSemanticError(ProblemError):
    pass


class GridSpec:
    """Uniform tensor grid; per axis (lower, upper, count, periodic).

    Periodic axes exclude the right endpoint (count cells of width
    (upper-lower)/count); non-periodic axes include both endpoints.  Points
    are numpy arrays, and numpy is imported only when they are asked for, so
    parsing a problem loads none.
    """

    def __init__(self, axes: tuple):
        if not axes:
            raise ValueError("grids need at least one axis")
        for lo, hi, count, periodic in axes:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"bad axis bounds ({lo}, {hi})")
            if count < 8:
                raise ValueError(f"grids need at least 8 points per axis, got {count}")
        self.axes = axes

    def __eq__(self, other):
        if other.__class__ is not GridSpec:
            return NotImplemented
        return self.axes == other.axes

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(count for _, _, count, _ in self.axes)

    def spacing(self, axis: int) -> float:
        lo, hi, count, periodic = self.axes[axis]
        return (hi - lo) / count if periodic else (hi - lo) / (count - 1)

    def points(self, axis: int):
        import numpy as np

        lo, hi, count, periodic = self.axes[axis]
        if periodic:
            return lo + self.spacing(axis) * np.arange(count)
        return np.linspace(lo, hi, count)


class ProblemSpec:
    """Parsed, validated problem data."""

    def __init__(
        self,
        cfg: JetConfig,
        metrics: dict,  # name -> tuple of tuples of Fractions
        lagrangian: Expr,
        fields: dict,  # name -> ProjectableField
        # (a, i1, (i2,)) -> Expr: skewQ[a; i1 i2] keyed as the top-level data
        # that perturbed_coefficients takes
        skew: dict,
        sections: dict,  # name -> PolynomialSection
        grid: GridSpec | None,
        evolve: tuple | None,  # (t0, t1, steps)
        # (line, column) of the grid keyword, where evolve reports a grid it
        # cannot evolve
        grid_at: tuple | None,
        # (line, column) of the Lagrangian's keyword, where a command reports
        # a derived coefficient too long to write
        lagrangian_at: tuple,
    ):
        self.cfg = cfg
        self.metrics = metrics
        self.lagrangian = lagrangian
        self.fields = fields
        self.skew = skew
        self.sections = sections
        self.grid = grid
        self.evolve = evolve
        self.grid_at = grid_at
        self.lagrangian_at = lagrangian_at


# -- tokenizer ----------------------------------------------------------------

# One alternative per token, tried in order; blanks and comments match no
# group.  Numbers are ASCII digits only: \d and str.isdigit also accept
# superscripts, which int() rejects, and the digits of other scripts, which
# it reads.  A number without a point or an exponent is an int; an exponent
# needs a digit after its optional sign.  A name runs over \w (str.isalnum
# or "_") and must start with a letter or "_".
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*"
    r"|(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>\w+)|(?P<punct>[;,=()\[\]+\-*/^])|(?P<other>.)"
)
# Parentheses, sum bodies and unary signs nest by recursion, in the parser
# and in the values it returns; deeper input is a positioned error, not a
# RecursionError.  Chains of +, -, * and / do not nest: each is one loop.
_MAX_NESTING = 200
# A monomial holds one coordinate id per unit of degree, so a power's memory
# grows with its degree: z[1;1]^1000000 took 46 MB, and ^999999999 would
# take tens of GB.  A power of higher degree is a positioned error.  A sum
# keeps one value per evaluation of its body, and sum(i,1,200000, y[1]) took
# 1 s to parse, so more evaluations than this are an error at the sum too.
# A power of many terms grows in terms rather than degree: an 8-term base to
# the 10 has 19448 terms and took 0.5 s, so its term bound is this one too.
_MAX_DEGREE = 10_000
# A product forms one monomial per pair of its factors' terms, about 4 us a
# pair at degree 120: (x[1]+y[1]+1)^60*(x[1]+y[1]+2)^60 forms 1891^2 pairs and
# took 14.5 s.  A product of more pairs is an error at its operator; 959310
# pairs at degree 5, into 517446 distinct terms, take about 1 s.
_MAX_PAIRS = 1_000_000
# A monomial holds one coordinate factor per unit of degree, so what a power
# or a product writes is its terms times its degree: (x[1]+1)^9999, within
# the term bound, writes 10^8 and took 4 s, and a product of 10^6 pairs at
# degree 2000 would write 2*10^9.  A power, or a product, that may write
# more is an error at its exponent or operator; (x[1]+1)^2000 writes 4*10^6.
_MAX_FACTORS = 5_000_000


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # "name" | "int" | "float" | punctuation | "end"
        self.text = text
        self.line = line
        self.column = column


def _literal(token: _Token, convert=int):
    """The value function of an int token: ``convert`` of its value,
    converted where it is first evaluated and then kept.  A token with more
    digits than the interpreter converts (``sys.get_int_max_str_digits``)
    raises an error at the token there, after every syntax error."""
    kept = []

    def value(env):
        if not kept:
            try:
                kept.append(convert(int(token.text)))
            except ValueError:
                raise ProblemSemanticError(
                    f"integer of {len(token.text)} digits is too long", token.line, token.column
                ) from None
        return kept[0]
    return value


def _tokenize(text: str) -> list:
    tokens, line, line_start = [], 1, 0
    for match in _TOKEN.finditer(text):
        kind, chunk = match.lastgroup, match.group()
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind:
            column = match.start() - line_start + 1
            if kind == "other" or kind == "name" and not (chunk[0].isalpha() or chunk[0] == "_"):
                raise ProblemSyntaxError(f"unexpected character {chunk[0]!r}", line, column)
            if kind == "number":
                kind = "int" if chunk.isdigit() else "float"
            tokens.append(_Token(chunk if kind == "punct" else kind, chunk, line, column))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


# -- parser -------------------------------------------------------------------


def _in_range(label: str, value: int, bound: int, token: _Token) -> int:
    """``value`` when it lies in 1..bound; otherwise an error at ``token``."""
    if not 1 <= value <= bound:
        raise ProblemSemanticError(
            f"{label} {value} out of range 1..{bound}", token.line, token.column
        )
    return value


class _Parser:
    """Each rule returns its value as a function: of the bound sum indices
    for an expression (env -> Expr) and an index (env -> int), of nothing
    for a declaration.  The functions run once the whole file has parsed,
    with ``cfg`` and ``metrics`` set, so a syntax error anywhere comes
    before any error in a value: literals are converted, and sums counted
    against their bound, only where they are evaluated."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # the evaluations of the running sum's body: its range times the
        # ranges of the sums around it
        self.running = 1
        self.cfg = None
        self.metrics = {}  # name -> rows of constant Exprs, set once checked
        self.bodies = self.leaves = 0  # sum bodies evaluated, leaf values computed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect(self, kind: str, what: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind:
            shown = repr(token.text) if token.kind != "end" else "end of input"
            raise ProblemSyntaxError(
                f"unexpected {shown}",
                token.line,
                token.column,
                expected=[what or kind],
            )
        return self.advance()

    def expect_number(self):
        """A signed number's value function; a number that is not finite
        raises its error at its token where the value is evaluated."""
        sign = 1.0
        if self.peek().kind == "-":
            self.advance()
            sign = -1.0
        token = self.peek()
        if token.kind not in ("int", "float"):
            raise ProblemSyntaxError(
                f"unexpected {token.text!r}", token.line, token.column,
                expected=["a number"],
            )
        self.advance()

        def number():
            value = float(token.text)
            if not math.isfinite(value):
                raise ProblemSemanticError(
                    f"number {token.text} is not finite", token.line, token.column
                )
            return sign * value
        return number

    # -- statements ---------------------------------------------------------

    def parse_problem(self) -> ProblemSpec:
        lagrangian = lagrangian_at = grid_at = None
        metrics, fields, sections, skew = {}, {}, {}, []
        declared = set()
        # the value functions of dims, metric, grid and evolve, in source
        # order, with their keywords
        declarations = {}

        def declare(what: str):
            # each declaration names itself once; a repeat points at its keyword
            if what in declared:
                raise ProblemSemanticError(f"duplicate {what}", token.line, token.column)
            declared.add(what)

        while self.peek().kind != "end":
            token = self.expect("name", "a statement keyword")
            word = token.text
            if word == "dims":
                declare("dims declaration")
                declarations["dims"] = self.parse_dims(), token
            elif word == "metric":
                name = self.expect("name", "a metric name").text
                declare(f"metric {name!r}")
                self.expect("=")
                metrics[name] = token
                declarations[f"metric {name}"] = self.parse_matrix(token), token
            elif word == "L":
                declare("Lagrangian")
                self.expect("=")
                lagrangian, lagrangian_at = self.parse_expr(), token
            elif word == "field":
                name = self.expect("name", "a field name").text
                declare(f"field {name!r}")
                self.expect("=")
                fields[name] = self.parse_vector_field(name, token)
            elif word == "skewQ":
                self.expect("[")
                indices = [self.expect("int", "a field index")]
                self.expect(";")
                indices += [self.expect("int", "a base index") for _ in range(2)]
                self.expect("]")
                self.expect("=")
                # named by their digits, so that 01 and 1 name one index
                a, i1, i2 = (index.text.lstrip("0") or "0" for index in indices)
                declare(f"skewQ[{a}; {i1} {i2}]")
                skew.append(self.skew_value(indices, token, self.parse_expr()))
            elif word == "section":
                name = self.expect("name", "a section name").text
                declare(f"section {name!r}")
                self.expect("=")
                components = self.parse_list("(", ")", self.parse_expr)
                sections[name] = self.section_value(name, token, components)
            elif word == "grid":
                declare("grid declaration")
                grid_at = (token.line, token.column)
                declarations["grid"] = self.parse_grid(), token
            elif word == "evolve":
                declare("evolve declaration")
                declarations["evolve"] = self.parse_evolve(), token
            else:
                raise ProblemSyntaxError(
                    f"unexpected {word!r}", token.line, token.column,
                    expected=[
                        "'dims'", "'metric'", "'L'", "'field'", "'skewQ'",
                        "'section'", "'grid'", "'evolve'",
                    ],
                )
            self.expect(";")
        # a declaration's value errors come after every syntax error and
        # before the file is checked for what it lacks; a ValueError is an
        # error at the statement's keyword
        values = {}
        for what, (value, at) in declarations.items():
            try:
                values[what] = value()
            except ValueError as exc:
                raise ProblemSemanticError(str(exc), at.line, at.column) from None
        dims, grid, evolve = (values.get(what) for what in ("dims", "grid", "evolve"))
        end = self.peek()
        if dims is None:
            raise ProblemSemanticError("missing dims declaration", end.line, end.column)
        if lagrangian is None:
            raise ProblemSemanticError("missing Lagrangian", end.line, end.column)
        self.cfg = dims
        # every entry is evaluated before any metric is registered, so an
        # entry that names a metric names an unknown one
        matrices = {name: (token, values[f"metric {name}"]()) for name, token in metrics.items()}
        checked = {name: _checked_metric(dims, name, matrix, token)
                   for name, (token, matrix) in matrices.items()}
        self.metrics = {name: tuple(tuple(map(Expr.constant, row)) for row in matrix)
                        for name, matrix in checked.items()}
        return ProblemSpec(
            cfg=dims,
            metrics=checked,
            lagrangian=_within_digits(lagrangian({}), lagrangian_at),
            lagrangian_at=(lagrangian_at.line, lagrangian_at.column),
            fields={name: value() for name, value in fields.items()},
            skew=dict(entry() for entry in skew),
            sections={name: value() for name, value in sections.items()},
            grid=grid,
            evolve=evolve,
            grid_at=grid_at,
        )

    def parse_list(self, opening: str, closing: str, item, what: str | None = None):
        """``opening item, item, ... closing`` as the list of its items."""
        self.expect(opening, what)
        items = [item()]
        while self.peek().kind == ",":
            self.advance()
            items.append(item())
        self.expect(closing)
        return items

    def parse_dims(self):
        """``m n k`` as the value function of the configuration."""
        m, n, k = (_literal(self.expect("int", name)) for name in ("m", "n", "k"))
        return lambda: JetConfig(m(None), n(None), k(None))

    def parse_grid(self):
        """The axes ``lo hi count periodic|open ...`` as the value function of
        the grid."""
        axes = []
        while self.peek().kind != ";":
            lo, hi = self.expect_number(), self.expect_number()
            count = _literal(self.expect("int", "a point count"))
            flag = self.expect("name", "'periodic' or 'open'")
            if flag.text not in ("periodic", "open"):
                raise ProblemSyntaxError(
                    f"unexpected {flag.text!r}", flag.line, flag.column,
                    expected=["'periodic'", "'open'"],
                )
            axes.append((lo, hi, count, flag.text == "periodic"))
        return lambda: GridSpec(tuple(
            (low(), high(), points(None), periodic) for low, high, points, periodic in axes
        ))

    def parse_evolve(self):
        """``t0 t1 steps`` as the value function of (t0, t1, steps)."""
        t0, t1 = self.expect_number(), self.expect_number()
        steps_at = self.expect("int", "a step count")
        steps = _literal(steps_at)

        def evolve():
            value = (t0(), t1(), steps(None))
            if value[2] < 1:
                raise ProblemSemanticError(
                    "step count must be positive", steps_at.line, steps_at.column
                )
            return value
        return evolve

    def parse_matrix(self, at: _Token):
        """A function that checks that the matrix is square and returns the
        value function of its rows of entries, each a rational constant;
        ``diag`` fills the entries off the diagonal with zero."""
        def entry():
            token, value = self.peek(), self.parse_expr()
            return lambda: _constant(
                _within_digits(value({}), at), "metric entries must be constant", token
            )

        token = self.peek()
        if token.kind == "name" and token.text == "diag":
            self.advance()
            diagonal = self.parse_list("(", ")", entry)
            # Fraction() is the zero off the diagonal
            rows = [[d if i == j else Fraction for j in range(len(diagonal))]
                    for i, d in enumerate(diagonal)]
        else:
            rows = self.parse_list(
                "[", "]", lambda: self.parse_list("[", "]", entry), "'diag' or '['"
            )

        def matrix():
            return tuple(tuple(value() for value in row) for row in rows)

        def shape():
            if any(len(row) != len(rows) for row in rows):
                raise ValueError("metric matrix is not square")
            return matrix
        return shape

    def skew_value(self, indices: list, at: _Token, value):
        """The top-level key ``(a, i1, (i2,))`` and the value of ``skewQ[a;
        i1 i2] = value``, the index tokens ``indices`` checked."""
        literals = [_literal(index) for index in indices]

        def entry():
            cfg = self.cfg
            a, i1, i2 = (literal(None) for literal in literals)
            _in_range("skewQ field index", a, cfg.n, at)
            for idx in (i1, i2):
                _in_range("skewQ base index", idx, cfg.m, at)
            if cfg.k != 2:
                raise ProblemSemanticError(
                    "skewQ perturbations are defined for k = 2 problems", at.line, at.column
                )
            return (a, i1, (i2,)), _within_digits(value({}), at)
        return entry

    def section_value(self, name: str, at: _Token, components: list):
        """The section ``name``: one component per field, each in x alone."""
        def section():
            if len(components) != self.cfg.n:
                raise ProblemSemanticError(
                    f"section {name!r} has {len(components)} components; "
                    f"expected {self.cfg.n}",
                    at.line,
                    at.column,
                )
            values = []
            for component in components:
                value = _within_digits(component({}), at)
                if any(c[0] != "x" for c in value.variables()):
                    raise ProblemSemanticError(
                        f"section {name!r} components must depend on x only",
                        at.line,
                        at.column,
                    )
                values.append(value)
            return PolynomialSection(self.cfg, tuple(values))
        return section

    # -- expressions -----------------------------------------------------------

    def enter(self, token: _Token) -> None:
        """Open one nesting level at ``token``; the caller closes it."""
        if self.depth == _MAX_NESTING:
            raise ProblemSyntaxError(
                f"nesting deeper than {_MAX_NESTING} levels", token.line, token.column
            )
        self.depth += 1

    # The values loop rather than call generators, so that one level of
    # nesting in the input is one frame when they run.

    def parse_expr(self):
        """Terms joined by + and -, each a product; a chain of one is the
        product's own value."""
        terms = [(False, self.parse_product())]
        while self.peek().kind in ("+", "-"):
            terms.append((self.advance().kind == "-", self.parse_product()))
        if len(terms) == 1:
            return terms[0][1]

        def total(env):
            values = []
            for negate, term in terms:
                values.append(-term(env) if negate else term(env))
            return Expr.sum(values)
        return total

    def parse_product(self):
        """Factors joined by * and /; a chain of one is the factor's own
        value.  The chain ends before ``* dx[i]`` or ``* dy[a]``, a field
        term's basis vector: no factor is a name with one index, as a metric
        entry takes two."""
        first, rest = self.parse_factor(), []
        while self.peek().kind in ("*", "/") and not self.basis_follows():
            op = self.advance()
            rest.append((op, self.parse_factor()))
        if not rest:
            return first

        def product(env):
            value = first(env)
            for op, factor in rest:
                if op.kind == "*":
                    other = factor(env)
                    if value.is_zero:  # and stays zero; the factor ran for its errors
                        continue
                    _check_product(value, other, op)
                    value = value * other
                    continue
                constant = _constant(factor(env), "division is only allowed by constants", op)
                if constant == 0:
                    raise ProblemSemanticError("division by zero", op.line, op.column)
                value = value / constant
            return value
        return product

    def basis_follows(self) -> bool:
        """Whether the tokens after the next one open ``dx[i]`` or ``dy[a]``."""
        ahead = self.tokens[self.pos + 1 : self.pos + 5]
        return len(ahead) == 4 and ahead[0].text in ("dx", "dy") and ahead[3].kind == "]"

    def parse_factor(self):
        token = self.peek()
        if token.kind in ("+", "-"):
            self.advance()
            self.enter(token)
            inner = self.parse_factor()
            self.depth -= 1
            return inner if token.kind == "+" else lambda env: -inner(env)
        base = self.parse_atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        at = self.expect("int", "a non-negative integer exponent")
        exponent_of = _literal(at)

        def power(env):
            value, exponent = base(env), exponent_of(env)
            degree = exponent * value.degree()
            if degree > _MAX_DEGREE:
                raise ProblemSemanticError(
                    f"power of degree {degree} exceeds {_MAX_DEGREE}", at.line, at.column
                )
            # a power of t terms has at most C(e + t - 1, t - 1) terms, the
            # monomials of degree e in t variables, and that bound is kept,
            # as is that bound times the degree
            terms = value.term_count()
            most = math.comb(exponent + terms - 1, min(exponent, terms - 1)) if terms else 1
            if most > _MAX_DEGREE:
                raise ProblemSemanticError(
                    f"power of {terms} terms to the {exponent} may have more than "
                    f"{_MAX_DEGREE} terms", at.line, at.column
                )
            if most * degree > _MAX_FACTORS:
                raise ProblemSemanticError(
                    f"power of {terms} terms to the {exponent} may hold more than "
                    f"{_MAX_FACTORS} coordinate factors in all", at.line, at.column
                )
            # the largest numerator or denominator of the base's coefficients
            # (of the coefficient itself, for a constant or a monomial) to
            # the power may not pass the digits int() and str() convert, 0
            # being no limit; from 2 up, any exponent above 4 * limit does
            limit = sys.get_int_max_str_digits()
            largest = value.largest_part()
            if limit and largest > 1 and (
                exponent > 4 * limit or exponent * math.log10(largest) >= limit
            ):
                raise ProblemSemanticError(
                    f"power exceeds {limit} digits", at.line, at.column
                )
            return value**exponent
        return power

    def parse_atom(self):
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return _literal(token, Expr.constant)
        if token.kind == "float":
            raise ProblemSyntaxError(
                "decimal literals are not allowed in expressions; use rationals",
                token.line,
                token.column,
                expected=["an integer"],
            )
        if token.kind == "(":
            self.advance()
            self.enter(token)
            value = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return value
        if token.kind != "name":
            raise ProblemSyntaxError(
                f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of input",
                token.line,
                token.column,
                expected=["a number", "'('", "'x'", "'y'", "'z'", "'sum'", "a metric name"],
            )
        name = token.text
        self.advance()
        if name == "sum":
            self.expect("(")
            var = self.expect("name", "an index variable").text
            self.expect(",")
            lo = _literal(self.expect("int", "a lower bound"))
            self.expect(",")
            hi = _literal(self.expect("int", "an upper bound"))
            self.expect(",")
            self.enter(token)
            body = self.parse_expr()
            self.depth -= 1
            self.expect(")")

            def total(env):
                first, last, outer = lo(env), hi(env), self.running
                self.running = count = outer * max(0, last - first + 1)
                if count > _MAX_DEGREE:
                    raise ProblemSemanticError(
                        f"sum evaluates its body {count} times, more than {_MAX_DEGREE}",
                        token.line, token.column,
                    )
                terms = []
                for value in range(first, last + 1):
                    terms.append(body({**env, var: value}))
                self.running = outer
                self.bodies += len(terms)
                return Expr.sum(terms)
            return total
        names = []  # the index names the leaf reads, its memo key
        if name in ("x", "y"):
            self.expect("[")
            index = self.parse_index(names)
            self.expect("]")

            def coordinate(env):
                bound = self.cfg.m if name == "x" else self.cfg.n
                idx = _in_range(f"{name} index", index(env), bound, token)
                return Expr.variable(base_coord(idx) if name == "x" else field_coord(idx))
            return self.leaf(coordinate, names)
        if name == "z":
            self.expect("[")
            field_index = self.parse_index(names)
            self.expect(";")
            jet_indices = [self.parse_index(names)]
            while self.peek().kind in ("int", "name"):
                jet_indices.append(self.parse_index(names))
            self.expect("]")

            def jet(env):
                cfg = self.cfg
                a = _in_range("field index", field_index(env), cfg.n, token)
                indices = [index(env) for index in jet_indices]
                for idx in indices:
                    _in_range("jet index", idx, cfg.m, token)
                if len(indices) > cfg.k:
                    raise ProblemSemanticError(
                        f"jet order {len(indices)} > k = {cfg.k}", token.line, token.column
                    )
                return Expr.variable(jet_coord(a, indices))
            return self.leaf(jet, names)
        if self.peek().kind == "[":
            self.advance()
            i_index, j_index = self.parse_index(names), self.parse_index(names)
            self.expect("]")

            def entry(env):
                matrix = self.metrics.get(name)
                if matrix is None:
                    raise ProblemSemanticError(
                        f"unknown metric {name!r}", token.line, token.column
                    )
                i, j = i_index(env), j_index(env)
                for idx in (i, j):
                    _in_range("metric index", idx, len(matrix), token)
                return matrix[i - 1][j - 1]
            return self.leaf(entry, names)
        # a bare identifier: a bound sum index used as a value
        index = self.bound_index(token, "identifier")
        return lambda env: Expr.constant(index(env))

    def leaf(self, value, names: list):
        """``value``, evaluated once in this parse per tuple of the values
        that the sums bind to ``names``; a failed check stores nothing, and
        an unbound name makes ``value`` raise its errors in their order."""
        memo, key = {}, itemgetter(*names) if names else lambda env: ()

        def leaf_value(env):
            try:
                index = key(env)
            except KeyError:
                return value(env)
            found = memo.get(index)
            if found is None:
                found = memo[index] = value(env)
                self.leaves += 1
            return found
        return leaf_value

    def parse_index(self, names: list):
        """An index's value function; a name is also added to ``names``."""
        token = self.advance()
        if token.kind == "int":
            return _literal(token)
        if token.kind == "name":
            names.append(token.text)
            return self.bound_index(token, "index variable")
        raise ProblemSyntaxError(
            f"unexpected {token.text!r}", token.line, token.column,
            expected=["an index (integer or bound name)"],
        )

    @staticmethod
    def bound_index(token: _Token, what: str):
        """The value a sum binds to the name ``token``; an error there when
        no enclosing sum binds it."""
        def index(env) -> int:
            if token.text not in env:
                raise ProblemSemanticError(
                    f"unbound {what} {token.text!r}", token.line, token.column
                )
            return env[token.text]
        return index

    # -- vector fields ---------------------------------------------------------

    def parse_vector_field(self, name: str, at: _Token):
        """Terms joined by + and -: ``product * dx[i]``, ``product * dy[a]``
        or a bare basis vector, whose product is 1."""
        terms, sign = [], 1
        while True:
            coefficient = None
            if self.peek().text not in ("dx", "dy"):
                coefficient = self.parse_product()
                self.expect("*", "'*'")
            token = self.advance()
            self.expect("[")
            index = _literal(self.expect("int", "an index"))
            self.expect("]")
            terms.append((sign, coefficient, token, index))
            if self.peek().kind not in ("+", "-"):
                break
            sign = 1 if self.advance().kind == "+" else -1

        def field():
            cfg = self.cfg
            base, vertical = [Expr.zero()] * cfg.m, [Expr.zero()] * cfg.n
            for sign, coefficient, token, index in terms:
                value = Expr.constant(sign) if coefficient is None else sign * coefficient({})
                target = base if token.text == "dx" else vertical
                idx = _in_range(f"{token.text} index", index(None), len(target), token)
                target[idx - 1] = target[idx - 1] + value
            for value in (*base, *vertical):
                _within_digits(value, at)
            try:
                return ProjectableField(cfg, tuple(base), tuple(vertical))
            except ValueError as exc:
                raise ProblemSemanticError(f"field {name!r}: {exc}", at.line, at.column)
        return field


def _checked_metric(cfg: JetConfig, name: str, matrix: tuple, at: _Token) -> tuple:
    """``matrix`` when it is m x m or n x n, symmetric and invertible;
    otherwise an error at ``at``."""
    size = len(matrix)
    if size not in (cfg.m, cfg.n):
        sizes = " or ".join(f"{s}x{s}" for s in dict.fromkeys((cfg.m, cfg.n)))
        raise ProblemSemanticError(
            f"metric {name!r} is {size}x{size}; expected {sizes}", at.line, at.column
        )
    if any(matrix[i][j] != matrix[j][i] for i in range(size) for j in range(size)):
        raise ProblemSemanticError(f"metric {name!r} is not symmetric", at.line, at.column)
    if _determinant(matrix) == 0:
        raise ProblemSemanticError(f"metric {name!r} is singular", at.line, at.column)
    return matrix


def _check_product(a: Expr, b: Expr, at: _Token) -> None:
    """An error at the operator ``at`` when ``a * b`` would form more than
    ``_MAX_PAIRS`` pairs of terms, or pairs times degree past
    ``_MAX_FACTORS``."""
    p, q = a.term_count(), b.term_count()
    if p * q > _MAX_PAIRS:
        raise ProblemSemanticError(
            f"product of {p} and {q} terms forms more than {_MAX_PAIRS} pairs of terms",
            at.line, at.column,
        )
    degree = a.degree() + b.degree()
    if p * q * degree > _MAX_FACTORS:
        raise ProblemSemanticError(
            f"product of {p} and {q} terms of degree {degree} may hold more than "
            f"{_MAX_FACTORS} coordinate factors in all", at.line, at.column,
        )


def _within_digits(value: Expr, at: _Token) -> Expr:
    """``value`` when no numerator or denominator of its coefficients has
    more digits than the interpreter converts (``sys.get_int_max_str_digits``,
    0 being no limit); otherwise an error at ``at``, where it is declared.
    Powers are bounded where they are written, but a product or a sum of
    them is bounded only here."""
    if exceeds_digit_limit(value.largest_part()):
        limit = sys.get_int_max_str_digits()
        raise ProblemSemanticError(f"coefficient exceeds {limit} digits", at.line, at.column)
    return value


def _constant(value: Expr, message: str, token: _Token) -> Fraction:
    """The rational value of a constant; any other value is an error at
    ``token``."""
    constant = value.constant_term()
    if value != Expr.constant(constant):
        raise ProblemSemanticError(message, token.line, token.column)
    return Fraction(constant)


def _determinant(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination: O(size^3) Fraction steps."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    size = len(rows)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col]
        det *= head[col]
        for row in rows[col + 1 :]:
            factor = row[col] / head[col]
            if factor:
                for j in range(col + 1, size):
                    row[j] -= factor * head[j]
    return det


def parse_problem(text: str, counts: dict | None = None) -> ProblemSpec:
    """Parse and validate a problem file.  ``counts``, when given, receives
    the number of sum bodies evaluated (``"sum_bodies"``) and of leaf
    values computed, the leaves' memo misses (``"leaves"``)."""
    parser = _Parser(text)
    spec = parser.parse_problem()
    if counts is not None:
        counts.update(sum_bodies=parser.bodies, leaves=parser.leaves)
    return spec

