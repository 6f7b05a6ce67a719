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

The tokenizer makes one regular-expression scan and keeps the tokens flat,
in three lists: their kinds, their texts and their offsets.  A line and a
column are found from an offset only where an error is raised.  The parser
makes one pass over those lists, reading them by index, and each grammar
rule returns its value as a function rather than a tree; the values are
evaluated once the whole file has parsed, so the statements may come in any
order and a syntax error anywhere is reported before any error in a value.
That pass converts no number and checks no bound: a literal is converted
only where its value is evaluated, so an integer with more digits than the
interpreter converts, in an expression, an index, an exponent, a sum bound,
a ``skewQ`` index or a declaration, is an error in a value, as is a sum past
its bound.  The values of the declarations (``dims``, a metric's shape,
``grid`` and ``evolve``) are checked first, in the order they are given,
then the file is checked for its ``dims`` and ``L``, then the expressions
are evaluated.  Every syntax error carries a line/column position and the
expected tokens; semantic errors (index ranges, order overflow, asymmetric
metrics, duplicate declarations) point at the offending token.

A sum's value is added, not formed: the terms of a chain of ``+`` and
``-`` and the bodies of ``sum(...)`` add into one accumulator, which a
statement's value, or a factor that needs a value of its own, hands down
through nested sums.  A sum binds its index in one dict of bindings, set and
restored in place.  A term that is a product of integers, bound indices,
leaves and their powers is added as one monomial with its coefficient; a
product with a factor in parentheses or a ``sum`` is formed factor by
factor.  A leaf (``x[i]``, ``y[a]``, ``z[...]`` or a metric entry) is
evaluated once per parse for each tuple of the values that the sums bind to
the index names it reads: the body of the fixture's six-fold contraction,
run 64 times, computes 28 leaf values for its 320 leaf reads.  A product
whose value is zero still evaluates each later factor, so that its errors
are raised where they always were; a product with a zero factor forms no
pair of terms, so it passes the size checks and is zero at once.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .expressions import Accumulator, Expr, PolynomialSection, exceeds_digit_limit
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

# One match per token, with the blanks and comments before it; a match of
# blanks alone ends the text.  Numbers are ASCII digits only: \d and
# str.isdigit also accept superscripts, which int() rejects, and the digits
# of other scripts, which it reads.  A number without a point or an exponent
# is an int; an exponent needs a digit after its optional sign.  A name runs
# over \w (str.isalnum or "_") and must start with a letter or "_".
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"(?:(?P<punct>[;,=()\[\]+\-*/^])"
    r"|(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>\w+)|(?P<other>.))?"
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
# A product of monomials forms one pair a factor and, each factor of degree
# at most _MAX_DEGREE, reaches neither bound in this many factors: one so
# long is formed one factor at a time, its bounds checked at each operator
_MONOMIAL_FACTORS = _MAX_FACTORS // _MAX_DEGREE


def _position(text: str, offset: int) -> tuple:
    """The 1-based (line, column) of the character at ``offset``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> tuple:
    """The tokens of ``text`` in flat form, three lists: their kinds ("name",
    "int", "float" or the punctuation character, and "end" last), their
    texts and their offsets, which :func:`_position` turns into a line and
    a column where an error is raised."""
    kinds, texts, offsets = [], [], []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        chunk = match[kind]
        if kind == "punct":
            kind = chunk
        elif kind == "number":
            kind = "int" if chunk.isdigit() else "float"
        elif kind == "other" or not (chunk[0].isalpha() or chunk[0] == "_"):
            raise ProblemSyntaxError(f"unexpected character {chunk[0]!r}",
                                     *_position(text, match.end() - len(chunk)))
        kinds.append(kind)
        texts.append(chunk)
        offsets.append(match.end() - len(chunk))
    kinds.append("end")
    texts.append("")
    offsets.append(len(text))
    return kinds, texts, offsets


def _added(value):
    """The node that adds the Expr ``value(env)`` into an accumulator."""
    return lambda env, acc, scale: acc.add(value(env), scale)


def _literal(parser, i: int) -> int:
    """The value of the int token ``i``, converted where it is evaluated.  A
    token with more digits than the interpreter converts
    (``sys.get_int_max_str_digits``) is an error at the token there, after
    every syntax error."""
    text = parser.texts[i]
    try:
        return int(text)
    except ValueError:
        raise parser.error(i, f"integer of {len(text)} digits is too long") from None


_BASIS = ("dx", "dy")


# -- parser -------------------------------------------------------------------


class _Parser:
    """The parser reads the flat token lists by index: each rule takes the
    index of its first token and returns the index after its last.  A rule
    returns its value as a function: of the bound sum indices for an
    expression, of nothing for a declaration.  The functions run once the
    whole file has parsed, with ``cfg`` and ``metrics`` set, so a syntax
    error anywhere comes before any error in a value: literals are
    converted, and sums counted against their bound, only where they are
    evaluated.  A token's position is its offset until an error needs its
    line and column.

    An expression is a node, a function (env, acc, scale) that adds its
    value times a scale of +-1 into an accumulator.  The bindings ``env``
    are one dict, which a sum sets and restores in place.  So the terms of
    a chain of + and - and the bodies of nested sums add into the one
    accumulator that a statement's value, or a factor that needs a value of
    its own, hands down.  A factor of a product is a node or an item of
    :meth:`values`, whose value is an int, a Fraction or an Expr of at most
    one term: a leaf, an integer, a bound index, a power of an item or the
    reciprocal of one.  A product of items adds into the accumulator as one
    monomial with its coefficient; any other product is formed factor by
    factor."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts, self.offsets = _tokenize(text)
        self.end = len(self.texts) - 1
        # "end" three more times, so that a look four tokens ahead of one
        # before the end needs no bound
        self.kinds += ["end"] * 3
        self.depth = 0
        # the evaluations of the running sum's body: its range times the
        # ranges of the sums around it
        self.running = 1
        self.cfg = None
        self.metrics = {}  # name -> rows of constant Exprs, set once checked
        self.bodies = self.leaves = 0  # sum bodies evaluated, leaf values computed

    def at(self, i: int) -> tuple:
        """The (line, column) of token ``i``, for an error there."""
        return _position(self.text, self.offsets[i])

    def error(self, i: int, message: str) -> ProblemSemanticError:
        """An error in a value, at token ``i``."""
        return ProblemSemanticError(message, *self.at(i))

    def fail(self, i: int, *expected, end: str = "end of input"):
        """A syntax error at token ``i``, which is not what ``expected``
        names; the end of the text is shown as ``end``."""
        shown = repr(self.texts[i]) if self.kinds[i] != "end" else end
        raise ProblemSyntaxError(f"unexpected {shown}", *self.at(i), expected=expected)

    def need(self, i: int, *steps: str) -> int:
        """The index after the run of tokens ``steps`` from token ``i``, each
        step a kind or "kind:what an error there expects"; a syntax error at
        the first token out of the run."""
        for step in steps:
            if self.kinds[i] != step:
                kind, _, what = step.partition(":")
                if self.kinds[i] != kind:
                    self.fail(i, what or kind)
            i += 1
        return i

    def parse_number(self, i: int) -> tuple:
        """A signed number's value function and the index after it; a number
        that is not finite raises its error at its token where the value is
        evaluated."""
        sign = -1.0 if self.kinds[i] == "-" else 1.0
        i += sign < 0
        if self.kinds[i] not in ("int", "float"):
            self.fail(i, "a number", end="''")
        text, at = self.texts[i], i

        def number():
            value = float(text)
            if not math.isfinite(value):
                raise self.error(at, f"number {text} is not finite")
            return sign * value
        return number, i + 1

    # -- statements ---------------------------------------------------------

    def parse_problem(self) -> ProblemSpec:
        kinds, texts = self.kinds, self.texts
        lagrangian = lagrangian_at = grid_at = None
        metrics, fields, sections, skew = {}, {}, {}, []
        declared = set()
        # the value functions of dims, metric, grid and evolve, in source
        # order, with their keywords
        declarations = {}
        declared_by = {"dims": self.parse_dims, "grid": self.parse_grid,
                       "evolve": self.parse_evolve}

        def declare(what: str):
            # each declaration names itself once; a repeat points at its keyword
            if what in declared:
                raise self.error(start, f"duplicate {what}")
            declared.add(what)

        def named(what: str) -> str:
            # the name after the keyword, declared once as ``what name``
            if kinds[start + 1] != "name":
                self.fail(start + 1, f"a {what} name")
            declare(f"{what} {texts[start + 1]!r}")
            return texts[start + 1]

        i = 0
        while kinds[i] != "end":
            start, word = i, texts[i]
            if kinds[i] != "name":
                self.fail(i, "a statement keyword")
            if word in declared_by:
                declare(f"{word} declaration")
                grid_at = self.at(start) if word == "grid" else grid_at
                value, i = declared_by[word](i + 1)
                declarations[word] = value, start
            elif word == "metric":
                name = named("metric")
                metrics[name] = start
                matrix, i = self.parse_matrix(self.need(i + 2, "="), start)
                declarations[f"metric {name}"] = matrix, start
            elif word == "L":
                declare("Lagrangian")
                lagrangian, i = self.parse_expr(self.need(i + 1, "="))
                lagrangian_at = start
            elif word == "field":
                name = named("field")
                fields[name], i = self.parse_vector_field(self.need(i + 2, "="), name, start)
            elif word == "skewQ":
                i = self.need(i + 1, "[", "int:a field index", ";", "int:a base index",
                              "int:a base index", "]", "=")
                indices = (i - 6, i - 4, i - 3)
                # named by their digits, so that 01 and 1 name one index
                a, i1, i2 = (texts[j].lstrip("0") or "0" for j in indices)
                declare(f"skewQ[{a}; {i1} {i2}]")
                value, i = self.parse_expr(i)
                skew.append(self.skew_value(indices, start, value))
            elif word == "section":
                name = named("section")
                components, i = self.parse_list(self.need(i + 2, "="), "(", ")",
                                                self.parse_expr)
                sections[name] = self.section_value(name, start, components)
            else:
                self.fail(i, "'dims'", "'metric'", "'L'", "'field'", "'skewQ'", "'section'",
                          "'grid'", "'evolve'")
            i = self.need(i, ";")
        # a declaration's value errors come after every syntax error and
        # before the file is checked for what it lacks; a ValueError is an
        # error at the statement's keyword
        values = {}
        for what, (value, at) in declarations.items():
            try:
                values[what] = value()
            except ValueError as exc:
                raise self.error(at, str(exc)) from None
        dims, grid, evolve = (values.get(what) for what in ("dims", "grid", "evolve"))
        if dims is None:
            raise self.error(self.end, "missing dims declaration")
        if lagrangian is None:
            raise self.error(self.end, "missing Lagrangian")
        self.cfg = dims
        # every entry is evaluated before any metric is registered, so an
        # entry that names a metric names an unknown one
        matrices = {name: (at, values[f"metric {name}"]()) for name, at in metrics.items()}
        checked = {name: self.checked_metric(name, matrix, at)
                   for name, (at, matrix) in matrices.items()}
        self.metrics = {name: tuple(tuple(map(Expr.constant, row)) for row in matrix)
                        for name, matrix in checked.items()}
        return ProblemSpec(
            cfg=dims,
            metrics=checked,
            lagrangian=self.within_digits(self.evaluate(lagrangian), lagrangian_at),
            lagrangian_at=self.at(lagrangian_at),
            fields={name: value() for name, value in fields.items()},
            skew=dict(entry() for entry in skew),
            sections={name: value() for name, value in sections.items()},
            grid=grid,
            evolve=evolve,
            grid_at=grid_at,
        )

    def parse_list(self, i: int, opening: str, closing: str, item, what: str | None = None):
        """``opening item, item, ... closing`` from token ``i``: the list of
        its items and the index after it."""
        value, i = item(self.need(i, f"{opening}:{what or opening}"))
        items = [value]
        while self.kinds[i] == ",":
            value, i = item(i + 1)
            items.append(value)
        return items, self.need(i, closing)

    def parse_dims(self, i: int) -> tuple:
        """``m n k`` as the value function of the configuration."""
        i = self.need(i, "int:m", "int:n", "int:k")
        return lambda: JetConfig(*(_literal(self, j) for j in range(i - 3, i))), i

    def parse_grid(self, i: int) -> tuple:
        """The axes ``lo hi count periodic|open ...`` as the value function of
        the grid."""
        axes = []
        while self.kinds[i] != ";":
            lo, i = self.parse_number(i)
            hi, i = self.parse_number(i)
            i = self.need(i, "int:a point count", "name:'periodic' or 'open'")
            if self.texts[i - 1] not in ("periodic", "open"):
                self.fail(i - 1, "'periodic'", "'open'")
            axes.append((lo, hi, i - 2, self.texts[i - 1] == "periodic"))
        return lambda: GridSpec(tuple(
            (low(), high(), _literal(self, points), periodic)
            for low, high, points, periodic in axes
        )), i

    def parse_evolve(self, i: int) -> tuple:
        """``t0 t1 steps`` as the value function of (t0, t1, steps)."""
        t0, i = self.parse_number(i)
        t1, i = self.parse_number(i)
        steps = self.need(i, "int:a step count") - 1

        def evolve():
            value = (t0(), t1(), _literal(self, steps))
            if value[2] < 1:
                raise self.error(steps, "step count must be positive")
            return value
        return evolve, steps + 1

    def parse_matrix(self, i: int, at: int) -> tuple:
        """A function that checks that the matrix is square and returns the
        value function of its rows of entries, each a rational constant;
        ``diag`` fills the entries off the diagonal with zero."""
        def entry(j):
            value, k = self.parse_expr(j)
            return lambda: self.constant(
                self.within_digits(self.evaluate(value), at), "metric entries must be constant", j
            ), k

        if self.kinds[i] == "name" and self.texts[i] == "diag":
            diagonal, i = self.parse_list(i + 1, "(", ")", entry)
            # Fraction() is the zero off the diagonal
            rows = [[d if r == c else Fraction for c in range(len(diagonal))]
                    for r, d in enumerate(diagonal)]
        else:
            rows, i = self.parse_list(
                i, "[", "]", lambda j: self.parse_list(j, "[", "]", entry), "'diag' or '['"
            )

        def matrix():
            return tuple(tuple(value() for value in row) for row in rows)

        def shape():
            if any(len(row) != len(rows) for row in rows):
                raise ValueError("metric matrix is not square")
            return matrix
        return shape, i

    def skew_value(self, indices: tuple, at: int, value: tuple):
        """The top-level key ``(a, i1, (i2,))`` and the value of ``skewQ[a;
        i1 i2] = value``, the index tokens ``indices`` checked."""
        def entry():
            cfg = self.cfg
            a, i1, i2 = (_literal(self, index) for index in indices)
            self.in_range("skewQ field index", a, cfg.n, at)
            for idx in (i1, i2):
                self.in_range("skewQ base index", idx, cfg.m, at)
            if cfg.k != 2:
                raise self.error(at, "skewQ perturbations are defined for k = 2 problems")
            return (a, i1, (i2,)), self.within_digits(self.evaluate(value), at)
        return entry

    def section_value(self, name: str, at: int, components: list):
        """The section ``name``: one component per field, each in x alone."""
        def section():
            if len(components) != self.cfg.n:
                raise self.error(at, f"section {name!r} has {len(components)} components; "
                                     f"expected {self.cfg.n}")
            values = []
            for component in components:
                value = self.within_digits(self.evaluate(component), at)
                if any(c[0] != "x" for c in value.variables()):
                    raise self.error(at, f"section {name!r} components must depend on x only")
                values.append(value)
            return PolynomialSection(self.cfg, tuple(values))
        return section

    # -- expressions -----------------------------------------------------------

    def enter(self, i: int) -> None:
        """Open one nesting level at token ``i``; the caller closes it."""
        if self.depth == _MAX_NESTING:
            raise ProblemSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", *self.at(i))
        self.depth += 1

    def evaluate(self, node, scale: int = 1, env=None) -> Expr:
        """The value of the expression ``node``, times ``scale``, under the
        bindings ``env`` (none by default)."""
        acc = Accumulator()
        node({} if env is None else env, acc, scale)
        return acc.result()

    # The values loop rather than call generators, so that one level of
    # nesting in the input is at most three frames when they run, as it is
    # in the parser.

    def parse_expr(self, i: int) -> tuple:
        """Terms joined by + and -, each a product; a chain of one is the
        product's own node."""
        kinds = self.kinds
        node, i = self.parse_product(i)
        terms = [(1, node)]
        while kinds[i] == "+" or kinds[i] == "-":
            sign = -1 if kinds[i] == "-" else 1
            node, i = self.parse_product(i + 1)
            terms.append((sign, node))
        if len(terms) == 1:
            return node, i

        def total(env, acc, scale):
            for sign, term in terms:
                term(env, acc, sign * scale)
        return total, i

    def parse_product(self, i: int) -> tuple:
        """Factors joined by * and /, each an atom or a power of one under
        unary signs, each sign a nesting level.  The chain ends before ``*
        dx[i]`` or ``* dy[a]``, a field term's basis vector: no factor is a
        name with one index, as a metric entry takes two."""
        kinds, texts = self.kinds, self.texts
        factors, op = [], None
        while True:
            sign, opened = 1, 0
            while kinds[i] == "+" or kinds[i] == "-":
                self.enter(i)
                sign, opened, i = (-sign if kinds[i] == "-" else sign), opened + 1, i + 1
            factor, i = self.parse_atom(i)
            if kinds[i] == "^":
                if kinds[i + 1] != "int":
                    self.fail(i + 1, "a non-negative integer exponent")
                power = self.power(self.value_of(factor), i + 1)
                factor = (None, None, power) if factor.__class__ is tuple else _added(power)
                i += 2
            self.depth -= opened
            factors.append((op, sign, factor))
            if (kinds[i] != "*" and kinds[i] != "/"
                    or texts[i + 1] in _BASIS and kinds[i + 4] == "]"):
                break
            op, i = i, i + 1
        signs = math.prod(sign for _, sign, _ in factors)
        if len(factors) <= _MONOMIAL_FACTORS and all(
                factor.__class__ is tuple for _, _, factor in factors):
            items = [self.divisor(factor, op) if op and texts[op] == "/" else factor
                     for op, _, factor in factors]

            def term(env, acc, scale):
                acc.add_product(self.values(items, env), signs * scale)
            return term, i
        if len(factors) == 1:  # a node under its signs
            return (factor if signs == 1 else lambda env, acc, scale: factor(env, acc, -scale)), i
        return self.product_node(factors), i

    def divisor(self, item: tuple, op: int) -> tuple:
        """The item of the reciprocal of ``item``, a division at ``op``."""
        item = (item,)
        return None, None, lambda env: self.reciprocal(self.values(item, env)[0], op)

    def reciprocal(self, value, op: int) -> Fraction:
        """1 / ``value``, an int or an Expr that must be a nonzero constant;
        otherwise an error at the division ``op``."""
        if value.__class__ is Expr:
            value = self.constant(value, "division is only allowed by constants", op)
        if not value:
            raise self.error(op, "division by zero")
        return Fraction(1, value)

    def product_node(self, factors: list):
        """The node of a product of factors, formed one by one.  A product
        whose value is zero evaluates each later factor, for its errors, and
        stays zero."""
        factors = [(op, sign, self.value_of(factor)) for op, sign, factor in factors]

        def product(env, acc, scale):
            value = None
            for op, sign, factor in factors:
                other = factor(env) if sign == 1 else -factor(env)
                if op is None:
                    value = other
                elif self.kinds[op] == "*":
                    self.check_product(value, other, op)
                    value = value * other
                else:
                    value = value * self.reciprocal(other, op)
            acc.add(value, scale)
        return product

    def value_of(self, factor):
        """The value function (env -> Expr) of a factor, a node or an item."""
        if factor.__class__ is not tuple:
            return partial(self.evaluate, factor, 1)
        item = (factor,)

        def value(env):
            found = self.values(item, env)[0]
            return found if found.__class__ is Expr else Expr.constant(found)
        return value

    def power(self, base, at: int):
        """The value function of ``base`` to the int token ``at``."""
        def power(env):
            value, exponent = base(env), _literal(self, at)
            degree = exponent * value.degree()
            if degree > _MAX_DEGREE:
                raise self.error(at, f"power of degree {degree} exceeds {_MAX_DEGREE}")
            # a power of t terms has at most C(e + t - 1, t - 1) terms, the
            # monomials of degree e in t variables, and that bound is kept,
            # as is that bound times the degree
            terms = value.term_count()
            most = math.comb(exponent + terms - 1, min(exponent, terms - 1)) if terms else 1
            if most > _MAX_DEGREE:
                raise self.error(at, f"power of {terms} terms to the {exponent} may have more "
                                     f"than {_MAX_DEGREE} terms")
            if most * degree > _MAX_FACTORS:
                raise self.error(at, f"power of {terms} terms to the {exponent} may hold more "
                                     f"than {_MAX_FACTORS} coordinate factors in all")
            # the largest numerator or denominator of the base's coefficients
            # (of the coefficient itself, for a constant or a monomial) to
            # the power may not pass the digits int() and str() convert, 0
            # being no limit; from 2 up, any exponent above 4 * limit does
            limit = sys.get_int_max_str_digits()
            largest = value.largest_part()
            if limit and largest > 1 and (
                exponent > 4 * limit or exponent * math.log10(largest) >= limit
            ):
                raise self.error(at, f"power exceeds {limit} digits")
            return value**exponent
        return power

    def parse_atom(self, i: int) -> tuple:
        """An atom, as a factor of a product, and the index after it."""
        kinds = self.kinds
        kind = kinds[i]
        if kind == "int":
            return (None, None, lambda env: _literal(self, i)), i + 1
        if kind == "float":
            raise ProblemSyntaxError(
                "decimal literals are not allowed in expressions; use rationals",
                *self.at(i), expected=["an integer"],
            )
        if kind == "(":
            self.enter(i)
            node, j = self.parse_expr(i + 1)
            self.depth -= 1
            return node, self.need(j, ")")
        if kind != "name":
            self.fail(i, "a number", "'('", "'x'", "'y'", "'z'", "'sum'", "a metric name")
        name = self.texts[i]
        # a sum is parsed here, not in a rule of its own, so that each level
        # of nesting in the input is three frames in the parser; its body
        # adds into the accumulator once per value of var
        if name == "sum":
            j = self.need(i + 1, "(", "name:an index variable", ",", "int:a lower bound", ",",
                          "int:an upper bound", ",")
            var = self.texts[i + 2]
            self.enter(i)
            body, j = self.parse_expr(j)
            self.depth -= 1
            j = self.need(j, ")")

            bounds = []  # the range and its length, converted where first evaluated

            def total(env, acc, scale):
                if not bounds:
                    first, last = _literal(self, i + 4), _literal(self, i + 6)
                    bounds.extend((range(first, last + 1), max(0, last - first + 1)))
                (values, times), outer = bounds, self.running
                self.running = count = outer * times
                if count > _MAX_DEGREE:
                    raise self.error(
                        i, f"sum evaluates its body {count} times, more than {_MAX_DEGREE}")
                bound = env.get(var)
                for env[var] in values:
                    body(env, acc, scale)
                if bound is None:
                    env.pop(var, None)
                else:
                    env[var] = bound
                self.running = outer
                self.bodies += times
            return total, j
        if name not in ("x", "y", "z") and kinds[i + 1] != "[":
            # a bare identifier: a bound sum index used as a value
            return (None, None, lambda env: self.index(i, env, "identifier")), i + 1
        if kinds[i + 1] != "[":
            self.fail(i + 1, "[")
        names = []  # the index names the leaf reads, its memo key
        j = self.indices(i + 2, 1 if name in ("x", "y", "z") else 2, names)
        if name == "z":
            if kinds[j] != ";":
                self.fail(j, ";")
            first, j = j + 1, self.indices(j + 1, 0, names)
        if kinds[j] != "]":
            self.fail(j, "]")
        if name == "z":
            def value(env):
                cfg = self.cfg
                a = self.in_range("field index", self.index(i + 2, env), cfg.n, i)
                indices = [self.index(ref, env) for ref in range(first, j)]
                for idx in indices:
                    self.in_range("jet index", idx, cfg.m, i)
                if len(indices) > cfg.k:
                    raise self.error(i, f"jet order {len(indices)} > k = {cfg.k}")
                return Expr.variable(jet_coord(a, indices))
        elif name == "x" or name == "y":
            def value(env):
                bound = self.cfg.m if name == "x" else self.cfg.n
                idx = self.in_range(f"{name} index", self.index(i + 2, env), bound, i)
                return Expr.variable(base_coord(idx) if name == "x" else field_coord(idx))
        else:
            def value(env):
                matrix = self.metrics.get(name)
                if matrix is None:
                    raise self.error(i, f"unknown metric {name!r}")
                r, c = self.index(i + 2, env), self.index(i + 3, env)
                for idx in (r, c):
                    self.in_range("metric index", idx, len(matrix), i)
                return matrix[r - 1][c - 1]
        return ({}, itemgetter(*names) if names else lambda env: (), value), j + 1

    def indices(self, i: int, count: int, names: list) -> int:
        """The index after the ``count`` index tokens from token ``i``, or
        after all of them, at least one, when ``count`` is 0; each an int or
        a name, which is added to ``names``."""
        kinds, j = self.kinds, i
        while (kinds[j] == "int" or kinds[j] == "name") and j - i != (count or -1):
            if kinds[j] == "name":
                names.append(self.texts[j])
            j += 1
        if j == i or j - i < count:
            self.fail(j, "an index (integer or bound name)", end="''")
        return j

    def index(self, i: int, env, what: str = "index variable") -> int:
        """The value of the index token ``i``: an int's, or the one a sum
        binds to the name, with an error there when no enclosing sum binds
        it."""
        if self.kinds[i] == "int":
            return _literal(self, i)
        try:
            return env[self.texts[i]]
        except KeyError:
            raise self.error(i, f"unbound {what} {self.texts[i]!r}") from None

    def values(self, factors, env) -> list:
        """The values of the items ``factors`` in order, each a function as
        (None, None, function) or a leaf (memo, key, function): a leaf's function
        runs once in this parse per tuple of the values that the sums bind to
        the names it reads, its key of ``env``; a failed check stores
        nothing, and an unbound name makes the function raise its errors in
        their order."""
        values = []
        for memo, key, value in factors:
            if memo is None:
                values.append(value(env))
                continue
            try:
                index = key(env)
            except KeyError:
                values.append(value(env))
                continue
            found = memo.get(index)
            if found is None:
                found = memo[index] = value(env)
                self.leaves += 1
            values.append(found)
        return values

    # -- vector fields ---------------------------------------------------------

    def parse_vector_field(self, i: int, name: str, at: int) -> tuple:
        """Terms joined by + and -: ``product * dx[i]``, ``product * dy[a]``
        or a bare basis vector, whose product is 1."""
        kinds, texts = self.kinds, self.texts
        terms, sign = [], 1
        while True:
            coefficient = None
            if texts[i] not in _BASIS:
                coefficient, i = self.parse_product(i)
                i = self.need(i, "*:'*'")
            # a product ends only before a basis vector, which this is
            terms.append((sign, coefficient, i))
            i = self.need(i + 1, "[", "int:an index", "]")
            if kinds[i] != "+" and kinds[i] != "-":
                break
            sign, i = (1 if kinds[i] == "+" else -1), i + 1

        def field():
            cfg = self.cfg
            base, vertical = [Expr.zero()] * cfg.m, [Expr.zero()] * cfg.n
            for sign, coefficient, basis in terms:
                value = (Expr.constant(sign) if coefficient is None
                         else self.evaluate(coefficient, sign))
                target = base if texts[basis] == "dx" else vertical
                idx = self.in_range(f"{texts[basis]} index", _literal(self, basis + 2),
                                    len(target), basis)
                target[idx - 1] = target[idx - 1] + value
            for value in (*base, *vertical):
                self.within_digits(value, at)
            try:
                return ProjectableField(cfg, tuple(base), tuple(vertical))
            except ValueError as exc:
                raise self.error(at, f"field {name!r}: {exc}")
        return field, i

    # -- checks, each an error at a token ---------------------------------------

    def in_range(self, label: str, value: int, bound: int, i: int) -> int:
        """``value`` when it lies in 1..bound; otherwise an error at token ``i``."""
        if not 1 <= value <= bound:
            raise self.error(i, f"{label} {value} out of range 1..{bound}")
        return value

    def checked_metric(self, name: str, matrix: tuple, at: int) -> tuple:
        """``matrix`` when it is m x m or n x n, symmetric and invertible;
        otherwise an error at token ``at``."""
        cfg, size = self.cfg, len(matrix)
        if size not in (cfg.m, cfg.n):
            sizes = " or ".join(f"{s}x{s}" for s in dict.fromkeys((cfg.m, cfg.n)))
            raise self.error(at, f"metric {name!r} is {size}x{size}; expected {sizes}")
        if any(matrix[i][j] != matrix[j][i] for i in range(size) for j in range(size)):
            raise self.error(at, f"metric {name!r} is not symmetric")
        if _determinant(matrix) == 0:
            raise self.error(at, f"metric {name!r} is singular")
        return matrix

    def check_product(self, a: Expr, b: Expr, op: int) -> None:
        """An error at the operator ``op`` when ``a * b`` would form more
        than ``_MAX_PAIRS`` pairs of terms, or pairs times degree past
        ``_MAX_FACTORS``."""
        p, q = a.term_count(), b.term_count()
        if p * q > _MAX_PAIRS:
            raise self.error(
                op, f"product of {p} and {q} terms forms more than {_MAX_PAIRS} pairs of terms")
        degree = a.degree() + b.degree()
        if p * q * degree > _MAX_FACTORS:
            raise self.error(op, f"product of {p} and {q} terms of degree {degree} may hold "
                                 f"more than {_MAX_FACTORS} coordinate factors in all")

    def within_digits(self, value: Expr, at: int) -> Expr:
        """``value`` when no numerator or denominator of its coefficients has
        more digits than the interpreter converts (``sys.get_int_max_str_digits``,
        0 being no limit); otherwise an error at token ``at``, where it is
        declared.  Powers are bounded where they are written, but a product
        or a sum of them is bounded only here."""
        if exceeds_digit_limit(value.largest_part()):
            limit = sys.get_int_max_str_digits()
            raise self.error(at, f"coefficient exceeds {limit} digits")
        return value

    def constant(self, value: Expr, message: str, i: int) -> Fraction:
        """The rational value of a constant; any other value is an error at
        token ``i``."""
        constant = value.constant_term()
        if value != Expr.constant(constant):
            raise self.error(i, message)
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

