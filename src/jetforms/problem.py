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
and unary signs nest at most 200 levels deep, and a power's degree is at
most 10000.  Jet indices are canonicalized on parse.  Every syntax error
carries a line/column position and the expected tokens; semantic errors
(index ranges, order overflow, asymmetric metrics, duplicate declarations)
point at the offending token.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .expressions import Expr, PolynomialSection
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


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid; per axis (lower, upper, count, periodic).

    Periodic axes exclude the right endpoint (count cells of width
    (upper-lower)/count); non-periodic axes include both endpoints.  Points,
    meshes and quadrature weights are numpy arrays, and numpy is imported
    only when one of them is asked for, so parsing a problem loads none.
    """

    axes: tuple

    def __post_init__(self):
        if not self.axes:
            raise ValueError("grids need at least one axis")
        for lo, hi, count, periodic in self.axes:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"bad axis bounds ({lo}, {hi})")
            if count < 8:
                raise ValueError(f"grids need at least 8 points per axis, got {count}")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(int(count) for _, _, count, _ in self.axes)

    def spacing(self, axis: int) -> float:
        lo, hi, count, periodic = self.axes[axis]
        return (hi - lo) / count if periodic else (hi - lo) / (count - 1)

    def points(self, axis: int):
        import numpy as np

        lo, hi, count, periodic = self.axes[axis]
        if periodic:
            return lo + self.spacing(axis) * np.arange(count)
        return np.linspace(lo, hi, count)

    def meshes(self) -> list:
        import numpy as np

        grids = np.meshgrid(*(self.points(i) for i in range(self.ndim)), indexing="ij")
        return list(grids)

    def quadrature_weights(self, axis: int):
        import numpy as np

        lo, hi, count, periodic = self.axes[axis]
        h = self.spacing(axis)
        if periodic:
            return np.full(count, h)
        w = np.full(count, h)
        w[0] = w[-1] = h / 2
        return w


@dataclass(eq=False)
class ProblemSpec:
    """Parsed, validated problem data."""

    cfg: JetConfig
    metrics: dict  # name -> tuple of tuples of Fractions
    lagrangian: Expr
    fields: dict = dataclass_field(default_factory=dict)  # name -> ProjectableField
    skew: dict = dataclass_field(default_factory=dict)  # (a, i1, i2) -> Expr
    sections: dict = dataclass_field(default_factory=dict)  # name -> PolynomialSection
    grid: GridSpec | None = None
    evolve: tuple | None = None  # (t0, t1, steps)
    # (line, column) of the grid keyword, where evolve reports a grid it
    # cannot evolve
    grid_at: tuple | None = None


# -- tokenizer ----------------------------------------------------------------

_PUNCT = {";", ",", "=", "(", ")", "[", "]", "+", "-", "*", "/", "^"}
# numbers are ASCII digits only: str.isdigit also accepts superscripts,
# which int() rejects, and the digits of other scripts, which it reads
_DIGITS = frozenset("0123456789")
# Parentheses, sum bodies and unary signs nest by recursion, in the parser
# and in the elaboration; deeper input is a positioned error, not a
# RecursionError.  Chains of +, -, * and / do not nest: they parse into one
# flat node each.
_MAX_NESTING = 200
# A monomial holds one coordinate id per unit of degree, so a power's memory
# grows with its degree: z[1;1]^1000000 took 46 MB, and ^999999999 would
# take tens of GB.  A power of higher degree is a positioned error.
_MAX_DEGREE = 10_000


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "int" | "float" | punctuation | "end"
    text: str
    line: int
    column: int


def _int_value(token: _Token) -> int:
    """The value of an int token; one with more digits than the interpreter
    converts (``sys.get_int_max_str_digits``) is an error at the token."""
    try:
        return int(token.text)
    except ValueError:
        raise ProblemSemanticError(
            f"integer of {len(token.text)} digits is too long", token.line, token.column
        ) from None


def _tokenize(text: str):
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
            tokens.append(_Token(kind, chunk, line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            column += 1
            continue
        raise ProblemSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, column))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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

    def expect_int(self, what: str = "an integer") -> tuple:
        token = self.expect("int", what)
        return _int_value(token), token

    def expect_number(self) -> float:
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
        value = float(token.text)
        if not math.isfinite(value):
            raise ProblemSemanticError(
                f"number {token.text} is not finite", token.line, token.column
            )
        return sign * value

    # -- statements ---------------------------------------------------------

    def parse_problem(self) -> ProblemSpec:
        dims = None
        metrics: dict = {}
        lagrangian_ast = None
        field_asts: dict = {}
        skew_asts: dict = {}
        section_asts: dict = {}
        grid = None
        evolve = None
        grid_at = None
        declared = set()

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
                m, _ = self.expect_int("m")
                n, _ = self.expect_int("n")
                k, _ = self.expect_int("k")
                try:
                    dims = JetConfig(m, n, k)
                except ValueError as exc:
                    raise ProblemSemanticError(str(exc), token.line, token.column)
            elif word == "metric":
                name = self.expect("name", "a metric name").text
                declare(f"metric {name!r}")
                self.expect("=")
                metrics[name] = (token, self.parse_matrix(token))
            elif word == "L":
                declare("Lagrangian")
                self.expect("=")
                lagrangian_ast = self.parse_expr()
            elif word == "field":
                name = self.expect("name", "a field name").text
                declare(f"field {name!r}")
                self.expect("=")
                field_asts[name] = (token, self.parse_vector_field())
            elif word == "skewQ":
                self.expect("[")
                a, _ = self.expect_int("a field index")
                self.expect(";")
                i1, _ = self.expect_int("a base index")
                i2, _ = self.expect_int("a base index")
                self.expect("]")
                self.expect("=")
                declare(f"skewQ[{a}; {i1} {i2}]")
                skew_asts[(a, i1, i2)] = (token, self.parse_expr())
            elif word == "section":
                name = self.expect("name", "a section name").text
                declare(f"section {name!r}")
                self.expect("=")
                section_asts[name] = (token, self.parse_list("(", ")", self.parse_expr))
            elif word == "grid":
                declare("grid declaration")
                grid_at = (token.line, token.column)
                axes = []
                while self.peek().kind != ";":
                    lo = self.expect_number()
                    hi = self.expect_number()
                    count, count_token = self.expect_int("a point count")
                    flag = self.expect("name", "'periodic' or 'open'")
                    if flag.text not in ("periodic", "open"):
                        raise ProblemSyntaxError(
                            f"unexpected {flag.text!r}", flag.line, flag.column,
                            expected=["'periodic'", "'open'"],
                        )
                    axes.append((lo, hi, count, flag.text == "periodic"))
                try:
                    grid = GridSpec(tuple(axes))
                except ValueError as exc:
                    raise ProblemSemanticError(
                        str(exc), token.line, token.column
                    )
            elif word == "evolve":
                declare("evolve declaration")
                t0 = self.expect_number()
                t1 = self.expect_number()
                steps, steps_token = self.expect_int("a step count")
                if steps < 1:
                    raise ProblemSemanticError(
                        "step count must be positive",
                        steps_token.line,
                        steps_token.column,
                    )
                evolve = (t0, t1, steps)
            else:
                raise ProblemSyntaxError(
                    f"unexpected {word!r}", token.line, token.column,
                    expected=[
                        "'dims'", "'metric'", "'L'", "'field'", "'skewQ'",
                        "'section'", "'grid'", "'evolve'",
                    ],
                )
            self.expect(";")
        end = self.peek()
        if dims is None:
            raise ProblemSemanticError("missing dims declaration", end.line, end.column)
        if lagrangian_ast is None:
            raise ProblemSemanticError("missing Lagrangian", end.line, end.column)
        return _Elaborator(dims, metrics).build(
            lagrangian_ast, field_asts, skew_asts, section_asts, grid, evolve, grid_at
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

    def parse_matrix(self, at: _Token):
        """Rows of (first token, expression) entries; ``diag`` fills the
        entries off the diagonal with zero at its own token."""
        def entry():
            return self.peek(), self.parse_expr()

        token = self.peek()
        if token.kind == "name" and token.text == "diag":
            self.advance()
            entries = self.parse_list("(", ")", entry)
            zero = (token, ("num", Fraction(0)))
            return [
                [entries[i] if i == j else zero for j in range(len(entries))]
                for i in range(len(entries))
            ]
        rows = self.parse_list(
            "[", "]", lambda: self.parse_list("[", "]", entry), "'diag' or '['"
        )
        if any(len(row) != len(rows) for row in rows):
            raise ProblemSemanticError("metric matrix is not square", at.line, at.column)
        return rows

    # -- expressions (to AST) -------------------------------------------------

    def enter(self, token: _Token) -> None:
        """Open one nesting level at ``token``; the caller closes it."""
        if self.depth == _MAX_NESTING:
            raise ProblemSyntaxError(
                f"nesting deeper than {_MAX_NESTING} levels", token.line, token.column
            )
        self.depth += 1

    def parse_expr(self):
        """Terms joined by + and - as one node ("add", terms), each term a
        product; a chain of one is left bare."""
        terms, negate = [], False
        while True:
            term = self.parse_product()
            terms.append(("neg", term) if negate else term)
            if self.peek().kind not in ("+", "-"):
                return terms[0] if len(terms) == 1 else ("add", terms)
            negate = self.advance().kind == "-"

    def parse_product(self):
        """Factors joined by * and / as one node ("product", first,
        [(operator token, factor), ...]); a chain of one is left bare.  The
        chain ends before ``* dx[i]`` or ``* dy[a]``, a field term's basis
        vector: no factor is a name with one index, as a metric entry
        takes two."""
        first, rest = self.parse_factor(), []
        while self.peek().kind in ("*", "/") and not self.basis_follows():
            op = self.advance()
            rest.append((op, self.parse_factor()))
        return ("product", first, rest) if rest else first

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
            return inner if token.kind == "+" else ("neg", inner)
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            node = ("pow", node, *self.expect_int("a non-negative integer exponent"))
        return node

    def parse_atom(self):
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return ("num", Fraction(_int_value(token)))
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
            node = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return node
        if token.kind == "name":
            name = token.text
            self.advance()
            if name == "sum":
                self.expect("(")
                var = self.expect("name", "an index variable")
                self.expect(",")
                lo, _ = self.expect_int("a lower bound")
                self.expect(",")
                hi, _ = self.expect_int("an upper bound")
                self.expect(",")
                self.enter(token)
                body = self.parse_expr()
                self.depth -= 1
                self.expect(")")
                return ("sum", var.text, lo, hi, body, var)
            if name in ("x", "y"):
                self.expect("[")
                idx = self.parse_index()
                self.expect("]")
                return ("coord1", name, idx, token)
            if name == "z":
                self.expect("[")
                a_idx = self.parse_index()
                self.expect(";")
                jets = [self.parse_index()]
                while self.peek().kind in ("int", "name"):
                    jets.append(self.parse_index())
                self.expect("]")
                return ("jet", a_idx, jets, token)
            if self.peek().kind == "[":
                self.advance()
                i_idx = self.parse_index()
                j_idx = self.parse_index()
                self.expect("]")
                return ("metric", name, i_idx, j_idx, token)
            # bare identifier: a bound sum index used as a value
            return ("index_value", name, token)
        raise ProblemSyntaxError(
            f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of input",
            token.line,
            token.column,
            expected=["a number", "'('", "'x'", "'y'", "'z'", "'sum'", "a metric name"],
        )

    def parse_index(self):
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return ("int", _int_value(token), token)
        if token.kind == "name":
            self.advance()
            return ("name", token.text, token)
        raise ProblemSyntaxError(
            f"unexpected {token.text!r}", token.line, token.column,
            expected=["an index (integer or bound name)"],
        )

    # -- vector fields ---------------------------------------------------------

    def parse_vector_field(self):
        terms = [(1, self.parse_vector_term())]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.parse_vector_term()))
        return terms

    def parse_vector_term(self):
        """``product * dx[i]``, ``product * dy[a]`` or a bare basis vector,
        whose product is 1."""
        coefficient = ("num", Fraction(1))
        if self.peek().text not in ("dx", "dy"):
            coefficient = self.parse_product()
            self.expect("*", "'*'")
        token = self.advance()
        self.expect("[")
        idx, _ = self.expect_int("an index")
        self.expect("]")
        return (coefficient, token.text, idx, token)


# -- elaboration --------------------------------------------------------------


def _in_range(label: str, value: int, bound: int, token: _Token) -> int:
    """``value`` when it lies in 1..bound; otherwise an error at ``token``."""
    if not 1 <= value <= bound:
        raise ProblemSemanticError(
            f"{label} {value} out of range 1..{bound}", token.line, token.column
        )
    return value


class _Elaborator:
    def __init__(self, cfg: JetConfig, metric_asts: dict):
        self.cfg = cfg
        self.metrics = {}
        # every entry is evaluated before any metric is registered, so an
        # entry that names a metric names an unknown one
        def entry(at: _Token, node) -> Fraction:
            return _constant(self.eval_expr(node, {}), "metric entries must be constant", at)

        matrices = {
            name: (token, tuple(tuple(entry(*e) for e in row) for row in rows))
            for name, (token, rows) in metric_asts.items()
        }
        for name, (token, matrix) in matrices.items():
            size = len(matrix)
            if size not in (cfg.m, cfg.n):
                sizes = " or ".join(f"{s}x{s}" for s in dict.fromkeys((cfg.m, cfg.n)))
                raise ProblemSemanticError(
                    f"metric {name!r} is {size}x{size}; expected {sizes}",
                    token.line,
                    token.column,
                )
            for i in range(size):
                for j in range(size):
                    if matrix[i][j] != matrix[j][i]:
                        raise ProblemSemanticError(
                            f"metric {name!r} is not symmetric",
                            token.line,
                            token.column,
                        )
            if _determinant(matrix) == 0:
                raise ProblemSemanticError(
                    f"metric {name!r} is singular", token.line, token.column
                )
            self.metrics[name] = matrix

    def build(
        self, lagrangian_ast, field_asts, skew_asts, section_asts, grid, evolve, grid_at
    ):
        cfg = self.cfg
        lagrangian = self.eval_expr(lagrangian_ast, {})
        fields = {}
        for name, (token, terms) in field_asts.items():
            fields[name] = self.eval_vector_field(name, token, terms)
        skew = {}
        for (a, i1, i2), (token, ast) in skew_asts.items():
            _in_range("skewQ field index", a, cfg.n, token)
            for idx in (i1, i2):
                _in_range("skewQ base index", idx, cfg.m, token)
            if cfg.k != 2:
                raise ProblemSemanticError(
                    "skewQ perturbations are defined for k = 2 problems",
                    token.line,
                    token.column,
                )
            skew[(a, i1, i2)] = self.eval_expr(ast, {})
        sections = {}
        for name, (token, comp_asts) in section_asts.items():
            if len(comp_asts) != cfg.n:
                raise ProblemSemanticError(
                    f"section {name!r} has {len(comp_asts)} components; "
                    f"expected {cfg.n}",
                    token.line,
                    token.column,
                )
            comps = []
            for ast in comp_asts:
                comp = self.eval_expr(ast, {})
                if any(c[0] != "x" for c in comp.variables()):
                    raise ProblemSemanticError(
                        f"section {name!r} components must depend on x only",
                        token.line,
                        token.column,
                    )
                comps.append(comp)
            sections[name] = PolynomialSection(cfg, tuple(comps))
        return ProblemSpec(
            cfg=cfg,
            metrics=self.metrics,
            lagrangian=lagrangian,
            fields=fields,
            skew=skew,
            sections=sections,
            grid=grid,
            evolve=evolve,
            grid_at=grid_at,
        )

    def eval_index(self, node, env) -> int:
        kind = node[0]
        if kind == "int":
            return node[1]
        name, token = node[1], node[2]
        if name not in env:
            raise ProblemSemanticError(
                f"unbound index variable {name!r}", token.line, token.column
            )
        return env[name]

    def eval_expr(self, node, env) -> Expr:
        kind = node[0]
        if kind == "num":
            return Expr.constant(node[1])
        # loops rather than generators, so that one level of nesting in the
        # input is one frame here
        if kind == "add":
            terms = []
            for term in node[1]:
                terms.append(self.eval_expr(term, env))
            return Expr.sum(terms)
        if kind == "neg":
            return -self.eval_expr(node[1], env)
        if kind == "product":
            value = self.eval_expr(node[1], env)
            for op, factor_node in node[2]:
                factor = self.eval_expr(factor_node, env)
                if op.kind == "*":
                    value = value * factor
                    continue
                constant = _constant(factor, "division is only allowed by constants", op)
                if constant == 0:
                    raise ProblemSemanticError("division by zero", op.line, op.column)
                value = value / constant
            return value
        if kind == "pow":
            _, base_node, exponent, token = node
            base = self.eval_expr(base_node, env)
            degree = exponent * base.degree()
            if degree > _MAX_DEGREE:
                raise ProblemSemanticError(
                    f"power of degree {degree} exceeds {_MAX_DEGREE}", token.line, token.column
                )
            return base**exponent
        if kind == "sum":
            _, var, lo, hi, body, token = node
            terms = []
            for value in range(lo, hi + 1):
                terms.append(self.eval_expr(body, {**env, var: value}))
            return Expr.sum(terms)
        if kind == "coord1":
            _, name, idx_node, token = node
            bound = self.cfg.m if name == "x" else self.cfg.n
            idx = _in_range(f"{name} index", self.eval_index(idx_node, env), bound, token)
            coord = base_coord(idx) if name == "x" else field_coord(idx)
            return Expr.variable(coord)
        if kind == "jet":
            _, a_node, jet_nodes, token = node
            a = _in_range("field index", self.eval_index(a_node, env), self.cfg.n, token)
            indices = [self.eval_index(j, env) for j in jet_nodes]
            for idx in indices:
                _in_range("jet index", idx, self.cfg.m, token)
            if len(indices) > self.cfg.k:
                raise ProblemSemanticError(
                    f"jet order {len(indices)} > k = {self.cfg.k}",
                    token.line,
                    token.column,
                )
            return Expr.variable(jet_coord(a, indices))
        if kind == "metric":
            _, name, i_node, j_node, token = node
            matrix = self.metrics.get(name)
            if matrix is None:
                raise ProblemSemanticError(
                    f"unknown metric {name!r}", token.line, token.column
                )
            i = self.eval_index(i_node, env)
            j = self.eval_index(j_node, env)
            for idx in (i, j):
                _in_range("metric index", idx, len(matrix), token)
            return Expr.constant(matrix[i - 1][j - 1])
        if kind == "index_value":
            _, name, token = node
            if name not in env:
                raise ProblemSemanticError(
                    f"unbound identifier {name!r}", token.line, token.column
                )
            return Expr.constant(env[name])
        raise AssertionError(f"unhandled AST node {kind!r}")

    def eval_vector_field(self, name, at: _Token, terms) -> ProjectableField:
        cfg = self.cfg
        base = [Expr.zero() for _ in range(cfg.m)]
        vertical = [Expr.zero() for _ in range(cfg.n)]
        for sign, (coefficient, which, idx, token) in terms:
            coeff = sign * self.eval_expr(coefficient, {})
            target = base if which == "dx" else vertical
            _in_range(f"{which} index", idx, len(target), token)
            target[idx - 1] = target[idx - 1] + coeff
        try:
            return ProjectableField(cfg, tuple(base), tuple(vertical))
        except ValueError as exc:
            raise ProblemSemanticError(
                f"field {name!r}: {exc}", at.line, at.column
            )


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


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem file."""
    return _Parser(text).parse_problem()

