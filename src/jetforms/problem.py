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
is permitted by (nonzero) constants only.  Jet indices are canonicalized on
parse.  Every syntax error carries a line/column position and the expected
tokens; semantic errors (index ranges, order overflow, asymmetric metrics,
duplicate declarations) point at the offending token.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .expressions import Expr, PolynomialSection, render_expr
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


@dataclass
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

    def __eq__(self, other):
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return (
            self.cfg == other.cfg
            and self.metrics == other.metrics
            and self.lagrangian == other.lagrangian
            and {k: v.base_components for k, v in self.fields.items()}
            == {k: v.base_components for k, v in other.fields.items()}
            and {k: v.vertical_components for k, v in self.fields.items()}
            == {k: v.vertical_components for k, v in other.fields.items()}
            and self.skew == other.skew
            and {k: v.components for k, v in self.sections.items()}
            == {k: v.components for k, v in other.sections.items()}
            and self.grid == other.grid
            and self.evolve == other.evolve
        )


# -- tokenizer ----------------------------------------------------------------

_PUNCT = {";", ",", "=", "(", ")", "[", "]", "+", "-", "*", "/", "^"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "int" | "float" | punctuation | "end"
    text: str
    line: int
    column: int


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
        if ch.isdigit() or (
            ch == "." and i + 1 < len(text) and text[i + 1].isdigit()
        ):
            j = i
            seen_dot = seen_exp = False
            while j < len(text):
                c = text[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    if j + 1 < len(text) and (
                        text[j + 1].isdigit() or text[j + 1] in "+-"
                    ):
                        seen_exp = True
                        j += 2 if text[j + 1] in "+-" else 1
                    else:
                        break
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
        return int(token.text), token

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
        return sign * float(token.text)

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
        while self.peek().kind != "end":
            token = self.expect("name", "a statement keyword")
            word = token.text
            if word == "dims":
                if dims is not None:
                    raise ProblemSemanticError(
                        "duplicate dims declaration", token.line, token.column
                    )
                m, _ = self.expect_int("m")
                n, _ = self.expect_int("n")
                k, _ = self.expect_int("k")
                try:
                    dims = JetConfig(m, n, k)
                except ValueError as exc:
                    raise ProblemSemanticError(str(exc), token.line, token.column)
            elif word == "metric":
                name = self.expect("name", "a metric name").text
                if name in metrics:
                    raise ProblemSemanticError(
                        f"duplicate metric {name!r}", token.line, token.column
                    )
                self.expect("=")
                metrics[name] = (token, self.parse_matrix(token))
            elif word == "L":
                if lagrangian_ast is not None:
                    raise ProblemSemanticError(
                        "duplicate Lagrangian", token.line, token.column
                    )
                self.expect("=")
                lagrangian_ast = self.parse_expr()
            elif word == "field":
                name = self.expect("name", "a field name").text
                if name in field_asts:
                    raise ProblemSemanticError(
                        f"duplicate field {name!r}", token.line, token.column
                    )
                self.expect("=")
                field_asts[name] = (token, self.parse_vector_field())
            elif word == "skewQ":
                key_token = token
                self.expect("[")
                a, _ = self.expect_int("a field index")
                self.expect(";")
                i1, _ = self.expect_int("a base index")
                i2, _ = self.expect_int("a base index")
                self.expect("]")
                self.expect("=")
                if (a, i1, i2) in skew_asts:
                    raise ProblemSemanticError(
                        f"duplicate skewQ[{a}; {i1} {i2}]",
                        key_token.line,
                        key_token.column,
                    )
                skew_asts[(a, i1, i2)] = (key_token, self.parse_expr())
            elif word == "section":
                name = self.expect("name", "a section name").text
                if name in section_asts:
                    raise ProblemSemanticError(
                        f"duplicate section {name!r}", token.line, token.column
                    )
                self.expect("=")
                self.expect("(")
                comps = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.advance()
                    comps.append(self.parse_expr())
                self.expect(")")
                section_asts[name] = (token, comps)
            elif word == "grid":
                if grid is not None:
                    raise ProblemSemanticError(
                        "duplicate grid declaration", token.line, token.column
                    )
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
                if evolve is not None:
                    raise ProblemSemanticError(
                        "duplicate evolve declaration", token.line, token.column
                    )
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
            lagrangian_ast, field_asts, skew_asts, section_asts, grid, evolve
        )

    def parse_matrix(self, at: _Token):
        token = self.peek()
        rows = []
        if token.kind == "name" and token.text == "diag":
            self.advance()
            self.expect("(")
            entries = [self.parse_rational()]
            while self.peek().kind == ",":
                self.advance()
                entries.append(self.parse_rational())
            self.expect(")")
            size = len(entries)
            rows = [
                tuple(entries[i] if i == j else Fraction(0) for j in range(size))
                for i in range(size)
            ]
            return tuple(rows)
        self.expect("[", "'diag' or '['")
        while True:
            self.expect("[")
            row = [self.parse_rational()]
            while self.peek().kind == ",":
                self.advance()
                row.append(self.parse_rational())
            self.expect("]")
            rows.append(tuple(row))
            if self.peek().kind != ",":
                break
            self.advance()
        self.expect("]")
        if any(len(row) != len(rows) for row in rows):
            raise ProblemSemanticError("metric matrix is not square", at.line, at.column)
        return tuple(rows)

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        num, _ = self.expect_int("a rational number")
        if self.peek().kind == "/":
            self.advance()
            den, den_token = self.expect_int("a denominator")
            if den == 0:
                raise ProblemSemanticError(
                    "zero denominator", den_token.line, den_token.column
                )
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # -- expressions (to AST) -------------------------------------------------

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = (op, node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_factor()
            node = ("mul" if op.kind == "*" else "div", node, rhs, op)
        return node

    def parse_factor(self):
        token = self.peek()
        if token.kind in ("+", "-"):
            self.advance()
            inner = self.parse_factor()
            return inner if token.kind == "+" else ("neg", inner)
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            exp_token = self.peek()
            exponent, _ = self.expect_int("a non-negative integer exponent")
            if exponent < 0:
                raise ProblemSemanticError(
                    "exponents must be non-negative", exp_token.line, exp_token.column
                )
            node = ("pow", node, exponent)
        return node

    def parse_atom(self):
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return ("num", Fraction(int(token.text)))
        if token.kind == "float":
            raise ProblemSyntaxError(
                "decimal literals are not allowed in expressions; use rationals",
                token.line,
                token.column,
                expected=["an integer"],
            )
        if token.kind == "(":
            self.advance()
            node = self.parse_expr()
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
                body = self.parse_expr()
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
            return ("int", int(token.text), token)
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
        factors = []
        while True:
            token = self.peek()
            if token.kind == "name" and token.text in ("dx", "dy"):
                self.advance()
                self.expect("[")
                idx, idx_token = self.expect_int("an index")
                self.expect("]")
                return (factors, token.text, idx, token)
            factors.append(self.parse_factor())
            op = self.peek()
            if op.kind != "*":
                raise ProblemSyntaxError(
                    f"unexpected {op.text!r}", op.line, op.column,
                    expected=["'*'", "'dx'", "'dy'"],
                )
            self.advance()


# -- elaboration --------------------------------------------------------------


class _Elaborator:
    def __init__(self, cfg: JetConfig, metric_asts: dict):
        self.cfg = cfg
        self.metrics = {}
        for name, (token, matrix) in metric_asts.items():
            size = len(matrix)
            if size not in (cfg.m, cfg.n):
                raise ProblemSemanticError(
                    f"metric {name!r} is {size}x{size}; expected "
                    f"{cfg.m}x{cfg.m} or {cfg.n}x{cfg.n}",
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

    def build(self, lagrangian_ast, field_asts, skew_asts, section_asts, grid, evolve):
        cfg = self.cfg
        lagrangian = self.eval_expr(lagrangian_ast, {})
        order = lagrangian.jet_order()
        if order > cfg.k:
            raise ProblemSemanticError(
                f"Lagrangian has jet order {order} > k = {cfg.k}", 1, 1
            )
        fields = {}
        for name, (token, terms) in field_asts.items():
            fields[name] = self.eval_vector_field(name, token, terms)
        skew = {}
        for (a, i1, i2), (token, ast) in skew_asts.items():
            if not 1 <= a <= cfg.n:
                raise ProblemSemanticError(
                    f"skewQ field index {a} out of range 1..{cfg.n}",
                    token.line,
                    token.column,
                )
            for idx in (i1, i2):
                if not 1 <= idx <= cfg.m:
                    raise ProblemSemanticError(
                        f"skewQ base index {idx} out of range 1..{cfg.m}",
                        token.line,
                        token.column,
                    )
            if cfg.k != 2:
                raise ProblemSemanticError(
                    "skewQ perturbations are defined for k = 2 problems",
                    token.line,
                    token.column,
                )
            value = self.eval_expr(ast, {})
            if value.jet_order() > cfg.k:
                raise ProblemSemanticError(
                    f"skewQ value has jet order {value.jet_order()} > {cfg.k}",
                    token.line,
                    token.column,
                )
            skew[(a, i1, i2)] = value
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
        if kind == "+":
            return self.eval_expr(node[1], env) + self.eval_expr(node[2], env)
        if kind == "-":
            return self.eval_expr(node[1], env) - self.eval_expr(node[2], env)
        if kind == "neg":
            return -self.eval_expr(node[1], env)
        if kind == "mul":
            return self.eval_expr(node[1], env) * self.eval_expr(node[2], env)
        if kind == "div":
            denominator = self.eval_expr(node[2], env)
            token = node[3]
            constant = denominator.constant_term()
            if denominator != Expr.constant(constant):
                raise ProblemSemanticError(
                    "division is only allowed by constants", token.line, token.column
                )
            if constant == 0:
                raise ProblemSemanticError(
                    "division by zero", token.line, token.column
                )
            return self.eval_expr(node[1], env) / Fraction(constant)
        if kind == "pow":
            return self.eval_expr(node[1], env) ** node[2]
        if kind == "sum":
            _, var, lo, hi, body, token = node
            return Expr.sum(
                self.eval_expr(body, {**env, var: value}) for value in range(lo, hi + 1)
            )
        if kind == "coord1":
            _, name, idx_node, token = node
            idx = self.eval_index(idx_node, env)
            bound = self.cfg.m if name == "x" else self.cfg.n
            if not 1 <= idx <= bound:
                raise ProblemSemanticError(
                    f"{name} index {idx} out of range 1..{bound}",
                    token.line,
                    token.column,
                )
            coord = base_coord(idx) if name == "x" else field_coord(idx)
            return Expr.variable(coord)
        if kind == "jet":
            _, a_node, jet_nodes, token = node
            a = self.eval_index(a_node, env)
            if not 1 <= a <= self.cfg.n:
                raise ProblemSemanticError(
                    f"field index {a} out of range 1..{self.cfg.n}",
                    token.line,
                    token.column,
                )
            indices = [self.eval_index(j, env) for j in jet_nodes]
            for idx in indices:
                if not 1 <= idx <= self.cfg.m:
                    raise ProblemSemanticError(
                        f"jet index {idx} out of range 1..{self.cfg.m}",
                        token.line,
                        token.column,
                    )
            if len(indices) > self.cfg.k:
                raise ProblemSemanticError(
                    f"jet order {len(indices)} > k = {self.cfg.k}",
                    token.line,
                    token.column,
                )
            return Expr.variable(jet_coord(a, tuple(sorted(indices))))
        if kind == "metric":
            _, name, i_node, j_node, token = node
            matrix = self.metrics.get(name)
            if matrix is None:
                raise ProblemSemanticError(
                    f"unknown metric {name!r}", token.line, token.column
                )
            i = self.eval_index(i_node, env)
            j = self.eval_index(j_node, env)
            size = len(matrix)
            for idx in (i, j):
                if not 1 <= idx <= size:
                    raise ProblemSemanticError(
                        f"metric index {idx} out of range 1..{size}",
                        token.line,
                        token.column,
                    )
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
        for sign, (factor_asts, which, idx, token) in terms:
            coeff = Expr.constant(sign)
            for ast in factor_asts:
                coeff = coeff * self.eval_expr(ast, {})
            if which == "dx":
                if not 1 <= idx <= cfg.m:
                    raise ProblemSemanticError(
                        f"dx index {idx} out of range 1..{cfg.m}",
                        token.line,
                        token.column,
                    )
                base[idx - 1] = base[idx - 1] + coeff
            else:
                if not 1 <= idx <= cfg.n:
                    raise ProblemSemanticError(
                        f"dy index {idx} out of range 1..{cfg.n}",
                        token.line,
                        token.column,
                    )
                vertical[idx - 1] = vertical[idx - 1] + coeff
        try:
            return ProjectableField(cfg, tuple(base), tuple(vertical))
        except ValueError as exc:
            raise ProblemSemanticError(
                f"field {name!r}: {exc}", at.line, at.column
            )


def _determinant(matrix) -> Fraction:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(size):
        minor = tuple(
            tuple(row[:j] + row[j + 1 :]) for row in matrix[1:]
        )
        term = matrix[0][j] * _determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem file."""
    return _Parser(text).parse_problem()


def _render_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_problem(spec: ProblemSpec) -> str:
    """Deterministic rendering; parsing it back reproduces the spec."""
    lines = [f"dims {spec.cfg.m} {spec.cfg.n} {spec.cfg.k};"]
    for name in sorted(spec.metrics):
        rows = ", ".join(
            "[" + ", ".join(_render_rational(v) for v in row) + "]"
            for row in spec.metrics[name]
        )
        lines.append(f"metric {name} = [{rows}];")
    lines.append(f"L = {render_expr(spec.lagrangian)};")
    for name in sorted(spec.fields):
        f = spec.fields[name]
        chunks = []
        for i, comp in enumerate(f.base_components, start=1):
            if not comp.is_zero:
                chunks.append(f"({render_expr(comp)})*dx[{i}]")
        for a, comp in enumerate(f.vertical_components, start=1):
            if not comp.is_zero:
                chunks.append(f"({render_expr(comp)})*dy[{a}]")
        lines.append(f"field {name} = {' + '.join(chunks) if chunks else '0*dx[1]'};")
    for (a, i1, i2) in sorted(spec.skew):
        lines.append(
            f"skewQ[{a}; {i1} {i2}] = {render_expr(spec.skew[(a, i1, i2)])};"
        )
    for name in sorted(spec.sections):
        comps = ", ".join(
            render_expr(comp) for comp in spec.sections[name].components
        )
        lines.append(f"section {name} = ({comps});")
    if spec.grid is not None:
        parts = []
        for lo, hi, count, periodic in spec.grid.axes:
            flag = "periodic" if periodic else "open"
            parts.append(f"{lo!r} {hi!r} {count} {flag}")
        lines.append("grid " + "  ".join(parts) + ";")
    if spec.evolve is not None:
        t0, t1, steps = spec.evolve
        lines.append(f"evolve {t0!r} {t1!r} {steps};")
    return "\n".join(lines) + "\n"
