import importlib.resources
import importlib.util
import itertools
import math
import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforms.dedonder import derive, perturbed_coefficients
from jetforms.expressions import Expr, render_expr, render_rational, x_var, y_var, z_var
from jetforms.jets import JetConfig
from jetforms.problem import (
    ProblemError,
    ProblemSemanticError,
    ProblemSpec,
    ProblemSyntaxError,
    _determinant,
    _position,
    _tokenize,
    parse_problem,
)
from tests.support import (
    coefficient,
    minors_determinant,
    reference_parse_problem,
    reference_tokenize,
)

MINIMAL = "dims 1 1 1; L = (1/2)*z[1;1]^2;"


def wave_text():
    return (
        importlib.resources.files("jetforms")
        .joinpath("fixtures/fourth_order_wave.jet")
        .read_text()
    )


def render_problem(spec: ProblemSpec) -> str:
    """Deterministic rendering; parsing it back reproduces the spec."""
    lines = [f"dims {spec.cfg.m} {spec.cfg.n} {spec.cfg.k};"]
    for name in sorted(spec.metrics):
        rows = ", ".join(
            "[" + ", ".join(render_rational(v) for v in row) + "]"
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
    for (a, i1, (i2,)), value in sorted(spec.skew.items()):
        lines.append(f"skewQ[{a}; {i1} {i2}] = {render_expr(value)};")
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


def problem_data(spec: ProblemSpec) -> dict:
    """The fields of a spec in a form ``==`` compares by value; a section
    compares by its components, and the positions of the grid and Lagrangian
    keywords, which move when a spec is rendered again, are left out."""
    sections = {name: section.components for name, section in spec.sections.items()}
    data = {**vars(spec), "sections": sections}
    del data["grid_at"], data["lagrangian_at"]
    return data


def test_minimal_problem():
    spec = parse_problem(MINIMAL)
    assert spec.cfg == JetConfig(1, 1, 1)
    assert spec.lagrangian == z_var(1, (1,)) ** 2 / 2
    assert not spec.fields and not spec.skew and spec.grid is None


def test_wave_fixture_parses():
    spec = parse_problem(wave_text())
    assert spec.cfg == JetConfig(2, 2, 2)
    # the contraction expands to (z_tt - z_xx)^2 with the metric signs
    box1 = z_var(1, (1, 1)) - z_var(1, (2, 2))
    box2 = z_var(2, (1, 1)) - z_var(2, (2, 2))
    assert spec.lagrangian == box1 * box1 - box2 * box2
    assert sorted(spec.fields) == ["YL", "YS", "YT"]
    assert len(spec.skew) == 4
    assert spec.grid is not None and spec.evolve == (0.0, 1.0, 8)


def test_the_fixtures_skew_data_is_the_top_level_data_the_solver_takes():
    # skewQ[a; i1 i2] is keyed (a, i1, (i2,)), the top-level key of
    # perturbed_coefficients, which takes the parsed data as it is
    spec = parse_problem(wave_text())
    q1, q2 = z_var(1, (2,)), z_var(2, (2,))
    assert spec.skew == {
        (1, 1, (2,)): q1, (1, 2, (1,)): -q1, (2, 1, (2,)): q2, (2, 2, (1,)): -q2,
    }
    derivation = derive(spec.cfg, spec.lagrangian)
    symmetric = derivation.boundary_symmetric.coefficients
    alt = perturbed_coefficients(derivation.decomposition, spec.skew)
    shifts = {key: coefficient(alt, *key) - coefficient(symmetric, *key) for key in spec.skew}
    assert shifts == spec.skew


def test_a_zero_skew_value_is_kept_and_gives_the_table_of_the_line_left_out():
    # a zero reaches the solve, whose top-level filter drops it: no part of
    # the skew table stores it
    derivation = derive(JetConfig(2, 1, 2), z_var(1, (1, 1)) ** 2)
    base = "dims 2 1 2; L = z[1;1 1]^2;\n"
    pair = "skewQ[1; 1 2] = y[1]; skewQ[1; 2 1] = -y[1];\n"
    zeros = "skewQ[1; 1 1] = 0; skewQ[1; 2 2] = 0*z[1; 2];\n"
    for without in (base, base + pair):
        spec = parse_problem(without + zeros)
        assert spec.skew[(1, 1, (1,))].is_zero and spec.skew[(1, 2, (2,))].is_zero
        coefficients = derivation.skew_boundary(spec.skew).coefficients
        assert not any(value.is_zero for part in coefficients.parts()
                       for value in part.table.values())
        left_out = derivation.skew_boundary(parse_problem(without).skew).coefficients
        assert coefficients.table == left_out.table


def test_jet_indices_canonicalized_on_parse():
    spec = parse_problem("dims 2 1 2; L = z[1;2 1];")
    assert spec.lagrangian == z_var(1, (1, 2))


VALID_FIXTURES = [
    MINIMAL,
    "dims 2 1 2; L = z[1;1 1]*z[1;2 2] - y[1]^2;",
    "dims 1 2 1; L = z[1;1]*z[2;1]; field V = y[2]*dy[1] - y[1]*dy[2];",
    "dims 2 1 2; metric g = diag(2, 1); L = sum(i,1,2, sum(j,1,2, g[i j]*z[1;i j]));",
    "dims 2 1 2; L = z[1;1 2]; skewQ[1; 1 2] = y[1]; skewQ[1; 2 1] = -y[1];",
    "dims 1 1 2; L = z[1;1 1]^2; section s = (x[1]^4 - 2*x[1]);",
    "dims 1 1 1; L = z[1;1]^2; grid 0 6.28 64 periodic; evolve 0 1 4;",
    "dims 2 2 2; L = z[1;1 1] + z[2;1 2]; field T = dx[1] + x[1]*dx[2];",
]


def test_round_trip_property():
    for text in VALID_FIXTURES + [wave_text()]:
        spec = parse_problem(text)
        rendered = render_problem(spec)
        again = parse_problem(rendered)
        assert problem_data(again) == problem_data(spec), text
        # rendering is a fixed point (byte-identical the second time)
        assert render_problem(again) == rendered


SEM, SYN = ProblemSemanticError, ProblemSyntaxError
ATOM = ("a number", "'('", "'x'", "'y'", "'z'", "'sum'", "a metric name")
KEYWORDS = (
    "'dims'", "'metric'", "'L'", "'field'", "'skewQ'", "'section'", "'grid'", "'evolve'",
)

# (source, error class, str(error) with its line:column prefix, expected tokens)
# the eight coordinates of dims 2 2 1, summed
EIGHT_TERMS = "(x[1]+x[2]+y[1]+y[2]+z[1;1]+z[1;2]+z[2;1]+z[2;2])"


def _linear(count):
    """The sum of the first ``count`` of the 63 coordinates of dims 3 3 3."""
    names = [f"{v}[{i}]" for v in "xy" for i in (1, 2, 3)] + [
        f"z[{a};{' '.join(map(str, I))}]"
        for order in (1, 2, 3) for a in (1, 2, 3)
        for I in itertools.combinations_with_replacement((1, 2, 3), order)
    ]
    return "(" + "+".join(names[:count]) + ")"


# 990 terms of degree 2 times 1140 of degree 3, 1128600 pairs
PAIRS_PAST_THE_BOUND = f"dims 3 3 3; L = {_linear(44)}^2*{_linear(18)}^3;"

MALFORMED = [
    ("dims 0 1 1; L = y[1];", SEM,  # bad m
     "1:1: need at least one independent variable, got m=0", ()),
    ("dims 1 1; L = y[1];", SYN,  # missing k
     "1:9: unexpected ';' (expected k)", ("k",)),
    ("dims 1 1 1 L = y[1];", SYN,  # missing semicolon
     "1:12: unexpected 'L' (expected ;)", (";",)),
    ("L = y[1];", SEM,  # missing dims (reported at end)
     "1:10: missing dims declaration", ()),
    ("dims 1 1 1;", SEM,  # missing Lagrangian
     "1:12: missing Lagrangian", ()),
    ("dims 1 1 1; L = ;", SYN,  # empty expression
     "1:17: unexpected ';' (expected a number or '(' or 'x' or 'y' or 'z' or 'sum' or "
     "a metric name)", ATOM),
    ("dims 1 1 1; L = y[1] + ;", SYN,  # dangling operator
     "1:24: unexpected ';' (expected a number or '(' or 'x' or 'y' or 'z' or 'sum' or "
     "a metric name)", ATOM),
    ("dims 1 1 1; L = y[2];", SEM,  # field index out of range
     "1:17: y index 2 out of range 1..1", ()),
    ("dims 1 1 1; L = x[2];", SEM,  # base index out of range
     "1:17: x index 2 out of range 1..1", ()),
    ("dims 2 1 2; L = z[1;1 1 1];", SEM,  # jet order overflow
     "1:17: jet order 3 > k = 2", ()),
    ("dims 1 1 1; L = z[1;3];", SEM,  # jet index out of range
     "1:17: jet index 3 out of range 1..1", ()),
    ("dims 1 1 1; L = y[1]^-2;", SYN,  # negative exponent
     "1:22: unexpected '-' (expected a non-negative integer exponent)",
     ("a non-negative integer exponent",)),
    ("dims 1 1 1; L = y[1]/y[1];", SEM,  # non-constant division
     "1:21: division is only allowed by constants", ()),
    ("dims 1 1 1; L = y[1]/0;", SEM,  # division by zero
     "1:21: division by zero", ()),
    ("dims 1 1 1; L = 1.5*y[1];", SYN,  # decimal literal in expression
     "1:17: decimal literals are not allowed in expressions; use rationals (expected "
     "an integer)", ("an integer",)),
    ("dims 1 1 1; L = q[1];", SYN,  # metric references need two indices
     "1:20: unexpected ']' (expected an index (integer or bound name))",
     ("an index (integer or bound name)",)),
    ("dims 1 1 1; L = sum(i,1,2, z[1;j]);", SEM,  # unbound index
     "1:32: unbound index variable 'j'", ()),
    ("dims 1 1 1; metric g = diag(1); metric g = diag(1); L = y[1];", SEM,  # duplicate metric
     "1:33: duplicate metric 'g'", ()),
    ("dims 1 1 1; metric g = [[1, 2], [3, 4]]; L = y[1];", SEM,  # wrong size, m = n
     "1:13: metric 'g' is 2x2; expected 1x1", ()),
    ("dims 2 3 1; metric g = diag(1); L = y[1];", SEM,  # wrong size, m != n
     "1:13: metric 'g' is 1x1; expected 2x2 or 3x3", ()),
    ("dims 2 2 1; metric g = [[1, 2], [3, 4]]; L = y[1];", SEM,  # asymmetric
     "1:13: metric 'g' is not symmetric", ()),
    ("dims 1 1 1; metric g = diag(0); L = y[1];", SEM,  # singular
     "1:13: metric 'g' is singular", ()),
    ("dims 2 2 2; metric g = diag(1, -1, 1); L = y[1];", SEM,  # wrong size
     "1:13: metric 'g' is 3x3; expected 2x2", ()),
    ("dims 1 1 1; L = y[1]; L = y[1];", SEM,  # duplicate Lagrangian
     "1:23: duplicate Lagrangian", ()),
    ("dims 2 1 2; L = y[1]; skewQ[1; 1 2] = z[1;1 1 1];", SEM,  # skew order
     "1:39: jet order 3 > k = 2", ()),
    ("dims 1 1 1; L = y[1]; skewQ[1; 1 1] = y[1];", SEM,  # skew needs k=2
     "1:23: skewQ perturbations are defined for k = 2 problems", ()),
    ("dims 1 1 1; L = y[1]; field F = y[1]*dx[1];", SEM,  # base comp in y
     "1:23: field 'F': base components must depend on x only", ()),
    ("dims 1 1 1; L = y[1]; field F = z[1;1]*dy[1];", SEM,  # z coefficient
     "1:23: field 'F': vertical components must depend on (x, y) only", ()),
    ("dims 1 1 1; L = y[1]; section s = (x[1], x[1]);", SEM,  # arity
     "1:23: section 's' has 2 components; expected 1", ()),
    ("dims 1 1 1; L = y[1]; section s = (y[1]);", SEM,  # y in section
     "1:23: section 's' components must depend on x only", ()),
    ("dims 1 1 1; L = y[1]; grid 0 1 4 open;", SEM,  # too few points
     "1:23: grids need at least 8 points per axis, got 4", ()),
    ("dims 1 1 1; L = y[1]; grid ;", SEM,  # no axis
     "1:23: grids need at least one axis", ()),
    ("dims 1 1 1; L = y[1]; grid 0 1 16 sideways;", SYN,  # bad flag
     "1:35: unexpected 'sideways' (expected 'periodic' or 'open')", ("'periodic'", "'open'")),
    ("dims 1 1 1; L = y[1]; evolve 0 1 0;", SEM,  # zero steps
     "1:34: step count must be positive", ()),
    ("dims 1 1 1; L = y[1]; evolve 0 1e999 4;", SEM,  # infinite end time
     "1:32: number 1e999 is not finite", ()),
    ("dims 1 1 1; L = y[1]; grid 0 1e999 16 periodic;", SEM,  # infinite bound
     "1:30: number 1e999 is not finite", ()),
    ("dims 1 1 1; L = y[1]; bogus 1;", SYN,  # unknown statement
     "1:23: unexpected 'bogus' (expected 'dims' or 'metric' or 'L' or 'field' or "
     "'skewQ' or 'section' or 'grid' or 'evolve')", KEYWORDS),
    ("dims 1 1 1; L = y[1]; field F = dx[1] dx[1];", SYN,  # missing +
     "1:39: unexpected 'dx' (expected ;)", (";",)),
    ("dims 1 1 1; L = (y[1];", SYN,  # unbalanced parenthesis
     "1:22: unexpected ';' (expected ))", (")",)),
    ("dims 1 1 1; L = y[1]; ?", SYN,  # stray character
     "1:23: unexpected character '?'", ()),
    ("dims 1 1 1; dims 1 1 1; L = y[1];", SEM,  # duplicate dims
     "1:13: duplicate dims declaration", ()),
    ("dims 1 1 1; L = y[1]; field F = dx[1]; field F = dx[1];", SEM,  # duplicate field
     "1:40: duplicate field 'F'", ()),
    ("dims 1 1 1; L = y[1]; section s = (x[1]); section s = (x[1]);", SEM,  # duplicate section
     "1:43: duplicate section 's'", ()),
    ("dims 2 1 2; L = y[1]; skewQ[1; 1 2] = y[1]; skewQ[1; 1 2] = y[1];", SEM,  # duplicate skewQ
     "1:45: duplicate skewQ[1; 1 2]", ()),
    # an index is named by its digits, a leading zero left out
    ("dims 2 1 2; L = y[1]; skewQ[1; 01 2] = y[1]; skewQ[1; 1 2] = y[1];", SEM,
     "1:46: duplicate skewQ[1; 1 2]", ()),
    ("dims 1 1 1; L = y[1]; grid 0 1 16 periodic; grid 0 1 16 periodic;", SEM,  # duplicate grid
     "1:45: duplicate grid declaration", ()),
    ("dims 1 1 1; L = y[1]; evolve 0 1 4; evolve 0 1 4;", SEM,  # duplicate evolve
     "1:37: duplicate evolve declaration", ()),
    ("dims 2 1 2; L = y[1]; skewQ[2; 1 2] = y[1];", SEM,  # skewQ field index
     "1:23: skewQ field index 2 out of range 1..1", ()),
    ("dims 2 1 2; L = y[1]; skewQ[1; 3 1] = y[1];", SEM,  # first skewQ base index
     "1:23: skewQ base index 3 out of range 1..2", ()),
    ("dims 2 1 2; L = y[1]; skewQ[1; 1 3] = y[1];", SEM,  # second skewQ base index
     "1:23: skewQ base index 3 out of range 1..2", ()),
    ("dims 1 1 1; metric g = diag(1); L = g[1 2];", SEM,  # second metric index
     "1:37: metric index 2 out of range 1..1", ()),
    ("dims 1 1 1; metric g = diag(1); L = g[2 1];", SEM,  # first metric index
     "1:37: metric index 2 out of range 1..1", ()),
    ("dims 1 1 1; L = y[1]; field F = dx[2];", SEM,  # dx index
     "1:33: dx index 2 out of range 1..1", ()),
    ("dims 1 1 1; L = y[1]; field F = dy[2];", SEM,  # dy index
     "1:33: dy index 2 out of range 1..1", ()),
    ("dims 1 1 1; L = sum(a,1,2, y[a]);", SEM,  # y index bound by sum
     "1:28: y index 2 out of range 1..1", ()),
    ("dims 1 1 1; L = z[2;1];", SEM,  # jet field index
     "1:17: field index 2 out of range 1..1", ()),
    ("dims 2 1 2; L = sum(i,1,3, z[1;1 i]);", SEM,  # jet index bound by sum
     "1:28: jet index 3 out of range 1..2", ()),
    # duplicate before k check
    ("dims 1 1 1; L = y[1]; skewQ[1; 1 1] = y[1]; skewQ[1; 1 1] = y[1];", SEM,
     "1:45: duplicate skewQ[1; 1 1]", ()),
    ("dims 1 1 1; L = y[1]; dims 1 1 1; L = y[2];", SEM,  # first of two errors wins
     "1:23: duplicate dims declaration", ()),
    ("dims 1 1 1; L = y[1]; grid 0 1e+ 16 periodic;", SYN,  # dangling exponent
     "1:31: unexpected 'e' (expected a point count)", ("a point count",)),
    ("dims 1 1 1; L = y[1]; evolve 0 2e- 4;", SYN,  # dangling exponent
     "1:33: unexpected 'e' (expected a step count)", ("a step count",)),
    ("dims 1 1 1; L = y[1]; grid 0 2e 16 periodic;", SYN,  # exponent without digits
     "1:31: unexpected 'e' (expected a point count)", ("a point count",)),
    ("dims 1 1 1; L = 2\u00b2*y[1];", SYN,  # superscript two: a digit to str.isdigit
     "1:18: unexpected character '\u00b2'", ()),
    ("dims 1 1 1; L = \u0663*y[1];", SYN,  # Arabic-Indic three: int() reads it as 3
     "1:17: unexpected character '\u0663'", ()),
    ("dims 1 1 1; L = y[1]; evolve 0 1 \u00b9;", SYN,  # superscript one as a count
     "1:34: unexpected character '\u00b9'", ()),
    ("dims 1 1 1; L = " + "9" * 5000 + "*y[1];", SEM,  # beyond int()'s digit limit
     "1:17: integer of 5000 digits is too long", ()),
    # the 201st opening parenthesis, sign or sum body is one level too deep
    ("dims 1 1 1; L = " + "(" * 300 + "y[1]" + ")" * 300 + ";", SYN,
     "1:217: nesting deeper than 200 levels", ()),
    ("dims 1 1 1; L = " + "-" * 201 + "y[1];", SYN,
     "1:217: nesting deeper than 200 levels", ()),
    ("dims 1 1 1; L = " + "-(" * 101 + "y[1]" + ")" * 101 + ";", SYN,
     "1:217: nesting deeper than 200 levels", ()),
    ("dims 1 1 1; L = " + "sum(i,1,1," * 201 + "y[1]" + ")" * 201 + ";", SYN,
     "1:2017: nesting deeper than 200 levels", ()),
    # a power's degree, its base's times its exponent, is bounded at the exponent
    ("dims 1 1 1; L = z[1;1]^10001;", SEM,
     "1:24: power of degree 10001 exceeds 10000", ()),
    ("dims 1 1 1; L = (x[1]*z[1;1])^5001;", SEM,
     "1:31: power of degree 10002 exceeds 10000", ()),
    # and so is C(e + t - 1, t - 1), the most terms a power e of t terms has
    ("dims 2 2 1; L = " + EIGHT_TERMS + "^10;", SEM,  # 19448 terms, 0.5 s unbounded
     "1:67: power of 8 terms to the 10 may have more than 10000 terms", ()),
    ("dims 2 2 1; L = " + EIGHT_TERMS + "^9;", SEM,  # C(16, 7) = 11440
     "1:67: power of 8 terms to the 9 may have more than 10000 terms", ()),
    ("dims 2 2 1; L = " + EIGHT_TERMS + "^20;", SEM,  # 888030 terms
     "1:67: power of 8 terms to the 20 may have more than 10000 terms", ()),
    ("dims 2 2 1; L = (" + EIGHT_TERMS + "^2)^4;", SEM,  # the base's 36 terms count
     "1:71: power of 36 terms to the 4 may have more than 10000 terms", ()),
    # and so is that bound times the degree, the coordinate factors it holds
    ("dims 1 1 1; L = (x[1]+1)^2236;", SEM,  # 2237 * 2236 factors
     "1:26: power of 2 terms to the 2236 may hold more than 5000000 coordinate factors "
     "in all", ()),
    ("dims 1 1 1; L = (x[1]+1)^9999;", SEM,  # within the term bound, took 4 s
     "1:26: power of 2 terms to the 9999 may hold more than 5000000 coordinate factors "
     "in all", ()),
    # a product forms one monomial per pair of terms, each of up to the sum
    # of the factors' degrees in coordinate factors: both are bounded at the *
    ("dims 1 1 1; L = (x[1]+y[1]+1)^60*(x[1]+y[1]+2)^60*z[1;1]^2;", SEM,  # took 17 s
     "1:33: product of 1891 and 1891 terms forms more than 1000000 pairs of terms", ()),
    (PAIRS_PAST_THE_BOUND, SEM,
     f"1:{PAIRS_PAST_THE_BOUND.index('*') + 1}: product of 990 and 1140 terms forms "
     "more than 1000000 pairs of terms", ()),
    ("dims 2 1 1; L = (x[1]+1)^135*(x[2]+1)^136;", SEM,  # 136 * 137 * 271 factors
     "1:29: product of 136 and 137 terms of degree 271 may hold more than 5000000 "
     "coordinate factors in all", ()),
    ("dims 1 1 1; L = (x[1]+y[1]+1)^30*(x[1]+y[1]+2)^30;", SEM,
     "1:33: product of 496 and 496 terms of degree 60 may hold more than 5000000 "
     "coordinate factors in all", ()),
    # metric entries are expressions with a rational constant value
    ("dims 1 1 1; metric g = diag(x[1]); L = y[1];", SEM,  # non-constant diag entry
     "1:29: metric entries must be constant", ()),
    ("dims 2 1 1; metric g = [[1, y[1]], [y[1], 1]]; L = y[1];", SEM,  # non-constant row entry
     "1:29: metric entries must be constant", ()),
    ("dims 1 1 1; metric g = diag(1/0); L = y[1];", SEM,  # entry divides by zero
     "1:30: division by zero", ()),
    ("dims 1 1 1; metric g = diag(1); metric h = diag(g[1 1]); L = y[1];", SEM,  # names a metric
     "1:49: unknown metric 'g'", ()),
    # a field term's coefficient is a product, with the checks of expressions
    ("dims 1 1 1; L = y[1]; field F = x[1]/0*dx[1];", SEM,
     "1:37: division by zero", ()),
    ("dims 1 1 1; L = y[1]; field F = x[1]/y[1]*dx[1];", SEM,
     "1:37: division is only allowed by constants", ()),
    ("dims 1 1 1; L = y[1]; field F = x[1] dx[1];", SYN,  # product without *
     "1:38: unexpected 'dx' (expected '*')", ("'*'",)),
    # a power's coefficients are bounded by int()'s digit limit at the exponent
    ("dims 1 1 1; L = 7^10000000*y[1];", SEM,  # 8.5 million digits
     "1:19: power exceeds 4300 digits", ()),
    ("dims 1 1 1; L = 7^6000*y[1];", SEM,  # 5071 digits, more than str() renders
     "1:19: power exceeds 4300 digits", ()),
    ("dims 1 1 1; L = (2/7*y[1])^6000;", SEM,  # a denominator, in a monomial
     "1:28: power exceeds 4300 digits", ()),
    # a declared value's coefficients are bounded at its declaration, where
    # products and sums of powers that pass at their exponents are caught
    ("dims 1 1 1; L = 7^4000*7^4000*z[1;1]^2;", SEM,  # a product: 6762 digits
     "1:13: coefficient exceeds 4300 digits", ()),
    ("dims 1 1 1; L = 10^4299*y[1] + 9*10^4299*y[1];", SEM,  # a sum: 10^4300
     "1:13: coefficient exceeds 4300 digits", ()),
    ("dims 1 1 1; L = y[1]/(7^3000*7^3000);", SEM,  # a denominator
     "1:13: coefficient exceeds 4300 digits", ()),
    ("dims 1 1 1; metric g = diag(7^3000*7^3000); L = y[1];", SEM,
     "1:13: coefficient exceeds 4300 digits", ()),
    ("dims 1 1 1; L = y[1]; field F = 7^3000*7^3000*dx[1];", SEM,
     "1:23: coefficient exceeds 4300 digits", ()),
    ("dims 1 1 1; L = y[1]; section s = (7^3000*x[1] + 7^3000*7^3000);", SEM,
     "1:23: coefficient exceeds 4300 digits", ()),
    ("dims 2 1 2; L = y[1]; skewQ[1; 1 2] = 7^3000*7^3000*y[1];", SEM,
     "1:23: coefficient exceeds 4300 digits", ()),
    # a sum evaluates its body at most 10000 times, counting the sums around it
    ("dims 1 1 1; L = sum(i,1,200000, y[1]);", SEM,
     "1:17: sum evaluates its body 200000 times, more than 10000", ()),
    ("dims 1 1 1; L = sum(i,1,100, sum(j,1,101, y[1]));", SEM,
     "1:30: sum evaluates its body 10100 times, more than 10000", ()),
    ("dims 1 1 1; L = sum(i,1,1000000000, y[1]);", SEM,  # about an hour unbounded
     "1:17: sum evaluates its body 1000000000 times, more than 10000", ()),
    # the end of input after a comment with no newline is the true end
    ("dims 1 1 1; # note", SEM, "1:19: missing Lagrangian", ()),
    # a sum's body is parsed whatever its range, so its syntax errors show
    ("dims 1 1 1; L = sum(i,2,1, y[1] +);", SYN,
     "1:34: unexpected ')' (expected a number or '(' or 'x' or 'y' or 'z' or 'sum' or "
     "a metric name)", ATOM),
]


def test_malformed_corpus_has_positioned_diagnostics():
    assert len(MALFORMED) >= 20
    for source, cls, text, expected in MALFORMED:
        with pytest.raises(ProblemError) as excinfo:
            parse_problem(source)
        err = excinfo.value
        assert type(err) is cls, (source, err)
        assert str(err) == text, (source, str(err))
        assert err.expected == expected, (source, err.expected)
        assert text.startswith(f"{err.line}:{err.column}: "), (source, err)


# ASCII that the problem language uses, plus characters str.isdigit or
# str.isalpha accept beyond it: superscripts, an Arabic-Indic digit, a
# vulgar fraction and an accented letter
FUZZ_ALPHABET = "0123456789.eE+-*/^()[];,=# \n\tdxyz_\u00b2\u00b9\u0663\u00bd\u00e9"
# (position, characters removed there, text inserted there)
edits = st.tuples(st.integers(0, 10**4), st.integers(0, 4), st.text(FUZZ_ALPHABET, max_size=4))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(edits, min_size=1, max_size=3))
def test_every_mutation_of_the_fixture_parses_or_gets_a_positioned_error(changes):
    text = wave_text()
    for position, removed, inserted in changes:
        position %= len(text) + 1
        text = text[:position] + inserted + text[position + removed:]
    try:
        parse_problem(text)
    except ProblemError as err:
        assert 1 <= err.line <= text.count("\n") + 1 and err.column >= 1, str(err)
        assert str(err).startswith(f"{err.line}:{err.column}: ")
    # and the reference evaluator gives the same spec or the same error
    assert outcome(parse_problem, text) == outcome(reference_parse_problem, text), text


def outcome(parse, text):
    """The spec's data, or the error's class, message, position and
    expected tokens."""
    try:
        return problem_data(parse(text))
    except ProblemError as err:
        return type(err), str(err), err.expected


def test_the_fixture_evaluates_each_leaf_once_per_binding():
    # L's six nested sums run their innermost body 64 times and read its
    # five leaves 320 times, but the leaves take 28 distinct values; the
    # sums' bodies run 2 + 4 + ... + 64 = 126 times
    head = wave_text().split("\nfield")[0]
    counts = {}
    spec = parse_problem(head, counts)
    assert counts == {"sum_bodies": 126, "leaves": 4 + 4 + 4 + 8 + 8}
    assert problem_data(spec) == problem_data(reference_parse_problem(head))


# (source, str(error) or None where it parses): sum indices shadowed and
# bound again, factors after a zero, which keep their errors, and nesting
SUM_AND_ZERO_CASES = [
    # the inner i shadows the outer one and gives it back, for x[i] after it
    ("dims 2 1 2; L = sum(i,1,2, sum(i,1,2, z[1; i i])*x[i]);", None),
    ("dims 2 1 2; L = sum(i,1,2, x[i]*sum(i,2,2, y[1]*i)*i);", None),
    ("dims 2 1 2; L = sum(i,1,2, y[1]*x[i]) + sum(i,2,2, x[i]^2) + sum(i,1,0, x[i]);", None),
    ("dims 2 1 2; L = sum(i,1,2, sum(j,1,2, sum(i,2,2, z[1; i j])*x[i]*x[j]));", None),
    # a sum's index is unbound after it, and so is a name no sum binds
    ("dims 2 1 2; L = sum(i,1,2, x[i]) + x[i];", "1:38: unbound index variable 'i'"),
    ("dims 2 1 2; L = sum(i,1,2, x[i]) + i;", "1:36: unbound identifier 'i'"),
    # a leaf's checks keep their order when an index is unbound
    ("dims 2 2 2; L = sum(i,1,2, z[9; i q]);", "1:28: field index 9 out of range 1..2"),
    ("dims 2 2 2; L = sum(i,1,2, z[1; i q]);", "1:35: unbound index variable 'q'"),
    ("dims 2 2 2; L = sum(i,1,2, h[i q]);", "1:28: unknown metric 'h'"),
    ("dims 2 2 2; metric g = diag(1, -1); L = sum(i,1,2, g[q 9]);",
     "1:54: unbound index variable 'q'"),
    ("dims 2 2 2; metric g = diag(1, g[1 1]); L = y[1];", "1:32: unknown metric 'g'"),
    # a leaf out of range on its third binding, after two that stored values
    ("dims 2 2 2; L = sum(i,1,3, z[1; i]);", "1:28: jet index 3 out of range 1..2"),
    # every factor after a zero is evaluated, for its errors
    ("dims 2 2 2; L = 0*z[1; 9];", "1:19: jet index 9 out of range 1..2"),
    ("dims 2 2 2; L = 0*y[1]*z[1; 9];", "1:24: jet index 9 out of range 1..2"),
    ("dims 2 2 2; L = 0*y[1]*h[1 1];", "1:24: unknown metric 'h'"),
    ("dims 2 2 2; L = 0*y[1]*z[1; q];", "1:29: unbound index variable 'q'"),
    ("dims 2 2 2; L = 0*y[1]*q;", "1:24: unbound identifier 'q'"),
    ("dims 2 2 2; L = 0*x[1]/0;", "1:23: division by zero"),
    ("dims 2 2 2; L = 0*x[1]/y[1];", "1:23: division is only allowed by constants"),
    # and so in a product formed factor by factor, one with a factor in
    # parentheses
    ("dims 2 2 2; L = 0*(x[1] + 1)*z[1; 9];", "1:30: jet index 9 out of range 1..2"),
    ("dims 2 2 2; L = (y[1] - y[1])*z[1; q];", "1:36: unbound index variable 'q'"),
    ("dims 2 2 2; L = 0*(x[1] + 1)/y[1];", "1:29: division is only allowed by constants"),
    ("dims 2 2 2; L = sum(i,1,2, (i-1)*x[1]*z[i; 1 1 1]);", "1:39: jet order 3 > k = 2"),
    ("dims 2 2 2; L = 0*x[1]*(y[1] + 1)^3/7 + (x[1]-x[1])*z[2; 1 2];", None),
    # products of ints and leaves, each added as one monomial: minus terms,
    # unary signs, rational factors and zero constants, alone and in nested
    # sums, and terms that cancel
    ("dims 2 2 2; L = -3/7*z[1; 1]*z[2; 1 2];", None),
    ("dims 2 2 2; L = x[1] - 3/7*z[1; 1]*z[2; 1 2] - -2*y[1]*y[2] + x[1]/-2*y[1];", None),
    ("dims 2 2 2; L = 1/2*x[1] + 1/3*x[2] - 5/6*y[1]*2/3 - 3/7*z[1; 1]*z[2; 1 2]"
     " + 3/7*z[2; 2 1]*z[1; 1];", None),
    ("dims 2 2 2; L = sum(i,1,2, sum(j,1,2, 0*z[1; i j] - i/3*j*x[i]*y[1] + 5/j*z[2; i]"
     " - 0/3*y[1]*x[j]));", None),
    ("dims 2 2 2; L = sum(i,1,2, sum(j,1,2, 0*x[i]*z[1; i j] - (i-j)*0*y[1])) - 0*x[1];",
     None),
    ("dims 2 2 2; L = sum(i,1,2, z[1; i] - 1*z[1; i]*1) + sum(i,1,2, -(-1)*z[1; i]*-1);",
     None),
    ("dims 2 2 2; metric g = diag(1, -1);"
     " L = sum(i,1,2, sum(j,1,2, -g[i j]*z[1; i]*z[1; j]/2 - -1/3*g[j i]*0));", None),
    ("dims 2 2 2; L = sum(i,0,1, 0*x[1]/i);", "1:34: division by zero"),
    ("dims 2 2 2; L = sum(i,1,2, -3/7*z[1; 1]*z[2; i 3]);",
     "1:41: jet index 3 out of range 1..2"),
    # 200 nested sums add into one sum, of one name or of 200
    ("dims 1 1 1; L = " + "sum(i,1,1, " * 200 + "y[1]" + ")" * 200 + ";", None),
    ("dims 1 1 1; L = " + "".join(f"sum(i{d},1,1, " for d in range(200)) + "i7*y[1]"
     + ")" * 200 + ";", None),
    ("dims 1 1 1; L = " + "sum(i,1,1, " * 199 + "sum(i,1,2, i*y[1])" + ")" * 199 + ";",
     None),
]


@pytest.mark.parametrize("source,error", SUM_AND_ZERO_CASES)
def test_sums_zero_products_and_leaves_evaluate_as_the_reference(source, error):
    found = outcome(parse_problem, source)
    assert found == outcome(reference_parse_problem, source)
    if error is None:
        assert isinstance(found, dict), found
    else:
        assert found[1] == error


def _ab_tool():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py"
    spec = importlib.util.spec_from_file_location("ab", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (2, 2, 3)],
                         ids=lambda shape: "-".join(map(str, shape)))
def test_ladder_files_parse_to_the_ladders_lagrangian(shape, monkeypatch):
    # the ladder files of tools/ab.py's parse mode: a rung's Lagrangian, one
    # term c*z[a; I]*z[b; J] each, parses back to the rung's Lagrangian, as
    # the reference evaluator parses it
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    ladder = importlib.import_module("symbolic_ladder")
    rung = ladder.make_rung(ladder.load_api(), shape, random.Random(5))
    text = _ab_tool().ladder_problem(rung, render_expr)
    assert text.count("*z[") == 2 * rung.lagrangian.term_count()
    spec = parse_problem(text)
    assert spec.lagrangian == rung.lagrangian
    assert problem_data(spec) == problem_data(reference_parse_problem(text))
    assert spec.sections["sol"].components == rung.solution.components


def test_nested_sums_take_their_values_and_bounds_as_before():
    deep = "dims 1 1 1; L = " + "sum(i,1,1, " * 199 + "sum(i,1,2, i*y[1])" + ")" * 199 + ";"
    assert parse_problem(deep).lagrangian == 3 * y_var(1)
    spec = parse_problem("dims 2 1 2; L = sum(i,1,2, sum(i,1,2, z[1; i i])*x[i]);")
    both = z_var(1, (1, 1)) + z_var(1, (2, 2))
    assert spec.lagrangian == both * x_var(1) + both * x_var(2)


LONG = "7" * 5000  # more digits than int() converts
BOGUS = ("2:1: unexpected 'bogus' (expected 'dims' or 'metric' or 'L' or 'field' or "
         "'skewQ' or 'section' or 'grid' or 'evolve')")


def _lagrangian(value: str) -> str:
    return f"dims 1 1 1; L = {value};"


# (a text, its error): an integer too long to convert, as a constant, an
# index, an exponent, a sum bound or a skewQ index, and a sum past its bound
# are errors in values
@pytest.mark.parametrize("source,error", [
    pytest.param(_lagrangian(f"{LONG}*y[1]"), "1:17: integer of 5000 digits is too long",
                 id="constant"),
    pytest.param(_lagrangian("sum(i,1,20000, y[1])"),
                 "1:17: sum evaluates its body 20000 times, more than 10000", id="sum-count"),
    pytest.param(_lagrangian(f"z[1; {LONG}]"), "1:22: integer of 5000 digits is too long",
                 id="index"),
    pytest.param(_lagrangian(f"y[1]^{LONG}"), "1:22: integer of 5000 digits is too long",
                 id="exponent"),
    pytest.param(_lagrangian(f"sum(i,{LONG},1, y[1])"),
                 "1:23: integer of 5000 digits is too long", id="lower-bound"),
    pytest.param(_lagrangian(f"sum(i,1,{LONG}, y[1])"),
                 "1:25: integer of 5000 digits is too long", id="upper-bound"),
    pytest.param(_lagrangian(f"sum(i,1,2, sum(j,1,{LONG}, y[1]))"),
                 "1:36: integer of 5000 digits is too long", id="inner-bound"),
    pytest.param(f"dims 2 1 2; L = y[1]; skewQ[{LONG}; 1 2] = y[1];",
                 "1:29: integer of 5000 digits is too long", id="skew-field-index"),
    pytest.param(f"dims 2 1 2; L = y[1]; skewQ[1; 1 {LONG}] = y[1];",
                 "1:34: integer of 5000 digits is too long", id="skew-base-index"),
])
def test_a_syntax_error_after_a_too_long_integer_or_a_long_sum_comes_first(source, error):
    for parse in (parse_problem, reference_parse_problem):
        assert outcome(parse, source) == (ProblemSemanticError, error, ())
        found = outcome(parse, source + "\nbogus;")
        assert found[:2] == (ProblemSyntaxError, BOGUS)


# (a text, its error): the values of dims, metric, grid, evolve and a
# field's basis index are checked once every statement has parsed
@pytest.mark.parametrize("text,error", [
    pytest.param("evolve 0 1e999 4;", "1:10: number 1e999 is not finite", id="infinite-time"),
    pytest.param("evolve 0 1 0;", "1:12: step count must be positive", id="no-steps"),
    pytest.param("grid 0 1 1 periodic;", "1:1: grids need at least 8 points per axis, got 1",
                 id="few-points"),
    pytest.param("grid 1 0 16 periodic;", "1:1: bad axis bounds (1.0, 0.0)", id="axis-bounds"),
    pytest.param("metric g = [[1, 0]];", "1:1: metric matrix is not square", id="not-square"),
    pytest.param("dims 0 2 2;", "1:1: need at least one independent variable, got m=0",
                 id="no-base"),
    pytest.param(f"dims 1 {LONG} 1;", "1:8: integer of 5000 digits is too long",
                 id="long-dims"),
    pytest.param(f"dims 1 1 1; L = y[1]; field F = dx[{LONG}];",
                 "1:36: integer of 5000 digits is too long", id="long-field-index"),
])
def test_a_syntax_error_after_a_bad_declaration_comes_first(text, error):
    for parse in (parse_problem, reference_parse_problem):
        assert outcome(parse, text) == (ProblemSemanticError, error, ())
        found = outcome(parse, text + "\nbogus;")
        assert found[:2] == (ProblemSyntaxError, BOGUS)


def test_the_first_bad_declaration_in_the_file_is_reported():
    for text, error in (("evolve 0 1 0; dims 0 1 1;", "1:12: step count must be positive"),
                        ("dims 0 1 1; evolve 0 1 0;", "1:1: need at least one independent "
                                                      "variable, got m=0")):
        assert outcome(parse_problem, text)[:2] == (ProblemSemanticError, error)


# mostly in range and bound by a sum around them, sometimes not
INDICES = st.sampled_from(["1", "2", "i", "j"] * 4 + ["0", "3", "k"])
LEAVES = st.one_of(
    st.sampled_from(["0", "1", "2", "i", "j"]),
    st.builds("x[{}]".format, INDICES),
    st.builds("y[{}]".format, INDICES),
    st.builds(lambda a, jets: f"z[{a}; {' '.join(jets)}]", INDICES,
              st.lists(INDICES, min_size=1, max_size=3)),
    st.builds(lambda g, i, j: f"{g}[{i} {j}]", st.sampled_from(["g", "h"]), INDICES, INDICES),
)


def _compound(inner):
    return st.one_of(
        st.builds(lambda var, lo, hi, body: f"sum({var},{lo},{hi}, {body})",
                  st.sampled_from(["i", "j"] * 4 + ["k"]), st.integers(1, 2), st.integers(0, 2),
                  inner),
        st.builds("{}*{}".format, inner, inner),
        st.builds("{}/{}".format, inner, st.sampled_from(["0", "2", "x[1]", "(1-1)", "i"])),
        st.builds("{} + {}".format, inner, inner),
        st.builds("{} - {}".format, inner, inner),
        st.builds("-{}".format, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
    )


EXPRESSIONS = st.recursive(LEAVES, _compound, max_leaves=10)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(EXPRESSIONS, EXPRESSIONS)
def test_expressions_evaluate_as_the_reference_evaluator(lagrangian, skew):
    # random sums, products, leaves and unbound or out-of-range indices, in
    # L and in a skew value, each inside two sums that bind i and j, give
    # the reference's spec or its error
    text = (f"dims 2 2 2; metric g = diag(1, -1); L = sum(i,1,2, sum(j,2,2, {lagrangian}));\n"
            f"skewQ[1; 1 2] = sum(j,1,2, sum(i,2,2, {skew}));")
    assert outcome(parse_problem, text) == outcome(reference_parse_problem, text)


# FUZZ_ALPHABET and more of what the tokenizer must tell apart: letters,
# digits and numerals of other scripts, a combining mark, symbols, the
# carriage return, and whitespace the language does not take
WIDE_ALPHABET = FUZZ_ALPHABET + (
    "aZ_\u00aa\u00b5\u00c0\u0391\u03b1\u0416\u05d0\u0627\u4e09\u2160\u2468"
    "\u0301\u0660\u0967\uff11\r\u00a0\u000b\u000c\u2028!\"$%&'<>?@\\`{|}~:\u00b7\u2212"
)


def positioned_tokens(text):
    """(kind, text, line, column) per token of ``_tokenize``, each position
    from the token's offset by ``_position``, as the parser's errors take it."""
    kinds, texts, offsets = _tokenize(text)
    return [(kind, chunk, *_position(text, offset))
            for kind, chunk, offset in zip(kinds, texts, offsets, strict=True)]


def tokens_or_rejection(tokenize, text):
    """(kind, text, line, column) per token, or the rejection's message and
    position."""
    try:
        return tokenize(text)
    except ProblemSyntaxError as err:
        return (str(err), err.line, err.column)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.text(WIDE_ALPHABET, max_size=40))
def test_the_tokenizer_matches_the_character_loop_it_replaced(text):
    new = tokens_or_rejection(positioned_tokens, text)
    old = tokens_or_rejection(reference_tokenize, text)
    last_line = text.rsplit("\n", 1)[-1]
    if isinstance(new, list) and "#" in last_line:
        # the one difference: after a comment that ends the input with no
        # newline, the end token sits at the true end, where the loop left
        # it at the comment's first column
        assert new.pop()[3] == len(last_line) + 1
        assert old.pop()[3] == last_line.index("#") + 1
    assert new == old


def test_the_tokenizer_takes_names_and_numbers_as_the_character_loop_did():
    # each character below U+3000 (Latin to the Indic scripts, superscripts,
    # number forms, enclosed numerals) and of the fullwidth forms, alone and
    # after a letter: str.isalpha starts a name, \w continues it, and only
    # ASCII digits make numbers, as the ASCII ones after a digit show
    codes = [*range(0x3000), *range(0xFF00, 0xFFF0)]
    texts = [text for c in codes for text in (chr(c), "x" + chr(c))]
    texts += ["1" + chr(c) + "1" for c in range(0x80)]
    for text in texts:
        if "#" not in text:  # a comment's end is in the property above
            assert tokens_or_rejection(positioned_tokens, text) == tokens_or_rejection(
                reference_tokenize, text
            ), text


def test_sums_within_the_evaluation_bound_parse():
    # the bound counts evaluations of a body, the product of the nested
    # ranges, so 100 by 100 passes and an empty range counts none
    spec = parse_problem("dims 1 1 1; L = sum(i,1,100, sum(j,1,100, y[1]));")
    assert spec.lagrangian == 10000 * y_var(1)
    spec = parse_problem(
        "dims 1 1 1; L = sum(i,1,10000, y[1]) + sum(i,2,1, sum(j,1,1000000000, y[1]));"
    )
    assert spec.lagrangian == 10000 * y_var(1)


def test_powers_within_the_term_bound_parse():
    # C(8 + 7, 7) = 6435 terms pass where the ninth power's 11440 do not,
    # and a base of 36 terms cubed counts C(38, 3) = 8436
    spec = parse_problem("dims 2 2 1; L = " + EIGHT_TERMS + "^8;")
    assert len(spec.lagrangian.terms()) == math.comb(15, 7) == 6435
    spec = parse_problem("dims 2 2 1; L = (" + EIGHT_TERMS + "^2)^3;")
    assert len(spec.lagrangian.terms()) == math.comb(13, 7)
    assert spec.lagrangian == parse_problem("dims 2 2 1; L = " + EIGHT_TERMS + "^6;").lagrangian
    # a power of one term, and the power 0 of any base, have one term
    spec = parse_problem("dims 1 1 1; L = (2*y[1])^10000;")
    assert spec.lagrangian == 2**10000 * y_var(1) ** 10000
    assert parse_problem("dims 2 2 1; L = " + EIGHT_TERMS + "^0;").lagrangian == Expr.one()


@pytest.mark.parametrize("base,exponent", [
    ("x[1]+1", 500), ("x[1]+1", 1000), ("x[1]+1", 2000),
    ("x[1]+y[1]+1", 100), ("x[1]+y[1]+1", 139),
])
def test_dense_powers_parse_in_a_fraction_of_a_second(base, exponent):
    # by the multinomial theorem each term is formed once, with no dense
    # intermediate power to square
    start = time.perf_counter()
    L = parse_problem(f"dims 1 1 1; L = ({base})^{exponent};").lagrangian
    assert time.perf_counter() - start < 0.5
    factors = base.count("+")  # the variables of the base, besides the 1
    assert len(L.terms()) == math.comb(exponent + factors, factors)
    a = exponent // 3
    b = a if factors == 2 else 0
    powers = {("x", 1): a, ("y", 1): b} if b else {("x", 1): a}
    multinomial = math.factorial(exponent) // (
        math.factorial(a) * math.factorial(b) * math.factorial(exponent - a - b))
    assert L.partial(("x", 1)).constant_term() == exponent
    assert Expr.monomial(powers, multinomial) == Expr(
        [(mono, c) for mono, c in L.terms() if dict(mono) == powers])


@pytest.mark.parametrize("source,terms,degree", [
    # the power's last exponent within its bound: 2236 * 2235 coordinate factors
    ("dims 1 1 1; L = (x[1]+1)^2235;", 2236, 2235),
    # a product within the factor bound, 136^2 pairs at degree 270
    ("dims 2 1 1; L = (x[1]+1)^135*(x[2]+1)^135;", 136**2, 270),
    # 990 * 969 = 959310 pairs at degree 5, within both of a product's bounds,
    # about 1 s: the worst accepted product.  Its terms are the monomials of
    # degree 5 in 44 coordinates with at least 3 factors among the first 17
    (f"dims 3 3 3; L = {_linear(44)}^2*{_linear(17)}^3;",
     sum(math.comb(16 + j, j) * math.comb(26 + 5 - j, 5 - j) for j in (3, 4, 5)), 5),
])
def test_powers_and_products_at_their_bounds_parse_within_seconds(source, terms, degree):
    start = time.perf_counter()
    L = parse_problem(source).lagrangian
    assert time.perf_counter() - start < 5.0
    assert (L.term_count(), L.degree()) == (terms, degree)


def test_declared_values_at_the_digit_limit_parse():
    # 10^4300 - 1 has 4300 digits, the most str() converts by default; a
    # limit of 0 is no limit
    spec = parse_problem("dims 1 1 1; L = (10^4299*10 - 1)*y[1];")
    assert spec.lagrangian == (10**4300 - 1) * y_var(1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        spec = parse_problem("dims 1 1 1; L = 7^4000*7^4000*y[1];")
    finally:
        sys.set_int_max_str_digits(limit)
    assert spec.lagrangian == 7**8000 * y_var(1)


def test_a_power_of_a_constant_below_the_digit_limit_parses():
    spec = parse_problem("dims 1 1 1; L = 7^100*y[1] + (2/7)^1000*z[1;1];")
    assert spec.lagrangian == 7**100 * y_var(1) + Fraction(2, 7) ** 1000 * z_var(1, (1,))
    # 7^5000 has 4226 digits, within the default limit of 4300
    assert parse_problem("dims 1 1 1; L = 7^5000;").lagrangian == Expr.constant(7**5000)
    # a limit of 0 is no limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        spec = parse_problem("dims 1 1 1; L = 7^6000*y[1];")
    finally:
        sys.set_int_max_str_digits(limit)
    assert spec.lagrangian == 7**6000 * y_var(1)


def test_field_terms_and_metric_entries_are_expressions():
    # a field term is a product, with * and /, times dx[i] or dy[a]; a
    # metric entry is any expression whose value is a rational constant
    spec = parse_problem(
        "dims 2 1 1; metric g = diag(1, 2*3);"
        "metric h = [[1/2, sum(i,1,2,i)/6], [1/2, -(1 - 2)^2]];"
        "L = z[1;1]^2; field S = x[1]*dx[1] + 3/2*y[1]*dy[1] - x[2]/4*dx[2];"
    )
    assert spec.metrics == {
        "g": ((1, 0), (0, 6)),
        "h": ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), -1)),
    }
    assert all(type(v) is Fraction for m in spec.metrics.values() for row in m for v in row)
    field = spec.fields["S"]
    assert field.base_components == (x_var(1), -x_var(2) / 4)
    assert field.vertical_components == (Fraction(3, 2) * y_var(1),)
    # the degree bound admits a power of degree 10000
    assert parse_problem("dims 1 1 1; L = z[1;1]^10000;").lagrangian == z_var(1, (1,)) ** 10000


def test_long_chains_parse_flat():
    # a chain of + or * is one node, however long; a left-deep chain of
    # binary nodes exhausted the interpreter's stack at 1000 terms
    spec = parse_problem("dims 1 1 1; L = " + " + ".join(["y[1]"] * 1000) + ";")
    assert spec.lagrangian == 1000 * y_var(1)
    spec = parse_problem("dims 1 1 1; L = " + " - ".join(["y[1]"] * 1001) + ";")
    assert spec.lagrangian == -999 * y_var(1)
    spec = parse_problem("dims 1 1 1; L = " + "*".join(["z[1;1]"] * 1000) + "/2/5;")
    assert spec.lagrangian == z_var(1, (1,)) ** 1000 / 10


def test_nesting_up_to_the_limit_parses():
    # 200 levels of each construct that nests; one more is in the corpus above
    doubled = y_var(1)
    for _ in range(200):
        doubled = (doubled + 1) * 2
    for text, expected in (
        ("(" * 200 + "y[1]" + ")" * 200, y_var(1)),
        ("(" * 200 + "y[1]" + " + 1)*2" * 200, doubled),
        ("-" * 200 + "y[1]", y_var(1)),
        ("sum(i,1,1, 1 + " * 200 + "y[1]" + ")" * 200, y_var(1) + 200),
    ):
        assert parse_problem(f"dims 1 1 1; L = {text};").lagrangian == expected
    # the depth is that of one expression, not a count over the input
    many = " ".join(f"section s{j} = ({'(' * 150}x[1]{')' * 150});" for j in range(3))
    assert len(parse_problem(f"dims 1 1 1; L = y[1]; {many}").sections) == 3


entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def square_matrices(draw):
    """Rational matrices up to 4x4; about half are made singular by a row
    that repeats a multiple of another, or by a zero row at size 1."""
    size = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entries, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if draw(st.booleans()):
        source = draw(st.integers(0, size - 1))
        target = (source + draw(st.integers(1, size - 1))) % size if size > 1 else 0
        scale = draw(entries) if size > 1 else 0
        rows[target] = [scale * v for v in rows[source]]
    return tuple(tuple(row) for row in rows)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(square_matrices())
def test_elimination_determinant_matches_the_minors_expansion(matrix):
    assert _determinant(matrix) == minors_determinant(matrix)


def test_large_metrics_parse_and_singular_ones_are_positioned():
    # elimination is cubic in the size; the expansion by minors took hours at 12x12
    diagonal = "dims 12 1 1; metric g = diag(" + ", ".join(["1"] * 11 + ["-2"]) + "); L = y[1];"
    spec = parse_problem(diagonal)
    assert spec.metrics["g"][11][11] == -2 and _determinant(spec.metrics["g"]) == -2
    for metric in (
        "diag(" + ", ".join(["1"] * 11 + ["0"]) + ")",
        "[" + ", ".join(["[" + ", ".join(["1/2"] * 12) + "]"] * 12) + "]",
    ):
        with pytest.raises(ProblemSemanticError) as excinfo:
            parse_problem(f"dims 12 1 1; metric g = {metric}; L = y[1];")
        assert str(excinfo.value) == "1:14: metric 'g' is singular"
    assert _determinant(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))) == -1


def test_multiline_positions():
    source = "dims 1 1 1;\nL = y[1]\n  + z[1;2];\n"
    with pytest.raises(ProblemError) as excinfo:
        parse_problem(source)
    assert excinfo.value.line == 3
    assert excinfo.value.column == 5


def test_syntax_vs_semantic_error_classes():
    with pytest.raises(ProblemSyntaxError):
        parse_problem("dims 1 1 1; L = ;")
    with pytest.raises(ProblemSemanticError):
        parse_problem("dims 2 1 2; L = z[1;1 1 1];")


def test_expected_tokens_reported():
    with pytest.raises(ProblemSyntaxError) as excinfo:
        parse_problem("dims 1 1 1; L = ;")
    assert excinfo.value.expected  # non-empty expectation list


def test_comments_and_whitespace():
    spec = parse_problem("# header comment\ndims 1 1 1;  # inline\nL = y[1];\n")
    assert spec.cfg == JetConfig(1, 1, 1)


def test_long_runs_of_blanks_and_comments_tokenize_in_linear_time():
    # a tokenizer that retries a run of blanks from each of its positions
    # takes tens of seconds on 200000 of them; one scan takes milliseconds
    text = "dims 1 1 1;\nL = y[1];" + " \t" * 100000 + "\n" + "# " + "x " * 100000 + " " * 200000
    start = time.perf_counter()
    kinds, texts, offsets = _tokenize(text)
    assert time.perf_counter() - start < 1.0
    assert texts == ["dims", "1", "1", "1", ";", "L", "=", "y", "[", "1", "]", ";", ""]
    assert _position(text, offsets[-1]) == (3, 400003)
    assert parse_problem(text).cfg == JetConfig(1, 1, 1)
