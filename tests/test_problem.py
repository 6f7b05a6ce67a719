import importlib.resources

import pytest

from jetforms.expressions import render_expr, z_var
from jetforms.jets import JetConfig
from jetforms.problem import (
    ProblemError,
    ProblemSemanticError,
    ProblemSpec,
    ProblemSyntaxError,
    _render_rational,
    parse_problem,
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
        assert again == spec, text
        # rendering is a fixed point (byte-identical the second time)
        assert render_problem(again) == rendered


MALFORMED = [
    # (source, expected line, expected column of the diagnostic)
    ("dims 0 1 1; L = y[1];", 1, 1),  # bad m
    ("dims 1 1; L = y[1];", 1, 9),  # missing k
    ("dims 1 1 1 L = y[1];", 1, 12),  # missing semicolon
    ("L = y[1];", 1, 10),  # missing dims (reported at end)
    ("dims 1 1 1;", 1, 12),  # missing Lagrangian
    ("dims 1 1 1; L = ;", 1, 17),  # empty expression
    ("dims 1 1 1; L = y[1] + ;", 1, 24),  # dangling operator
    ("dims 1 1 1; L = y[2];", 1, 17),  # field index out of range
    ("dims 1 1 1; L = x[2];", 1, 17),  # base index out of range
    ("dims 2 1 2; L = z[1;1 1 1];", 1, 17),  # jet order overflow
    ("dims 1 1 1; L = z[1;3];", 1, 17),  # jet index out of range
    ("dims 1 1 1; L = y[1]^-2;", 1, 22),  # negative exponent
    ("dims 1 1 1; L = y[1]/y[1];", 1, 21),  # non-constant division
    ("dims 1 1 1; L = y[1]/0;", 1, 21),  # division by zero
    ("dims 1 1 1; L = 1.5*y[1];", 1, 17),  # decimal literal in expression
    ("dims 1 1 1; L = q[1];", 1, 20),  # metric references need two indices
    ("dims 1 1 1; L = sum(i,1,2, z[1;j]);", 1, 32),  # unbound index
    ("dims 1 1 1; metric g = diag(1); metric g = diag(1); L = y[1];", 1, 33),
    ("dims 1 1 1; metric g = [[1, 2], [3, 4]]; L = y[1];", 1, 13),  # asymmetric
    ("dims 1 1 1; metric g = diag(0); L = y[1];", 1, 13),  # singular
    ("dims 2 2 2; metric g = diag(1, -1, 1); L = y[1];", 1, 13),  # wrong size
    ("dims 1 1 1; L = y[1]; L = y[1];", 1, 23),  # duplicate Lagrangian
    ("dims 2 1 2; L = y[1]; skewQ[1; 1 2] = z[1;1 1 1];", 1, 39),  # skew order
    ("dims 1 1 1; L = y[1]; skewQ[1; 1 1] = y[1];", 1, 23),  # skew needs k=2
    ("dims 1 1 1; L = y[1]; field F = y[1]*dx[1];", 1, 23),  # base comp in y
    ("dims 1 1 1; L = y[1]; field F = z[1;1]*dy[1];", 1, 23),  # z coefficient
    ("dims 1 1 1; L = y[1]; section s = (x[1], x[1]);", 1, 23),  # arity
    ("dims 1 1 1; L = y[1]; section s = (y[1]);", 1, 23),  # y in section
    ("dims 1 1 1; L = y[1]; grid 0 1 4 open;", 1, 23),  # too few points
    ("dims 1 1 1; L = y[1]; grid 0 1 16 sideways;", 1, 35),  # bad flag
    ("dims 1 1 1; L = y[1]; evolve 0 1 0;", 1, 34),  # zero steps
    ("dims 1 1 1; L = y[1]; evolve 0 1e999 4;", 1, 32),  # infinite end time
    ("dims 1 1 1; L = y[1]; grid 0 1e999 16 periodic;", 1, 30),  # infinite bound
    ("dims 1 1 1; L = y[1]; bogus 1;", 1, 23),  # unknown statement
    ("dims 1 1 1; L = y[1]; field F = dx[1] dx[1];", 1, 39),  # missing +
    ("dims 1 1 1; L = (y[1];", 1, 22),  # unbalanced parenthesis
    ("dims 1 1 1; L = y[1]; ?", 1, 23),  # stray character
]


def test_malformed_corpus_has_positioned_diagnostics():
    assert len(MALFORMED) >= 20
    for source, line, column in MALFORMED:
        with pytest.raises(ProblemError) as excinfo:
            parse_problem(source)
        err = excinfo.value
        assert err.line == line, (source, err)
        assert err.column == column, (source, err, err.column)
        assert str(err).startswith(f"{line}:{column}:")


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
