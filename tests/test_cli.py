import ast
import importlib.resources
import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest

from jetforms.cli import main

WAVE = str(
    importlib.resources.files("jetforms").joinpath("fixtures/fourth_order_wave.jet")
)
# the fixture's grid declaration, where evolve reports a grid it cannot evolve
GRID_LINE = 1 + open(WAVE).read().split("\n").index("grid 0 6.283185307179586 256 periodic;")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_euler_lagrange_text(capsys):
    code, out, _ = run(capsys, "euler-lagrange", WAVE)
    assert code == 0
    assert (
        "deltaL/dy[1] = 2*z[1;1 1 1 1] - 4*z[1;1 1 2 2] + 2*z[1;2 2 2 2]" in out
    )
    assert (
        "deltaL/dy[2] = -2*z[2;1 1 1 1] + 4*z[2;1 1 2 2] - 2*z[2;2 2 2 2]" in out
    )
    # the normalized line carries the operator with unit leading coefficient
    assert "(2) * (z[1;1 1 1 1] - 2*z[1;1 1 2 2] + z[1;2 2 2 2])" in out


def test_fixture_matches_programmatic_problem():
    from jetforms.expressions import Expr
    from jetforms.jets import JetConfig
    from jetforms.wave import wave_problem

    from tests.support import wave_lagrangian

    wp = wave_problem()
    assert wp.cfg == JetConfig(m=2, n=2, k=2)
    assert wp.lagrangian == wave_lagrangian(wp.cfg)
    zero, one = Expr.zero(), Expr.one()
    x1, x2 = Expr.variable(("x", 1)), Expr.variable(("x", 2))
    fields = (wp.time_translation, wp.space_translation, wp.lorentz_boost)
    assert [(Y.cfg, Y.base_components, Y.vertical_components) for Y in fields] == [
        (wp.cfg, (one, zero), (zero, zero)),
        (wp.cfg, (zero, one), (zero, zero)),
        (wp.cfg, (x2, x1), (zero, zero)),
    ]


# argv, golden file, expected exit code
GOLDEN = [
    (("euler-lagrange", WAVE), "wave_euler_lagrange.txt", 0),
    (("boundary-form", WAVE, "--json"), "wave_boundary_form.json", 0),
    (("dedonder-form", WAVE, "--json"), "wave_dedonder_form.json", 0),
    (("verify", WAVE), "wave_verify.txt", 0),
    (("verify", WAVE, "--json"), "wave_verify.json", 0),
    (("noether", WAVE, "--json"), "wave_noether.json", 0),
    (("residual", WAVE, "--section", "sol", "--json"), "wave_residual_sol.json", 0),
    (("residual", WAVE, "--section", "bump", "--json"), "wave_residual_bump.json", 1),
]


@pytest.mark.parametrize("argv,golden,exit_code", GOLDEN, ids=[g for _, g, _ in GOLDEN])
def test_golden_outputs(capsys, argv, golden, exit_code):
    # canonical renderings are part of the interface: pin them byte-for-byte
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    expected = (pathlib.Path(__file__).parent / "golden" / golden).read_text()
    assert out == expected


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "boundary-form", WAVE, "--json")
    _, second, _ = run(capsys, "boundary-form", WAVE, "--json")
    assert first == second
    payload = json.loads(first)
    assert "coefficients" in payload and "boundary_form" in payload


def test_verify_passes_on_wave(capsys):
    code, out, _ = run(capsys, "verify", WAVE)
    assert code == 0
    for name in (
        "boundary-form-semibasic-over-forgetful",
        "boundary-form-double-vertical-contraction",
        "boundary-form-pullback-vanishes",
        "boundary-form-target-vertical-pullback",
        "divergence-trace-invariance",
        "pullback-difference-vanishes",
    ):
        assert f"{name}: PASS" in out


def test_verify_rejects_malformed_skew(tmp_path, capsys):
    text = (
        "dims 2 1 2; L = z[1;1 1]^2;\n"
        "skewQ[1; 1 2] = y[1];\n"  # missing the mirrored entry: not skew
    )
    problem = tmp_path / "bad_skew.jet"
    problem.write_text(text)
    code, out, _ = run(capsys, "verify", str(problem))
    assert code == 1
    assert "skew-structure: FAIL" in out
    assert "splitting sum" in out  # names the violated relation


def test_integral_fractions_render_as_integers(tmp_path, capsys):
    # the partials of 3/2 z^2 and 5/2 y^2 have integral coefficients, which
    # print as 3 and 5, not 3/1 and 5/1
    problem = tmp_path / "fractions.jet"
    problem.write_text("dims 1 1 1;\nL = 3/2*z[1;1]^2 + 5/2*y[1]^2;\n")
    code, out, _ = run(capsys, "euler-lagrange", str(problem))
    assert code == 0
    assert "deltaL/dy[1] = 5*y[1] - 3*z[1;1 1]\n" in out
    code, out, _ = run(capsys, "boundary-form", str(problem))
    assert code == 0
    assert "p[1; 1] = 3*z[1;1]\n" in out
    assert "/1*" not in out


@pytest.mark.parametrize("lagrangian,contact", [
    ("1/2*z[1;1]^2", "(z[1;1]) theta[1]^w[1]"),  # one coefficient, p[1; 1] = z[1;1]
    ("y[1]^2", "0"),  # no z in L: the table is empty
], ids=["one-coefficient", "empty-table"])
def test_boundary_form_prints_xi_in_the_contact_basis(lagrangian, contact, tmp_path, capsys):
    problem = tmp_path / "contact.jet"
    problem.write_text(f"dims 1 1 1;\nL = {lagrangian};\n")
    code, out, _ = run(capsys, "boundary-form", str(problem))
    assert code == 0
    assert f"\nXi = {contact}\n" in f"\n{out}"


def test_parse_error_exit_code(tmp_path, capsys):
    problem = tmp_path / "broken.jet"
    problem.write_text("dims 1 1; L = y[1];")
    code, out, err = run(capsys, "verify", str(problem))
    assert code == 2
    assert "1:9" in err
    code, out, err = run(capsys, "verify", str(problem), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["line"] == 1 and payload["column"] == 9


def test_oversized_coefficients_and_sums_are_input_errors(tmp_path, capsys):
    # a product of powers that each pass the digit bound, and a sum run more
    # often than the bound allows, exit with code 2 and a position
    problem = tmp_path / "big.jet"
    for text, message in (
        ("dims 1 1 1; L = 7^4000*7^4000*z[1;1]^2;", "1:13: coefficient exceeds 4300 digits"),
        ("dims 1 1 1; L = sum(i,1,200000, y[1]);",
         "1:17: sum evaluates its body 200000 times, more than 10000"),
    ):
        problem.write_text(text)
        code, out, err = run(capsys, "euler-lagrange", str(problem))
        assert (code, out) == (2, "")
        assert err == f"{problem}:{message}\n"


@pytest.mark.parametrize("command", ["euler-lagrange", "boundary-form", "dedonder-form"])
def test_a_derived_coefficient_past_the_digit_limit_is_an_input_error(
    command, tmp_path, capsys
):
    # 9*10^4299 has 4300 digits and parses; dL/dz doubles it to 4301, which
    # the command cannot write: an error at the Lagrangian, not a traceback
    problem = tmp_path / "big.jet"
    problem.write_text("dims 1 1 1;\nL = 9*10^4299*z[1;1]^2;\n")
    message = f"the {command} output has a coefficient of more than 4300 digits"
    code, out, err = run(capsys, command, str(problem))
    assert (code, out) == (2, "")
    assert err == f"{problem}:2:1: {message}\n"
    code, out, _ = run(capsys, command, str(problem), "--json")
    assert code == 2
    record = {"error": message, "line": 2, "column": 1, "expected": []}
    assert out == json.dumps(record, indent=2, sort_keys=True) + "\n"
    # the limit is the interpreter's: without one, the command writes it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, command, str(problem))
        doubled = str(18 * 10**4299)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and doubled in out


def test_long_sums_and_deep_nesting(tmp_path, capsys):
    # a 1000-term sum is one flat node, and nesting past the limit is an
    # input error with exit code 2, neither a traceback
    problem = tmp_path / "long.jet"
    problem.write_text("dims 1 1 1;\nL = " + " + ".join(["y[1]^2"] * 1000) + ";\n")
    code, out, _ = run(capsys, "euler-lagrange", str(problem))
    assert code == 0
    assert "deltaL/dy[1] = 2000*y[1]\n" in out
    problem.write_text("dims 1 1 1;\nL = " + "(" * 300 + "y[1]" + ")" * 300 + ";\n")
    code, _, err = run(capsys, "euler-lagrange", str(problem))
    assert code == 2
    assert err == f"{problem}:2:205: nesting deeper than 200 levels\n"


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/problem.jet")
    assert code == 2


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    problem = tmp_path / "utf16.jet"
    problem.write_bytes(b"\xff\xfe" + "dims 1 1 1; L = y[1];".encode("utf-16-le"))
    code, out, err = run(capsys, "verify", str(problem))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {problem}: not UTF-8 text: ")
    assert err.count("\n") == 1


def test_residual_command(capsys):
    code, out, _ = run(capsys, "residual", WAVE, "--section", "sol")
    assert code == 0
    assert "dedonder-equations-sol: PASS" in out
    code, out, _ = run(capsys, "residual", WAVE, "--section", "bump")
    assert code == 1
    assert "(-16) dx[1]^dx[2]" in out


def test_noether_command(capsys):
    code, out, _ = run(capsys, "noether", WAVE)
    assert code == 0
    assert "symmetry-YT: PASS" in out
    assert "symmetry-YL: PASS" in out
    assert "conservation-YT-on-sol: PASS" in out
    assert "conservation-YT-on-cubic: PASS" in out
    assert "current-YT-on-bump: skipped" in out


def test_noether_rejects_a_divergence_symmetry(tmp_path, capsys):
    # Y = d/dy moves L = y + (y')^2/2 by E d_1 x with E = 1, a total
    # divergence: not a strict symmetry, so no current is claimed conserved
    problem = tmp_path / "divergence.jet"
    problem.write_text(
        "dims 1 1 1; L = y[1] + 1/2*z[1; 1]^2; field YV = dy[1];\n"
        "section sol = (1/2*x[1]^2);\n"
    )
    code, out, _ = run(capsys, "noether", str(problem))
    assert code == 1
    assert out == (
        "symmetry-YV: FAIL (residual (1) dx[1])\n"
        "current-YV-on-sol: skipped (not a symmetry)\n"
    )


def test_evolve_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "evolve", WAVE, "--out", str(tmp_path), "--grid-n", "64", "--t1", "0.5"
    )
    assert code == 0
    assert "energy-drift: PASS" in out
    assert "boundary-form-independence: PASS" in out
    csv = (tmp_path / "conservation.csv").read_text().splitlines()
    assert csv[0] == "t,E_symmetric,E_skew,drift"
    assert len(csv) == 10  # header + 9 sampled times (8 steps)


def test_evolve_json_deterministic(capsys):
    code, first, _ = run(capsys, "evolve", WAVE, "--json", "--grid-n", "64")
    assert code == 0
    _, second, _ = run(capsys, "evolve", WAVE, "--json", "--grid-n", "64")
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True


def test_evolve_output_independent_of_hash_seed():
    # float sums run in canonical monomial order, not dict insertion order
    import jetforms

    package_root = str(pathlib.Path(jetforms.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-m", "jetforms.cli", "evolve", WAVE, "--seed", "1"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


FIXTURE_COMMANDS = [
    argv + json_flag
    for argv in (
        ("euler-lagrange",), ("boundary-form",), ("dedonder-form",), ("verify",), ("noether",),
        ("residual", "--section", "sol"), ("residual", "--section", "bump"),
        ("evolve", "--seed", "1"),
    )
    for json_flag in ((), ("--json",))
]

# Runs every fixture command in one interpreter and prints the exit code and
# stdout of each as a Python literal.  With ``reverse`` set it first interns
# every coordinate of the fixture's jet spaces, up to order 2k + 1, in the
# reverse of the coordinate order, so that coordinate ids and coordinate
# order disagree everywhere.
FIXTURE_RUNNER = """
import ast, contextlib, io, sys
from jetforms.expressions import Expr, _COORDS
from jetforms.jets import base_coord, field_coord, jet_coord, multiindices
from jetforms.cli import main

wave, out, reverse, commands = sys.argv[1], sys.argv[2], sys.argv[3] == "1", ast.literal_eval(sys.argv[4])
if reverse:
    coords = [base_coord(i) for i in (1, 2)] + [field_coord(a) for a in (1, 2)] + [
        jet_coord(a, I) for level in range(1, 6) for a in (1, 2) for I in multiindices(2, level)
    ]
    assert not _COORDS  # importing the package interns no coordinate
    for coord in reversed(coords):
        Expr.variable(coord)
    assert _COORDS == coords[::-1]
results = []
for argv in commands:
    extra = ["--out", out] if argv[0] == "evolve" else []
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([argv[0], wave, *argv[1:], *extra])
    results.append((code, buffer.getvalue()))
print(repr(results))
"""


def test_output_does_not_depend_on_the_order_coordinates_are_first_seen(tmp_path):
    # coordinates are interned as ids in the order they are first seen;
    # stdout and the evolve CSV must not depend on that order
    import jetforms

    package_root = str(pathlib.Path(jetforms.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    runs = []
    out = tmp_path / "out"  # one directory, since evolve prints the CSV's path
    for reverse in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-c", FIXTURE_RUNNER, WAVE, str(out), reverse,
             repr(FIXTURE_COMMANDS)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        runs.append((result.stdout, (out / "conservation.csv").read_bytes()))
    assert runs[0] == runs[1]
    codes = [code for code, _ in ast.literal_eval(runs[0][0])]
    assert codes == [0] * 12 + [1, 1, 0, 0]  # the bump is not a solution


def test_benchmark_tracer_spans_the_energy_functional(monkeypatch, capsys):
    # benchmarks/tracing.py times evolve's energy evaluations by rebinding
    # cli.EnergyFunctional, so that name stays bound in cli.py at module level
    import jetforms
    import jetforms.numeric
    import jetforms.problem

    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "benchmarks"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, out, _ = run(capsys, "evolve", WAVE, "--seed", "1", "--grid-n", "64")
    finally:
        tracer.uninstall()
    assert code == 0
    names = [name for name, *_ in tracer.spans]
    assert names.count("numeric.EnergyFunctional") == 2
    states = sum(line[:1].isdigit() for line in out.splitlines())  # CSV rows
    # the tracer's wrapper carries the tables, so evolve still sees that they
    # agree and evaluates one energy per state
    assert names.count("numeric.energy_call") == states > 0
    assert jetforms.GridSpec is jetforms.numeric.GridSpec is jetforms.problem.GridSpec


def _counted_energies(monkeypatch, skew_factor=None):
    """Rebind cli.EnergyFunctional, as benchmarks/tracing.py does, to count
    the calls of each functional made; with ``skew_factor`` the second one,
    the skew functional, gets a table of its own and scales the energy."""
    import jetforms.cli as cli

    real = cli.EnergyFunctional
    made = []

    class Counted:
        def __init__(self, theta):
            self.energy = real(theta)
            self.entries = dict(self.energy.entries)
            self.skew = bool(made) and skew_factor is not None
            if self.skew:
                self.entries["stub"] = 1
            self.calls = 0
            made.append(self)

        def __call__(self, state):
            self.calls += 1
            value = self.energy(state)
            return value * skew_factor if self.skew else value

    monkeypatch.setattr(cli, "EnergyFunctional", Counted)
    return made


def _csv_rows(out: str) -> list:
    lines = [line for line in out.splitlines() if line[:1].isdigit()]
    return [[float(v) for v in line.split(",")] for line in lines]


def test_evolve_evaluates_one_energy_per_state_when_the_tables_agree(monkeypatch, capsys):
    made = _counted_energies(monkeypatch)
    code, out, _ = run(capsys, "evolve", WAVE, "--seed", "1", "--grid-n", "64")
    assert code == 0
    rows = _csv_rows(out)
    symmetric, skew = made
    assert symmetric.calls == len(rows) == 9
    assert skew.calls == 0
    assert all(e_skew == e_sym for _, e_sym, e_skew, _ in rows)
    gap = "max relative symmetric-vs-skew gap 0.000e+00"
    assert f"boundary-form-independence: PASS ({gap})" in out


def test_evolve_evaluates_both_energies_when_the_tables_differ(monkeypatch, capsys):
    made = _counted_energies(monkeypatch, skew_factor=1.5)
    code, out, _ = run(capsys, "evolve", WAVE, "--seed", "1", "--grid-n", "64")
    assert code == 1
    rows = _csv_rows(out)
    symmetric, skew = made
    assert symmetric.calls == skew.calls == len(rows) == 9
    assert all(e_skew == 1.5 * e_sym for _, e_sym, e_skew, _ in rows)
    gap = max(abs(e_sym - e_skew) for _, e_sym, e_skew, _ in rows) / abs(rows[0][1])
    assert f"{gap:.3e}" == "5.000e-01"
    line = f"boundary-form-independence: FAIL (max relative symmetric-vs-skew gap {gap:.3e})"
    assert line in out.splitlines()
    assert "energy-drift: PASS" in out


@pytest.mark.parametrize("seed", ["0", "1", "3", "106"])
def test_evolve_energy_drift_at_16384_points(tmp_path, capsys, seed):
    # with max_mode = N/8 the unscaled per-mode propagator drifted by 1.9e-6
    # at seed 1; the scaled closed form stays near 1e-9.  Both energies read
    # one table, so they agree exactly; by quadrature they differed by
    # 2.5e-10 (seed 3) and 1.5e-10 (seed 106), over the 1e-10 gate.
    code, out, _ = run(
        capsys, "evolve", WAVE, "--grid-n", "16384", "--seed", seed, "--out", str(tmp_path)
    )
    assert "energy-drift: PASS" in out, out
    gap = "max relative symmetric-vs-skew gap 0.000e+00"
    assert f"boundary-form-independence: PASS ({gap})" in out
    assert code == 0


def test_evolve_rejects_unsupported_system(tmp_path, capsys):
    problem = tmp_path / "other.jet"
    problem.write_text(
        "dims 2 1 2; L = z[1;1 1]^2;\n"
        "grid 0 6.283185307179586 64 periodic;\nevolve 0 1 4;\n"
    )
    code, out, _ = run(capsys, "evolve", str(problem))
    assert code == 1
    assert "evolve-system-supported: FAIL" in out


@pytest.mark.parametrize(
    "old,new,detail",
    [
        # the null Lagrangians D_2(y[1]^3 / 3) and D_2(x[1] y[2]) keep the
        # squared-wave operator, but the density gains a cubic and an
        # x-dependent term, which the per-mode energy does not cover
        (
            "z[b; k l]))))));",
            "z[b; k l])))))) + z[1; 2]*y[1]^2 + x[1]*z[2; 2];",
            "the slice energy needs a quadratic form in y and z with constant "
            "coefficients and at most three time derivatives, not the term x[1]*z[2;2]",
        ),
        (
            "skewQ[1; 2 1] = -z[1; 2];",
            "",
            "perturbation violates the top-level relation at a=1, I=(1, 2): "
            "splitting sum is z[1;2], not 0",
        ),
    ],
    ids=["density", "skew"],
)
def test_evolve_reports_unsupported_system_as_a_failed_check(
    old, new, detail, tmp_path, capsys
):
    problem = tmp_path / "unsupported.jet"
    problem.write_text(open(WAVE).read().replace(old, new))
    code, out, err = run(capsys, "evolve", str(problem))
    assert code == 1
    assert out == f"evolve-system-supported: FAIL ({detail})\n"
    assert err == ""


@pytest.mark.parametrize(
    "grid,options,length",
    [("0 1e300 64", (), "1e+300"), ("0 1e-300 64", ("--t1", "0"), "1e-300")],
)
def test_evolve_rejects_grid_beyond_the_float_range(
    grid, options, length, tmp_path, monkeypatch, capsys
):
    # xi^3 underflows on the wide domain and xi^2 overflows on the narrow one
    import jetforms.cli as cli

    problem = tmp_path / "range.jet"
    problem.write_text(
        open(WAVE).read().replace(
            "grid 0 6.283185307179586 256 periodic;", f"grid {grid} periodic;"
        )
    )
    message = f"a period of {length} puts xi^3 outside the float range"
    monkeypatch.setattr(cli, "derive", _fail_derive)
    code, out, err = run(capsys, "evolve", str(problem), *options)
    assert code == 2
    assert out == ""
    assert err == f"{problem}:{GRID_LINE}:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), *options, "--json")
    assert code == 2
    assert json.loads(out) == {
        "error": message, "line": GRID_LINE, "column": 1, "expected": []
    }


def test_evolve_rejects_energy_beyond_the_float_range(tmp_path, capsys):
    # xi^3 stays finite at this period, so the state is built and derive runs;
    # the slice energy's higher powers of xi overflow (the pytest settings
    # turn a numpy overflow warning into an error)
    problem = tmp_path / "short.jet"
    problem.write_text(
        open(WAVE).read().replace(
            "grid 0 6.283185307179586 256 periodic;", "grid 0 1e-100 64 periodic;"
        )
    )
    message = "a period of 1e-100 puts xi^S outside the float range"
    code, out, err = run(capsys, "evolve", str(problem), "--t1", "0")
    assert code == 2
    assert out == ""
    assert err == f"{problem}:{GRID_LINE}:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), "--t1", "0", "--json")
    assert code == 2
    assert json.loads(out) == {
        "error": message, "line": GRID_LINE, "column": 1, "expected": []
    }


def test_evolve_rejects_an_energy_coefficient_beyond_the_float_range(tmp_path, capsys):
    # 10^400 in front of L parses and derives exactly, but the energy tables'
    # coefficients have no float: an error at the Lagrangian, not a traceback
    fixture = open(WAVE).read()
    lagrangian_line = 1 + fixture.split("\n").index(
        next(line for line in fixture.split("\n") if line.startswith("L = "))
    )
    problem = tmp_path / "huge.jet"
    message = "the slice energy has a coefficient beyond the float range"
    problem.write_text(fixture.replace("L = sum", "L = 10^400*sum"))
    code, out, err = run(capsys, "evolve", str(problem))
    assert (code, out) == (2, "")
    assert err == f"{problem}:{lagrangian_line}:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), "--json")
    assert code == 2
    assert json.loads(out) == {
        "error": message, "line": lagrangian_line, "column": 1, "expected": []
    }
    # within the float range the same Lagrangian evolves
    problem.write_text(fixture.replace("L = sum", "L = 10^100*sum"))
    code, out, _ = run(capsys, "evolve", str(problem))
    assert code == 0 and "energy-drift: PASS" in out


@pytest.mark.parametrize(
    "old,new,at_lagrangian,message",
    [
        # xi^4 is finite at the fixture's period, c xi^4 is not
        ("L = sum", "L = 10^300*sum", True,
         "the slice-energy weight 1e+300*xi^4 of a period of 6.28319 passes the float range"),
        # every weight is finite, their sum over a state is not
        ("L = sum", "L = 10^298*sum", True,
         "the slice energy at t = 0.875 passes the float range"),
        # xi^4 itself is past the float range
        ("grid 0 6.283185307179586 256 periodic;\nevolve 0 1 8;",
         "grid 0 1e-80 256 periodic;\nevolve 0 1e-90 8;", False,
         "a period of 1e-80 puts xi^S outside the float range"),
    ],
)
def test_evolve_tells_a_coefficient_from_a_period_beyond_the_float_range(
    old, new, at_lagrangian, message, tmp_path, capsys
):
    # the energy weights c xi^S are formed once per grid: a power xi^S out of
    # range is the grid's fault, a weight or an energy out of range while
    # xi^S is not is the Lagrangian's
    fixture = open(WAVE).read()
    assert old in fixture
    line = 1 + fixture.split("\n").index(
        next(text for text in fixture.split("\n") if text.startswith("L = "))
    ) if at_lagrangian else GRID_LINE
    problem = tmp_path / "range.jet"
    problem.write_text(fixture.replace(old, new))
    code, out, err = run(capsys, "evolve", str(problem))
    assert (code, out) == (2, "")
    assert err == f"{problem}:{line}:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), "--json")
    assert code == 2
    assert json.loads(out) == {"error": message, "line": line, "column": 1, "expected": []}


@pytest.mark.parametrize(
    "grid", ["0 1 64 open", "0 6.283185307179586 64 periodic 0 1 64 periodic"]
)
def test_evolve_reports_a_grid_it_cannot_evolve_at_the_grid_keyword(
    grid, tmp_path, monkeypatch, capsys
):
    # the Cauchy solver needs one periodic axis; the grid parses, and evolve
    # points at its keyword, not at the start of the file
    import jetforms.cli as cli

    problem = tmp_path / "grid.jet"
    problem.write_text(
        open(WAVE).read().replace(
            "grid 0 6.283185307179586 256 periodic;", f"grid {grid};"
        )
    )
    message = "Cauchy evolution needs a 1-D periodic grid"
    monkeypatch.setattr(cli, "derive", _fail_derive)
    code, out, err = run(capsys, "evolve", str(problem))
    assert code == 2
    assert out == ""
    assert err == f"{problem}:{GRID_LINE}:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), "--json")
    assert code == 2
    assert json.loads(out) == {
        "error": message, "line": GRID_LINE, "column": 1, "expected": []
    }


def test_evolve_checks_the_grid_before_the_end_time(tmp_path, monkeypatch, capsys):
    # an end time past the digit limit of the first axis is no reason to
    # reject a grid that no end time could evolve: the grid is reported first
    import jetforms.cli as cli

    problem = tmp_path / "open.jet"
    problem.write_text(
        open(WAVE).read().replace(
            "grid 0 6.283185307179586 256 periodic;", "grid 0 1 64 open;"
        )
    )
    message = "Cauchy evolution needs a 1-D periodic grid"
    monkeypatch.setattr(cli, "derive", _fail_derive)
    code, out, err = run(capsys, "evolve", str(problem), "--t1", "1e9")
    assert code == 2
    assert out == ""
    assert err == f"{problem}:{GRID_LINE}:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), "--t1", "1e9", "--json")
    assert code == 2
    assert json.loads(out) == {
        "error": message, "line": GRID_LINE, "column": 1, "expected": []
    }


def test_debug_log_reports_sizes_and_timings(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="jetforms"):
        code, quiet_out, _ = run(capsys, "dedonder-form", WAVE)
    assert code == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "jetforms"]
    assert any(
        "8 coefficients, Xi 9 wedge terms, Theta 9 wedge terms" in m for m in messages
    )
    assert any(m.startswith("stage seconds:") for m in messages)
    assert any(m.startswith("dedonder-form took") for m in messages)
    # the parse: L's body runs 64 times, and its leaves and those of the
    # other statements take 46 values
    parse, = [m for m in messages if m.startswith("parse took ")]
    assert parse.endswith(" s: 126 sum-body evaluations, 46 leaf evaluations")
    # the default level logs nothing, and logging never touches stdout
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="jetforms"):
        _, out, _ = run(capsys, "dedonder-form", WAVE)
    assert not [r for r in caplog.records if r.name == "jetforms"]
    assert out == quiet_out


@pytest.mark.parametrize(
    "level,logged",
    [("basic_format", ""), ("no-such-level", ""), ("debug", "euler-lagrange took")],
)
def test_log_variable_reads_level_names_only(level, logged):
    # BASIC_FORMAT is an attribute of logging but no level: like any name
    # that is no level it leaves the level at WARNING
    import jetforms

    package_root = str(pathlib.Path(jetforms.__file__).parents[1])
    env = dict(os.environ, JETFORMS_LOG=level)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "jetforms.cli", "euler-lagrange", WAVE],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert (logged in result.stderr) if logged else result.stderr == ""


def _fail_derive(cfg, L):
    raise AssertionError("derive ran before the input was rejected")


def test_evolve_rejects_small_grid_n(monkeypatch, capsys):
    import jetforms.cli as cli

    monkeypatch.setattr(cli, "derive", _fail_derive)
    # 0 is a given size like any other, not a missing option
    for count in ("4", "0"):
        code, out, err = run(capsys, "evolve", WAVE, "--grid-n", count)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"--grid-n {count}: grids need at least 8 points per axis, got {count}" in err
        code, out, _ = run(capsys, "evolve", WAVE, "--grid-n", count, "--json")
        assert code == 2
        assert "at least 8 points" in json.loads(out)["error"]


# xi_max = 32 on the fixture's grid of 256 points over [0, 2 pi]
NO_DIGIT_AT_FIXTURE = (
    "|t1 - t0| exceeds 2.1e+06, past which no digit of the evolved state survives "
    "(max mode 32)"
)


@pytest.mark.parametrize(
    "option,message,before_derive",
    [
        (("--t1", "nan"), "--t1 nan: the end time must be finite", True),
        (("--t1=-inf",), "--t1 -inf: the end time must be finite", True),
        (("--seed", "-1"), "--seed -1: the seed must be non-negative", True),
        (("--t1", "1e308"), "end time 1e+308: " + NO_DIGIT_AT_FIXTURE, True),
        (("--t1", "1e100"), "end time 1e+100: " + NO_DIGIT_AT_FIXTURE, True),
    ],
)
def test_evolve_rejects_bad_inputs(option, message, before_derive, monkeypatch, capsys):
    import jetforms.cli as cli

    if before_derive:
        monkeypatch.setattr(cli, "derive", _fail_derive)
    code, out, err = run(capsys, "evolve", WAVE, *option)
    assert code == 2
    assert out == ""
    assert err == f"{WAVE}:1:1: {message}\n"
    code, out, _ = run(capsys, "evolve", WAVE, *option, "--json")
    assert code == 2
    assert json.loads(out) == {"error": message, "line": 1, "column": 1, "expected": []}


def test_evolve_keeps_end_times_below_the_digit_limit(capsys):
    # xi_max * t1 = 3.2e7 < 1/sqrt(eps) = 6.7e7: evolved and judged, not rejected
    code, out, _ = run(capsys, "evolve", WAVE, "--t1", "1e6")
    assert code in (0, 1)
    assert "energy-drift:" in out


def test_evolve_reports_float_overflow(tmp_path, capsys):
    # a domain of 1e100 keeps xi_max |t1 - t0| = 5e6 below the digit limit,
    # but the propagator's dt^3 overflows
    problem = tmp_path / "wide.jet"
    problem.write_text(
        open(WAVE).read()
        .replace("grid 0 6.283185307179586 256 periodic;", "grid 0 1e100 64 periodic;")
        .replace("evolve 0 1 8;", "evolve 0 1e105 1;")
    )
    message = "evolving to t = 1e+105 leaves the float range"
    code, out, err = run(capsys, "evolve", str(problem))
    assert code == 2
    assert out == ""
    assert err == f"{problem}:1:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), "--json")
    assert code == 2
    assert json.loads(out)["error"] == message


@pytest.mark.parametrize("case", ["file", "under_file", "csv_is_directory"])
@pytest.mark.parametrize("json_mode", [False, True])
def test_evolve_rejects_unwritable_out(case, json_mode, tmp_path, monkeypatch, capsys):
    import jetforms.cli as cli

    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = {"file": blocker, "under_file": blocker / "sub", "csv_is_directory": tmp_path}[case]
    if case == "csv_is_directory":
        (tmp_path / "conservation.csv").mkdir()
    else:
        monkeypatch.setattr(cli, "derive", _fail_derive)
    flags = ["--json"] if json_mode else []
    code, out, err = run(capsys, "evolve", WAVE, "--out", str(out_dir), *flags)
    assert code == 2
    if json_mode:
        record = json.loads(out)
        assert record["error"].startswith(f"--out {out_dir}: ")
        assert (record["line"], record["column"]) == (1, 1)
    else:
        assert out == ""
        assert err.startswith(f"{WAVE}:1:1: --out {out_dir}: ")
        assert err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "grid", ["0 6.283185307179586 64 open", "0 1 8 periodic 0 1 8 periodic"]
)
def test_evolve_rejects_grid_that_is_not_1d_periodic(grid, tmp_path, monkeypatch, capsys):
    import jetforms.cli as cli

    problem = tmp_path / "grid.jet"
    problem.write_text(
        pathlib.Path(WAVE).read_text().replace(
            "grid 0 6.283185307179586 256 periodic;", f"grid {grid};"
        )
    )
    monkeypatch.setattr(cli, "derive", _fail_derive)
    code, out, err = run(capsys, "evolve", str(problem))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "Cauchy evolution needs a 1-D periodic grid" in err
    code, out, _ = run(capsys, "evolve", str(problem), "--json")
    assert code == 2
    assert json.loads(out)["error"] == "Cauchy evolution needs a 1-D periodic grid"


@pytest.mark.parametrize(
    "argv",
    [
        ("euler-lagrange",),
        ("boundary-form",),
        ("dedonder-form",),
        ("verify",),
        ("noether",),
        ("residual",),
        ("evolve", "--grid-n", "64"),
    ],
    ids=lambda argv: argv[0],
)
def test_one_symmetric_solve_per_command(argv, monkeypatch, capsys):
    import jetforms.dedonder as dedonder

    # counts the solves themselves: the top-down solve with no top-level data
    # is the symmetric solve, whichever public name reaches it
    solves = []
    solve = dedonder._solve_top_down

    def counted(dec, top_delta):
        if not top_delta:
            solves.append(dec)
        return solve(dec, top_delta)

    monkeypatch.setattr(dedonder, "_solve_top_down", counted)
    code, _, _ = run(capsys, argv[0], WAVE, *argv[1:])
    assert code in (0, 1)
    assert len(solves) == 1
    assert solves[0].components  # the command's own decomposition, not Phi = 0


def test_each_image_is_built_once_per_section(monkeypatch, capsys):
    # residual and noether substitute many Exprs through each declared
    # section; the section builds each coordinate's image once
    from jetforms.expressions import PolynomialSection

    builds = []
    build = PolynomialSection._image

    def counted(section, cid):
        builds.append((section, cid))  # the section kept, so its id stays its own
        return build(section, cid)

    monkeypatch.setattr(PolynomialSection, "_image", counted)
    for command in ("noether", "residual"):
        code, _, _ = run(capsys, command, WAVE)
        assert code in (0, 1)
    keys = [(id(section), cid) for section, cid in builds]
    assert keys
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "argv",
    [
        ("euler-lagrange",),
        ("boundary-form",),
        ("dedonder-form",),
        ("verify",),
        ("noether",),
        ("residual",),
        ("evolve", "--grid-n", "64"),
    ],
    ids=lambda argv: argv[0],
)
def test_boundary_form_pullback_is_reduced_only_where_verify_reports_it(
    argv, monkeypatch, capsys
):
    # Xi's pullback vanishes by construction; only verify reduces it, once
    import jetforms.forms as forms

    reductions = []
    reduce = forms.holonomic_reduce

    def counted(form, cfg):
        reductions.append(form)
        return reduce(form, cfg)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "jetforms" and getattr(module, "holonomic_reduce", None) is reduce:
            monkeypatch.setattr(module, "holonomic_reduce", counted)
    code, _, _ = run(capsys, argv[0], WAVE, *argv[1:])
    assert code in (0, 1)
    assert len(reductions) == (1 if argv[0] == "verify" else 0)


def test_verify_reports_a_boundary_form_that_does_not_pull_back_to_zero(
    monkeypatch, capsys
):
    import jetforms.cli as cli
    from jetforms.forms import DifferentialForm, holonomic_reduce, render_form

    derive = cli.derive
    flipped = {}

    def derive_with_one_flipped_term(cfg, L):
        derivation = derive(cfg, L)
        xi = derivation.boundary_symmetric
        (wedge, value), *_ = xi.form.terms()
        xi.form = DifferentialForm(
            xi.form.degree, {**dict(xi.form.terms()), wedge: -value}
        )
        flipped["form"], flipped["cfg"] = xi.form, cfg
        return derivation

    monkeypatch.setattr(cli, "derive", derive_with_one_flipped_term)
    code, out, err = run(capsys, "verify", WAVE)
    assert code == 1 and err == ""
    reduced = holonomic_reduce(flipped["form"], flipped["cfg"])
    assert not reduced.is_zero
    assert f"boundary-form-pullback-vanishes: FAIL ({render_form(reduced)})\n" in out
    # the other checks still read the coefficients, which solve the system
    assert "boundary-form-target-vertical-pullback: PASS\n" in out


def test_verify_evaluates_the_structural_checks_of_the_boundary_form(monkeypatch, capsys):
    # verify evaluates both structural predicates on Xi itself: a
    # dx[2]^dz[1;1 1] term, of order k = 2 above the forgetful level k-1,
    # fails the semi-basic check; one vertical factor keeps the double
    # contraction at zero
    import jetforms.cli as cli
    from jetforms.expressions import Expr
    from jetforms.forms import DifferentialForm
    from jetforms.jets import base_coord, jet_coord

    derive = cli.derive

    def derive_with_one_deep_term(cfg, L):
        derivation = derive(cfg, L)
        xi = derivation.boundary_symmetric
        deep = (base_coord(2), jet_coord(1, (1, 1)))
        xi.form = DifferentialForm(xi.form.degree, {**dict(xi.form.terms()), deep: Expr.one()})
        return derivation

    monkeypatch.setattr(cli, "derive", derive_with_one_deep_term)
    code, out, err = run(capsys, "verify", WAVE)
    assert code == 1 and err == ""
    assert "boundary-form-semibasic-over-forgetful: FAIL\n" in out
    assert "boundary-form-double-vertical-contraction: PASS\n" in out
    assert "boundary-form-pullback-vanishes: FAIL (" in out
