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
    from jetforms.problem import parse_problem
    from jetforms.wave import wave_problem

    spec = parse_problem(open(WAVE).read())
    assert spec.lagrangian == wave_problem().lagrangian


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


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/problem.jet")
    assert code == 2


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
    assert names.count("numeric.energy_call") == 2 * states > 0
    assert jetforms.GridSpec is jetforms.numeric.GridSpec is jetforms.problem.GridSpec


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
    assert err == f"{problem}:1:1: {message}\n"
    code, out, _ = run(capsys, "evolve", str(problem), *options, "--json")
    assert code == 2
    assert json.loads(out) == {"error": message, "line": 1, "column": 1, "expected": []}


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
    # the default level logs nothing, and logging never touches stdout
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="jetforms"):
        _, out, _ = run(capsys, "dedonder-form", WAVE)
    assert not [r for r in caplog.records if r.name == "jetforms"]
    assert out == quiet_out


def _fail_derive(cfg, L):
    raise AssertionError("derive ran before the input was rejected")


def test_evolve_rejects_small_grid_n(monkeypatch, capsys):
    import jetforms.cli as cli

    monkeypatch.setattr(cli, "derive", _fail_derive)
    code, out, err = run(capsys, "evolve", WAVE, "--grid-n", "4")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "grids need at least 8 points per axis, got 4" in err
    code, out, _ = run(capsys, "evolve", WAVE, "--grid-n", "4", "--json")
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
    import jetforms.cli as cli
    import jetforms.dedonder as dedonder

    solves = []
    solve = dedonder.symmetric_boundary_coefficients

    def counted(dec):
        solves.append(dec)
        return solve(dec)

    for module in (dedonder, cli):
        if hasattr(module, "symmetric_boundary_coefficients"):
            monkeypatch.setattr(module, "symmetric_boundary_coefficients", counted)
    code, _, _ = run(capsys, argv[0], WAVE, *argv[1:])
    assert code in (0, 1)
    assert len(solves) == 1


@pytest.mark.parametrize("command", ["verify", "noether", "residual"])
def test_one_reduced_table_per_command(command, monkeypatch, capsys):
    # residual without --section runs all three sections, and noether tests
    # each section for a solution: all of them read one table
    import jetforms.dedonder as dedonder
    from jetforms.problem import parse_problem

    spec = parse_problem(open(WAVE).read())
    derivation = dedonder.derive(spec.cfg, spec.lagrangian)
    symmetric = (
        derivation.decomposition.form() + derivation.boundary_symmetric.form.d()
    )
    builds = []
    kernel = dedonder._reduced_vertical_contractions

    def counted(form, cfg):
        if form == symmetric:
            builds.append(form)
        return kernel(form, cfg)

    monkeypatch.setattr(dedonder, "_reduced_vertical_contractions", counted)
    code, _, _ = run(capsys, command, WAVE)
    assert code in (0, 1)
    assert len(builds) <= 1
