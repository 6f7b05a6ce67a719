"""cli_fixture: every CLI command as a fresh subprocess on the bundled fixture.

Interpreter start-up and ``import jetforms`` dominate these commands; the
symbolic layers see tiny objects, so a kernel change that adds per-call
set-up cost shows here and not on the ladder.  One operation is one command;
op_s is the wall time of one pass over all eight (cli_pass_s).
"""
from __future__ import annotations

import json
from pathlib import Path
import cauchy_accuracy
import harness
from tracing import merge

# label, command and options after the problem file, expected exit code,
# golden file under tests/golden (None: compared with an in-process run)
COMMANDS = (
    ("euler-lagrange", ["euler-lagrange"], 0, "wave_euler_lagrange.txt"),
    ("boundary-form", ["boundary-form", "--json"], 0, "wave_boundary_form.json"),
    ("dedonder-form", ["dedonder-form", "--json"], 0, "wave_dedonder_form.json"),
    ("verify", ["verify"], 0, None),
    ("noether", ["noether"], 0, None),
    ("residual-sol", ["residual", "--section", "sol"], 0, None),
    ("residual-bump", ["residual", "--section", "bump"], 1, None),
    ("evolve", ["evolve", "--seed", "{seed}", "--out", "{out}"], 0, None),
)


def prepare(checkout, seed: int) -> list:
    """The eight commands, after one warm-up command that compiles the
    checkout's bytecode and fills the page cache."""
    out_dir = checkout.scratch / "evolve-out"
    commands = [
        (label, [cmd[0], str(checkout.fixture)]
         + [part.format(seed=seed, out=out_dir) for part in cmd[1:]], code, golden)
        for label, cmd, code, golden in COMMANDS
    ]
    _, proc = checkout.python(["-m", "jetforms.cli", *commands[0][1]])
    proc.check_returncode()
    return commands


def run(checkout, args, results, commands):
    csv_path = checkout.scratch / "evolve-out" / "conservation.csv"
    outputs = []  # (label, exit code, stdout, CSV text or None)

    def record(label, proc):
        csv_text = csv_path.read_text() if label == "evolve" else None
        outputs.append((label, proc.returncode, proc.stdout, csv_text))

    clock = harness.Clock(in_process=False)

    def one_pass():
        for label, argv, _, _ in commands:
            (_, proc), _ = clock.time(checkout.python, ["-m", "jetforms.cli", *argv])
            record(label, proc)
        return clock.op()

    samples = harness.measure(args.seconds, one_pass)
    op_s = results.timing(samples, clock, f"one pass over the {len(commands)} subprocess "
                                          "commands (cli_pass_s)")
    results.metrics["peak_rss_mb"] = clock.peak_rss_mb()
    results.note(f"peak_rss_mb = {results.metrics['peak_rss_mb']:.6g} MB (largest child process)")

    if args.trace:
        traced_pass(checkout, commands, results, record, op_s)
        results.metrics.update(harness.startup_probes(checkout))

    check(checkout, commands, outputs, results)
    accuracy(checkout, args.seed, outputs, results)


def traced_pass(checkout, commands, results, record, untraced_s: float):
    """One pass with every command run under benchmarks/traced_cli.py."""
    groups, wall_total = [], 0.0
    for label, argv, _, _ in commands:
        spans_path = checkout.scratch / f"spans-{label}.json"
        wall, proc = checkout.python(
            [str(harness.BENCH_DIR / "traced_cli.py"), str(spans_path), *argv]
        )
        wall_total += wall
        record(label, proc)
        child = json.loads(Path(spans_path).read_text())
        spans = child["spans"]
        main_s = sum(end - start for name, start, end, parent in spans
                     if name == "cli.main" and parent < 0)
        builds = sum(name == "dedonder.symmetric_boundary_coefficients"
                     for name, *_ in spans)
        results.metrics[f"cli.main_s.{label}"] = main_s
        results.metrics[f"cli.symmetric_builds.{label}"] = builds
        results.note(f"{label}: main {main_s:.6g} s in-process, "
                     f"{builds} symmetric coefficient builds")
        # start-up and shutdown of the interpreter, outside the child's clock
        groups.append(spans + [["cli.interpreter", 0.0, wall - child["elapsed"], -1]])
    spans = merge(groups)
    results.trace(untraced_s, wall_total, spans, spans)


def check(checkout, commands, outputs, results):
    """Exit codes, golden files and, for commands without one, equality with
    the same command run in-process."""
    checkout.import_jetforms()
    from jetforms.cli import main

    reference = {}
    for label, argv, code, golden in commands:
        if golden is not None:
            stdout, source = (checkout.golden / golden).read_text(), f"tests/golden/{golden}"
        else:
            _, stdout = harness.run_main(main, argv)
            source = "the in-process run"
        csv_text = None
        if label == "evolve":
            csv_text = Path(argv[argv.index("--out") + 1], "conservation.csv").read_text()
        reference[label] = (code, stdout, source, csv_text)

    inexact = 0
    for index, (label, code, stdout, csv_text) in enumerate(outputs):
        expected_code, ref_stdout, source, ref_csv = reference[label]
        problems = []
        if code != expected_code:
            problems.append(f"exit code {code}, expected {expected_code}")
        if label == "evolve":
            # The energies are sums whose order follows set iteration, which
            # depends on the interpreter's hash seed, so they can differ in the
            # last digits from one process to the next.  Check statuses
            # exactly and numbers to a tolerance; count the inexact outputs.
            if _status_only(stdout) != _status_only(ref_stdout):
                problems.append(f"check statuses differ from {source}")
            problems += cauchy_accuracy.csv_problems(csv_text, 0.0, 1.0, 8)
            problems += cauchy_accuracy.csv_mismatch(csv_text, ref_csv)
            inexact += csv_text != ref_csv
        elif stdout != ref_stdout:
            problems.append(f"stdout differs from {source}")
        results.op(f"{label}#{index // len(commands)}", problems)
    results.metrics["cli.nondeterministic_outputs"] = inexact
    if inexact:
        results.note(f"WARNING: {inexact} of {len(outputs) // len(commands)} evolve outputs "
                     "were not byte-identical to the in-process run (agree within 1e-12)")


def _status_only(stdout: str) -> dict:
    return {name: status for name, (status, _) in cauchy_accuracy.statuses(stdout).items()}


def accuracy(checkout, seed: int, outputs, results):
    """Cauchy accuracy on the fixture grid, where the evolve command runs."""
    from jetforms import numeric
    from jetforms.problem import parse_problem

    spec = parse_problem(checkout.fixture.read_text())
    grid, (t0, t1, _) = spec.grid, spec.evolve
    count, n = grid.shape[0], spec.cfg.n
    max_mode = max(2, count // 8)
    state = numeric.band_limited_state(grid, n, max_mode, seed).data
    evolve = next(output for output in outputs if output[0] == "evolve")
    metrics = {
        "numeric.modes": count // 2 + 1,
        "numeric.spectrum_bytes": n * 4 * (count // 2 + 1) * 16,
        "numeric.roundtrip_relerr": cauchy_accuracy.roundtrip_relerr(
            numeric, grid, state, t1 - t0),
        "numeric.wave_l2err": cauchy_accuracy.wave_l2err(numeric, grid, n, max_mode, seed, t1 - t0),
        "numeric.energy_drift": cauchy_accuracy.csv_drift(evolve[3]),
        "numeric.gate_failures": cauchy_accuracy.gate_failures(
            cauchy_accuracy.statuses(evolve[2])),
    }
    results.metrics.update(metrics)
    for name, value in metrics.items():
        results.note(f"{name} = {value:.6g} (N={count}, max_mode={max_mode})")
