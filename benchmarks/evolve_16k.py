"""evolve_16k: the evolve command in-process at N=16384 with max_mode = N/8.

numeric does almost all of the work: the seeded band-limited state, the
per-mode Cauchy propagator and the energy functional.  At this size the
unscaled propagator is ill-conditioned: the round trip t=0->1->0 is far
from the start, while the energy-drift gate fails on some seeds and passes
on others.  Both are reported as measured, next to each other, and neither
counts as a failed operation; a failed
operation is a crash of the command's contract (unsupported system, exit
code that disagrees with its own checks, malformed or unrepeatable CSV).
One operation is one command; op_s is its wall time (evolve_s).
"""
from __future__ import annotations

from time import perf_counter

import cauchy_accuracy
import harness
from tracing import Tracer

GRID_N = 16384


def problems_of(code: int, stdout: str, csv_text: str, first, steps: int) -> list:
    found = cauchy_accuracy.statuses(stdout)
    problems = []
    if found.get("evolve-system-supported", ("FAIL",))[0] != "PASS":
        problems.append("the squared-wave system is not reported as supported")
    missing = [name for name in cauchy_accuracy.NUMERIC_GATES if name not in found]
    if missing:
        problems.append(f"no report for {missing}")
    expected_code = 0 if all(status == "PASS" for status, _ in found.values()) else 1
    if code != expected_code:
        problems.append(f"exit code {code} disagrees with the reported checks")
    problems += cauchy_accuracy.csv_problems(csv_text, 0.0, 1.0, steps)
    if first is not None and (stdout, csv_text) != first:
        problems.append("output differs from the first run of the same command")
    return problems


def prepare(checkout, seed: int):
    """Imports, the parsed fixture, and one evolve on the fixture's own grid,
    which loads every code path the timed command takes."""
    checkout.import_jetforms()
    from jetforms.cli import main
    from jetforms.problem import parse_problem

    spec = parse_problem(checkout.fixture.read_text())
    harness.run_main(main, ["evolve", str(checkout.fixture), "--seed", str(seed),
                            "--out", str(checkout.scratch / "warm-up")])
    return spec


def run(checkout, args, results, spec):
    from jetforms import numeric
    from jetforms.cli import main

    out_dir = checkout.scratch / "evolve-out"
    argv = ["evolve", str(checkout.fixture), "--grid-n", str(GRID_N),
            "--seed", str(args.seed), "--out", str(out_dir)]
    csv_path = out_dir / "conservation.csv"
    steps = spec.evolve[2]
    outputs = []  # (exit code, stdout, CSV text)

    def one(command=main):
        code, stdout = harness.run_main(command, argv)
        outputs.append((code, stdout, csv_path.read_text()))

    clock = harness.Clock(in_process=True)

    def timed():
        clock.time(one)
        return clock.op()

    samples = harness.measure(args.seconds, timed)
    op_s = results.timing(samples, clock, "one evolve command (evolve_s)")
    results.metrics["peak_rss_mb"] = clock.peak_rss_mb()
    results.note(f"peak_rss_mb = {results.metrics['peak_rss_mb']:.6g} MB")

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            start = perf_counter()
            one(lambda argv: tracer.call("cli.main", main, argv))
            traced_s = perf_counter() - start
        finally:
            tracer.uninstall()
        results.metrics["cli.main_s.evolve"] = next(
            end - start for name, start, end, _ in tracer.spans if name == "cli.main")
        results.metrics["cli.symmetric_builds.evolve"] = sum(
            name == "dedonder.symmetric_boundary_coefficients" for name, *_ in tracer.spans)
        results.trace(op_s, traced_s, tracer.spans, tracer.spans)
        results.metrics.update(harness.startup_probes(checkout))

    first = None
    for index, (code, stdout, csv_text) in enumerate(outputs):
        results.op(f"evolve#{index}", problems_of(code, stdout, csv_text, first, steps))
        first = first or (stdout, csv_text)

    code, stdout, csv_text = outputs[0]
    gates = cauchy_accuracy.statuses(stdout)
    results.metrics["numeric.gate_failures"] = cauchy_accuracy.gate_failures(gates)
    for name in cauchy_accuracy.NUMERIC_GATES:
        status, detail = gates.get(name, ("missing", ""))
        results.note(f"gate {name}: {status} ({detail}), exit code {code}")

    grid = numeric.GridSpec(tuple((lo, hi, GRID_N, periodic)
                                  for lo, hi, _, periodic in spec.grid.axes))
    t0, t1, _ = spec.evolve
    n, max_mode = spec.cfg.n, max(2, GRID_N // 8)
    data = numeric.band_limited_state(grid, n, max_mode, args.seed).data
    metrics = {
        "numeric.modes": GRID_N // 2 + 1,
        "numeric.spectrum_bytes": n * 4 * (GRID_N // 2 + 1) * 16,
        "numeric.roundtrip_relerr": cauchy_accuracy.roundtrip_relerr(numeric, grid, data, t1 - t0),
        "numeric.wave_l2err": cauchy_accuracy.wave_l2err(
            numeric, grid, n, max_mode, args.seed, t1 - t0),
        "numeric.energy_drift": cauchy_accuracy.csv_drift(csv_text),
    }
    results.metrics.update(metrics)
    for name, value in metrics.items():
        results.note(f"{name} = {value:.6g} (N={GRID_N}, max_mode={max_mode})")
