"""Layered benchmark of jetforms: one workload per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a jetforms checkout.  Single process, closed loop, one
client: each operation starts when the previous one has finished.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics BENCHMARK.json lists; with ``--trace 1`` it carries the
per-layer metrics of a separate traced operation instead.  Earlier lines
give the same figures by name, the environment, and every failed check.
"""
import argparse
import importlib
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import harness

WORKLOADS = ("cli_fixture", "symbolic_ladder", "evolve_16k")

# Which end-to-end figure each group of per-layer metrics should move.
TARGETS = (
    ("cli.import_s cli.interpreter_s cli.heavy_imports problem.parse_problem_s",
     "op_ref on cli_fixture, setup_s everywhere"),
    ("cli.main_s.* cli.symmetric_builds.*", "op_ref (cli_pass_s) on cli_fixture"),
    ("dedonder.{phi_from_lagrangian,symmetric_boundary_coefficients,"
     "assemble_boundary_form,dedonder_form,lagrange_derivative,"
     "perturbed_coefficients}_s expressions.{partial,total_derivative}_s",
     "ladder.build_s, op_ref on symbolic_ladder"),
    ("dedonder.{verify_condition3,dedonder_residual,compare_boundary_forms}_s "
     "forms.{d,interior_product,holonomic_reduce,holonomic_pullback}_s "
     "expressions.substitute_section_s",
     "ladder.verify_s, op_ref on symbolic_ladder"),
    ("prolongations.{prolong,is_symmetry,noether_current}_s",
     "ladder.noether_s, op_ref on symbolic_ladder"),
    ("numeric.{band_limited_state,cauchy_evolve,energy_call}_s",
     "op_ref (evolve_s) on evolve_16k"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def environment_line() -> str:
    versions = []
    for package in ("numpy", "scipy", "sympy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} absent")
    return (
        f"python {platform.python_version()}, {', '.join(versions)}, "
        f"nproc {os.cpu_count()}, run pinned to CPU {min(os.sched_getaffinity(0))}, "
        f"threads pinned to 1 ({', '.join(harness.THREAD_VARS)})"
    )


def pin():
    """One thread for BLAS and FFT pools, and one CPU for the run and every
    process it starts: the scheduler would otherwise move the single client
    between CPUs whose speed differs."""
    for name in harness.THREAD_VARS:
        os.environ[name] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        checkout = harness.Checkout(root)
    except (OSError, ValueError, harness.SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {why.get(args.workload, '')}")
    print(f"environment: {environment_line()}")
    print("load average at start: {:.2f} {:.2f} {:.2f}".format(*os.getloadavg()))
    if args.trace:
        for metrics, target in TARGETS:
            print(f"target: {metrics} -> {target}")
    results = harness.Results(spec)
    try:
        with checkout:
            # each workload is the module of the same name
            workload = importlib.import_module(args.workload)
            start = perf_counter()
            prepared = workload.prepare(checkout, args.seed)
            results.note(f"set-up in this process: {perf_counter() - start:.6g} s "
                         "after the imports of the run")
            results.setup(harness.setup_samples(checkout, args.workload, args.seed))
            workload.run(checkout, args, results, prepared)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("load average at end: {:.2f} {:.2f} {:.2f}".format(*os.getloadavg()))
    results.emit(bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
