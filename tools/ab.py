"""Compare two checkouts on one workload, in one process.

    python tools/ab.py {ladder,evolve,parse} A B [--runs N] [--seed S] [--grid-n N]
                       [--shape M,N,K]

copies the ``src/jetforms`` of each checkout A and B into a temporary
directory as the packages ``jetforms_a`` and ``jetforms_b`` (the package
imports itself only by relative imports, so a copy runs under any name) and
loads the workload from each copy:

``ladder``  the rungs of ``benchmarks/symbolic_ladder.py``, ``make_rungs(api,
            S)`` (default seed 5) with the names its ``load_api`` binds while
            the copy stands in for ``jetforms``.  A run is ``run_rung`` over
            the rungs; each API call is timed on its own, as a row.
``evolve``  ``cli.main`` on ``evolve FIXTURE --grid-n N --seed S --out DIR``,
            with FIXTURE the copy's bundled fixture, N default 16384 (the size
            the ``evolve_16k`` benchmark times), S default 0 and DIR a
            temporary directory.  The rows are the calls ``cmd_evolve`` makes
            through names rebound in each copy: ``parse`` (``parse_problem``),
            ``seeding`` (``band_limited_state``), ``derive``, ``energy tables``
            (the two energy functionals), ``steps`` (``cauchy_evolve``) and
            ``energy calls``; ``rest`` is the run less those.
``parse``   ``parse_problem`` on the copy's bundled fixture and on a ladder
            file: the Lagrangian of ``make_rung(api, (M, N, K), Random(S))``
            of the ladder module (default shape 3,3,3 and seed 5), one term
            ``c*z[a; I]*z[b; J]`` per line, with ``field YT = dx[1];`` and
            the rung's affine solution as a section.  A run is the two
            parses; per file the rows are ``tokenize`` (the copy's
            ``_tokenize``), ``parse`` (``parse_problem``) and ``peak_kb``,
            the peak that ``tracemalloc`` traces in one more, untimed,
            parse, in KB rather than ms.

After one warm-up run per side it times N alternated runs (option
``--runs``, default 40), A first on even runs and B first on odd ones.  It
stops with an error when a run's output differs from A's warm-up (for
``ladder`` the rendered Lagrange derivatives, for ``evolve`` the exit code,
stdout and CSV, for ``parse`` the two parsed problems, their expressions
rendered) or, for ``ladder``, when a rung fails the benchmark's own
``problems_of`` against ``benchmarks/expected_sizes.json``.  Outputs are
checked outside the timed span.

It prints each side's median run time, the median and quartiles of the
paired ratio B/A of the run times, each side's median count of minor page
faults per run (from ``resource.getrusage``'s ``ru_minflt``), and one row
per call or stage: its median milliseconds per run on each side and the
median of its paired ratios (below 1, B is faster).  A shared machine's CPU
speed drifts within minutes and fresh processes differ in heap layout;
alternated runs in one process share both.  Pin the process to one CPU with
``taskset -c 0`` for steadier figures.  Because both sides share one heap,
what one side frees the other's next run may reuse, or the allocator may
hand back to the kernel first: a change in what a run allocates, and its
page faults, must be confirmed with alternated ``benchmarks/run.py`` runs,
one process each.  The ladder module is read from the checkout that holds this
script, and nothing is written into either checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import pathlib
import random
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("a", "b")
FIXTURE = pathlib.Path("fixtures") / "fourth_order_wave.jet"


class Ladder:
    """The symbolic ladder's rungs and API from one copy."""

    SEED, ROW, ROWS, OPTIONS = 5, "call", (), ("seed",)

    def __init__(self, package: str, scratch: pathlib.Path, args):
        self.ladder = importlib.import_module("symbolic_ladder")
        for module in ("dedonder", "expressions", "forms", "jets", "prolongations"):
            importlib.import_module(f"{package}.{module}")
        sys.modules["jetforms"] = sys.modules[package]  # compare() puts it back
        self.api = self.ladder.load_api()
        self.rungs = self.ladder.make_rungs(self.api, args.seed)
        self.expected = json.loads(self.ladder.SIZES_FILE.read_text())

    def run(self) -> tuple:
        """(rendered Lagrange derivatives, seconds, {call: seconds}) of a pass."""
        calls: dict = {}

        def call(fn, *args):
            start = perf_counter()
            out = fn(*args)
            key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            calls[key] = calls.get(key, 0.0) + perf_counter() - start
            return out

        start = perf_counter()
        outputs = [self.ladder.run_rung(self.api, rung, call)[1] for rung in self.rungs]
        seconds = perf_counter() - start
        for rung, out in zip(self.rungs, outputs):
            problems = self.ladder.problems_of(rung, out, self.expected[rung.label], {})
            if problems:
                raise SystemExit(f"rung {rung.label}: {problems[0]}")
        return [list(map(repr, out["build"]["el"])) for out in outputs], seconds, calls


class Evolve:
    """The ``evolve`` command from one copy, its stage calls timed."""

    SEED, ROW, OPTIONS = 0, "stage", ("grid_n", "seed")
    ROWS = ("parse", "seeding", "derive", "energy tables", "steps", "energy calls", "rest")

    def __init__(self, package: str, scratch: pathlib.Path, args):
        self.csv = scratch / "out" / "conservation.csv"
        self.argv = ["evolve", str(scratch / package / FIXTURE), "--grid-n", str(args.grid_n),
                     "--seed", str(args.seed), "--out", str(self.csv.parent)]
        self.cli = importlib.import_module(f"{package}.cli")
        numeric = importlib.import_module(f"{package}.numeric")
        for module, attr, stage in ((self.cli, "parse_problem", "parse"),
                                    (self.cli, "derive", "derive"),
                                    (numeric, "band_limited_state", "seeding"),
                                    (numeric, "cauchy_evolve", "steps")):
            setattr(module, attr, self.timed(stage, getattr(module, attr)))
        build = self.timed("energy tables", self.cli.EnergyFunctional)

        def energy_functional(theta):
            energy = build(theta)
            call = self.timed("energy calls", energy)
            call.entries = energy.entries  # cmd_evolve compares the two tables
            return call
        self.cli.EnergyFunctional = energy_functional

    def timed(self, stage: str, fn):
        def call(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stages[stage] = self.stages.get(stage, 0.0) + perf_counter() - start
        return call

    def run(self) -> tuple:
        """((exit code, stdout, CSV), seconds, {stage: seconds}) of one command."""
        self.stages = {}
        self.csv.unlink(missing_ok=True)  # so that no run reads another's
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(self.argv)
        seconds = perf_counter() - start
        if not self.csv.is_file():
            raise SystemExit(f"evolve exited with code {code} and wrote no CSV")
        self.stages["rest"] = seconds - sum(self.stages.values())
        return (code, stdout.getvalue(), self.csv.read_text()), seconds, self.stages


def ladder_problem(rung, render_expr) -> str:
    """The rung's Lagrangian as a problem file, one term ``c*z[a; I]*z[b;
    J]`` per line, with ``field YT = dx[1];`` and the rung's affine solution
    as the section ``sol``."""
    cfg, terms = rung.cfg, []
    for monomial, coefficient in rung.lagrangian.terms():
        leaves = [f"z[{a}; {' '.join(map(str, I))}]"
                  for (_, a, I), exponent in monomial for _ in range(exponent)]
        terms.append("*".join([str(coefficient), *leaves]))
    components = ", ".join(map(render_expr, rung.solution.components))
    return (f"dims {cfg.m} {cfg.n} {cfg.k};\nL = " + "\n  + ".join(terms) + ";\n"
            f"field YT = dx[1];\nsection sol = ({components});\n")


class Parse:
    """``parse_problem`` from one copy on the fixture and a ladder file."""

    SEED, ROW, OPTIONS = 5, "stage", ("shape", "seed")
    ROWS = tuple(f"{source} {row}" for source in ("fixture", "ladder")
                 for row in ("tokenize", "parse", "peak_kb"))

    def __init__(self, package: str, scratch: pathlib.Path, args):
        self.problem = importlib.import_module(f"{package}.problem")
        self.render = importlib.import_module(f"{package}.expressions").render_expr
        ladder = importlib.import_module("symbolic_ladder")
        for module in ("dedonder", "expressions", "forms", "jets", "prolongations"):
            importlib.import_module(f"{package}.{module}")
        sys.modules["jetforms"] = sys.modules[package]  # compare() puts it back
        shape = tuple(int(size) for size in args.shape.split(","))
        rung = ladder.make_rung(ladder.load_api(), shape, random.Random(args.seed))
        self.texts = {"fixture": (scratch / package / FIXTURE).read_text(),
                      "ladder": ladder_problem(rung, self.render)}

    def data(self, spec) -> tuple:
        """The parsed problem as plain data, its expressions rendered."""
        render = self.render
        return (
            (spec.cfg.m, spec.cfg.n, spec.cfg.k), spec.metrics, render(spec.lagrangian),
            {name: [render(c) for c in (*field.base_components, *field.vertical_components)]
             for name, field in spec.fields.items()},
            {key: render(value) for key, value in spec.skew.items()},
            {name: [render(c) for c in section.components]
             for name, section in spec.sections.items()},
            spec.grid and spec.grid.axes, spec.evolve, spec.grid_at, spec.lagrangian_at,
        )

    def run(self) -> tuple:
        """(the parsed problems, seconds, {row: seconds or bytes}) of both parses."""
        rows, outputs = {}, []
        for source, text in self.texts.items():
            start = perf_counter()
            self.problem._tokenize(text)
            rows[f"{source} tokenize"] = perf_counter() - start
            start = perf_counter()
            spec = self.problem.parse_problem(text)
            rows[f"{source} parse"] = perf_counter() - start
            tracemalloc.start()
            try:
                self.problem.parse_problem(text)
                rows[f"{source} peak_kb"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs.append(self.data(spec))
        return outputs, rows["fixture parse"] + rows["ladder parse"], rows


WORKLOADS = {"ladder": Ladder, "evolve": Evolve, "parse": Parse}


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(workload, checkouts: list, args) -> None:
    saved = sys.dont_write_bytecode, list(sys.path), sys.modules.get("jetforms")
    sys.dont_write_bytecode = True  # nothing lands in either checkout
    samples = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        sys.path[:0] = [str(scratch), str(ROOT / "benchmarks")]
        try:
            sides = {}
            for side, checkout in zip(SIDES, checkouts):
                shutil.copytree(pathlib.Path(checkout) / "src" / "jetforms",
                                scratch / f"jetforms_{side}",
                                ignore=shutil.ignore_patterns("__pycache__"))
                sides[side] = workload(f"jetforms_{side}", scratch, args)
            first = sides["a"].run()[0]  # A's warm-up
            order = [("b", "the warm-up")] + [
                (side, f"run {index}") for index in range(args.runs)
                for side in (SIDES if index % 2 == 0 else SIDES[::-1])]
            for side, name in order:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                output, seconds, rows = sides[side].run()
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                if output != first:
                    raise SystemExit(f"{name} of {side.upper()} differs from A's warm-up")
                if name.startswith("run"):
                    samples[side].append((seconds, rows, faults))
        finally:
            sys.dont_write_bytecode, sys.path[:], package = saved
            sys.modules.pop("jetforms", None)
            if package is not None:
                sys.modules["jetforms"] = package
            for name in [name for name in sys.modules if name.split(".")[0] in
                         {f"jetforms_{side}" for side in SIDES}]:
                del sys.modules[name]
    a, b = samples["a"], samples["b"]
    ratio = quartiles([tb / ta for (ta, *_), (tb, *_) in zip(a, b)])
    print(", ".join(f"{option.replace('_', '-')} {getattr(args, option)}"
                    for option in ("runs", *workload.OPTIONS)))
    for side, checkout in zip(SIDES, checkouts):
        median = statistics.median(seconds for seconds, *_ in samples[side])
        print(f"{side.upper()} {checkout}: run median {1e3 * median:.2f} ms")
    print(f"B/A run ratio: median {ratio[1]:.3f} (q1 {ratio[0]:.3f}, q3 {ratio[2]:.3f})")
    faults = [statistics.median(faults for *_, faults in side) for side in (a, b)]
    print(f"page faults per run: A median {faults[0]:g}, B median {faults[1]:g}")
    names = workload.ROWS or sorted(
        set().union(*(rows for _, rows, _ in a + b)),
        key=lambda name: -statistics.median(rows.get(name, 0.0) for _, rows, _ in a))
    width = max(map(len, names))
    print(f"{workload.ROW:<{width}}  {'A ms':>8}  {'B ms':>8}  {'B/A':>6}")
    for name in names:
        scale = 1e-3 if name.endswith("peak_kb") else 1e3  # bytes to KB, seconds to ms
        ms = [scale * statistics.median(rows.get(name, 0.0) for _, rows, _ in side)
              for side in (a, b)]
        ratios = [rb.get(name, 0.0) / ra[name] for (_, ra, _), (_, rb, _) in zip(a, b)
                  if ra.get(name, 0.0) > 0]
        median = f"{statistics.median(ratios):6.3f}" if ratios else "     -"
        print(f"{name.replace(' ', '_'):<{width}}  {ms[0]:8.3f}  {ms[1]:8.3f}  {median}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    parser.add_argument("--runs", type=int, default=40)
    parser.add_argument("--seed", type=int, help="default 5 for ladder and parse, 0 for evolve")
    parser.add_argument("--grid-n", type=int, default=16384, help="evolve's grid size")
    parser.add_argument("--shape", default="3,3,3", help="parse's ladder rung, M,N,K")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if not all(size.isdigit() for size in args.shape.split(",")) or args.shape.count(",") != 2:
        parser.error("--shape takes M,N,K")
    for checkout in args.checkouts:
        if not (pathlib.Path(checkout) / "src" / "jetforms" / FIXTURE).is_file():
            parser.error(f"{checkout} is not a jetforms checkout")
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.SEED
    compare(workload, args.checkouts, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
