"""Compare two checkouts on the evolve command, in one process.

    python tools/evolve_ab.py A B [--runs N] [--grid-n N] [--seed S]

copies the ``src/jetforms`` of each checkout A and B into a temporary
directory as the packages ``jetforms_a`` and ``jetforms_b`` (the package
imports itself only by relative imports, so a copy runs under any name) and
runs each side's ``cli.main`` on ``evolve FIXTURE --grid-n N --seed S --out
DIR``, with FIXTURE the side's copy of the bundled fixture, N default 16384
(the size the ``evolve_16k`` benchmark times), S default 0 and DIR a
temporary directory.  After one warm-up run per side it times N alternated
runs (option ``--runs``, default 40), A first on even runs and B first on
odd ones, and stops with an error when a run's exit code, stdout or CSV
differ from the first run of A.

It prints each side's median run time, the median and quartiles of the
paired ratio B/A of the run times, and one row per stage: its median
milliseconds per run on each side and the median of its paired ratios.  The
stages are the calls ``cmd_evolve`` makes through names the tool rebinds in
each copy: ``parse`` (``parse_problem``), ``seeding``
(``band_limited_state``), ``derive``, ``energy tables`` (building the two
energy functionals), ``steps`` (``cauchy_evolve``) and ``energy calls``;
``rest`` is the run less those.  A ratio below 1 means B is faster.  Fresh
processes differ in heap layout and in the CPU speed they meet, which can
move a run by a few percent; alternated runs in one process share both.
Pin the process to one CPU with ``taskset -c 0`` for steadier figures.
Nothing is written into either checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import pathlib
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

SIDES = ("a", "b")
STAGES = ("parse", "seeding", "derive", "energy tables", "steps", "energy calls", "rest")
FIXTURE = pathlib.Path("fixtures") / "fourth_order_wave.jet"


class Side:
    """One checkout's package, copied as ``jetforms_<side>``, with its stage
    calls timed into ``self.stages``."""

    def __init__(self, checkout: pathlib.Path, scratch: pathlib.Path, side: str):
        name = f"jetforms_{side}"
        shutil.copytree(checkout / "src" / "jetforms", scratch / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.fixture = scratch / name / FIXTURE
        self.cli = importlib.import_module(f"{name}.cli")
        numeric = importlib.import_module(f"{name}.numeric")
        self.stages: dict = {}
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

    def run(self, argv: list, out: pathlib.Path) -> tuple:
        """((exit code, stdout, CSV), seconds, {stage: seconds}) of one command."""
        self.stages = {}
        csv = out / "conservation.csv"
        csv.unlink(missing_ok=True)  # so that no run reads another's
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(argv)
        seconds = perf_counter() - start
        if not csv.is_file():
            raise SystemExit(f"evolve exited with code {code} and wrote no CSV")
        self.stages["rest"] = seconds - sum(self.stages.values())
        return (code, stdout.getvalue(), csv.read_text()), seconds, self.stages


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(checkouts: list, runs: int, grid_n: int, seed: int) -> None:
    flag, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True  # nothing lands in either checkout
    samples = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        out = scratch / "out"
        sys.path.insert(0, str(scratch))
        try:
            sides = {side: Side(pathlib.Path(checkout).resolve(), scratch, side)
                     for side, checkout in zip(SIDES, checkouts)}
            argv = {side: ["evolve", str(s.fixture), "--grid-n", str(grid_n),
                           "--seed", str(seed), "--out", str(out)]
                    for side, s in sides.items()}
            first = sides["a"].run(argv["a"], out)[0]
            sides["b"].run(argv["b"], out)
            for index in range(runs):
                for side in (SIDES if index % 2 == 0 else SIDES[::-1]):
                    output, seconds, stages = sides[side].run(argv[side], out)
                    if output != first:
                        raise SystemExit(f"run {index} of {side.upper()} differs from A's first")
                    samples[side].append((seconds, stages))
        finally:
            sys.dont_write_bytecode, sys.path[:] = flag, path
            for name in [name for name in sys.modules if name.split(".")[0] in
                         {f"jetforms_{side}" for side in SIDES}]:
                del sys.modules[name]
    a, b = samples["a"], samples["b"]
    ratio = quartiles([tb / ta for (ta, _), (tb, _) in zip(a, b)])
    print(f"runs {runs}, grid-n {grid_n}, seed {seed}")
    for side, checkout in zip(SIDES, checkouts):
        median = statistics.median(seconds for seconds, _ in samples[side])
        print(f"{side.upper()} {checkout}: run median {1e3 * median:.2f} ms")
    print(f"B/A run ratio: median {ratio[1]:.3f} (q1 {ratio[0]:.3f}, q3 {ratio[2]:.3f})")
    width = max(map(len, STAGES))
    print(f"{'stage':<{width}}  {'A ms':>8}  {'B ms':>8}  {'B/A':>6}")
    for stage in STAGES:
        ms = [1e3 * statistics.median(stages[stage] for _, stages in side) for side in (a, b)]
        ratios = [sb[stage] / sa[stage] for (_, sa), (_, sb) in zip(a, b) if sa[stage] > 0]
        median = f"{statistics.median(ratios):6.3f}" if ratios else "     -"
        print(f"{stage.replace(' ', '_'):<{width}}  {ms[0]:8.3f}  {ms[1]:8.3f}  {median}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    parser.add_argument("--runs", type=int, default=40)
    parser.add_argument("--grid-n", type=int, default=16384)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for checkout in args.checkouts:
        if not (pathlib.Path(checkout) / "src" / "jetforms" / FIXTURE).is_file():
            parser.error(f"{checkout} is not a jetforms checkout")
    compare(args.checkouts, args.runs, args.grid_n, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
