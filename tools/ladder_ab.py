"""Compare two checkouts on the symbolic ladder, in one process.

    python tools/ladder_ab.py A B [--passes N] [--seed S]

copies the ``src/jetforms`` of each checkout A and B into a temporary
directory as the packages ``jetforms_a`` and ``jetforms_b`` (the package
imports itself only by relative imports, so a copy runs under any name),
binds from each the names that ``benchmarks/symbolic_ladder.load_api``
binds, and builds each side's rungs with ``make_rungs(api, S)`` (default
seed 5).  After one warm-up pass per side it times N alternated passes
(default 40) of ``run_rung`` over the rungs, A first on even passes and B
first on odd ones, with every API call of a pass timed on its own.

It prints each side's median pass time, the median and quartiles of the
paired ratio B/A of the pass times, and one row per API call: its median
seconds per pass on each side and the median of its paired ratios.  A
ratio below 1 means B is faster.  The CPU speed of a shared machine drifts
within minutes, which fresh processes per side cannot tell from a change of
a few percent; alternated passes in one process see the same drift on both
sides.  Pin the process to one CPU with ``taskset -c 0`` for steadier
figures.  The ladder module is read from the checkout that holds this
script, and nothing is written into either checkout.
"""
from __future__ import annotations

import argparse
import importlib
import pathlib
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("a", "b")


def load_side(checkout: pathlib.Path, scratch: pathlib.Path, side: str, ladder):
    """The ladder API of one checkout, from its package copied as
    ``jetforms_<side>``: ``ladder.load_api`` run while that copy stands in
    for ``jetforms``."""
    name = f"jetforms_{side}"
    shutil.copytree(checkout / "src" / "jetforms", scratch / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    for module in ("dedonder", "expressions", "forms", "jets", "prolongations"):
        importlib.import_module(f"{name}.{module}")
    saved = sys.modules.get("jetforms")
    sys.modules["jetforms"] = package
    try:
        return ladder.load_api()
    finally:
        if saved is None:
            del sys.modules["jetforms"]
        else:
            sys.modules["jetforms"] = saved


def timed_pass(ladder, api, rungs) -> tuple:
    """(seconds, {call: seconds}) of one pass over the rungs."""
    calls: dict = {}

    def call(fn, *args):
        start = perf_counter()
        out = fn(*args)
        key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        calls[key] = calls.get(key, 0.0) + perf_counter() - start
        return out

    start = perf_counter()
    for rung in rungs:
        ladder.run_rung(api, rung, call)
    return perf_counter() - start, calls


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(checkouts: list, passes: int, seed: int) -> None:
    flag, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True  # nothing lands in either checkout
    samples = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as scratch:
        sys.path[:0] = [scratch, str(ROOT / "benchmarks")]
        try:
            ladder = importlib.import_module("symbolic_ladder")
            apis = {side: load_side(pathlib.Path(checkout).resolve(), pathlib.Path(scratch),
                                    side, ladder)
                    for side, checkout in zip(SIDES, checkouts)}
            rungs = {side: ladder.make_rungs(api, seed) for side, api in apis.items()}
            for side in SIDES:
                timed_pass(ladder, apis[side], rungs[side])
            for index in range(passes):
                for side in (SIDES if index % 2 == 0 else SIDES[::-1]):
                    samples[side].append(timed_pass(ladder, apis[side], rungs[side]))
        finally:
            sys.dont_write_bytecode, sys.path[:] = flag, path
            for name in [name for name in sys.modules if name.split(".")[0] in
                         {f"jetforms_{side}" for side in SIDES}]:
                del sys.modules[name]
    a, b = samples["a"], samples["b"]
    ratio = quartiles([tb / ta for (ta, _), (tb, _) in zip(a, b)])
    print(f"passes {passes}, seed {seed}")
    for side, checkout in zip(SIDES, checkouts):
        median = statistics.median(total for total, _ in samples[side])
        print(f"{side.upper()} {checkout}: pass median {1e3 * median:.1f} ms")
    print(f"B/A pass ratio: median {ratio[1]:.3f} (q1 {ratio[0]:.3f}, q3 {ratio[2]:.3f})")
    names = sorted(set().union(*(calls for _, calls in a + b)),
                   key=lambda name: -statistics.median(calls.get(name, 0.0) for _, calls in a))
    width = max(map(len, names))
    print(f"{'call':<{width}}  {'A ms':>8}  {'B ms':>8}  {'B/A':>6}")
    for name in names:
        ms = [1e3 * statistics.median(calls.get(name, 0.0) for _, calls in side)
              for side in (a, b)]
        ratios = [cb.get(name, 0.0) / ca[name] for (_, ca), (_, cb) in zip(a, b)
                  if ca.get(name)]
        median = f"{statistics.median(ratios):6.3f}" if ratios else "     -"
        print(f"{name:<{width}}  {ms[0]:8.2f}  {ms[1]:8.2f}  {median}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    parser.add_argument("--passes", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    for checkout in args.checkouts:
        if not (pathlib.Path(checkout) / "src" / "jetforms" / "__init__.py").is_file():
            parser.error(f"{checkout} is not a jetforms checkout")
    compare(args.checkouts, args.passes, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
