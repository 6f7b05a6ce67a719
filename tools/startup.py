"""Import times of ``jetforms`` commands, from ``python -X importtime``.

    python tools/startup.py [COMMAND ...] [--runs N] [--checkout DIR]

runs each command (default ``verify``) on the bundled fourth-order wave
fixture N times (default 15), each in a fresh interpreter, one after
another, the way the ``jetforms`` console script does: import
``jetforms.cli`` and call ``main``.  The package source and the fixture
are those of the checkout DIR (default: the checkout holding this
script), so one copy of the script measures any checkout.  A command is a
CLI command name or one of the labels of ``FIXTURE_COMMANDS``, the eight
commands of a pass of the ``cli_fixture`` benchmark; ``all`` stands for
those eight.

Per command it prints one row per module the command imports that is part
of ``jetforms`` or of the standard library, with the best (smallest) self
and cumulative import time over the runs in milliseconds, largest
cumulative time first, and then one total row: the summed self time of the
``jetforms`` modules and of the standard-library ones, each the best of the
runs.  The total rows of two checkouts compare line by line.  Modules the
interpreter imports before the command starts, such as ``site`` and what
it loads, are left out.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = pathlib.Path("src", "jetforms", "fixtures", "fourth_order_wave.jet")  # in a checkout
# label -> command and options after the problem file; evolve prints its
# CSV rather than writing it under --out
FIXTURE_COMMANDS = {
    "euler-lagrange": ["euler-lagrange"],
    "boundary-form": ["boundary-form", "--json"],
    "dedonder-form": ["dedonder-form", "--json"],
    "verify": ["verify"],
    "noether": ["noether"],
    "residual-sol": ["residual", "--section", "sol"],
    "residual-bump": ["residual", "--section", "bump"],
    "evolve": ["evolve"],
}
# written to stderr just before the command's first import, so that the
# interpreter's own start-up imports are told apart from the command's
_MARK = "-- jetforms command starts"


def command_argv(label: str, checkout: pathlib.Path) -> list:
    """The CLI arguments of a label of FIXTURE_COMMANDS or a command name,
    on the checkout's fixture."""
    command, *options = FIXTURE_COMMANDS.get(label, [label])
    return [command, str(checkout / FIXTURE), *options]


def import_times(argv: list, checkout: pathlib.Path) -> dict:
    """{module: (self us, cumulative us)} of one fresh run of the command
    on the checkout's package source."""
    code = (
        "import sys\n"
        f"sys.stderr.write({_MARK!r} + '\\n')\n"
        "from jetforms.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    stderr = proc.stderr
    # exit code 1 is a failed check, which still ran the whole command
    if _MARK not in stderr or proc.returncode not in (0, 1):
        raise RuntimeError(f"the command failed (exit code {proc.returncode}):\n{stderr}")
    times = {}
    for line in stderr.split(_MARK, 1)[1].splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():  # the header row holds labels
            times[name.strip()] = (int(self_us), int(cumulative_us))
    return times


def best_times(argv: list, runs: int, checkout: pathlib.Path) -> tuple:
    """({module: (self ms, cumulative ms)}, (jetforms ms, standard library ms)),
    each the minimum over the runs, for the ``jetforms`` and standard-library
    modules the command imports; the totals sum the self times of one run."""
    best: dict = {}
    totals = []
    for _ in range(runs):
        package = stdlib = 0
        for name, (self_us, cumulative_us) in import_times(argv, checkout).items():
            top = name.split(".")[0]
            if top == "jetforms":
                package += self_us
            elif top in sys.stdlib_module_names:
                stdlib += self_us
            else:
                continue
            old_self, old_cumulative = best.get(name, (self_us, cumulative_us))
            best[name] = (min(old_self, self_us), min(old_cumulative, cumulative_us))
        totals.append((package, stdlib))
    table = {name: (s / 1000, c / 1000) for name, (s, c) in best.items()}
    return table, tuple(min(column) / 1000 for column in zip(*totals))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="*", default=["verify"],
                        help="command names or labels, or 'all'")
    parser.add_argument("--runs", type=int, default=15, help="fresh processes")
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT,
                        help="the checkout to measure (default: the one holding this script)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkout = args.checkout.resolve()
    if not (checkout / FIXTURE).is_file():
        parser.error(f"{checkout} holds no {FIXTURE}")
    labels = [
        label for command in args.commands
        for label in (FIXTURE_COMMANDS if command == "all" else [command])
    ]
    for number, label in enumerate(labels):
        best, (package_ms, stdlib_ms) = best_times(command_argv(label, checkout), args.runs,
                                                   checkout)
        if number:
            print()
        print(f"{'module':32} {'self_ms':>9} {'cumulative_ms':>14}")
        for name, (self_ms, cumulative_ms) in sorted(best.items(), key=lambda kv: -kv[1][1]):
            print(f"{name:32} {self_ms:9.2f} {cumulative_ms:14.2f}")
        print(f"total {label}: jetforms {package_ms:.2f} ms, "
              f"standard library {stdlib_ms:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
