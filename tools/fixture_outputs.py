"""Fingerprints of what the commands and demos print on the bundled fixture.

    python tools/fixture_outputs.py [CHECKOUT]

runs each command of the ``jetforms`` CLI on the fourth-order wave fixture,
as text and as ``--json``, then ``residual --section`` for each of the
fixture's sections, ``evolve --seed 1`` on the fixture's grid and on the
16384 points that the ``evolve_16k`` benchmark times, ``evolve`` on 4096
points at seeds 0 and 2 and back in time to ``--t1 -1``, and every script
under ``demos/``.  Each run is a fresh interpreter under
``PYTHONHASHSEED=0``, started in CHECKOUT (default: the checkout holding
this script) on the package source there.  It prints one line per run: its
name, its exit code and the sha256 of its stdout and of its stderr.  The
lines of two checkouts compare with ``diff``.
"""
from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# relative to the checkout, so that no output names the checkout's path
FIXTURE = "src/jetforms/fixtures/fourth_order_wave.jet"
COMMANDS = (
    "euler-lagrange", "boundary-form", "dedonder-form", "verify", "noether", "residual",
    "evolve",
)
_CLI = "import sys\nfrom jetforms.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def runs(checkout: pathlib.Path) -> list:
    """(name, argv) per run, each argv relative to the checkout."""
    found = []
    for command in COMMANDS:
        for flags in ((), ("--json",)):
            found.append((" ".join((command, *flags)), [command, FIXTURE, *flags]))
    for section in ("sol", "bump", "cubic"):
        found.append((f"residual --section {section}",
                      ["residual", FIXTURE, "--section", section]))
    found.append(("evolve --seed 1", ["evolve", FIXTURE, "--seed", "1"]))
    # the size the evolve_16k benchmark times, its CSV printed
    found.append(("evolve --grid-n 16384 --seed 1",
                  ["evolve", FIXTURE, "--grid-n", "16384", "--seed", "1"]))
    # more band-limited states, and a negative step
    for seed in ("0", "2"):
        found.append((f"evolve --grid-n 4096 --seed {seed}",
                      ["evolve", FIXTURE, "--grid-n", "4096", "--seed", seed]))
    found.append(("evolve --t1 -1", ["evolve", FIXTURE, "--t1", "-1"]))
    cli = [(name, [sys.executable, "-c", _CLI, *argv]) for name, argv in found]
    demos = sorted((checkout / "demos").glob("*.py"))
    return cli + [(f"demos/{path.name}", [sys.executable, f"demos/{path.name}"]) for path in demos]


def fingerprint(checkout: pathlib.Path, argv: list) -> tuple:
    """(exit code, sha256 of stdout, sha256 of stderr) of one fresh run."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True)
    return (
        proc.returncode,
        hashlib.sha256(proc.stdout).hexdigest(),
        hashlib.sha256(proc.stderr).hexdigest(),
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    checkout = pathlib.Path(args[0]).resolve() if args else ROOT
    found = runs(checkout)
    width = max(len(name) for name, _ in found)
    for name, command in found:
        code, out, err = fingerprint(checkout, command)
        print(f"{name:{width}} {code:3} {out} {err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
