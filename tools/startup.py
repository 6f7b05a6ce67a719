"""Import times of one ``jetforms`` command, from ``python -X importtime``.

    python tools/startup.py [COMMAND] [--runs N]

runs the command (default ``verify``) on the bundled fourth-order wave
fixture N times (default 15), each in a fresh interpreter, one after
another, the way the ``jetforms`` console script does: import
``jetforms.cli`` and call ``main``.  It prints one row per
module the command imports that is part of ``jetforms`` or of the standard
library, with the best (smallest) self and cumulative import time over the
runs in milliseconds, largest cumulative time first.  Modules the
interpreter imports before the command starts, such as ``site`` and what it
loads, are left out.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "src" / "jetforms" / "fixtures" / "fourth_order_wave.jet"
# written to stderr just before the command's first import, so that the
# interpreter's own start-up imports are told apart from the command's
_MARK = "-- jetforms command starts"


def import_times(command: str) -> dict:
    """{module: (self us, cumulative us)} of one fresh run of the command."""
    code = (
        "import sys\n"
        f"sys.stderr.write({_MARK!r} + '\\n')\n"
        "from jetforms.cli import main\n"
        f"sys.exit(main([{command!r}, {str(FIXTURE)!r}]))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
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


def best_times(command: str, runs: int) -> dict:
    """{module: (self ms, cumulative ms)}, each the minimum over the runs,
    for the ``jetforms`` and standard-library modules the command imports."""
    best: dict = {}
    for _ in range(runs):
        for name, (self_us, cumulative_us) in import_times(command).items():
            top = name.split(".")[0]
            if top != "jetforms" and top not in sys.stdlib_module_names:
                continue
            old_self, old_cumulative = best.get(name, (self_us, cumulative_us))
            best[name] = (min(old_self, self_us), min(old_cumulative, cumulative_us))
    return {name: (s / 1000, c / 1000) for name, (s, c) in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", default="verify")
    parser.add_argument("--runs", type=int, default=15, help="fresh processes")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    best = best_times(args.command, args.runs)
    print(f"{'module':32} {'self_ms':>9} {'cumulative_ms':>14}")
    for name, (self_ms, cumulative_ms) in sorted(best.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:32} {self_ms:9.2f} {cumulative_ms:14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
