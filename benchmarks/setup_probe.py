"""Set up one workload the way a run does, then exit.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

run.py times this script in a fresh process for setup_s: interpreter
start-up, the imports, the seeded inputs and the warm-up, with nothing
timed after them.
"""
import importlib
import sys
from pathlib import Path

import harness
from run import pin

pin()
with harness.Checkout(Path.cwd()) as checkout:
    importlib.import_module(sys.argv[1]).prepare(checkout, int(sys.argv[2]))
