"""Which lines of the ``jetforms`` package no workload runs.

    python tools/traffic.py [CHECKOUT]

line-traces with ``sys.settrace``, in one process, these runs of the package
of CHECKOUT (default: the checkout holding this script):

* each command of the CLI (``cli.HANDLERS``) on the bundled fixture, as text
  and as ``--json``;
* ``evolve`` on the fixture at ``--grid-n 4096``, and back in time to
  ``--t1 -1``;
* every script under ``demos/``;
* ``run_rung`` and ``layer_probes`` of ``benchmarks/symbolic_ladder.py`` on
  its (2,2,2), (3,2,2) and (2,2,3) rungs at seed 5.

Each run's output is discarded.  The tool then prints, per module, how many
of its executable lines no run reached, and those lines, each stretch of
them with the function that holds it.  A line is executable when the
compiler starts an instruction of a function body on it; docstrings, and
the module and class bodies that run on import, are not counted.
"""
from __future__ import annotations

import contextlib
import dis
import importlib
import inspect
import io
import os
import pathlib
import runpy
import sys
import types
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = pathlib.Path("src/jetforms/fixtures/fourth_order_wave.jet")
LADDER_SEED = 5
# code objects that run as part of the body around them
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _ladder(checkout: pathlib.Path) -> None:
    benchmarks = str(checkout / "benchmarks")
    if benchmarks not in sys.path:
        sys.path.insert(0, benchmarks)
    ladder = importlib.import_module("symbolic_ladder")
    api = ladder.load_api()
    for rung in ladder.make_rungs(api, LADDER_SEED, ladder.RUNGS[:3]):
        _, outputs = ladder.run_rung(api, rung, ladder.untraced)
        ladder.layer_probes(api, rung, outputs, ladder.untraced)


def runs(checkout: pathlib.Path) -> list:
    """(name, callable) per run, in the order they are traced."""
    package_folder(checkout)
    cli = importlib.import_module("jetforms.cli")
    fixture = str(checkout / FIXTURE)
    argvs = [[command, *flags] for command in cli.HANDLERS for flags in ((), ("--json",))]
    argvs += [["evolve", "--grid-n", "4096"], ["evolve", "--t1", "-1"]]
    found = [(" ".join(argv), partial(cli.main, [argv[0], fixture, *argv[1:]])) for argv in argvs]
    for path in sorted((checkout / "demos").glob("*.py")):
        found.append((f"demos/{path.name}", partial(runpy.run_path, str(path), run_name="__main__")))
    found.append(("ladder", partial(_ladder, checkout)))
    return found


def package_folder(checkout: pathlib.Path) -> pathlib.Path:
    """The folder of ``jetforms``, imported from ``checkout/src``."""
    src = str(checkout / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    folder = pathlib.Path(importlib.import_module("jetforms").__file__).parent
    if folder.resolve() != (checkout / "src" / "jetforms").resolve():
        raise SystemExit(f"jetforms is already imported from {folder}")
    return folder


def executable_lines(path: pathlib.Path) -> dict:
    """{line: function} for every line on which a function body of the
    module at ``path`` starts an instruction, outer functions first; a
    comprehension belongs to the body around it."""
    found: dict = {}
    queue = [(compile(path.read_text(), str(path), "exec"), None)]
    while queue:
        code, function = queue.pop(0)
        if code.co_name not in _COMPREHENSIONS:
            # a module or class body has no CO_OPTIMIZED flag and runs on import
            function = code.co_qualname if code.co_flags & inspect.CO_OPTIMIZED else None
        queue.extend((c, function) for c in code.co_consts if isinstance(c, types.CodeType))
        if function is not None:
            for _, line in dis.findlinestarts(code):
                found.setdefault(line, function.replace(".<locals>", ""))
    return found


def unreached(checkout: pathlib.Path, chosen: list) -> dict:
    """{module file name: {line: function}} of the executable lines that
    none of the ``chosen`` runs (from :func:`runs`) reached."""
    folder = package_folder(checkout)
    prefix = os.path.join(folder, "")
    reached = set()  # (file name, line)

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    previous = sys.gettrace()
    with contextlib.chdir(checkout), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(start)
        try:
            for _, run in chosen:
                run()
        finally:
            sys.settrace(previous)
    return {
        path.name: {line: name for line, name in executable_lines(path).items()
                    if (str(path), line) not in reached}
        for path in sorted(folder.glob("*.py"))
    }


def stretches(executable: dict, missed: dict) -> list:
    """[first, last, function] per stretch of missed executable lines of
    one function with no reached executable line between them."""
    found, after_missed = [], False
    for line in sorted(executable):
        if line in missed:
            if after_missed and found[-1][2] == missed[line]:
                found[-1][1] = line
            else:
                found.append([line, line, missed[line]])
        after_missed = line in missed
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    checkout = pathlib.Path(args[0]).resolve() if args else ROOT
    missed = unreached(checkout, runs(checkout))
    folder = package_folder(checkout)
    for name, lines in missed.items():
        executable = executable_lines(folder / name)
        print(f"{name}: {len(lines)} of {len(executable)} executable lines never run")
        for first, last, function in stretches(executable, lines):
            span = str(first) if first == last else f"{first}-{last}"
            print(f"  {span:>9}  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
