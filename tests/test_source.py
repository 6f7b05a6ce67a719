import ast
import os
import pathlib
import subprocess
import sys

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "jetforms"


def test_no_assert_statements_in_library():
    # python -O strips assert statements; checks that guard the mathematics
    # raise explicitly so they hold under every interpreter flag
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    hits = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, f"assert statements in the library: {hits}"


def _run_fresh(statements: str) -> tuple:
    """Run ``statements`` in a fresh interpreter on this checkout's package;
    return their stdout lines and the numpy and scipy modules now loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")])
    )
    probe = statements + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    *out, heavy = result.stdout.splitlines()
    return out, heavy


def test_import_does_not_load_scipy():
    # the symbolic core is exact and imports neither numpy nor scipy; both
    # load only with jetforms.numeric (evolve and the numeric oracles), and
    # scipy only once the prolongation flow oracle runs
    assert _run_fresh("import jetforms, jetforms.dedonder") == ([], "[]")


@pytest.mark.parametrize(
    "command,exit_code",
    [
        ("euler-lagrange", 0),
        ("boundary-form", 0),
        ("dedonder-form", 0),
        ("verify", 0),
        ("noether", 0),
        ("residual", 1),  # all sections; the bump is not a solution
    ],
)
def test_symbolic_commands_do_not_load_numpy(command, exit_code):
    fixture = str(SOURCE / "fixtures" / "fourth_order_wave.jet")
    statements = (
        "import contextlib, io\n"
        "from jetforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{command!r}, {fixture!r}])\n"
        "print(code)"
    )
    assert _run_fresh(statements) == ([str(exit_code)], "[]")


def _eager_imports(tree) -> list:
    """(line, module) for each import outside every function body, i.e. each
    one that runs when the module is imported; relative ones start with '.'."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            modules = [node.module] if node.module else [a.name for a in node.names]
            found += [(node.lineno, prefix + module) for module in modules]
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_only_numeric_imports_numpy_or_scipy_at_module_level():
    # importing numpy, scipy or .numeric outside a function would load numpy
    # with every module that imports this one; inside a function is allowed
    eager = {
        path.name: [
            f"{path.name}:{line} {module}"
            for line, module in _eager_imports(ast.parse(path.read_text()))
            if module.split(".")[0] in ("numpy", "scipy") or module == ".numeric"
        ]
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert eager.pop("numeric.py")  # the scan does see numeric's own import
    hits = [hit for found in eager.values() for hit in found]
    assert not hits, f"module-level numpy, scipy or numeric imports: {hits}"


def _unused_imports(path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_library_modules_use_every_name_they_import():
    # __init__ imports to re-export; every other module imports to use
    paths = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert paths
    hits = [hit for path in paths for hit in _unused_imports(path)]
    assert not hits, f"imported but never used: {hits}"
