import ast
import os
import pathlib
import subprocess
import sys

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


def test_import_does_not_load_scipy():
    # scipy serves only the prolongation flow oracle and is imported there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")])
    )
    probe = (
        "import sys, jetforms; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


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
