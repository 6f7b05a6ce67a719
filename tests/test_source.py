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
