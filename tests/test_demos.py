"""Every script under demos/ runs to completion against the package source."""
import os
import pathlib
import subprocess
import sys

import pytest

import jetforms

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    package_root = str(pathlib.Path(jetforms.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
