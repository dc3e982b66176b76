"""Every script under ``examples/`` runs to completion.

The examples drive the library through its public modules, so an API they
use that moves or goes breaks them; each runs here as a subprocess with
stdin closed (none may wait for input) and must exit 0.
"""

import os
import pathlib
import subprocess
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
_EXAMPLES = sorted((_REPO_ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(_EXAMPLES) >= 5


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=_REPO_ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
