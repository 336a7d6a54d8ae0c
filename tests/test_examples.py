"""Every example runs to completion.

Each ``examples/*.py`` script runs as a user would run it: in a fresh
interpreter, from an empty working directory, with this checkout's ``src``
on the path.  It runs under ``-X dev`` (asyncio debug mode, warnings for
unclosed files) with ``ResourceWarning`` raised as an error, so an example
that leaks a socket or a descriptor fails here too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES,
                         ids=[path.stem for path in EXAMPLES])
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        pytest.fail(f"{script.name} exited {done.returncode}; stderr ends:\n"
                    f"{done.stderr[-3000:]}")
