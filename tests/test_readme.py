"""The README's library quick reference runs as written."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_python_quick_reference_runs():
    [block] = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                         re.MULTILINE | re.DOTALL)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout  # the certify loop prints one line per check
