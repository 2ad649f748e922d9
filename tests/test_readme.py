"""Every ```python block of README.md runs against the package in src/."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)

# The blocks are one tour: later blocks use names that earlier ones define,
# so they run in order in one namespace, each under its own file name.
RUNNER = """
import json, sys
ns = {}
for i, block in enumerate(json.load(sys.stdin)):
    exec(compile(block, f"README.md python block {i}", "exec"), ns)
"""


def test_readme_python_blocks_run():
    assert BLOCKS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-c", RUNNER], input=json.dumps(BLOCKS),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
