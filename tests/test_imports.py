"""Every module-level import is used, or says why not.

This covers the package, the tests and the demos. An import whose bound
name appears nowhere else in its module fails this test, unless its line
carries ``# noqa: F401`` (a binding kept for other code to find, such as the
benchmark's tracing wrappers). Importing the package starts no thread and
loads no thread pool or logging machinery.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riemannlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {bound}")
    return unused


def test_guard_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: tau"]


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_importing_the_package_loads_no_pool_and_starts_no_thread():
    probe = (
        "import sys, threading\n"
        "import riemannlab, riemannlab.cli\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)),"
        " threading.active_count())\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    ).stdout
    assert out == "[] 1\n"


def test_deleted_sums_load_no_masked_arrays():
    """``np.unique`` and ``np.setdiff1d`` import ``numpy.ma`` (about 1 MB) on
    first use; dropping repeated indices and kept zero-norm tags needs neither."""
    probe = (
        "import sys\n"
        "import riemannlab as rl\n"
        "from riemannlab.scenarios import SPHERE\n"
        "p = rl.make_uniform_partition(rl.Box(((0.0, 1.0),)), 8)\n"
        "plan = rl.DeletionPlan(rl.FixedK(2), rl.Prefix(), (3, 1, 3))\n"
        "rl.variant_sum(rl.ScalarField(1, lambda q: q[..., 0]), p, plan=plan)\n"
        "q = rl.make_uniform_partition(SPHERE.domain, 8)\n"
        "spec = rl.VariantSpec('deleted', rl.FixedK(2), rl.RandomPick(1))\n"
        "rl.surface_sum(rl.ScalarField(3, lambda x: x[..., 0]), SPHERE, q, spec)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    ).stdout
    assert out == "False\n"
