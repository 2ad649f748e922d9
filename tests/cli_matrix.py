"""Run the command-line front end in-process over a fixed matrix of inputs,
and print one line: the run count, the exit-code tally and a sha256 digest.

Usage: ``python tests/cli_matrix.py [--grow on|off]``

The matrix is every registered scenario under every variant, selector and tag
rule at a small ``--m``; a few ``converge`` runs that write a CSV; eight runs
above one evaluation slab (8192 cells), so that slabs and helper threads are
used, one of them with enough slabs that ``--grow on`` grows them and three
that delete K = 37,640 of 65,536 terms; and the inputs the front end refuses
with exit code 2. Each run's argv, stdout, stderr, exit code and CSV bytes go
into the digest. Two checkouts, or two CPU counts of one checkout (say, under
``taskset -c 0``), that print the same line gave the same bytes on every run.
``--grow on`` or ``off`` forces the kernel's slab growth in-process
(``fields._GROW_TARGET_S`` set to infinity or 0), where by default the first
slab's measured cost decides; a run of each must print the default's line too.
The script always imports the package from the checkout it belongs to. It has
no ``test_`` prefix, so pytest does not collect it.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from riemannlab import fields  # noqa: E402
from riemannlab.cli import main  # noqa: E402
from riemannlab.geometry import TAG_RULES  # noqa: E402
from riemannlab.quadrature import VARIANTS  # noqa: E402
from riemannlab.scenarios import THEOREM_KINDS, get_scenario, scenario_names  # noqa: E402

SELECTORS = ("prefix", "random", "largest")
CSV = "report.csv"  # relative to the working directory, so no path reaches stdout

CONVERGE = [
    ["converge", "box.sinprod.2d", "--m-list", "4,8,16"],
    ["converge", "box.poly.3d", "--m-list", "3,5,7", "--variant", "deleted",
     "--k-schedule", "pow:0.5"],
    ["converge", "line.circle.rotation", "--m-list", "8,16,32", "--variant",
     "deleted", "--selector", "random", "--seed", "4"],
    ["converge", "surface.sphere.flux", "--m-list", "4,6,8", "--variant", "combined",
     "--selector", "largest", "--tags", "random"],
    ["converge", "gauss.cube.xfield", "--m-list", "2,3,4", "--variant", "combined"],
    ["converge", "stokes.disk.rotation", "--m-list", "4,8,16", "--variant",
     "perturbed", "--gamma", "0.25", "--tags", "corner"],
]

SLABBED = [
    ["integrate", "box.sinprod.2d", "--m", "128"],
    ["integrate", "line.circle.rotation", "--m", "20000", "--variant", "combined"],
    ["verify", "gauss.ball.identity", "--m", "24", "--variant", "deleted",
     "--selector", "largest"],
    ["verify", "stokes.hemisphere.rotation", "--m", "96", "--variant", "perturbed"],
    # 48^3 cells: 16 slabs of 6912, so the rest of the first slab grows
    ["integrate", "box.poly.3d", "--m", "48"],
    # 256^2 cells in 8 slabs, K = 37,640: a big deletion by each selector
    *(["integrate", "box.sinprod.2d", "--m", "256", "--variant", "combined",
       "--k-schedule", "pow:0.95", "--selector", selector] for selector in SELECTORS),
]

REFUSED = [
    [],
    ["integrate"],
    ["integrate", "no.such.scenario"],
    ["integrate", "green.disk.rotation"],
    ["verify", "box.sinprod.2d"],
    ["integrate", "box.sinprod.2d", "--variant", "bogus"],
    ["integrate", "box.sinprod.2d", "--gamma", "1.0"],
    ["integrate", "box.sinprod.2d", "--seed", "-1"],
    ["integrate", "box.sinprod.2d", "--variant", "deleted", "--k", "0"],
    ["integrate", "box.sinprod.2d", "--variant", "deleted", "--k-schedule", "pow:x"],
    ["integrate", "box.sinprod.2d", "--variant", "deleted", "--k-schedule", "cube"],
    ["integrate", "box.sinprod.2d", "--k", "1", "--k-schedule", "log"],
    ["integrate", "box.sinprod.2d", "--m", "0"],
    ["converge", "box.sinprod.2d", "--m-list", "4,8"],
    ["converge", "box.sinprod.2d", "--m-list", "a,b,c"],
    ["integrate", "surface.sphere.area", "--m", "8", "--tags", "corner"],
]


def matrix():
    """Every argv of the matrix, in a fixed order."""
    yield ["list-scenarios"]
    for name in scenario_names():
        command = "verify" if get_scenario(name).kind in THEOREM_KINDS else "integrate"
        for variant, selector, rule in itertools.product(VARIANTS, SELECTORS, TAG_RULES):
            yield [command, name, "--m", "6", "--variant", variant,
                   "--selector", selector, "--tags", rule, "--seed", "3"]
    yield ["integrate", "box.sinprod.2d", "--m", "6", "--print-config"]
    yield ["integrate", "surface.sphere.area", "--m", "6", "--csv", CSV]
    yield ["verify", "green.disk.rotation", "--m", "8", "--csv", CSV]
    for argv in CONVERGE:
        yield argv + ["--csv", CSV]
    yield from SLABBED
    yield from REFUSED


def run(argv):
    """Exit code, stdout, stderr and CSV bytes of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    csv = Path(CSV)
    data = csv.read_bytes() if csv.exists() else b""
    csv.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), data


def digest_line() -> str:
    digest = hashlib.sha256()
    codes = collections.Counter()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in matrix():
                code, out, err, data = run(argv)
                codes[code] += 1
                digest.update(repr((argv, out, err, code, len(data))).encode() + data)
        finally:
            os.chdir(start)
    return (
        f"runs={sum(codes.values())} exits={dict(sorted(codes.items()))} "
        f"sha256={digest.hexdigest()}"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="CLI byte matrix digest")
    parser.add_argument("--grow", choices=("on", "off"),
                        help="force the kernel's slab growth on or off")
    grow = parser.parse_args().grow
    if grow is not None:
        fields._GROW_TARGET_S = math.inf if grow == "on" else 0.0
    print(digest_line())
