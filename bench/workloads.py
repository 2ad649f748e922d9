"""The three benchmark workloads: their inputs, operations and output checks.

Every input comes from the workload seed: variant seeds, RandomPick seeds
and the operation order. The package only ever receives the generated
inputs. Each operation is called through the ``riemannlab`` module
attributes at call time, so the tracing wrappers see it.

An operation has three checks:

- ``check`` runs on every result: cheap properties and the tolerance against
  the exact value (or the gap tolerance, for theorem checks);
- ``oracle`` runs once, on the warm-up result, after the timed rounds and
  after the run's peak memory has been read;
- ``fingerprint`` must be bit-identical every time the operation repeats
  within a run. Nothing is compared against digests stored across commits.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import riemannlab as rl
import riemannlab.cli  # noqa: F401  (not imported by the package itself)
from riemannlab.scenarios import (
    BALL_REGION,
    CIRCLE_3D,
    CUBE_REGION,
    DISK_REGION,
    HEMISPHERE,
    get_scenario,
    scenario_names,
)
from tracing import traced_handle

EPS = float(np.finfo(float).eps)
K_DELETED = 8  # FixedK count on box-sums-1m
VARIANT_MIX = (  # (variant, selector) pairs; the selector matters only when deleting
    ("full", "prefix"),
    ("deleted", "random"),
    ("deleted", "largest"),
    ("perturbed", "prefix"),
    ("combined", "random"),
    ("combined", "largest"),
)


def _no_problems(result) -> list[str]:
    return []


@dataclass
class Op:
    """One timed operation of a workload."""

    key: str
    run: Callable[[], object]
    cells: int  # interior plus boundary terms summed
    check: Callable[[object], list[str]]
    fingerprint: Callable[[object], tuple]
    oracle: Callable[[object], list[str]] = _no_problems
    finish: Callable[[object], object] = lambda raw: raw  # untimed collection


@dataclass
class Workload:
    ops: list[Op]
    notes: Callable[[], list[str]] = list  # lines printed with the results


def _selector(name: str, rng: random.Random):
    if name == "random":
        return rl.RandomPick(rng.randrange(2**31))
    if name == "largest":
        return rl.LargestTerm()
    return rl.Prefix()


def _hex(*values) -> tuple:
    return tuple(float(v).hex() for v in values)


# --- box-sums-1m ----------------------------------------------------------------


def _sinprod(p):
    return np.sin(p[..., 0]) * np.sin(p[..., 1])


def _squares(p):
    return p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2


# (registry scenario for exact value and full-variant tolerance, field,
#  declared bound M, cells per axis)
BOX_CASES = (
    ("box.sinprod.2d", _sinprod, math.sin(1.0) ** 2, 1024),
    ("box.poly.3d", _squares, 3.0, 96),
)


def _box_op(sc, f, bound_m, m_axis, spec) -> Op:
    dim = sc.box.dim
    m = m_axis**dim
    max_cell = (1.0 / m_axis) ** dim * sc.box.measure
    full_tol = sc.tolerance_for("full")
    k = K_DELETED if spec.deletes else 0

    def run():
        p = rl.make_uniform_partition(sc.box, m_axis)
        return rl.variant_sum(f, p, spec)

    def check(est):
        problems = []
        if (est.variant, est.m, est.deleted_count) != (spec.kind, m, k):
            problems.append(f"got variant/m/deleted {est.variant}/{est.m}/{est.deleted_count}")
        # |value - exact| <= quadrature error + K M max m(I_k) + M sum m(I_k ^ I~_k)
        allowed = full_tol + k * bound_m * max_cell + bound_m * est.symdiff_total
        if not abs(est.value - sc.exact) <= allowed:
            problems.append(f"|value - exact| = {abs(est.value - sc.exact)!r} > {allowed!r}")
        return problems

    def oracle(est):
        p = rl.make_uniform_partition(sc.box, m_axis)
        values = np.asarray(f(p.tags), dtype=float)
        base = values * p.measures
        plan, pp = rl.quadrature.resolve_variant(spec, p, np.abs(base))
        terms = base if pp is None else values * pp.measures
        keep = np.ones(m, dtype=bool)
        if plan is not None:
            keep[list(plan.resolved)] = False
        kept = terms[keep]
        exact_sum = math.fsum(kept.tolist())
        bound = 4.0 * EPS * math.fsum(np.abs(kept).tolist())
        problems = []
        if not abs(est.value - exact_sum) <= bound:
            problems.append(f"reduction off fsum by {abs(est.value - exact_sum)!r} > {bound!r}")
        if pp is not None and est.symdiff_total != pp.symdiff_total:
            problems.append("symdiff_total differs from the perturbation's own")
        return problems

    return Op(
        key=f"{sc.name}/m={m_axis}/{spec.kind}/{type(spec.selector).__name__}",
        run=run,
        cells=m,
        check=check,
        oracle=oracle,
        fingerprint=lambda est: _hex(
            est.value, est.compensation_residual, est.symdiff_total
        ) + (est.deleted_count,),
    )


def box_sums(seed: int, tracer, tmp: Path) -> Workload:
    rng = random.Random(seed)
    ops, notes = [], []
    for name, fn, bound_m, m_axis in BOX_CASES:
        sc = get_scenario(name)
        dim = sc.box.dim
        f = rl.ScalarField(dim, traced_handle(tracer, fn, dim, name), bound_M=bound_m)
        for kind, selector in VARIANT_MIX:
            spec = rl.VariantSpec(
                kind,
                rl.FixedK(K_DELETED),
                _selector(selector, rng),
                gamma=0.5,
                seed=rng.randrange(2**31),
            )
            ops.append(_box_op(sc, f, bound_m, m_axis, spec))
        m = m_axis**dim
        mib = 8 / 2**20
        notes.append(
            f"computed bytes, {name} m={m_axis}: tags {m * dim * mib:.2f} MiB, "
            f"measures {m * mib:.2f} MiB, terms {m * mib:.2f} MiB"
        )
    rng.shuffle(ops)
    return Workload(ops, lambda: notes + [
        f"LLC (lscpu L3): {_llc_size()}. The arrays are not made four times "
        "the LLC, so the benchmark makes no memory-bandwidth claim"
    ])


def _llc_size() -> str:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (lscpu unavailable)"
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return "unknown (no L3 line in lscpu)"


# --- theorem-fd ---------------------------------------------------------------
# Transcendental fields with no div/curl handles, so both theorem sides run
# the 4th-order finite differences in ``fields``.


def _green_field(p):
    x, y = p[..., 0], p[..., 1]
    return np.stack([-np.sin(y) * np.exp(0.5 * x), x * np.cos(y) + np.sin(x * y)], axis=-1)


def _gauss_field(p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack(
        [np.sin(y) + x * np.cos(z), np.exp(0.5 * z) * y, np.sin(x * y) + z * z], axis=-1
    )


def _stokes_field(p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack(
        [-y * np.exp(0.5 * z), x * np.cos(z), np.sin(x * y)], axis=-1
    )


def _path(tracer, path, name):
    return rl.Path(
        path.domain,
        traced_handle(tracer, path.pos, 1, f"{name}.pos"),
        traced_handle(tracer, path.vel, 1, f"{name}.vel"),
        path.closed,
    )


def _surface(tracer, surf, name):
    return rl.ParametricSurface(
        surf.domain,
        traced_handle(tracer, surf.pos, 2, f"{name}.pos"),
        traced_handle(tracer, surf.du, 2, f"{name}.du"),
        traced_handle(tracer, surf.dv, 2, f"{name}.dv"),
    )


def _region(tracer, region, name):
    dim = region.param_box.dim
    pieces = tuple(
        _path(tracer, b, f"{name}.boundary{i}")
        if isinstance(b, rl.Path)
        else _surface(tracer, b, f"{name}.boundary{i}")
        for i, b in enumerate(region.boundary)
    )
    return rl.ParametricRegion(
        region.dim,
        region.param_box,
        traced_handle(tracer, region.mapping, dim, f"{name}.mapping"),
        traced_handle(tracer, region.jac_det, dim, f"{name}.jac_det"),
        pieces,
    )


def _theorem_op(label, gap_tol, interior_cells, boundary_cells, spec_pair, run) -> Op:
    lhs_spec, rhs_spec = spec_pair

    def check(report):
        problems = []
        got = (report.lhs.m, report.rhs.m, report.lhs_variant, report.rhs_variant)
        want = (interior_cells, boundary_cells, lhs_spec.kind, rhs_spec.kind)
        if got != want:
            problems.append(f"got m/variants {got}, expected {want}")
        if not report.gap <= gap_tol:
            problems.append(f"gap {report.gap!r} > {gap_tol!r}")
        return problems

    return Op(
        key=f"{label}/{lhs_spec.kind}x{rhs_spec.kind}",
        run=lambda: run(lhs_spec, rhs_spec),
        cells=interior_cells + boundary_cells,
        check=check,
        fingerprint=lambda r: _hex(
            r.lhs.value, r.rhs.value, r.gap, r.lhs.symdiff_total, r.rhs.symdiff_total
        ),
    )


def theorem_fd(seed: int, tracer, tmp: Path) -> Workload:
    rng = random.Random(seed)

    def vec(fn, dim, name):
        return rl.VectorField(dim, dim, traced_handle(tracer, fn, dim, name))

    f_green = vec(_green_field, 2, "green_field")
    f_gauss = vec(_gauss_field, 3, "gauss_field")
    f_stokes = vec(_stokes_field, 3, "stokes_field")
    disk = _region(tracer, DISK_REGION, "disk")
    ball = _region(tracer, BALL_REGION, "ball")
    cube = _region(tracer, CUBE_REGION, "cube")
    hemisphere = _surface(tracer, HEMISPHERE, "hemisphere")
    circle = _path(tracer, CIRCLE_3D, "circle")

    def green(ls, rs):
        interior = rl.make_uniform_partition(disk.param_box, 512)
        bps = [rl.make_uniform_partition(rl.Box((c.domain,)), 8192) for c in disk.boundary]
        return rl.green_check(f_green, disk, interior, bps, ls, rs)

    def gauss(solid):
        def run(ls, rs):
            interior = rl.make_uniform_partition(solid.param_box, 64)
            bps = [rl.make_uniform_partition(s.domain, 128) for s in solid.boundary]
            return rl.gauss_check(f_gauss, solid, interior, bps, ls, rs)
        return run

    def stokes(ls, rs):
        surf_p = rl.make_uniform_partition(hemisphere.domain, 256)
        bp = rl.make_uniform_partition(rl.Box((circle.domain,)), 4096)
        return rl.stokes_check(f_stokes, hemisphere, surf_p, circle, bp, ls, rs)

    # (label, scenario whose gap tolerance applies, interior cells,
    #  boundary cells, run)
    cases = (
        ("green.disk/m=512/b=8192", "green.disk.rotation", 512**2, 8192, green),
        ("gauss.ball/m=64/b=128", "gauss.ball.identity", 64**3, 128**2, gauss(ball)),
        ("gauss.cube/m=64/b=128", "gauss.cube.xfield", 64**3, 6 * 128**2, gauss(cube)),
        ("stokes.hemisphere/m=256/b=4096", "stokes.hemisphere.rotation", 256**2, 4096, stokes),
    )
    ops = []
    for label, sc_name, n_in, n_bd, run in cases:
        def spec(kind, selector="prefix"):
            return rl.VariantSpec(kind, rl.FixedK(4), _selector(selector, rng),
                                  gamma=0.5, seed=rng.randrange(2**31))

        pairs = ((spec("full"), spec("combined", "random")),
                 (spec("perturbed"), spec("full")))
        gap_tol = get_scenario(sc_name).gap_tolerance
        for pair in pairs:
            ops.append(_theorem_op(label, gap_tol, n_in, n_bd, pair, run))
    rng.shuffle(ops)
    return Workload(ops)


# --- cli-sweep-small ------------------------------------------------------------

# The three commands of the CLI determinism criterion in tests/test_acceptance.py.
CRITERION_8 = (
    dict(command="integrate", scenario="box.sinprod.2d", m=32, variant="combined",
         k=3, selector="random", gamma=0.5, seed=9),
    dict(command="verify", scenario="green.disk.rotation", m=64, boundary_m=1024,
         variant="perturbed", gamma=0.5, seed=2),
    dict(command="converge", scenario="line.circle.rotation", m_list=(16, 32, 64),
         variant="deleted", k_schedule="pow:0.5", selector="random", seed=5),
)
SWEEP_M_LIST = (8, 16, 32)
SELECTORS = ("prefix", "random", "largest")


def _argv(desc: dict) -> list[str]:
    argv = [desc["command"], desc["scenario"]]
    if "m" in desc:
        argv += ["--m", str(desc["m"])]
    if "m_list" in desc:
        argv += ["--m-list", ",".join(map(str, desc["m_list"]))]
    if "boundary_m" in desc:
        argv += ["--boundary-m", str(desc["boundary_m"])]
    argv += ["--variant", desc["variant"]]
    if "k" in desc:
        argv += ["--k", str(desc["k"])]
    if "k_schedule" in desc:
        argv += ["--k-schedule", desc["k_schedule"]]
    for flag in ("selector", "gamma", "seed"):
        if flag in desc:
            argv += [f"--{flag}", str(desc[flag])]
    return argv


def _spec(desc: dict):
    seed = desc.get("seed", 0)
    selector = {
        "prefix": rl.Prefix(),
        "random": rl.RandomPick(seed),
        "largest": rl.LargestTerm(),
    }[desc.get("selector", "prefix")]
    if "k_schedule" in desc:
        schedule = rl.PowerLaw(float(desc["k_schedule"].removeprefix("pow:")))
    else:
        schedule = rl.FixedK(desc.get("k", 1))
    return rl.VariantSpec(desc["variant"], schedule, selector, desc.get("gamma", 0.5), seed)


def _scenario_cells(sc, m_axis: int, boundary_m: int | None) -> int:
    bm = boundary_m if boundary_m is not None else sc.boundary_m(m_axis)
    if sc.kind == "box":
        return m_axis**sc.box.dim
    if sc.kind == "line":
        return m_axis
    if sc.kind == "surface":
        return m_axis**2
    if sc.kind == "green":
        return m_axis**2 + len(sc.region.boundary) * bm
    if sc.kind == "gauss":
        return m_axis**3 + len(sc.region.boundary) * bm**2
    return m_axis**2 + bm  # stokes


def _library_csv(desc: dict) -> bytes:
    """The CSV the library itself renders for the same configuration."""
    harness = rl.harness
    sc = get_scenario(desc["scenario"])
    spec = _spec(desc)
    if desc["command"] == "converge":
        report = harness.run_sweep(sc.name, spec, desc["m_list"], seed=spec.seed)
    else:
        result = harness.evaluate_scenario(
            sc, desc["m"], spec, boundary_m=desc.get("boundary_m")
        )
        report = harness.single_report(sc, result, spec)
    return harness.render_csv(report).encode("utf-8")


def _cli_op(index: int, desc: dict, tmp: Path) -> Op:
    sc = get_scenario(desc["scenario"])
    csv_path = tmp / f"op{index}.csv"
    argv = _argv(desc) + ["--csv", str(csv_path)]
    m_list = desc.get("m_list", (desc.get("m"),))

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rl.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def finish(raw):
        code, out, err = raw
        csv = csv_path.read_bytes() if csv_path.exists() else b""
        csv_path.unlink(missing_ok=True)
        return code, out, err, csv

    def check(result):
        code, _out, err, csv = result
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        if not csv:
            return ["no CSV written"]
        return []

    def oracle(result):
        csv = result[3]
        problems = []
        if csv != _library_csv(desc):
            problems.append("CSV differs from the library's own rendering")
        for line in csv.decode("utf-8").splitlines()[1:]:
            cols = line.split(",")
            value, abs_error = float(cols[5]), float(cols[6])
            if abs_error != abs(value - sc.exact):
                problems.append(f"abs_error {abs_error!r} != |value - exact|")
            tol = sc.tolerance_for(desc["variant"])
            if desc["command"] == "integrate" and tol is not None and not abs_error <= tol:
                problems.append(f"abs_error {abs_error!r} > tolerance {tol!r}")
            if desc["command"] == "verify" and not float(cols[7]) <= sc.gap_tolerance:
                problems.append(f"gap {cols[7]} > tolerance {sc.gap_tolerance!r}")
        return problems

    return Op(
        key=" ".join(_argv(desc)),
        run=run,
        cells=sum(_scenario_cells(sc, m, desc.get("boundary_m")) for m in m_list),
        check=check,
        oracle=oracle,
        finish=finish,
        fingerprint=lambda result: (result[0], result[1], result[3]),
    )


def cli_sweep(seed: int, tracer, tmp: Path) -> Workload:
    rng = random.Random(seed)
    rl.cli.build_parser()  # part of set-up: the parser every call rebuilds
    descs = list(CRITERION_8)
    for i, name in enumerate(scenario_names()):
        # Selectors cycle with the scenario, not with the seed, so every seed
        # asks for the same work.
        for variant, selector in (("full", None), ("deleted", SELECTORS[i % 3]),
                                  ("perturbed", None), ("combined", SELECTORS[(i + 1) % 3])):
            desc = dict(command="converge", scenario=name, m_list=SWEEP_M_LIST,
                        variant=variant, seed=rng.randrange(10**6))
            if selector is not None:
                desc.update(k=2, selector=selector)
            descs.append(desc)
    rng.shuffle(descs)
    return Workload([_cli_op(i, d, tmp) for i, d in enumerate(descs)])


WORKLOADS = {
    "box-sums-1m": box_sums,
    "theorem-fd": theorem_fd,
    "cli-sweep-small": cli_sweep,
}

# Per-layer metrics that must record spans on the workload meant to exercise
# them; a zero there means the tracing lost the layer, not that it is idle.
EXERCISED = {
    "box-sums-1m": (
        "summation.reduce_s", "summation.reduce_calls", "summation.reduce_terms",
        "geometry.partition_s", "geometry.partition_cells", "geometry.perturb_s",
        "geometry.perturb_calls", "geometry.select_s", "geometry.deleted_terms",
        "fields.eval_s", "fields.eval_calls", "fields.eval_points",
        "quadrature.self_s",
    ),
    "theorem-fd": (
        "fields.eval_s", "fields.eval_calls", "fields.eval_points",
        "fields.fd_s", "fields.fd_calls", "quadrature.self_s",
        "curve_surface.self_s", "theorems.self_s", "theorems.checks",
    ),
    "cli-sweep-small": (
        "summation.reduce_s", "quadrature.self_s", "curve_surface.self_s",
        "theorems.self_s", "theorems.checks", "harness.self_s", "harness.csv_s",
        "harness.csv_bytes", "cli.self_s", "cli.calls",
    ),
}
