"""Convergence sweeps, empirical-rate fitting, and CSV emission.

A sweep runs one scenario at increasing resolutions and records value,
error against the exact reference, and (for theorem scenarios) the gap
between the two sides. The empirical rate is the least-squares slope of
log|error| against log mesh over the finest rows, with errors floored at
rounding level before fitting so the slope never chases noise.

:func:`evaluate_scenario` builds every partition of a scenario point: the
interior one, and one per boundary piece (the region's boundary, or Stokes'
path) on :func:`~riemannlab.curve_surface.parameter_box` of the piece.

Determinism: row i of a sweep uses seed ``seed + i`` for jitter,
random tags, and random index selection; theorem boundary sides shift that
by a large constant so the two sides never share randomness, and boundary
piece j adds j. Re-running a sweep with equal inputs produces a
byte-identical CSV.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .curve_surface import line_sum, parameter_box, surface_sum
from .errors import IoFailure, NonMonotoneMList, RiemannLabError
from .geometry import make_uniform_partition
from .quadrature import FULL, VariantSpec, variant_sum
from .scenarios import THEOREM_KINDS, Scenario, get_scenario
from .theorems import TheoremReport, gauss_check, green_check, stokes_check

ERROR_FLOOR_SCALE = 1e-13
BOUNDARY_SEED_SHIFT = 1000003


@dataclass(frozen=True)
class SweepRow:
    m: int
    mesh: float
    value: float
    abs_error: float
    gap: float | None
    symdiff_total: float
    deleted_count: int
    seed: int


CSV_HEADER = ",".join(
    ("scenario", "kind", "variant") + tuple(f.name for f in fields(SweepRow))
)


@dataclass(frozen=True)
class ConvergenceReport:
    scenario: str
    kind: str
    variant: str
    rows: tuple[SweepRow, ...]
    fitted_rate: float | None


def evaluate_scenario(
    sc: Scenario,
    m_axis: int,
    spec: VariantSpec = FULL,
    boundary_m: int | None = None,
    boundary_spec: VariantSpec | None = None,
    tag_rule: str = "midpoint",
):
    """Run one scenario point; SumEstimate or TheoremReport by kind.

    ``m_axis`` is cells per axis of the interior/parameter partition.
    ``boundary_m`` is cells per boundary curve (1D boundaries) or per axis
    of each boundary patch (2D boundaries); it defaults to the scenario's
    ``boundary_factor * m_axis``. ``boundary_spec`` is the boundary side's
    variant; it defaults to ``spec`` with seed ``spec.seed +
    BOUNDARY_SEED_SHIFT``. Scenarios that are not theorem checks have no
    boundary, and refuse a ``boundary_m`` or a ``boundary_spec``.
    """
    if sc.kind not in THEOREM_KINDS:
        for name, given in (("boundary_m", boundary_m), ("boundary_spec", boundary_spec)):
            if given is not None:
                raise RiemannLabError(
                    f"{sc.name} is a {sc.kind} scenario with no boundary; {name} "
                    f"applies only to {', '.join(THEOREM_KINDS)} scenarios"
                )
    box = sc.box if sc.region is None else sc.region.param_box
    if box is None:
        box = parameter_box(sc.surface if sc.surface is not None else sc.path)
    interior = make_uniform_partition(box, m_axis, tag_rule, spec.seed)
    if sc.kind == "box":
        return variant_sum(sc.field, interior, spec)
    if sc.kind == "line":
        return line_sum(sc.field, sc.path, interior, spec)
    if sc.kind == "surface":
        return surface_sum(sc.field, sc.surface, interior, spec)
    if boundary_m is None:
        boundary_m = sc.boundary_m(m_axis)
    if boundary_spec is None:
        boundary_spec = spec.with_seed(spec.seed + BOUNDARY_SEED_SHIFT)
    pieces = (sc.path,) if sc.kind == "stokes" else sc.region.boundary
    bps = [
        make_uniform_partition(
            parameter_box(piece), boundary_m, tag_rule, boundary_spec.seed + i
        )
        for i, piece in enumerate(pieces)
    ]
    if sc.kind == "stokes":
        return stokes_check(
            sc.field, sc.surface, interior, sc.path, bps[0], spec, boundary_spec,
            sc.exact,
        )
    check = green_check if sc.kind == "green" else gauss_check
    return check(sc.field, sc.region, interior, bps, spec, boundary_spec, sc.exact)


def _row_from_result(result, exact: float, seed: int) -> SweepRow:
    """One sweep row: a sum, or a theorem's interior side with both sides' counts."""
    if isinstance(result, TheoremReport):
        est, gap, sides = result.lhs, result.gap, (result.lhs, result.rhs)
    else:
        est, gap, sides = result, None, (result,)
    return SweepRow(
        m=est.m,
        mesh=est.mesh,
        value=est.value,
        abs_error=abs(est.value - exact),
        gap=gap,
        symdiff_total=sum(side.symdiff_total for side in sides),
        deleted_count=sum(side.deleted_count for side in sides),
        seed=seed,
    )


def fit_rate(rows, exact: float) -> float | None:
    """Least-squares slope of log|error| vs log mesh on the finest rows."""
    if len(rows) < 3:
        return None
    tail = rows[-max(3, len(rows) // 2):]
    floor = ERROR_FLOOR_SCALE * (1.0 + abs(exact))
    mesh = np.array([r.mesh for r in tail])
    err = np.array([max(r.abs_error, floor) for r in tail])
    slope = np.polyfit(np.log(mesh), np.log(err), 1)[0]
    return float(slope)


def run_sweep(
    scenario: str,
    spec: VariantSpec = FULL,
    m_list=(),
    seed: int | None = None,
    boundary_spec: VariantSpec | None = None,
    boundary_m: int | None = None,
    tag_rule: str = "midpoint",
) -> ConvergenceReport:
    """Evaluate a scenario along ascending resolutions and fit the rate.

    ``m_list`` must be strictly increasing with at least 3 entries. Row i
    runs with seed ``seed + i``, and ``seed`` defaults to ``spec.seed``; a
    fixed ``boundary_m`` (otherwise scaled from each m) applies to every row.
    A given ``boundary_spec`` runs row i with seed
    ``seed + i + BOUNDARY_SEED_SHIFT``.
    """
    sc = get_scenario(scenario)
    if seed is None:
        seed = spec.seed
    m_list = [int(m) for m in m_list]
    if len(m_list) < 3 or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise NonMonotoneMList(
            f"m_list must be strictly increasing with >= 3 entries, got {m_list}"
        )
    rows = []
    for i, m_axis in enumerate(m_list):
        row_seed = seed + i
        row_spec = spec.with_seed(row_seed)
        row_bspec = None if boundary_spec is None else boundary_spec.with_seed(
            row_seed + BOUNDARY_SEED_SHIFT
        )
        result = evaluate_scenario(
            sc, m_axis, row_spec, boundary_m, row_bspec, tag_rule
        )
        rows.append(_row_from_result(result, sc.exact, row_seed))
    return ConvergenceReport(
        scenario=sc.name,
        kind=sc.kind,
        variant=result.variant,
        rows=tuple(rows),
        fitted_rate=fit_rate(rows, sc.exact),
    )


def single_report(sc: Scenario, result, spec: VariantSpec) -> ConvergenceReport:
    """Wrap one evaluation as a one-row report (for CSV routing)."""
    row = _row_from_result(result, sc.exact, spec.seed)
    return ConvergenceReport(
        scenario=sc.name,
        kind=sc.kind,
        variant=result.variant,
        rows=(row,),
        fitted_rate=None,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite value")
    return repr(x) if isinstance(x, float) else str(x)


def render_csv(report: ConvergenceReport) -> str:
    """The report as CSV text: :data:`CSV_HEADER`, then per row the report's
    three columns and the row's fields, floats as shortest round-trip decimals."""
    head = (report.scenario, report.kind, report.variant)
    lines = [CSV_HEADER]
    lines += [",".join(_fmt(x) for x in head + astuple(r)) for r in report.rows]
    return "\n".join(lines) + "\n"


def emit_csv(report: ConvergenceReport, destination) -> None:
    """Write the report to a path or text stream (UTF-8, LF newlines)."""
    text = render_csv(report)
    try:
        if isinstance(destination, (str, os.PathLike)):
            with io.open(destination, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            destination.write(text)
    except OSError as exc:
        raise IoFailure(f"could not write report: {exc}") from exc
