"""Convergence sweeps, empirical-rate fitting, and CSV emission.

A sweep runs one scenario at increasing resolutions and records value,
error against the exact reference, and (for theorem scenarios) the gap
between the two sides. The empirical rate is the least-squares slope of
log|error| against log mesh over the finest rows, with errors floored at
rounding level before fitting so the slope never chases noise.

Determinism: the row at index i uses seed ``base_seed + i`` for jitter,
random tags, and random index selection; theorem boundary sides shift that
by a large constant so the two sides never share randomness. Re-running a
sweep with equal inputs produces a byte-identical CSV.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .curve_surface import line_sum, surface_sum
from .errors import IoFailure, NonMonotoneMList
from .geometry import Box, make_uniform_partition
from .quadrature import FULL, SumEstimate, VariantSpec, variant_sum
from .scenarios import Scenario, get_scenario
from .theorems import TheoremReport, gauss_check, green_check, stokes_check

ERROR_FLOOR_SCALE = 1e-13
BOUNDARY_SEED_SHIFT = 1000003

CSV_HEADER = "scenario,kind,variant,m,mesh,value,abs_error,gap,symdiff_total,deleted_count,seed"


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


@dataclass(frozen=True)
class ConvergenceReport:
    scenario: str
    kind: str
    variant: str
    rows: tuple[SweepRow, ...]
    fitted_rate: float | None
    base_seed: int


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
    ``boundary_factor * m_axis``.
    """
    seed = spec.seed
    if boundary_m is None:
        boundary_m = sc.boundary_m(m_axis)
    if boundary_spec is None:
        boundary_spec = spec.with_seed(seed + BOUNDARY_SEED_SHIFT)

    if sc.kind == "box":
        p = make_uniform_partition(sc.box, m_axis, tag_rule, seed)
        return variant_sum(sc.field, p, spec)
    if sc.kind == "line":
        p = make_uniform_partition(sc.box, m_axis, tag_rule, seed)
        return line_sum(sc.field, sc.path, p, spec)
    if sc.kind == "surface":
        p = make_uniform_partition(sc.surface.domain, m_axis, tag_rule, seed)
        return surface_sum(sc.field, sc.surface, p, spec)
    if sc.kind == "green":
        interior = make_uniform_partition(sc.region.param_box, m_axis, tag_rule, seed)
        bps = [
            make_uniform_partition(Box(((path.domain[0], path.domain[1]),)),
                                   boundary_m, tag_rule, boundary_spec.seed + i)
            for i, path in enumerate(sc.region.boundary)
        ]
        return green_check(
            sc.field, sc.region, interior, bps, spec, boundary_spec, sc.exact
        )
    if sc.kind == "gauss":
        interior = make_uniform_partition(sc.region.param_box, m_axis, tag_rule, seed)
        bps = [
            make_uniform_partition(
                surf.domain, boundary_m, tag_rule, boundary_spec.seed + i
            )
            for i, surf in enumerate(sc.region.boundary)
        ]
        return gauss_check(
            sc.field, sc.region, interior, bps, spec, boundary_spec, sc.exact
        )
    if sc.kind == "stokes":
        surf_p = make_uniform_partition(sc.surface.domain, m_axis, tag_rule, seed)
        a, b = sc.path.domain
        bp = make_uniform_partition(
            Box(((a, b),)), boundary_m, tag_rule, boundary_spec.seed
        )
        return stokes_check(
            sc.field, sc.surface, surf_p, sc.path, bp, spec, boundary_spec, sc.exact
        )
    raise ValueError(f"unknown scenario kind {sc.kind!r}")


def _row_from_result(result, exact: float, seed: int) -> SweepRow:
    if isinstance(result, TheoremReport):
        lhs, rhs = result.lhs, result.rhs
        return SweepRow(
            m=lhs.m,
            mesh=lhs.mesh,
            value=lhs.value,
            abs_error=abs(lhs.value - exact),
            gap=result.gap,
            symdiff_total=lhs.symdiff_total + rhs.symdiff_total,
            deleted_count=lhs.deleted_count + rhs.deleted_count,
            seed=seed,
        )
    est: SumEstimate = result
    return SweepRow(
        m=est.m,
        mesh=est.mesh,
        value=est.value,
        abs_error=abs(est.value - exact),
        gap=None,
        symdiff_total=est.symdiff_total,
        deleted_count=est.deleted_count,
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


def _variant_label(sc: Scenario, spec: VariantSpec, boundary_spec) -> str:
    if sc.kind in ("green", "gauss", "stokes"):
        bkind = (boundary_spec or spec).kind
        return f"{spec.kind}x{bkind}"
    return spec.kind


def run_sweep(
    scenario: str,
    spec: VariantSpec = FULL,
    m_list=(),
    seed: int = 0,
    boundary_spec: VariantSpec | None = None,
    boundary_m: int | None = None,
    tag_rule: str = "midpoint",
) -> ConvergenceReport:
    """Evaluate a scenario along ascending resolutions and fit the rate.

    ``m_list`` must be strictly increasing with at least 3 entries. Row i
    runs with seed ``seed + i``; a fixed ``boundary_m`` (otherwise scaled
    from each m) applies to every row.
    """
    sc = get_scenario(scenario)
    m_list = [int(m) for m in m_list]
    if len(m_list) < 3 or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise NonMonotoneMList(
            f"m_list must be strictly increasing with >= 3 entries, got {m_list}"
        )
    rows = []
    for i, m_axis in enumerate(m_list):
        row_seed = seed + i
        row_spec = spec.with_seed(row_seed)
        row_bspec = None
        if boundary_spec is not None:
            row_bspec = boundary_spec.with_seed(row_seed + BOUNDARY_SEED_SHIFT)
        result = evaluate_scenario(
            sc, m_axis, row_spec, boundary_m, row_bspec, tag_rule
        )
        rows.append(_row_from_result(result, sc.exact, row_seed))
    return ConvergenceReport(
        scenario=sc.name,
        kind=sc.kind,
        variant=_variant_label(sc, spec, boundary_spec),
        rows=tuple(rows),
        fitted_rate=fit_rate(rows, sc.exact),
        base_seed=seed,
    )


def single_report(sc: Scenario, result, spec: VariantSpec) -> ConvergenceReport:
    """Wrap one evaluation as a one-row report (for CSV routing)."""
    row = _row_from_result(result, sc.exact, spec.seed)
    return ConvergenceReport(
        scenario=sc.name,
        kind=sc.kind,
        variant=_variant_label(sc, spec, None),
        rows=(row,),
        fitted_rate=None,
        base_seed=spec.seed,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite value")
    return repr(x) if isinstance(x, float) else str(x)


def render_csv(report: ConvergenceReport) -> str:
    """The report as CSV text: fixed header, shortest round-trip decimals."""
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    report.scenario,
                    report.kind,
                    report.variant,
                    str(r.m),
                    _fmt(r.mesh),
                    _fmt(r.value),
                    _fmt(r.abs_error),
                    _fmt(r.gap),
                    _fmt(r.symdiff_total),
                    str(r.deleted_count),
                    str(r.seed),
                ]
            )
        )
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
