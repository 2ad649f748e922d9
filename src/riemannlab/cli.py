"""Batch command-line front end: integrate / verify / converge / list-scenarios.

Exit codes: 0 success, 2 usage error (argparse errors, unknown scenarios,
bad flag combinations), 3 verify gap above the scenario tolerance.
Diagnostics go to stderr; stdout carries a human-readable summary unless
``--csv`` routes the report to a file. Identical flags and seeds reproduce
byte-identical stdout and CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import RiemannLabError
from .geometry import (
    TAG_RULES,
    FixedK,
    LargestTerm,
    Logarithmic,
    PowerLaw,
    Prefix,
    RandomPick,
)
from .harness import emit_csv, evaluate_scenario, run_sweep, single_report
from .quadrature import VARIANTS, VariantSpec
from .scenarios import THEOREM_KINDS, get_scenario, scenario_names


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant",
        choices=VARIANTS,
        default="full",
        help="which sum variant to run (default: full)",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--k", type=int, default=None, help="fixed deletion count K (default 1)"
    )
    group.add_argument(
        "--k-schedule",
        default=None,
        metavar="pow:<beta>|log",
        help="vanishing deletion schedule K(m) (equal partitions only)",
    )
    parser.add_argument(
        "--selector",
        choices=("prefix", "random", "largest"),
        default="prefix",
        help="which indices to delete (default: prefix)",
    )
    parser.add_argument(
        "--gamma",
        type=float,
        default=0.5,
        help="mesh jitter amplitude in [0,1) (default: 0.5)",
    )
    parser.add_argument(
        "--tags",
        choices=TAG_RULES,
        default="midpoint",
        help="tag rule for evaluation points (default: midpoint)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    parser.add_argument(
        "--csv", default=None, metavar="PATH", help="route the report to a CSV file"
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="echo the parsed configuration and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemann-lab",
        description="Riemann-sum laboratory: full/deleted/perturbed/combined "
        "quadrature and two-sided theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="one box/line/surface sum")
    p_int.add_argument("scenario")
    p_int.add_argument("--m", type=int, default=None, help="cells per axis")
    _add_variant_flags(p_int)

    p_ver = sub.add_parser("verify", help="two-sided theorem check")
    p_ver.add_argument("scenario")
    p_ver.add_argument("--m", type=int, default=None, help="interior cells per axis")
    p_ver.add_argument(
        "--boundary-m",
        type=int,
        default=None,
        help="boundary cells (per curve, or per axis of each patch)",
    )
    _add_variant_flags(p_ver)

    p_con = sub.add_parser("converge", help="resolution sweep with rate fit")
    p_con.add_argument("scenario")
    p_con.add_argument(
        "--m-list",
        required=True,
        metavar="M1,M2,...",
        help="ascending per-axis resolutions (>= 3 entries)",
    )
    p_con.add_argument("--boundary-m", type=int, default=None)
    _add_variant_flags(p_con)

    sub.add_parser("list-scenarios", help="print the registered scenarios")
    return parser


def _schedule_from_args(args):
    if args.k_schedule is not None:
        text = args.k_schedule
        if text == "log":
            return Logarithmic()
        if text.startswith("pow:"):
            try:
                return PowerLaw(float(text[4:]))
            except ValueError as exc:
                raise RiemannLabError(f"bad --k-schedule {text!r}: {exc}") from None
        raise RiemannLabError(f"bad --k-schedule {text!r}; expected pow:<beta> or log")
    try:
        return FixedK(args.k if args.k is not None else 1)
    except ValueError as exc:
        raise RiemannLabError(f"bad --k: {exc}") from None


def spec_from_args(args) -> VariantSpec:
    if args.seed < 0:
        raise RiemannLabError(f"--seed must be >= 0, got {args.seed}")
    selector = {
        "prefix": Prefix(),
        "random": RandomPick(args.seed),
        "largest": LargestTerm(),
    }[args.selector]
    if not 0.0 <= args.gamma < 1.0:
        raise RiemannLabError(f"--gamma must be in [0,1), got {args.gamma}")
    return VariantSpec(
        kind=args.variant,
        schedule=_schedule_from_args(args),
        selector=selector,
        gamma=args.gamma,
        seed=args.seed,
    )


def _cmd_list() -> int:
    for name in scenario_names():
        sc = get_scenario(name)
        print(f"{name}  kind={sc.kind}  exact={sc.exact!r}  ({sc.note})")
    return 0


def _scenario_point(args, theorem: bool):
    """The scenario and its m, once it is known to suit the command."""
    sc = get_scenario(args.scenario)
    if (sc.kind in THEOREM_KINDS) != theorem:
        command = "integrate" if theorem else "verify"
        raise RiemannLabError(
            f"{sc.name} is a {sc.kind} scenario; use `riemann-lab {command}`"
        )
    return sc, args.m if args.m is not None else sc.default_m


def _cmd_integrate(args) -> int:
    spec = spec_from_args(args)
    sc, m_axis = _scenario_point(args, theorem=False)
    est = evaluate_scenario(sc, m_axis, spec, tag_rule=args.tags)
    print(f"scenario={sc.name} kind={sc.kind} variant={est.variant}")
    print(
        f"m={est.m} mesh={est.mesh!r} value={est.value!r} exact={sc.exact!r} "
        f"abs_error={abs(est.value - sc.exact)!r}"
    )
    print(
        f"deleted_count={est.deleted_count} symdiff_total={est.symdiff_total!r} "
        f"compensation_residual={est.compensation_residual!r}"
    )
    if args.csv:
        emit_csv(single_report(sc, est, spec), args.csv)
    return 0


def _cmd_verify(args) -> int:
    spec = spec_from_args(args)
    sc, m_axis = _scenario_point(args, theorem=True)
    report = evaluate_scenario(
        sc, m_axis, spec, boundary_m=args.boundary_m, tag_rule=args.tags
    )
    print(
        f"scenario={sc.name} theorem={report.theorem} "
        f"variants={report.variant}"
    )
    print(f"lhs={report.lhs.value!r} (m={report.lhs.m})")
    print(f"rhs={report.rhs.value!r} (m={report.rhs.m})")
    print(
        f"gap={report.gap!r} exact={sc.exact!r} "
        f"lhs_error={report.lhs_error!r} rhs_error={report.rhs_error!r}"
    )
    if args.csv:
        emit_csv(single_report(sc, report, spec), args.csv)
    if report.gap > sc.gap_tolerance:
        print(
            f"verify FAILED: gap {report.gap!r} exceeds tolerance "
            f"{sc.gap_tolerance!r} for {sc.name}",
            file=sys.stderr,
        )
        return 3
    print(f"gap within tolerance {sc.gap_tolerance!r}")
    return 0


def _cmd_converge(args) -> int:
    spec = spec_from_args(args)
    try:
        m_list = [int(tok) for tok in args.m_list.split(",") if tok]
    except ValueError:
        raise RiemannLabError(f"bad --m-list {args.m_list!r}") from None
    report = run_sweep(
        args.scenario, spec, m_list, boundary_m=args.boundary_m, tag_rule=args.tags
    )
    print(f"scenario={report.scenario} kind={report.kind} variant={report.variant}")
    for row in report.rows:
        gap = "" if row.gap is None else f" gap={row.gap!r}"
        print(
            f"m={row.m} mesh={row.mesh!r} value={row.value!r} "
            f"abs_error={row.abs_error!r}{gap} seed={row.seed}"
        )
    print(f"fitted_rate={report.fitted_rate!r}")
    if args.csv:
        emit_csv(report, args.csv)
        print(f"csv written to {args.csv}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-scenarios":
            return _cmd_list()
        if args.print_config:
            spec_from_args(args)  # flags are validated before any computation
            print(json.dumps(vars(args), sort_keys=True, default=str))
            return 0
        return {
            "integrate": _cmd_integrate,
            "verify": _cmd_verify,
            "converge": _cmd_converge,
        }[args.command](args)
    except RiemannLabError as exc:
        print(f"riemann-lab: {exc}", file=sys.stderr)
        return 2
