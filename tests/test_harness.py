import dataclasses
import io

import pytest

from riemannlab import (
    FixedK,
    InvalidParameter,
    IoFailure,
    LargestTerm,
    NonMonotoneMList,
    Prefix,
    RandomPick,
    RiemannLabError,
    UnknownScenario,
    VariantSpec,
    emit_csv,
    register_scenario,
    render_csv,
    run_sweep,
)
from riemannlab.harness import (
    CSV_HEADER,
    SweepRow,
    evaluate_scenario,
    fit_rate,
)
from riemannlab.scenarios import get_scenario, scenario_names

PUBLIC_NAMES = (
    "box.sinprod.2d",
    "box.poly.3d",
    "line.circle.scalar",
    "line.circle.rotation",
    "surface.sphere.area",
    "surface.sphere.flux",
    "green.disk.rotation",
    "gauss.ball.identity",
    "gauss.cube.xfield",
    "stokes.disk.rotation",
    "stokes.hemisphere.rotation",
)


class TestRegistry:
    def test_public_namespace(self):
        assert set(PUBLIC_NAMES) <= set(scenario_names())

    def test_every_theorem_kind_covered(self):
        kinds = {get_scenario(n).kind for n in scenario_names()}
        assert {"box", "line", "surface", "green", "gauss", "stokes"} <= kinds

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            get_scenario("box.nope")


# Per kind, a registered scenario of that kind and the fields it reads.
KIND_NEEDS = {
    "box": ("box.sinprod.2d", ("field", "box")),
    "line": ("line.circle.scalar", ("field", "path")),
    "surface": ("surface.sphere.area", ("field", "surface")),
    "green": ("green.disk.rotation", ("field", "region")),
    "gauss": ("gauss.ball.identity", ("field", "region")),
    "stokes": ("stokes.hemisphere.rotation", ("field", "surface", "path")),
}
MISFITS = {"kind boxx": ("box.sinprod.2d", {"kind": "boxx"}, "unknown kind 'boxx'")}
for _kind, (_template, _needs) in KIND_NEEDS.items():
    for _name in _needs:
        MISFITS[f"{_kind} without {_name}"] = (
            _template, {_name: None}, f"a {_kind} scenario needs a {_name}"
        )


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_a_scenario_that_misfits_its_kind_is_refused_at_registration(case):
    """The misfit is refused as it is built, so neither registering it nor
    evaluating it unregistered gets as far as a late AttributeError."""
    template, changes, message = MISFITS[case]
    before = scenario_names()
    with pytest.raises(InvalidParameter, match=message):
        register_scenario(dataclasses.replace(get_scenario(template), name="misfit", **changes))
    with pytest.raises(InvalidParameter, match=message):
        evaluate_scenario(dataclasses.replace(get_scenario(template), name="x", **changes), 4)
    assert scenario_names() == before


TOLERANCES = [
    (name, variant) for name in scenario_names() for variant, _ in get_scenario(name).tolerances
]


@pytest.mark.parametrize("name,variant", TOLERANCES, ids=[f"{n}-{v}" for n, v in TOLERANCES])
def test_every_declared_tolerance_holds_at_the_default_m(name, variant):
    """A scenario's per-variant |error| bound holds at its ``default_m`` for
    every selector and a few seeds."""
    sc = get_scenario(name)
    for seed in range(3):
        for selector in (Prefix(), RandomPick(seed), LargestTerm()):
            spec = VariantSpec(variant, FixedK(1), selector, 0.5, seed)
            error = abs(evaluate_scenario(sc, sc.default_m, spec).value - sc.exact)
            assert error <= sc.tolerance_for(variant), (spec, error)


class TestRunSweep:
    def test_midpoint_rate_is_second_order(self):
        rep = run_sweep("box.sinprod.2d", VariantSpec(), [16, 32, 64, 128])
        assert abs(rep.fitted_rate - 2.0) <= 0.3

    def test_green_combined_gap_row(self):
        spec = VariantSpec("combined", FixedK(4), RandomPick(0), gamma=0.5)
        rep = run_sweep("green.disk.rotation", spec, [32, 64, 128, 256])
        assert rep.rows[-1].gap < 2e-2
        assert rep.variant == "combinedxcombined"
        # The label names each side's own kind, interior first.
        rep = run_sweep(
            "green.disk.rotation", VariantSpec(), [8, 16, 32],
            boundary_spec=VariantSpec("deleted", FixedK(2)),
        )
        assert rep.variant == "fullxdeleted"
        assert all(r.deleted_count == 2 for r in rep.rows)
        assert render_csv(rep).splitlines()[1].split(",")[2] == "fullxdeleted"

    def test_rows_ascending_with_metadata(self):
        spec = VariantSpec("deleted", FixedK(2), Prefix())
        rep = run_sweep("line.circle.scalar", spec, [8, 16, 32], seed=4)
        assert [r.m for r in rep.rows] == [8, 16, 32]
        assert all(r.deleted_count == 2 for r in rep.rows)
        assert [r.seed for r in rep.rows] == [4, 5, 6]

    def test_seed_defaults_to_the_spec_seed(self):
        spec = VariantSpec("perturbed", gamma=0.5, seed=7)
        rep = run_sweep("line.circle.scalar", spec, [8, 16, 32])
        assert [r.seed for r in rep.rows] == [7, 8, 9]
        explicit = run_sweep("line.circle.scalar", spec, [8, 16, 32], seed=7)
        assert render_csv(rep).encode() == render_csv(explicit).encode()

    def test_empty_m_list_rejected(self):
        with pytest.raises(NonMonotoneMList):
            run_sweep("box.sinprod.2d", VariantSpec(), [])

    def test_non_ascending_m_list_rejected(self):
        with pytest.raises(NonMonotoneMList):
            run_sweep("box.sinprod.2d", VariantSpec(), [16, 16, 32])
        with pytest.raises(NonMonotoneMList):
            run_sweep("box.sinprod.2d", VariantSpec(), [16, 8, 32])

    def test_unknown_scenario_propagates(self):
        with pytest.raises(UnknownScenario):
            run_sweep("nope", VariantSpec(), [8, 16, 32])


class TestRateFitting:
    def test_zero_errors_floored_to_finite_rate(self):
        rows = tuple(
            SweepRow(m, 1.0 / m, 1.0, 0.0, None, 0.0, 0, 0) for m in (8, 16, 32)
        )
        rate = fit_rate(rows, exact=1.0)
        assert abs(rate) < 1e-12

    def test_clean_second_order_data(self):
        rows = tuple(
            SweepRow(m, 1.0 / m, 1.0, (1.0 / m) ** 2, None, 0.0, 0, 0)
            for m in (8, 16, 32, 64)
        )
        assert abs(fit_rate(rows, exact=1.0) - 2.0) < 1e-12


class TestCsv:
    def make_report(self):
        return run_sweep("box.sinprod.2d", VariantSpec(), [8, 16, 32, 64], seed=1)

    def test_header_exact(self):
        text = render_csv(self.make_report())
        assert text.splitlines()[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "scenario,kind,variant,m,mesh,value,abs_error,gap,symdiff_total,deleted_count,seed"
        )

    def test_line_count(self):
        text = render_csv(self.make_report())
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert len(text.splitlines()) == 5  # header + 4 rows

    def test_round_trip_floats(self):
        rep = self.make_report()
        text = render_csv(rep)
        row = text.splitlines()[1].split(",")
        assert float(row[5]) == rep.rows[0].value  # shortest repr round-trips

    def test_gap_column_empty_for_one_sided(self):
        text = render_csv(self.make_report())
        assert text.splitlines()[1].split(",")[7] == ""

    def test_byte_identical_reruns(self):
        a = render_csv(self.make_report())
        b = render_csv(self.make_report())
        assert a.encode() == b.encode()

    def test_emit_to_stream_and_path(self, tmp_path):
        rep = self.make_report()
        buf = io.StringIO()
        emit_csv(rep, buf)
        target = tmp_path / "report.csv"
        emit_csv(rep, target)
        assert target.read_text(encoding="utf-8") == buf.getvalue()
        assert b"\r" not in target.read_bytes()

    def test_io_failure(self, tmp_path):
        rep = self.make_report()
        with pytest.raises(IoFailure):
            emit_csv(rep, tmp_path / "missing_dir" / "report.csv")


class TestEvaluateScenario:
    def test_boundary_default_factor(self):
        sc = get_scenario("green.disk.rotation")
        rep = evaluate_scenario(sc, 32)
        assert rep.rhs.m == 32 * sc.boundary_factor

    def test_boundary_override(self):
        sc = get_scenario("green.disk.rotation")
        rep = evaluate_scenario(sc, 32, boundary_m=100)
        assert rep.rhs.m == 100

    def test_a_scenario_without_a_boundary_refuses_a_boundary_spec(self):
        bspec = VariantSpec("deleted", FixedK(2))
        for name in ("box.sinprod.2d", "line.circle.scalar", "surface.sphere.area"):
            with pytest.raises(RiemannLabError, match="boundary_spec applies only"):
                evaluate_scenario(get_scenario(name), 8, boundary_spec=bspec)
        with pytest.raises(RiemannLabError, match="boundary_spec applies only"):
            run_sweep("box.sinprod.2d", VariantSpec(), [8, 16, 32], boundary_spec=bspec)

    def test_deterministic_reruns(self):
        sc = get_scenario("gauss.ball.identity")
        spec = VariantSpec("combined", FixedK(3), RandomPick(5), gamma=0.6, seed=5)
        a = evaluate_scenario(sc, 8, spec)
        b = evaluate_scenario(sc, 8, spec)
        assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_random_tags_flow_through(self):
        sc = get_scenario("box.sinprod.2d")
        a = evaluate_scenario(sc, 16, VariantSpec(seed=3), tag_rule="random")
        b = evaluate_scenario(sc, 16, VariantSpec(seed=4), tag_rule="random")
        assert a.value != b.value
