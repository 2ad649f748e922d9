import json
import subprocess
import sys

import pytest

from riemannlab import get_scenario

RUN = [sys.executable, "-m", "riemannlab"]


def invoke(*args):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=300
    )


class TestHelpAndUsage:
    def test_integrate_help(self):
        res = invoke("integrate", "--help")
        assert res.returncode == 0
        assert "usage" in res.stdout.lower()

    def test_missing_command_is_usage_error(self):
        assert invoke().returncode == 2

    def test_unknown_flag_is_fatal(self):
        res = invoke("integrate", "box.sinprod.2d", "--frobnicate")
        assert res.returncode == 2

    def test_unknown_scenario(self):
        res = invoke("integrate", "box.unknown", "--m", "8")
        assert res.returncode == 2
        assert "unknown scenario" in res.stderr

    def test_bad_gamma(self):
        res = invoke(
            "integrate", "box.sinprod.2d", "--m", "8", "--variant", "perturbed",
            "--gamma", "1.5",
        )
        assert res.returncode == 2

    def test_bad_k_and_schedule_values(self):
        res = invoke("integrate", "box.sinprod.2d", "--m", "8", "--k", "0")
        assert res.returncode == 2
        res = invoke(
            "integrate", "box.sinprod.2d", "--m", "8", "--k-schedule", "pow:oops"
        )
        assert res.returncode == 2
        res = invoke(
            "integrate", "box.sinprod.2d", "--m", "8", "--k-schedule", "pow:1.5"
        )
        assert res.returncode == 2

    def test_print_config_still_validates(self):
        res = invoke(
            "integrate", "box.sinprod.2d", "--gamma", "1.5", "--print-config"
        )
        assert res.returncode == 2

    def test_kind_mismatch(self):
        assert invoke("integrate", "green.disk.rotation").returncode == 2
        assert invoke("verify", "box.sinprod.2d").returncode == 2


class TestListScenarios:
    def test_lists_all_public_names(self):
        res = invoke("list-scenarios")
        assert res.returncode == 0
        for name in ("box.sinprod.2d", "green.disk.rotation", "stokes.hemisphere.rotation"):
            assert name in res.stdout


class TestVerify:
    def test_green_disk_passes(self):
        res = invoke(
            "verify", "green.disk.rotation", "--m", "256", "--boundary-m", "4096"
        )
        assert res.returncode == 0, res.stderr
        assert "lhs=" in res.stdout and "rhs=" in res.stdout and "gap=" in res.stdout

    def test_gap_above_tolerance_exits_3(self):
        res = invoke(
            "verify", "green.disk.rotation", "--m", "8", "--boundary-m", "8",
            "--variant", "deleted", "--k", "7",
        )
        assert res.returncode == 3
        assert "exceeds tolerance" in res.stderr


class TestIntegrate:
    @pytest.mark.parametrize(
        "scenario,exact",
        [
            ("line.circle.scalar", "6.28"),
            ("surface.sphere.area", "12.56"),
            ("box.poly.3d", "1.0"),
        ],
    )
    def test_one_sided_kinds(self, scenario, exact):
        res = invoke("integrate", scenario, "--m", "16")
        assert res.returncode == 0, res.stderr
        assert f"scenario={scenario}" in res.stdout
        assert f"exact={exact}" in res.stdout

    def test_csv_routing(self, tmp_path):
        out = tmp_path / "one.csv"
        res = invoke("integrate", "box.sinprod.2d", "--m", "8", "--csv", str(out))
        assert res.returncode == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_verify_csv_carries_gap(self, tmp_path):
        out = tmp_path / "gap.csv"
        res = invoke(
            "verify", "green.disk.rotation", "--m", "32", "--csv", str(out)
        )
        assert res.returncode == 0
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[7] != ""  # gap column populated for theorem scenarios
        assert float(row[7]) >= 0.0


class TestConverge:
    def test_writes_five_line_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        res = invoke(
            "converge", "box.sinprod.2d", "--variant", "full",
            "--m-list", "16,32,64,128", "--csv", str(out),
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("scenario,kind,variant,")

    def test_bad_m_list(self):
        res = invoke("converge", "box.sinprod.2d", "--m-list", "16,8")
        assert res.returncode == 2

    def test_boundary_m_without_a_boundary_is_usage_error(self):
        res = invoke(
            "converge", "line.circle.rotation", "--m-list", "4,8,16",
            "--boundary-m", "-3",
        )
        assert res.returncode == 2
        assert "no boundary" in res.stderr
        assert "Traceback" not in res.stderr


class TestPrintConfig:
    def test_round_trip(self):
        res = invoke(
            "verify", "green.disk.rotation", "--m", "64", "--boundary-m", "256",
            "--variant", "combined", "--k", "3", "--selector", "random",
            "--gamma", "0.25", "--tags", "corner", "--seed", "42", "--print-config",
        )
        assert res.returncode == 0
        cfg = json.loads(res.stdout)
        assert cfg["command"] == "verify"
        assert cfg["scenario"] == "green.disk.rotation"
        assert cfg["m"] == 64 and cfg["boundary_m"] == 256
        assert cfg["variant"] == "combined" and cfg["k"] == 3
        assert cfg["selector"] == "random" and cfg["gamma"] == 0.25
        assert cfg["tags"] == "corner" and cfg["seed"] == 42

    def test_schedule_flag_round_trips(self):
        res = invoke(
            "converge", "box.sinprod.2d", "--m-list", "8,16,32",
            "--variant", "deleted", "--k-schedule", "pow:0.5", "--print-config",
        )
        cfg = json.loads(res.stdout)
        assert cfg["k_schedule"] == "pow:0.5" and cfg["k"] is None


@pytest.mark.parametrize(
    "args",
    [
        ("integrate", "line.circle.scalar", "--m", "1", "--variant", "deleted"),
        ("integrate", "box.sinprod.2d", "--m", "1", "--variant", "deleted"),
        ("converge", "box.sinprod.2d", "--m-list", "1,2,3", "--variant", "deleted"),
        ("verify", "green.disk.rotation", "--m", "4", "--boundary-m", "1",
         "--variant", "deleted"),
    ],
)
def test_deleting_from_one_cell_is_usage_error(args):
    res = invoke(*args)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "at least 2 cells" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("integrate", "box.sinprod.2d", "--m", "8", "--seed", "-1",
         "--variant", "perturbed"),
        ("integrate", "box.sinprod.2d", "--m", "8", "--seed", "-1",
         "--variant", "perturbed", "--tags", "random"),
        ("converge", "box.sinprod.2d", "--m-list", "4,8,16", "--seed", "-1",
         "--variant", "deleted", "--selector", "random"),
    ],
)
def test_negative_seed_is_usage_error(args):
    res = invoke(*args)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--seed" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("integrate", "box.sinprod.2d", "--m", "32", "--variant", "combined",
         "--k", "3", "--selector", "random", "--gamma", "0.5", "--seed", "9"),
        ("verify", "green.disk.rotation", "--m", "64", "--boundary-m", "4096",
         "--variant", "deleted", "--k", "4", "--selector", "random", "--seed", "3"),
        ("converge", "line.circle.scalar", "--m-list", "16,32,64",
         "--variant", "perturbed", "--gamma", "0.5", "--seed", "7"),
    ],
)
def test_byte_identical_reruns(args, tmp_path):
    # same CSV destination both times so the echoed path is identical too
    csv_path = tmp_path / "report.csv"
    first = invoke(*args, "--csv", str(csv_path))
    first_bytes = csv_path.read_bytes()
    second = invoke(*args, "--csv", str(csv_path))
    second_bytes = csv_path.read_bytes()
    assert first.returncode == second.returncode == 0
    assert first.stdout.encode() == second.stdout.encode()
    assert first_bytes == second_bytes


class TestVanishingNormal:
    """One rule at the sphere's poles, where corner tags sit on a vanishing
    normal: a kept pole tag gives a zero term, f ||N|| and F . N alike. So a
    scalar surface sum that keeps the pole tags prints what deleting them
    prints, and so does the flux through them."""

    AREA = ("integrate", "surface.sphere.area", "--m", "8", "--tags", "corner")
    VALUE = "value=12.404462994313903 "
    RESIDUAL = "compensation_residual=-1.7763568394002505e-15"

    def test_scalar_sum_keeping_the_pole_tags_runs(self):
        res = invoke(*self.AREA)
        assert res.returncode == 0, res.stderr
        assert self.VALUE in res.stdout
        assert self.RESIDUAL in res.stdout

    def test_scalar_sum_deleting_the_pole_tags_runs(self):
        res = invoke(*self.AREA, "--variant", "deleted", "--k", "8", "--selector", "prefix")
        assert res.returncode == 0, res.stderr
        assert self.VALUE in res.stdout
        assert self.RESIDUAL in res.stdout

    def test_corner_tagged_area_meets_its_tolerance_at_the_default_m(self):
        scenario = get_scenario("surface.sphere.area")
        res = invoke("integrate", scenario.name, "--tags", "corner")
        assert res.returncode == 0, res.stderr
        assert f"m={scenario.default_m ** 2} " in res.stdout
        error = float(res.stdout.split("abs_error=")[1].split()[0])
        assert error <= scenario.tolerance_for("full")

    def test_flux_through_the_poles_is_not_checked(self):
        res = invoke("integrate", "surface.sphere.flux", "--m", "8", "--tags", "corner")
        assert res.returncode == 0, res.stderr
        assert self.VALUE in res.stdout

    def test_gauss_boundary_reaches_its_gap_check(self):
        res = invoke("verify", "gauss.ball.identity", "--m", "8", "--tags", "corner")
        assert res.returncode == 3
        assert "verify FAILED: gap" in res.stderr
