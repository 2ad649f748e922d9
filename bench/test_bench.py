"""Tests of the benchmark's own logic: ``python3 -m pytest bench``.

They check the tail percentile, the self-time arithmetic, that tracing
restores every binding it swaps, and that the benchmark refuses to run
without the package sources.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402
import tracing  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    latencies = list(range(100))
    value, percentile = run_bench.tail(latencies)
    assert value == 89
    assert sum(x > value for x in latencies) == 10
    assert percentile == 90.0


def test_tail_falls_back_to_max_when_samples_are_few():
    assert run_bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _span(layer, name, start, end, parent, work=0):
    return [layer, name, start, end, parent, 0, work]


def test_self_time_subtracts_children_and_groups_count_outermost_once():
    spans = [
        _span("quadrature", "variant_sum", 0.0, 10.0, -1),
        _span("summation", "masked_neumaier_sum", 1.0, 5.0, 0),
        _span("summation", "neumaier_sum", 2.0, 4.0, 1, work=7),
        _span("fields", "eval:f", 6.0, 7.0, 0, work=3),
    ]
    metrics, self_s, counts = tracing.layer_totals(spans)
    assert self_s["quadrature"] == pytest.approx(5.0)
    assert self_s["summation"] == pytest.approx(4.0)
    assert self_s["fields"] == pytest.approx(1.0)
    assert metrics["summation.reduce_s"] == pytest.approx(4.0)  # outermost only
    assert metrics["summation.reduce_calls"] == 1
    assert metrics["summation.reduce_terms"] == 7
    assert metrics["fields.eval_points"] == 3
    assert counts["fields.fd_s"] == 0


def test_install_wraps_every_binding_and_uninstall_restores_it():
    import riemannlab.cli  # noqa: F401
    import riemannlab.geometry as geometry
    import riemannlab.summation as summation
    import riemannlab.theorems as theorems

    original = summation.neumaier_sum
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for mod in (summation, geometry, theorems):
            assert mod.neumaier_sum is not original
        tracer.active = True
        assert summation.neumaier_sum([1.0, 2.0])[0] == 3.0
        tracer.active = False
    finally:
        tracing.uninstall(undo)
    for mod in (summation, geometry, theorems):
        assert mod.neumaier_sum is original
    assert [s[tracing.NAME] for s in tracer.spans] == ["neumaier_sum"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "cli-sweep-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
