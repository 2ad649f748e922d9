"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    naive_box_terms,
    naive_line_terms,
    naive_magnitude,
    naive_surface_terms,
    naive_total,
    random_box,
    random_poly_path,
    random_poly_scalar,
    random_poly_surface,
)
from riemannlab import (
    Box,
    DeletionPlan,
    EqualPartitionRequired,
    FixedK,
    LargestTerm,
    Logarithmic,
    ParametricSurface,
    Path,
    PowerLaw,
    Prefix,
    RandomPick,
    ScalarField,
    VariantSpec,
    VectorField,
    bind_deletion,
    line_sum,
    make_partition,
    make_uniform_partition,
    perturb,
    surface_sum,
    variant_sum,
)
from riemannlab.harness import evaluate_scenario, run_sweep
from riemannlab.scenarios import get_scenario

EPS = np.finfo(float).eps


@contextmanager
def criterion(number, description, max_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS  {description}  ({elapsed:.2f}s)")
    assert elapsed < max_seconds, f"criterion {number} exceeded {max_seconds}s"


def _random_partition(rng, trial, equal_only=False):
    dim = int(rng.integers(1, 4))
    axes = random_box(rng, dim)
    box = Box(tuple(axes))
    counts = tuple(int(rng.integers(2, 6)) for _ in range(dim))
    rule = ("midpoint", "corner", "random")[trial % 3]
    if equal_only or trial % 2 == 0:
        p = make_uniform_partition(box, counts, tag_rule=rule, seed=trial)
    else:
        breaks = []
        for (lo, hi), c in zip(axes, counts):
            inner = np.sort(rng.uniform(lo, hi, size=c - 1))
            breaks.append(np.concatenate([[lo], inner, [hi]]))
        p = make_partition(box, breaks, tag_rule=rule, seed=trial)
    return axes, p


def test_criterion_1_deletion_bound_suite():
    with criterion(1, "deletion bound: |deleted-full| <= K*M*max m(I_k), 200 configs", 10):
        rng = np.random.default_rng(101)
        for trial in range(200):
            axes, p = _random_partition(rng, trial)
            fn, bound = random_poly_scalar(rng, p.dim, axes)
            f = ScalarField(p.dim, fn, bound_M=bound)
            selector = (Prefix(), RandomPick(trial), LargestTerm())[trial % 3]
            if p.is_equal and trial % 5 == 0:
                schedule = PowerLaw(0.6) if trial % 2 else Logarithmic()
            else:
                schedule = FixedK(int(rng.integers(1, p.m)))
            terms = np.abs(np.asarray(f(p.tags)) * p.measures)
            plan = bind_deletion(DeletionPlan(schedule, selector), p, terms=terms)
            gap = abs(variant_sum(f, p, plan=plan).value - variant_sum(f, p).value)
            limit = len(plan.resolved) * bound * float(np.max(p.measures))
            assert gap <= limit, (trial, gap, limit)


def test_criterion_2_perturbation_bound_suite():
    with criterion(2, "perturbation bound: |perturbed-full| <= M*symdiff_total, 200 configs", 10):
        rng = np.random.default_rng(202)
        for trial in range(200):
            axes, p = _random_partition(rng, trial)
            fn, bound = random_poly_scalar(rng, p.dim, axes)
            f = ScalarField(p.dim, fn, bound_M=bound)
            pp = perturb(p, float(rng.uniform(0.0, 0.9)), seed=trial)
            gap = abs(variant_sum(f, p, perturbation=pp).value - variant_sum(f, p).value)
            limit = bound * pp.symdiff_total + 4 * EPS * bound
            assert gap <= limit, (trial, gap, limit)


def test_criterion_3_convergence_suite():
    with criterion(3, "box.sinprod.2d: full 1e-6 & rate 2.0+-0.3; deleted 1e-3; "
                      "perturbed/combined 1e-2 at 256^2", 30):
        sc = get_scenario("box.sinprod.2d")
        sweep = run_sweep(sc.name, VariantSpec(), [16, 32, 64, 128, 256])
        assert sweep.rows[-1].abs_error < 1e-6
        assert abs(sweep.fitted_rate - 2.0) <= 0.3

        deleted = evaluate_scenario(
            sc, 256, VariantSpec("deleted", FixedK(8), LargestTerm())
        )
        assert abs(deleted.value - sc.exact) < 1e-3

        perturbed = evaluate_scenario(sc, 256, VariantSpec("perturbed", gamma=0.5, seed=1))
        assert abs(perturbed.value - sc.exact) < 1e-2

        combined = evaluate_scenario(
            sc, 256, VariantSpec("combined", FixedK(8), LargestTerm(), gamma=0.5, seed=1)
        )
        assert abs(combined.value - sc.exact) < 1e-2


def _variant_pairs():
    return (
        VariantSpec(),
        VariantSpec("deleted", FixedK(4), RandomPick(17), seed=17),
        VariantSpec("perturbed", gamma=0.5, seed=17),
        VariantSpec("combined", FixedK(4), RandomPick(17), gamma=0.5, seed=17),
    )


def test_criterion_4_green_verification():
    with criterion(4, "green.disk.rotation 256^2/4096: sides & gap < 2e-2, four pairs", 60):
        sc = get_scenario("green.disk.rotation")
        for spec in _variant_pairs():
            rep = evaluate_scenario(sc, 256, spec, boundary_m=4096)
            assert rep.lhs_error < 2e-2, spec.kind
            assert rep.rhs_error < 2e-2, spec.kind
            assert rep.gap < 2e-2, spec.kind


def test_criterion_5_gauss_verification():
    with criterion(5, "gauss.ball.identity 64^3/128^2: sides & gap < 5e-2, four pairs", 120):
        sc = get_scenario("gauss.ball.identity")
        for spec in _variant_pairs():
            rep = evaluate_scenario(sc, 64, spec, boundary_m=128)
            assert rep.lhs_error < 5e-2, spec.kind
            assert rep.rhs_error < 5e-2, spec.kind
            assert rep.gap < 5e-2, spec.kind


def test_criterion_6_stokes_verification():
    with criterion(6, "stokes.disk 256^2/4096 < 2e-2; hemisphere lhs agrees < 5e-2", 60):
        disk = get_scenario("stokes.disk.rotation")
        for spec in _variant_pairs():
            rep = evaluate_scenario(disk, 256, spec, boundary_m=4096)
            assert rep.lhs_error < 2e-2, spec.kind
            assert rep.rhs_error < 2e-2, spec.kind
            assert rep.gap < 2e-2, spec.kind
        hemi = get_scenario("stokes.hemisphere.rotation")
        disk_full = evaluate_scenario(disk, 256, VariantSpec(), boundary_m=4096)
        hemi_full = evaluate_scenario(hemi, 256, VariantSpec(), boundary_m=4096)
        assert abs(disk_full.lhs.value - hemi_full.lhs.value) < 5e-2


def _oracle_case(rng, trial):
    """One (kind, variant) instance with m <= 16; returns (impl, oracle, scale)."""
    kind = trial % 3
    variant = (trial // 3) % 4
    deletes = variant in (1, 3)
    perturbs = variant in (2, 3)

    if kind == 0:  # box
        dim = int(rng.integers(1, 4))
        axes = random_box(rng, dim)
        box = Box(tuple(axes))
        counts = {1: (int(rng.integers(2, 17)),), 2: (4, 4), 3: (2, 2, 2)}[dim]
        p = make_uniform_partition(box, counts, ("midpoint", "corner", "random")[trial % 3], seed=trial)
        fn, bound = random_poly_scalar(rng, dim, axes)
        f = ScalarField(dim, fn, bound_M=bound)
        pp = perturb(p, float(rng.uniform(0, 0.9)), seed=trial) if perturbs else None
        plan = None
        if deletes:
            mags = np.abs(np.asarray(f(p.tags)) * p.measures)
            plan = bind_deletion(
                DeletionPlan(FixedK(int(rng.integers(1, p.m))),
                             (Prefix(), RandomPick(trial), LargestTerm())[trial % 3]),
                p, terms=mags)
        impl = variant_sum(f, p, plan=plan, perturbation=pp)
        terms = naive_box_terms(f, p, perturbation=pp)
    elif kind == 1:  # line
        pos, vel = random_poly_path(rng, dim_out=2)
        path = Path(domain=(0.0, 1.0), pos=pos, vel=vel)
        m = int(rng.integers(2, 17))
        p = make_uniform_partition(Box(((0.0, 1.0),)), m, "random", seed=trial)
        vector = trial % 2 == 0
        if vector:
            field = VectorField(2, 2, lambda q: np.stack([q[..., 1], q[..., 0] * q[..., 1]], -1))
        else:
            axes2 = [(-3.0, 3.0), (-3.0, 3.0)]
            fn, _ = random_poly_scalar(rng, 2, axes2)
            field = ScalarField(2, fn)
        pp = perturb(p, float(rng.uniform(0, 0.9)), seed=trial) if perturbs else None
        plan = None
        if deletes:
            base = naive_line_terms(field, path, p, vector=vector)
            plan = bind_deletion(
                DeletionPlan(FixedK(int(rng.integers(1, p.m))),
                             (Prefix(), RandomPick(trial), LargestTerm())[trial % 3]),
                p, terms=np.abs(base))
        impl = line_sum(field, path, p, plan=plan, perturbation=pp)
        terms = naive_line_terms(field, path, p, perturbation=pp, vector=vector)
    else:  # surface
        pos, du, dv = random_poly_surface(rng)
        surface = ParametricSurface(Box(((0.0, 1.0), (0.0, 1.0))), pos, du, dv)
        p = make_uniform_partition(surface.domain, (4, 4), "random", seed=trial)
        vector = trial % 2 == 0
        if vector:
            field = VectorField(3, 3, lambda q: np.stack(
                [q[..., 1], q[..., 0], q[..., 2] + q[..., 0]], -1))
        else:
            axes3 = [(-3.0, 3.0)] * 3
            fn, _ = random_poly_scalar(rng, 3, axes3)
            field = ScalarField(3, fn)
        pp = perturb(p, float(rng.uniform(0, 0.9)), seed=trial) if perturbs else None
        plan = None
        if deletes:
            base = naive_surface_terms(field, surface, p, vector=vector)
            plan = bind_deletion(
                DeletionPlan(FixedK(int(rng.integers(1, p.m))),
                             (Prefix(), RandomPick(trial), LargestTerm())[trial % 3]),
                p, terms=np.abs(base))
        impl = surface_sum(field, surface, p, plan=plan, perturbation=pp)
        terms = naive_surface_terms(field, surface, p, perturbation=pp, vector=vector)

    deleted = plan.resolved if plan is not None else ()
    oracle = naive_total(terms, deleted)
    scale = naive_magnitude(terms, deleted)
    return impl.value, oracle, scale


def test_criterion_7_oracle_equivalence():
    with criterion(7, "naive-loop oracle: 500 randomized m<=16 cases, 4-eps agreement", 5):
        rng = np.random.default_rng(707)
        for trial in range(500):
            value, oracle, scale = _oracle_case(rng, trial)
            assert abs(value - oracle) <= 4 * EPS * max(scale, 1e-300), trial


CLI_COMMANDS = (
    ("integrate", "box.sinprod.2d", "--m", "32", "--variant", "combined",
     "--k", "3", "--selector", "random", "--gamma", "0.5", "--seed", "9"),
    ("verify", "green.disk.rotation", "--m", "64", "--boundary-m", "1024",
     "--variant", "perturbed", "--gamma", "0.5", "--seed", "2"),
    ("converge", "line.circle.rotation", "--m-list", "16,32,64",
     "--variant", "deleted", "--k-schedule", "pow:0.5", "--selector", "random",
     "--seed", "5"),
)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical stdout/CSV on 3 repeated CLI commands", 60):
        for idx, args in enumerate(CLI_COMMANDS):
            csv_path = tmp_path / f"cmd{idx}.csv"
            cmd = [sys.executable, "-m", "riemannlab", *args, "--csv", str(csv_path)]
            first = subprocess.run(cmd, capture_output=True, timeout=120)
            first_csv = csv_path.read_bytes()
            second = subprocess.run(cmd, capture_output=True, timeout=120)
            second_csv = csv_path.read_bytes()
            assert first.returncode == 0, first.stderr
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout
            assert first_csv == second_csv


def test_criterion_9_schedule_clause():
    with criterion(9, "clause iii: K(m)=floor(sqrt(m)) errors -> 0 over {1e2,1e4,1e6}; "
                      "non-equal partition refused", 60):
        f = ScalarField(1, lambda x: np.sin(x[..., 0]), bound_M=math.sin(1.0))
        box = Box(((0.0, 1.0),))
        exact = 1.0 - math.cos(1.0)
        spec = VariantSpec("deleted", PowerLaw(0.5), Prefix())
        errors = []
        for m in (100, 10_000, 1_000_000):
            p = make_uniform_partition(box, m)
            errors.append(abs(variant_sum(f, p, spec).value - exact))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-3

        non_equal = make_partition(
            box, [np.concatenate([[0.0], np.sort(
                np.random.default_rng(9).uniform(0.01, 0.99, 99)), [1.0]])]
        )
        with pytest.raises(EqualPartitionRequired):
            variant_sum(f, non_equal, spec)
