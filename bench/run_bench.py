"""riemann-lab benchmark: one closed-loop caller, one workload per run.

    python3 bench/run_bench.py --workload box-sums-1m --seed 1 --seconds 20 --trace 0

One caller issues the next operation only after the previous one returns;
there are no worker threads, and BLAS/OpenMP pools are pinned to one thread
before numpy is imported. A run builds the workload's inputs from
``--seed``, runs its fixed operation list once as warm-up (that result is
the reference every repeat must match bit for bit), then repeats the list
for ``--seconds``. The expensive oracles check the warm-up results last,
after the run's peak memory has been read, so that it is the program's.

With ``--trace 0`` it reports the end-to-end metrics, tracing off. With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds (medians per round) and the tracing
overhead. Human-readable lines come first; the last line of standard
output is one JSON object. A report, with the spans of a traced run, is
written under ``bench/out/``.

Run from the root of a checkout: the package is imported from its
``src/`` and nowhere else.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from here

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Fresh-process set-ups, spread over the timed phase so that they sample the
# same machine states as the rounds; setup_s is the median of these and this
# run's own set-up.
SETUP_PROBES = 7
WORKLOAD_NAMES = ("box-sums-1m", "theorem-fd", "cli-sweep-small")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_package():
    """Import riemannlab from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "riemannlab" / "__init__.py").is_file():
        raise SystemExit(f"run_bench: no riemannlab package under {src}")
    sys.path.insert(0, str(src))
    import riemannlab

    if Path(riemannlab.__file__).resolve().parent != (src / "riemannlab").resolve():
        raise SystemExit(f"run_bench: imported riemannlab from {riemannlab.__file__}")


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    i = n - 11
    return ordered[i], 100.0 * (i + 1) / n


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"run_bench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs rounds of a workload's operation list and keeps the samples."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.reference = {}
        self.warm = []  # (op, warm-up result) of each warm-up that passed its checks
        self.attempted = 0
        self.problems = []  # (op key, message)
        self.rounds = []  # (traced, wall seconds, [latency per op])
        self.traced_spans = []

    def _fail(self, op, message):
        self.problems.append((op.key, message))
        print(f"FAILED {op.key}: {message}", file=sys.stderr)

    def _one(self, op, warmup):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t = perf_counter()
        elapsed = None
        try:
            raw = op.run()
            elapsed = perf_counter() - t
            result = op.finish(raw)
            problems = op.check(result)
            if warmup:
                self.reference[op.key] = op.fingerprint(result)
                if not problems:
                    self.warm.append((op, result))
            elif op.fingerprint(result) != self.reference.get(op.key):
                problems.append("result differs from the first run of the same operation")
        except Exception:
            if elapsed is None:
                elapsed = perf_counter() - t
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self._fail(op, "; ".join(problems))
        return elapsed

    def warmup(self):
        for op in self.workload.ops:
            self._one(op, warmup=True)

    def check_oracles(self):
        """Check the warm-up results against the oracles, outside any round.

        A failure counts against the warm-up operation it checks.
        """
        for op, result in self.warm:
            try:
                problems = op.oracle(result)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            if problems:
                self._fail(op, "; ".join(problems))

    def round(self, traced):
        undo = None
        if traced:
            self.tracer.spans, self.tracer.stack = [], []
            undo = tracing.install(self.tracer)
            self.tracer.active = True
        start = perf_counter()
        try:
            latencies = [self._one(op, warmup=False) for op in self.workload.ops]
        finally:
            wall = perf_counter() - start
            if traced:
                self.tracer.active = False
                tracing.uninstall(undo)
                self.traced_spans.append(self.tracer.spans)
        self.rounds.append((traced, wall, latencies))

    def run_for(self, seconds, trace, probe=None, probes=0):
        """Repeat rounds until they add up to ``seconds``.

        Between rounds, call ``probe`` ``probes`` times, evenly spread over
        the rounds' time, and return its results. Probe time is in no round.
        """
        busy, samples = 0.0, []
        while True:
            self.round(traced=trace and len(self.rounds) % 2 == 1)
            busy += self.rounds[-1][1]
            if len(samples) < probes and busy >= len(samples) * seconds / probes:
                samples.append(probe())
            if busy >= seconds and len(samples) == probes and (
                not trace or len(self.rounds) >= 2
            ):
                return samples


def end_to_end(runner, setup_s, peak_rss_mb, cells):
    walls = [w for traced, w, _ in runner.rounds if not traced]
    latencies = [x for traced, _, lat in runner.rounds if not traced for x in lat]
    # Total time over rounds, not the median round: on a shared host the
    # processor's speed can switch between levels for seconds at a time, and
    # the median of such a mixture jumps between the levels from run to run.
    wall_s = sum(walls) / len(walls)
    op_tail, percentile = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "cells_per_s": (cells / wall_s, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (op_tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "rounds": len(walls),
        "operations": len(latencies),
        "op_tail_percentile": percentile,
        "cells_per_round": cells,
    }
    return metrics, info


def per_layer(runner, workload_name):
    from workloads import EXERCISED

    totals = [tracing.layer_totals(spans) for spans in runner.traced_spans]
    metrics = {
        name: (float(statistics.median(t[0][name] for t in totals)), unit)
        for name, (_source, unit) in tracing.PER_LAYER.items()
    }
    traced = [w for t, w, _ in runner.rounds if t]
    plain = [w for t, w, _ in runner.rounds if not t]
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    counts = totals[0][2]
    missing = [m for m in EXERCISED[workload_name] if counts[m] == 0]
    if missing:
        raise SystemExit(
            f"run_bench: no spans recorded on {workload_name} for {', '.join(missing)}"
        )
    self_s = {
        layer: statistics.median(t[1][layer] for t in totals) for layer in tracing.LAYERS
    }
    total = sum(self_s.values())
    shares = {f"self share {layer}": f"{t / total:.3f}" for layer, t in self_s.items()}
    return metrics, shares


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        tracer = tracing.Tracer() if args.trace else None
        workload = workloads.WORKLOADS[args.workload](args.seed, tracer, tmp)
        own_setup = perf_counter() - T0
        if args.setup_probe:
            print(repr(own_setup))
            return 0

        runner = Runner(workload, tracer)
        runner.warmup()
        if args.trace:
            runner.run_for(args.seconds, trace=True)
        else:
            probes = runner.run_for(args.seconds, trace=False,
                                    probe=lambda: probe_setup(args), probes=SETUP_PROBES)
            setup_s = statistics.median([own_setup] + probes)
        # Before the oracles, which rebuild the large arrays in this process.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.check_oracles()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    cells = sum(op.cells for op in workload.ops)
    if args.trace:
        metrics, info = per_layer(runner, args.workload)
    else:
        metrics, info = end_to_end(runner, setup_s, peak_rss_mb, cells)
    failed = len(runner.problems)
    fail_frac = failed / runner.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations/round {len(workload.ops)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    print(f"  {'fail_frac':<26} {fail_frac:.6g} 1  ({failed} of {runner.attempted})")
    for key, value in info.items():
        print(f"  {key:<26} {value}")
    notes = workload.notes()
    for note in notes:
        print(f"  {note}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_frac": fail_frac,
        "problems": runner.problems,
        "info": info,
        "round_walls": [[traced, wall] for traced, wall, _ in runner.rounds],
        "notes": notes,
        "ops": [op.key for op in workload.ops],
        "spans_fields": ["layer", "name", "start", "end", "parent", "op", "work"],
        "spans": runner.traced_spans,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
