"""Steadiness self-check: two back-to-back sets of benchmark runs of the same code.

    python3 bench/check_steadiness.py [--runs 10]

Each set runs every workload of BENCHMARK.json ``--runs`` times, one run at
a time, with seeds 1 to ``--runs`` and the ``run_seconds`` of BENCHMARK.json.
For each end-to-end metric it reports the median and the spread (first to
third quartile, as a share of the median) and compares them with the
metric's bound in BENCHMARK.json:

- every spread except that of ``setup_s`` must stay within the bound, and
  is flagged when above a third of it (see SETUP_SPREAD_NOTE);
- the two sets' medians may differ, in either direction, by at most the
  bound, as a share of the first set's median.

Exits 1 when a check fails. Raw values go to ``bench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# setup_s is about 0.17 s of interpreter and numpy imports. A shared host that
# runs faster for tens of seconds at a time moves it by up to a quarter from
# run to run, which no number of set-ups within one run averages out. So its
# spread is reported and flagged but, as in the benchmark's acceptance rules,
# only its median has to agree between sets.
SETUP_SPREAD_NOTE = "setup_s spread above bound (not a failure)"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(spec: dict, runs: int) -> dict:
    """workload -> metric -> values over seeds 1..runs."""
    values = {}
    for w in spec["workloads"]:
        results = [run_once(w["name"], seed, spec["run_seconds"])
                   for seed in range(1, runs + 1)]
        values[w["name"]] = {m["name"]: [r[m["name"]] for r in results]
                             for m in spec["end_to_end"]}
        print(f"{w['name']}: {runs} runs done", flush=True)
    return values


def compare(spec: dict, first: dict, second: dict) -> bool:
    """Print each metric's medians, spreads and verdict; True when all pass."""
    ok = True
    print(f"{'workload':<16} {'metric':<12} {'bound':>6} {'median1':>12} {'spread1':>8} "
          f"{'median2':>12} {'spread2':>8} {'change':>7}  verdict")
    for workload in first:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = first[workload][name], second[workload][name]
            spreads = (spread(a), spread(b))
            change = abs(statistics.median(b) - statistics.median(a)) / statistics.median(a)
            verdict = "ok"
            if max(spreads) > bound / 3:
                verdict = "spread above bound/3"
            if max(spreads) > bound and name == "setup_s":
                verdict = SETUP_SPREAD_NOTE
            elif max(spreads) > bound:
                verdict, ok = "SPREAD ABOVE BOUND", False
            if change > bound:
                verdict, ok = "MEDIANS DIFFER BY MORE THAN BOUND", False
            print(f"{workload:<16} {name:<12} {bound:>6} {statistics.median(a):>12.6g} "
                  f"{spreads[0]:>8.4f} {statistics.median(b):>12.6g} {spreads[1]:>8.4f} "
                  f"{change:>7.4f}  {verdict}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    first = run_set(spec, args.runs)
    second = run_set(spec, args.runs)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steadiness.json").write_text(
        json.dumps({"first": first, "second": second}, indent=1))
    return 0 if compare(spec, first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
