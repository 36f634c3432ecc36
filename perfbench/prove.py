"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads NAME,...] [--seeds 1-10] [--trace 0|1]

Run from the repository root.  Runs perfbench/run.py once per (workload,
seed), one process at a time, with the run_seconds of BENCHMARK.json.  It
prints each run's metrics with their units and sample counts; then, for
every metric, the median, the quartiles and the spread (third
minus first quartile over the median, from statistics.quantiles(n=4)),
and, for end-to-end metrics, whether the spread is within the metric's
bound and within a third of it.  The summary is written to
.perfbench_out/prove-trace<T>.json.  The exit code is 1 when a run fails
its output checks or an end-to-end spread, set-up time included, is
outside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, ok = {}, True
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
                ok = False
            runs.append(result)
            print(f"{name} seed {seed}:")
            for line in proc.stdout.splitlines():
                if line.startswith(("# metric", "# layer")):
                    print("  " + line[2:])
            sys.stdout.flush()
        summary[name] = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": sp, "values": values}
            verdict = ""
            if metric in bounds:
                bound = bounds[metric]
                verdict = ("within a third of bound" if sp < bound / 3 else
                           "within bound" if sp <= bound else "OUTSIDE bound")
                verdict += f" {bound}"
                if sp > bound:
                    ok = False
            print(f"  {name} {metric}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {sp:.3f} {verdict}")
    out = ROOT / ".perfbench_out" / f"prove-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
