"""Benchmark of blockembed: three seeded workloads, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src and
driven in-process on one thread.  With --trace 0 the run times items for
S seconds, after an untimed warm-up item, then times two more set-ups in
fresh processes, one at a time, and reports the end-to-end metrics of
BENCHMARK.json at reference machine speed (see speed.py).  With
--trace 1 it runs a fixed item set, each item untraced and then with span
tracing, and reports the per-layer metrics.
Every item's outputs are checked; the last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  The exit code is 0 when
every check passed, 1 when a check failed and 2 when the program cannot be
imported (no result is printed then).  See perfbench/NOTES.md.
"""

import time

START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import speed

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Items in the traced run: a fixed set, so that its counts repeat exactly
# for a seed.
TRACE_ITEMS = {"reports-m0-3": 2, "estimate-l1-toy1": 100, "oracle-3x2": 200}
# Trials of each workers=1 and workers=2 estimate on estimate-l1-toy1.
SPEEDUP_TRIALS = 20
# Seconds of items scaled by one speed estimate.
SLICE_S = 2.0
# setup_s is the median over this many set-ups: this process's own and the
# rest in fresh processes, since a repeat within one process would find the
# imports and first-call work already done.
SET_UPS = 3
SET_UP_TIMEOUT_S = 60

# Metric names and units, from BENCHMARK.json.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def import_program():
    """Import blockembed from ./src, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import blockembed

    if Path(blockembed.__file__).resolve().parent.parent != src:
        raise ImportError(f"blockembed resolved outside {src}: {blockembed.__file__}")


def machine() -> dict:
    from importlib.metadata import version

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "click"):
        info[pkg] = version(pkg)
    return info


def percentile(values: list, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


class Runner:
    """Runs and checks one workload's items, counting failures."""

    def __init__(self, workload, seed: int, recorded: dict, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.seed = seed
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digests: dict = {}

    def warm_up(self) -> None:
        """Run and check item 0 untimed; it counts in no total."""
        self.item(0)
        self.attempted = self.failed = 0

    def item(self, i: int, tracer=None) -> tuple:
        """Run item i; returns (seconds, work units).  Failures count 0 units.

        With a ``tracer``, the timed call runs inside its driver span.
        """
        from workloads import item_seed

        seed = item_seed(self.seed, i)
        inputs = self.workload.make(seed)
        self.attempted += 1
        idx = tracer.open("bench.item") if tracer else None
        t0 = self.clock()
        try:
            result = self.workload.run(inputs)
        except Exception:  # one failed item must not end the run
            elapsed = self.clock() - t0
            self.failed += 1
            self.errors.append(f"item {seed} raised: {traceback.format_exc(limit=3)}")
            return elapsed, 0
        finally:
            if tracer:
                tracer.close(idx)
        elapsed = self.clock() - t0
        try:
            checked = self.workload.check(inputs, result)
        except Exception:
            self.errors.append(f"item {seed} check raised: {traceback.format_exc(limit=3)}")
            return elapsed, 0
        if checked.units == 0 and checked.errors:
            self.failed += 1  # nonzero exit code: the item did no work
        self.errors += [f"item {seed}: {e}" for e in checked.errors]
        want = self.recorded.get(str(seed))
        if want is not None and checked.digest != want:
            self.errors.append(f"item {seed}: outputs differ from the recorded digest")
        if self.digests.setdefault(seed, checked.digest) != checked.digest:
            self.errors.append(f"item {seed}: outputs differ between two runs")
        return elapsed, checked.units


def set_up(runner: Runner, gauge) -> tuple:
    """Run the warm-up item; returns (raw, scaled) seconds since START."""
    runner.warm_up()
    raw = gauge.clock() - START
    return raw, raw * gauge.factor(START, time.perf_counter())


def fresh_set_ups(args) -> list:
    """Time SET_UPS - 1 more set-ups, each in a fresh process of this script.

    Each runs in turn and is waited for; returns [(raw, scaled) seconds].
    """
    out = []
    for _ in range(SET_UPS - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SET_UP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def measure(runner: Runner, seconds: float, gauge) -> tuple:
    """Time items until ``seconds`` have elapsed, after the set-up.

    Returns (end-to-end metrics except setup_s, notes on them, the set-up's
    (raw, scaled) seconds).  Times are reported at reference speed (see
    speed.py): the items run in slices of about SLICE_S seconds, and each
    slice is scaled by the speed kernel timings the active ``gauge`` took
    during it.
    """
    setup = set_up(runner, gauge)
    phase_start = time.perf_counter()
    raw, scaled, units = [], [], 0
    i = 1
    while i == 1 or time.perf_counter() - phase_start < seconds:
        slice_start, batch = time.perf_counter(), []
        while not batch or (time.perf_counter() - slice_start < SLICE_S
                            and time.perf_counter() - phase_start < seconds):
            elapsed, done = runner.item(i)
            batch.append(elapsed)
            units += done
            i += 1
        f = gauge.factor(slice_start, time.perf_counter())
        raw += batch
        scaled += [e * f for e in batch]
    n = len(scaled)
    metrics = {
        "throughput": units / sum(scaled),
        "item_ms_p50": 1000.0 * statistics.median(scaled),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "throughput": f"{units} {runner.workload.unit} in {n} items; "
                      f"raw {units / sum(raw):.6g} 1/s",
        "item_ms_p50": f"n={n} items; raw {1000.0 * statistics.median(raw):.6g} ms",
        "peak_rss_mib": "n=1",
    }
    kernel = [ms for _, ms in gauge.samples]
    print(f"# speed kernel median {statistics.median(kernel):.4g} ms over "
          f"{len(kernel)} samples; reference {speed.REFERENCE_MS} ms")
    print(f"# metric failed_frac = {runner.failed / max(runner.attempted, 1):.6g} "
          f"ratio ({runner.failed} failed / {runner.attempted} attempted)")
    if n >= 100:
        print(f"# metric item_ms_p90 = {1000.0 * percentile(scaled, 90):.6g} ms "
              f"(n={n} items; raw {1000.0 * percentile(raw, 90):.6g} ms)")
    else:
        print(f"# metric item_ms_p90 = n/a (n={n} items, needs 100)")
    return metrics, notes, setup


def report(metrics: dict, notes: dict) -> dict:
    """Print each end-to-end metric; returns them in BENCHMARK.json order."""
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        print(f"# metric {name} = {metrics[name]:.6g} {unit} ({notes[name]})")
        out[name] = {"value": metrics[name], "unit": unit}
    return out


def workers_speedup(runner: Runner) -> dict:
    """Time one block's estimate at workers=1 and workers=2, untraced.

    The two settings alternate, twice each, so that a drift in machine
    speed falls on both.  Differing estimates are a check failure.
    """
    from blockembed import hierarchy, stats
    from blockembed.lattice import Rect
    from blockembed.params import named_profile
    from workloads import item_seed

    p = named_profile("toy1")
    seed = runner.seed
    h = hierarchy.build_hierarchy(p, "X", item_seed(seed, 0), Rect(0, 0, 3, 3))
    block = next((b for b in h.levels[1].blocks if not b.censored), None)
    if block is None:
        return {}
    out, estimates = {"stats.workers1_ms": 0.0, "stats.workers2_ms": 0.0}, set()
    for _ in range(2):
        for workers in (1, 2):
            t0 = time.perf_counter()
            estimates.add(stats.estimate_S(block, 1, SPEEDUP_TRIALS, seed, p, family="X",
                                           structure=h.level0, workers=workers))
            out[f"stats.workers{workers}_ms"] += 1000.0 * (time.perf_counter() - t0)
    if len(estimates) != 1:
        runner.errors.append(f"estimate differs between workers=1 and workers=2: {estimates}")
    return out


def trace(runner: Runner, name: str) -> dict:
    """Run a fixed item set, each item untraced then traced; returns
    per-layer metrics.  Alternating the two lets a drift in machine speed
    fall on both, so their throughput difference is the tracing overhead."""
    import layers
    from spans import Tracer

    runner.warm_up()
    extra = workers_speedup(runner) if name == "estimate-l1-toy1" else {}
    tracer, searches, plain, traced = Tracer(), [], [], []
    for i in range(1, TRACE_ITEMS[name] + 1):
        plain.append(runner.item(i))
        layers.instrument(tracer, searches)
        try:
            traced.append(runner.item(i, tracer=tracer))
        finally:
            tracer.uninstall()
    extra.update({
        "bench.items": len(traced),
        "bench.units": sum(u for _, u in traced),
        "bench.untraced_throughput": sum(u for _, u in plain) / sum(s for s, _ in plain),
    })
    metrics = layers.layer_metrics(tracer, searches, extra, PER_LAYER_UNITS)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-{runner.seed}.jsonl")
    for key, value in metrics.items():
        print(f"# layer {key} = {value:.6g} {PER_LAYER_UNITS[key]}")
    return {key: {"value": value, "unit": PER_LAYER_UNITS[key]} for key, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one set-up and print [raw, scaled] seconds (see fresh_set_ups).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The speed gauge samples from the start, so that set-up is scaled too;
    # traced runs go without it.
    gauge = speed.Gauge()
    with contextlib.nullcontext() if args.trace else gauge:
        try:
            import_program()
        except ImportError as exc:
            print(f"cannot import the program: {exc}", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
        (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](OUT_DIR / "work")
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
        runner = Runner(workload, args.seed, recorded, clock=gauge.clock)
        if args.setup_only:
            setup = set_up(runner, gauge)
            for err in runner.errors:
                print(err, file=sys.stderr)
            print(json.dumps(setup))
            return 0 if not runner.errors else 1
        info = machine()
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
              f"machine {json.dumps(info, sort_keys=True)}")
        if args.trace:
            metrics = trace(runner, args.workload)
        else:
            metrics, notes, setup = measure(runner, args.seconds, gauge)
    if not args.trace:
        # Outside the gauge: its sampling would compete with the fresh processes.
        setups = [setup]
        try:
            setups += fresh_set_ups(args)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            runner.errors.append(f"set-up: {exc}")
        metrics["setup_s"] = statistics.median([s for _, s in setups])
        notes["setup_s"] = (f"median of n={len(setups)} set-ups (imports, inputs, one "
                            f"warm-up item), this process and fresh ones; scaled "
                            + ", ".join(f"{s:.4g}" for _, s in setups) + "; raw "
                            + ", ".join(f"{r:.4g}" for r, _ in setups) + " s")
        metrics = report(metrics, notes)
    for err in runner.errors[:20]:
        print(f"# check failed: {err}")
    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "machine": info, "seed": args.seed}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
