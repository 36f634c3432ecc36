"""Time the three baseline figures quoted in ROADMAP.md, as stated there.

    python3 perfbench/roadmap_figures.py

Run from the repository root.  Prints raw wall times (one process, one
thread) and the speed kernel's time, so the figures can be set against the
benchmark's reference-speed numbers:

- `reports --profile toy-m0-3 --windows 2 --window 0 0 3 3` (seed 0), per window;
- `estimate-s --level 1` on toy1, window (0, 0)-(3, 3), per trial, over seeds 1-20;
- `oracle` count of a 2x2 X source into a 5x5 Y target at M = 2, median over
  50 seeded instances.
"""

import shutil
import statistics
import sys
import time
from fractions import Fraction

import run
import speed


def main() -> int:
    run.import_program()
    from blockembed import oracle
    from blockembed.fields import derive_seed, sample_field
    from workloads import call_cli

    print(f"speed kernel: {speed.kernel_ms():.3f} ms (reference {speed.REFERENCE_MS} ms)")
    out = run.OUT_DIR / "work" / "roadmap-reports"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    rc, _, _ = call_cli(["reports", "--profile", "toy-m0-3", "--windows", "2",
                         "--window", "0", "0", "3", "3", "--out-dir", str(out)])
    dt = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    print(f"reports toy-m0-3 3x3, 2 windows: {dt:.2f} s, {dt / 2:.2f} s per window (exit {rc})")

    trials, t0 = 0, time.perf_counter()
    for seed in range(1, 21):
        rc, stdout, _ = call_cli(["estimate-s", "--profile", "toy1", "--family", "X",
                                  "--level", "1", "--window", "0", "0", "3", "3",
                                  "--trials", "20", "--seed", str(seed)])
        trials += sum(int(line.rsplit(",", 1)[1]) for line in stdout.splitlines()[1:])
    dt = time.perf_counter() - t0
    print(f"estimate-s level 1 toy1 3x3: {trials} trials, {1000 * dt / trials:.1f} ms per trial")

    times = []
    for i in range(50):
        x = sample_field(derive_seed(i, 0), "X", (0, 0), 2, 2)
        y = sample_field(derive_seed(i, 1), "Y", (0, 0), 5, 5)
        inst = oracle.Instance.from_fields(x, y, Fraction(2))
        t0 = time.perf_counter()
        oracle.count_embeddings(inst)
        times.append(time.perf_counter() - t0)
    print(f"oracle count 2x2 -> 5x5, M=2: median {1000 * statistics.median(times):.1f} ms "
          f"over {len(times)} instances")
    print(f"speed kernel: {speed.kernel_ms():.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
