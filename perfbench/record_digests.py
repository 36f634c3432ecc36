"""Record the output digests that later runs of the benchmark must reproduce.

    python3 perfbench/record_digests.py

Run from the repository root at the commit whose outputs are the reference.
For each workload it runs the warm-up item once and, for each seed in
SEEDS, the first timed items, and writes their digests to
perfbench/digests.json.  A
benchmark run whose item seed appears there fails its check when the
outputs differ.
"""

import json
import sys

import run

SEEDS = range(1, 21)
# Timed items 1..ITEMS of each seed; the warm-up item is the same for all.
ITEMS = {"reports-m0-3": 3, "estimate-l1-toy1": 50, "oracle-3x2": 50}


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS

    (run.OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
    table = {}
    for name, count in ITEMS.items():
        workload = WORKLOADS[name](run.OUT_DIR / "work")
        table[name] = {}
        for seed in SEEDS:
            runner = run.Runner(workload, seed, {})
            for i in range(0 if seed == SEEDS[0] else 1, count + 1):
                runner.item(i)
            if runner.errors:
                print("\n".join(runner.errors), file=sys.stderr)
                return 1
            table[name].update({str(s): d for s, d in runner.digests.items()})
            print(f"{name} seed {seed}: {count} items", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
