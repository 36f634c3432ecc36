"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  Checks the
percentile, spread and self-time arithmetic, the metric-name format, that
the output checks catch wrong outputs, and runs one tiny untraced and
traced run of every workload, whose metrics must be those of
BENCHMARK.json, by name and unit.
"""

import contextlib
import io
import json
import re
import sys

import prove
import run
from spans import END, PARENT, START, Tracer

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCH = run.BENCH
# A counter each workload's traced run must move, so that a patch that
# misses its target shows.
EXERCISED = {"reports-m0-3": "lattice.neighbors.calls",
             "estimate-l1-toy1": "embed.embeds_level.calls",
             "oracle-3x2": "oracle.nodes"}


def check_arithmetic() -> None:
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.5
    assert abs(run.percentile(values, 90) - 90.9) < 1e-9
    med, q1, q3, sp = prove.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5) and sp == 1.0

    # Spans: item [0, 10] > a [1, 7] > b [2, 5]; item > c [8, 9].
    t = Tracer()
    for name, start, end, parent in (("bench.item", 0, 10, -1), ("x.a", 1, 7, 0),
                                     ("x.b", 2, 5, 1), ("y.c", 8, 9, 0)):
        t.spans.append([name, start / 1000, end / 1000, parent])
    agg = t.aggregate()
    got = {k: (v["calls"], round(v["ms"], 9), round(v["self_ms"], 9)) for k, v in agg.items()}
    assert got == {"bench.item": (1, 10, 3), "x.a": (1, 6, 3), "x.b": (1, 3, 3),
                   "y.c": (1, 1, 1)}, got
    assert t.children_named("x.a", "x.b") == 1 and t.children_named("bench.item", "x.b") == 0
    assert all(s[START] <= s[END] and s[PARENT] < i for i, s in enumerate(t.spans))


def check_names() -> None:
    e2e = run.END_TO_END_UNITS
    for name in [*e2e, *run.PER_LAYER_UNITS, *(w["name"] for w in BENCH["workloads"])]:
        assert NAME_RE.fullmatch(name), name
    assert e2e["setup_s"] == "s"
    setup_bound = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in BENCH["end_to_end"])


def check_checks() -> None:
    from workloads import WORKLOADS, item_seed

    oracle = WORKLOADS["oracle-3x2"](run.OUT_DIR / "work")
    runner = run.Runner(oracle, 0, {str(item_seed(0, 1)): "0" * 16})
    runner.item(1)
    assert any("recorded digest" in e for e in runner.errors), runner.errors
    item = oracle.make(item_seed(0, 1))
    count, witness, verified = oracle.run(item)
    assert not oracle.check(item, (count, witness, verified)).errors
    wrong_count = 0 if witness is not None else 1
    assert oracle.check(item, (wrong_count, witness, verified)).errors
    if witness is not None:
        assert oracle.check(item, (count, witness, False)).errors


def tiny_run(workload: str, trace: int) -> tuple:
    """Run one workload for 0 seconds; returns (metrics, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                       "--trace", str(trace)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0, out.getvalue()[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float), (m, got)
    return result["metrics"], out.getvalue()


def main() -> int:
    run.import_program()
    check_arithmetic()
    check_names()
    check_checks()
    run.TRACE_ITEMS = dict.fromkeys(run.TRACE_ITEMS, 1)
    for w in BENCH["workloads"]:
        metrics, stdout = tiny_run(w["name"], 0)
        assert all(m["value"] > 0 for m in metrics.values()), metrics
        assert f"median of n={run.SET_UPS} set-ups" in stdout, stdout
        layer, _ = tiny_run(w["name"], 1)
        assert layer["bench.unattributed_frac"]["value"] < 0.05, layer
        assert layer[EXERCISED[w["name"]]]["value"] > 0, layer
        print(f"selftest: {w['name']} ok", flush=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
