"""The benchmark's workloads: seeded items, how each runs, and its output checks.

An item is one unit of work timed on its own.  ``make`` builds its inputs
(untimed), ``run`` calls into the program (timed), and ``check`` verifies
the outputs (untimed) and returns the number of work units done, a digest
of the outputs and a list of check failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from blockembed import cli, embed, oracle
from blockembed.fields import derive_seed, sample_field

# Item i >= 1 of a run with benchmark seed s uses program seed
# s * ITEM_STRIDE + i.  Item 0, the untimed warm-up, uses program seed 0 in
# every run, so that set-up time does not vary with the benchmark seed.
ITEM_STRIDE = 100_000

# Trials per estimate-s item.  The CLI's default is 2000 trials on one
# source build; at 20 the per-invocation work (parsing, the source
# hierarchy) is a few per cent of an item, as in real use (see NOTES.md).
ESTIMATE_TRIALS = 20

ORACLE_SOURCE = (3, 2)
ORACLE_TARGET = (5, 5)
ORACLE_BOUND = 2


def item_seed(seed: int, i: int) -> int:
    return seed * ITEM_STRIDE + i if i else 0


@dataclass
class Checked:
    units: int
    digest: str
    errors: list


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def call_cli(argv: list) -> tuple:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Reports:
    """One `reports` window of toy-m0-3 over level-1 cells (0, 0)-(3, 3)."""

    name = "reports-m0-3"
    unit = "windows"
    artifacts = sorted([f"{n}.{ext}" for n in ("tail", "size", "good")
                        for ext in ("csv", "records")] + ["manifest.json"])

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def make(self, seed: int) -> tuple:
        out = self.work_dir / f"reports-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        return seed, out

    def run(self, item: tuple) -> tuple:
        seed, out = item
        return call_cli(["reports", "--profile", "toy-m0-3", "--windows", "1",
                         "--window", "0", "0", "3", "3", "--seed", str(seed),
                         "--out-dir", str(out)])

    def check(self, item: tuple, result: tuple) -> Checked:
        _, out = item
        rc, stdout, stderr = result
        try:
            if rc != 0:
                return Checked(0, "", [f"exit code {rc}: {stderr.strip()}"])
            found = sorted(p.name for p in out.iterdir())
            if found != self.artifacts:
                return Checked(0, "", [f"artifacts {found}"])
            parts = [stdout.replace(str(out), "<out>").encode()]
            for name in self.artifacts:
                parts += [name.encode(), (out / name).read_bytes()]
            errors = []
            for name in ("tail", "size", "good"):
                head = (out / f"{name}.csv").read_text().splitlines()[:1]
                if not head or not head[0].startswith("# schema:"):
                    errors.append(f"{name}.csv has no schema line")
            return Checked(1, _sha(*parts), errors)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class EstimateLevel1:
    """One `estimate-s --level 1` run of toy1 over level-1 cells (0, 0)-(3, 3)."""

    name = "estimate-l1-toy1"
    unit = "trials"
    header = "level,size,point,ci_low,ci_high,trials"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def make(self, seed: int) -> int:
        return seed

    def run(self, seed: int) -> tuple:
        return call_cli(["estimate-s", "--profile", "toy1", "--family", "X",
                         "--level", "1", "--window", "0", "0", "3", "3",
                         "--trials", str(ESTIMATE_TRIALS), "--seed", str(seed)])

    def check(self, seed: int, result: tuple) -> Checked:
        rc, stdout, stderr = result
        if rc != 0:
            return Checked(0, "", [f"exit code {rc}: {stderr.strip()}"])
        lines = stdout.splitlines()
        if not lines or lines[0] != self.header:
            return Checked(0, "", [f"bad header {lines[:1]}"])
        units, errors = 0, []
        for line in lines[1:]:
            level, _, point, lo, hi, trials = line.split(",")
            if level != "1" or int(trials) != ESTIMATE_TRIALS:
                errors.append(f"bad row {line!r}")
            elif not 0.0 <= float(lo) <= float(point) <= float(hi) <= 1.0:
                errors.append(f"interval does not hold the estimate: {line!r}")
            units += int(trials)
        return Checked(units, _sha(stdout.encode()), errors)


@dataclass(frozen=True)
class OracleItem:
    x: object
    y: object
    instance: oracle.Instance


class Oracle:
    """One seeded oracle instance: count, find, then verify the witness."""

    name = "oracle-3x2"
    unit = "instances"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def make(self, seed: int) -> OracleItem:
        x = sample_field(derive_seed(seed, 0), "X", (0, 0), *ORACLE_SOURCE)
        y = sample_field(derive_seed(seed, 1), "Y", (0, 0), *ORACLE_TARGET)
        return OracleItem(x, y, oracle.Instance.from_fields(x, y, Fraction(ORACLE_BOUND)))

    def run(self, item: OracleItem) -> tuple:
        count = oracle.count_embeddings(item.instance)
        witness = oracle.find_embedding(item.instance)
        verified = None
        if witness is not None:
            verified = embed.verify_embedding(
                embed.EmbeddingMap(witness, ORACLE_BOUND), item.x, item.y)
        return count, witness, verified

    def check(self, item: OracleItem, result: tuple) -> Checked:
        count, witness, verified = result
        errors = []
        if (count > 0) != (witness is not None):
            errors.append(f"count {count} but witness {witness!r}")
        if witness is not None and not verified:
            errors.append("witness fails verify_embedding")
        record = {"count": count,
                  "witness": None if witness is None else sorted(witness.items())}
        return Checked(1, _sha(json.dumps(record).encode()), errors)


WORKLOADS = {w.name: w for w in (Reports, EstimateLevel1, Oracle)}
