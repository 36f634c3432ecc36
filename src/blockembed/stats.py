"""Exact level-0 and level-1 embedding probabilities, Monte Carlo estimation,
and reports.

Level-0 and level-1 embedding probabilities have closed forms (``exact_S0``,
``exact_S1``); the Monte Carlo estimators sample independent partner
windows.  Level-1 trials are decided in stacks: one hash, one block count
and two compares against the rule's per-cell count bounds for every few
trials, the block checked once.
Recursive tail/size/good-probability bounds are *reported* against the
empirical data, never asserted: at desk-scale parameters the inequalities
are not expected to hold, and the tables exist to show by how much.
``scipy.special`` is imported inside ``clopper_pearson``, so that commands
which compute no interval start without scipy.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from . import embed
from .errors import ConfigError, PreconditionError
from .fields import ACCEPTS, WindowHash, derive_seed, good_threshold, site_bits
from .lattice import cell_array
from .params import ParameterSet

__all__ = [
    "ProbabilityEstimate",
    "clopper_pearson",
    "exact_S0",
    "exact_S1",
    "estimate_S",
    "Report",
    "tail_report",
    "size_report",
    "good_prob_report",
]

CONFIDENCE = 0.95


def clopper_pearson(successes: int, trials: int):
    """Exact binomial interval at confidence ``CONFIDENCE``."""
    if not 0 <= successes <= trials or trials < 1:
        raise ConfigError("need 0 <= successes <= trials, trials >= 1")
    from scipy.special import betaincinv

    a = (1.0 - CONFIDENCE) / 2.0
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, a))
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1.0 - a)
    )
    return lo, hi


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A Monte Carlo frequency with its exact binomial confidence interval."""

    successes: int
    trials: int
    point: float
    ci_low: float
    ci_high: float
    seed: int

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int) -> "ProbabilityEstimate":
        lo, hi = clopper_pearson(successes, trials)
        return cls(successes, trials, successes / trials, lo, hi, seed)

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ConfigError("successes must lie in [0, trials]")
        if not self.ci_low <= self.point <= self.ci_high:
            raise ConfigError("interval must contain the point estimate")


def exact_S0(component, family: str, params: ParameterSet) -> Fraction:
    """Exact level-0 embedding probability of a component into a fresh partner.

    Only the target family has level-0 components: 2**(-V) with V the
    number of bad cells, read from ``bad_summary`` (each bad cell pins the
    partner bit; a good singleton has none).  A source-family level 0 has
    no bad cell, so ``embed.check_search`` refuses a source component.
    """
    if component.level != 0:
        raise ConfigError("exact probabilities are available at level 0 only")
    embed.check_search(0, family)
    return Fraction(1, 2**component.bad_summary[1])


def exact_S1(block, params: ParameterSet) -> Fraction:
    """Exact probability that the level-1 search embeds a source block
    into a fresh target window: (1 - q) ** |domain|.

    The search accepts when every domain cell's bit is accepted by the
    class of the target M0 x M0 block under the cell.  Those blocks are
    disjoint, so their classes are independent.  A bit is refused by the
    majority class of the other value, which it meets exactly when its own
    value fills fewer than ceil(M0^2 / 3) sites, so whatever the bit,
    q = P(Bin(M0^2, 1/2) < ceil(M0^2 / 3)).
    """
    if block.level != 1:
        raise ConfigError("the level-1 closed form needs a level-1 block")
    n = params.M0 * params.M0
    q = Fraction(sum(comb(n, k) for k in range(good_threshold(params.M0))), 2**n)
    return (1 - q) ** len(block.domain)


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def _estimate_level0_y(component, structure, trials, seed, params):
    """Trials whose fresh source bits the level-0 rule accepts on every
    cell of the component's box."""
    box = component.box
    cells = cell_array(box.cells())
    # Trial t reads the partner sites t * (box width + 1) cells along x.
    stride = box.x1 - box.x0 + 1
    t_idx = np.arange(trials, dtype=np.int64)[:, None]
    xs = (cells[:, 0] - box.x0)[None, :] + t_idx * stride
    ys = (cells[:, 1] - box.y0)[None, :] + 0 * t_idx
    bits = site_bits(seed, "X", xs, ys)
    return int(ACCEPTS[bits, structure.codes_at(cells)].all(axis=1).sum())


# Target sites hashed together in one stack of level-1 trials: each uint64
# work buffer of the hash then holds about 0.5 MB, which stays in cache.
_STACK_SITES = 1 << 16


def _estimate_level1_x(block, structure, trials, seed, params, workers):
    """Trials the level-1 search accepts, each against a fresh target
    window; the probability it estimates is ``exact_S1(block, params)``.

    The block is checked once, then its trials are decided a stack at a
    time: one hash of the stack's target windows, one block count and two
    compares against the rule's bound grids.  Each worker thread reuses its
    own hash buffers.
    """
    rule = embed.Level1Rule.of(block, params, structure)
    origin, width, height = rule.window
    depth = max(1, _STACK_SITES // (width * height))
    local = threading.local()

    def decide(start: int) -> int:
        if not hasattr(local, "hasher"):
            local.hasher = WindowHash("Y", origin, width, height, depth)
        seeds = [derive_seed(seed, 0x51, t) for t in range(start, min(start + depth, trials))]
        return int(np.count_nonzero(rule.accepts(local.hasher.bits(seeds))))

    stacks = range(0, trials, depth)
    if workers <= 1:
        return sum(map(decide, stacks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(decide, stacks))


def estimate_S(
    component,
    level: int,
    trials: int,
    seed: int,
    params: ParameterSet,
    family: str = "Y",
    structure=None,
    workers: int = 1,
) -> ProbabilityEstimate:
    """Estimate the embedding probability of a component by fresh partners.

    Each trial draws an independent partner (bits keyed to the seed and the
    trial index) and checks partner validity together with embeddability.
    Deterministic for fixed (seed, trials) at any worker count.  The
    (level, family) pair is refused as ``embed.check_search`` refuses it.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise PreconditionError(f"trials must be at least 1 and an integer, got {trials!r}")
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be at least 1 and an integer, got {workers!r}")
    embed.check_search(level, family)
    if level == 1:
        succ = _estimate_level1_x(component, structure, trials, seed, params, workers)
    elif structure is None:
        raise PreconditionError("target-side estimation needs the class content")
    else:
        succ = _estimate_level0_y(component, structure, trials, seed, params)
    return ProbabilityEstimate.from_counts(succ, trials, seed)


# ---------------------------------------------------------------------------
# Reports

SCHEMA_VERSION = 1
# The one encoder of every report record: json.dumps(rec, sort_keys=True)
# would build a fresh encoder per record.
_RECORD_JSON = json.JSONEncoder(sort_keys=True)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, Fraction):
        return format(float(value), ".12g")
    return str(value)


@dataclass(frozen=True)
class Report:
    """A deterministic table: named schema, ordered columns, ordered rows."""

    name: str
    columns: tuple
    rows: tuple  # tuples aligned with columns

    def to_csv(self) -> str:
        lines = [f"# schema: {self.name} v{SCHEMA_VERSION}"]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        out = []
        for row in self.rows:
            rec = {"schema": f"{self.name}.v{SCHEMA_VERSION}"}
            for col, v in zip(self.columns, row):
                rec[col] = float(v) if isinstance(v, (float, Fraction)) else v
            out.append(_RECORD_JSON.encode(rec))
        return "\n".join(out) + "\n"


def _tail_x_grid(params: ParameterSet, level: int) -> list:
    L = params.scale(level)
    return sorted({0.125, 0.25, 0.5, 0.75, 1.0 - 1.0 / L, 1.0})


def tail_bound(x: float, v: int, params: ParameterSet, level: int) -> float:
    L = params.scale(level)
    return (x ** params.m_exponent(level)) * L ** (-params.beta) * L ** (
        -params.gamma * (v - 1)
    )


def tail_report(
    samples: Sequence, params: ParameterSet, level: int = 0,
    x_grid: Optional[Sequence[float]] = None,
) -> Report:
    """Joint tail of (embedding probability, component size) vs the bound.

    ``samples`` is a sequence of (S, V) pairs.  Rows report the empirical
    P(S <= x, V >= v), the recursive-bound value, and their ratio;
    report-only, no assertion.
    """
    if not samples:
        raise PreconditionError("at least one sample required")
    pairs = [(float(s), int(v)) for s, v in samples]
    n = len(pairs)
    xs = list(x_grid) if x_grid is not None else _tail_x_grid(params, level)
    vmax = max(v for _, v in pairs)
    rows = []
    for v in range(1, vmax + 1):
        for x in xs:
            emp = sum(1 for s, w in pairs if s <= x and w >= v) / n
            bound = tail_bound(x, v, params, level)
            ratio = emp / bound if bound > 0 else float("inf")
            rows.append((level, x, v, n, emp, bound, ratio))
    return Report(
        "tail",
        ("level", "x", "v", "samples", "empirical", "bound", "ratio"),
        tuple(rows),
    )


def size_bound(v: int, params: ParameterSet, level: int) -> float:
    return params.scale(level) ** (-params.gamma * (v - 1))


def size_report(sizes: Sequence[int], params: ParameterSet, level: int = 0) -> Report:
    """Tail of component sizes vs the size bound; report-only."""
    if not sizes:
        raise PreconditionError("at least one sample required")
    sizes = [int(v) for v in sizes]
    n = len(sizes)
    rows = []
    for v in range(1, max(sizes) + 1):
        emp = sum(1 for w in sizes if w >= v) / n
        bound = size_bound(v, params, level)
        ratio = emp / bound if bound > 0 else float("inf")
        rows.append((level, v, n, emp, bound, ratio))
    return Report(
        "size", ("level", "v", "samples", "empirical", "bound", "ratio"), tuple(rows)
    )


def good_prob_report(samples_by_level: dict, params: ParameterSet) -> Report:
    """Frequency of good blocks per level vs the 1 - L^(-gamma) target.

    ``samples_by_level`` maps a level to its good flags, a sequence or an
    array.
    """
    if not samples_by_level:
        raise PreconditionError("at least one level of samples required")
    rows = []
    for level in sorted(samples_by_level):
        flags = np.asarray(samples_by_level[level], dtype=bool)
        if not flags.size:
            raise PreconditionError(f"no samples at level {level}")
        n = flags.size
        k = int(np.count_nonzero(flags))
        lo, hi = clopper_pearson(k, n)
        target = 1.0 - params.scale(level) ** (-params.gamma)
        rows.append((level, n, k / n, lo, hi, target))
    return Report(
        "good_prob",
        ("level", "samples", "frequency", "ci_low", "ci_high", "target"),
        tuple(rows),
    )
