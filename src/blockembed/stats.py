"""Exact level-0 embedding probabilities, Monte Carlo estimation, and reports.

Level-0 probabilities are computable in closed form; higher levels are
estimated by sampling independent partner windows.  Recursive tail/size/
good-probability bounds are *reported* against the empirical data, never
asserted: at desk-scale parameters the inequalities are not expected to
hold, and the tables exist to show by how much.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.stats import beta as _beta

from .errors import ConfigError, PreconditionError
from .fields import GRID_GOOD, GRID_ONE, derive_seed, sample_field, site_bits
from .lattice import cell_array, cell_geometry
from .params import ParameterSet

__all__ = [
    "ProbabilityEstimate",
    "clopper_pearson",
    "exact_S0",
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
    a = (1.0 - CONFIDENCE) / 2.0
    lo = 0.0 if successes == 0 else float(_beta.ppf(a, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        _beta.ppf(1.0 - a, successes + 1, trials - successes)
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
    no bad cell, so a source component is rejected.
    """
    if component.level != 0:
        raise ConfigError("exact probabilities are available at level 0 only")
    if family != "Y":
        raise ConfigError(f"level-0 components are target-family, not {family!r}")
    return Fraction(1, 2**component.bad_summary[1])


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def _estimate_level0_y(component, structure, trials, seed, params):
    """P over fresh source bits that the component's bad cells are matched."""
    cells = cell_array(component.animal.sites)
    codes = structure.codes_at(cells)
    bad = codes != GRID_GOOD
    if not bad.any():
        return trials  # every trial succeeds
    need = cells[bad]
    x0, y0, x1, _ = component.animal.bounding_box()
    stride = x1 - x0 + 2
    t_idx = np.arange(trials, dtype=np.int64)[:, None]
    xs = (need[:, 0] - x0)[None, :] + t_idx * stride
    ys = (need[:, 1] - y0)[None, :] + 0 * t_idx
    bits = site_bits(seed, "X", xs, ys)
    want = (codes[bad] == GRID_ONE)[None, :]
    return int(np.all(bits == want, axis=1).sum())


def _estimate_level1_x(block, structure, trials, seed, params, workers):
    from . import embed as embed_mod

    # A trial reads the target sites under the block's own cell only.
    region, m0 = cell_geometry(1, min(block.animal.sites), params).region, params.M0

    def one(t: int) -> bool:
        s = derive_seed(seed, 0x51, t)
        y_field = sample_field(
            s, "Y", (region.x0 * m0, region.y0 * m0),
            (region.x1 - region.x0) * m0, (region.y1 - region.y0) * m0,
        )
        return embed_mod.embeds_level(block, y_field, 1, params, structure) is not None

    if workers <= 1:
        return sum(one(t) for t in range(trials))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(one, range(trials)))


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
    Deterministic for fixed (seed, trials) at any worker count.
    """
    if trials < 1:
        raise PreconditionError("at least one trial required")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if level == 0:
        if family != "Y":
            raise ConfigError(f"level-0 components are target-family, not {family!r}")
        if structure is None:
            raise PreconditionError("target-side estimation needs the class content")
        succ = _estimate_level0_y(component, structure, trials, seed, params)
    elif level == 1:
        if family != "X":
            raise ConfigError("level-1 estimation is implemented for source blocks")
        succ = _estimate_level1_x(component, structure, trials, seed, params, workers)
    else:
        raise ConfigError("estimation supports levels 0 and 1")
    return ProbabilityEstimate.from_counts(succ, trials, seed)


# ---------------------------------------------------------------------------
# Reports

SCHEMA_VERSION = 1


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
            out.append(json.dumps(rec, sort_keys=True))
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
    """Frequency of good blocks per level vs the 1 - L^(-gamma) target."""
    if not samples_by_level:
        raise PreconditionError("at least one level of samples required")
    rows = []
    for level in sorted(samples_by_level):
        flags = [bool(f) for f in samples_by_level[level]]
        if not flags:
            raise PreconditionError(f"no samples at level {level}")
        n = len(flags)
        k = sum(flags)
        lo, hi = clopper_pearson(k, n)
        target = 1.0 - params.scale(level) ** (-params.gamma)
        rows.append((level, n, k / n, lo, hi, target))
    return Report(
        "good_prob",
        ("level", "samples", "frequency", "ci_low", "ci_high", "target"),
        tuple(rows),
    )
