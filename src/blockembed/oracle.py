"""Exact brute-force search for distance-bounded value-preserving injections.

The oracle decides, counts, or enumerates injections phi from a small source
window into a target window with X(v) = Y(phi(v)) and
||phi(u) - phi(v)|| <= M ||u - v|| for every pair, using exact rational
arithmetic for the distance comparisons.  It is deliberately independent of
the constructive machinery so it can serve as ground truth for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import ConfigError, SearchBudgetExceeded
from .fields import BitField

__all__ = [
    "Instance",
    "find_embedding",
    "count_embeddings",
    "enumerate_embeddings",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 5_000_000
SOURCE_SITE_CAP = 64


@dataclass(frozen=True)
class Instance:
    """One oracle problem: source sites with values, target window, bound M.

    ``m_squared`` is the exact square of the bound; pass a Fraction (or int)
    to avoid float artifacts.
    """

    source_sites: tuple
    source_values: dict
    target: BitField
    m_squared: Fraction

    @classmethod
    def from_fields(
        cls, x: BitField, y: BitField, m: Fraction | int | float
    ) -> "Instance":
        try:
            m = Fraction(m)
        except (ValueError, OverflowError):
            raise ConfigError(f"the Lipschitz bound must be finite, got {m}") from None
        if m < 0:
            raise ConfigError(f"the Lipschitz bound must be nonnegative, got {m}")
        sites = tuple(
            (sx, sy)
            for sy in range(x.origin[1], x.origin[1] + x.height)
            for sx in range(x.origin[0], x.origin[0] + x.width)
        )
        if len(sites) > SOURCE_SITE_CAP:
            raise ConfigError(
                f"oracle source of {len(sites)} sites exceeds cap {SOURCE_SITE_CAP}"
            )
        values = {s: x.get(*s) for s in sites}
        return cls(sites, values, y, m ** 2)

    def __post_init__(self) -> None:
        if not self.source_sites:
            raise ConfigError("oracle instance needs at least one source site")
        if len(self.source_sites) > SOURCE_SITE_CAP:
            raise ConfigError("oracle source exceeds the site cap")
        object.__setattr__(self, "m_squared", Fraction(self.m_squared))


def _d2(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _variable_order(sites) -> list:
    """Center-out order: most-constrained (central) sites first."""
    cx = Fraction(sum(s[0] for s in sites), len(sites))
    cy = Fraction(sum(s[1] for s in sites), len(sites))
    return sorted(sites, key=lambda s: ((s[0] - cx) ** 2 + (s[1] - cy) ** 2, s))


class _Search:
    def __init__(self, inst: Instance, node_cap: int):
        self.inst = inst
        self.node_cap = node_cap
        self.nodes = 0
        y = inst.target
        self.order = _variable_order(inst.source_sites)
        # Target sites grouped by value for fast candidate streams.
        self.by_value = {0: [], 1: []}
        for iy in range(y.height):
            for ix in range(y.width):
                t = (y.origin[0] + ix, y.origin[1] + iy)
                self.by_value[int(y.bits[iy, ix])].append(t)

    def candidates(self, site, assignment) -> Iterator:
        """Value-matched target sites satisfying all bound checks, nearest first.

        Nearest is relative to the image of the first assigned site shifted
        by the source displacement, which centers the stream on the rigid
        continuation of the partial map.
        """
        value = self.inst.source_values[site]
        m2 = self.inst.m_squared
        pool = self.by_value[value]
        if assignment:
            s0, t0 = next(iter(assignment.items()))
            ref = (t0[0] + site[0] - s0[0], t0[1] + site[1] - s0[1])
            pool = sorted(pool, key=lambda t: (_d2(t, ref), t))
        used = set(assignment.values())
        for t in pool:
            if t in used:
                continue
            ok = True
            for s, u in assignment.items():
                # d(t, u)^2 <= M^2 d(site, s)^2, exactly.
                if _d2(t, u) * m2.denominator > m2.numerator * _d2(site, s):
                    ok = False
                    break
            if ok:
                yield t

    def run(self, limit: Optional[int]) -> Iterator[dict]:
        """Yield embeddings (as dicts) up to ``limit``; None means all."""
        if limit is not None and limit < 1:
            raise ConfigError(f"the witness limit must be at least 1, got {limit}")
        assignment: dict = {}

        def extend(i: int) -> Iterator[dict]:
            self.nodes += 1
            if self.nodes > self.node_cap:
                raise SearchBudgetExceeded(
                    f"oracle exceeded {self.node_cap} search nodes"
                )
            if i == len(self.order):
                yield dict(assignment)
                return
            site = self.order[i]
            for t in self.candidates(site, assignment):
                assignment[site] = t
                if self._forward_ok(i + 1, assignment):
                    yield from extend(i + 1)
                del assignment[site]

        count = 0
        for emb in extend(0):
            yield emb
            count += 1
            if limit is not None and count >= limit:
                return

    def _forward_ok(self, i: int, assignment: dict) -> bool:
        """Forward check: every unassigned site keeps at least one candidate."""
        m2 = self.inst.m_squared
        used = set(assignment.values())
        for site in self.order[i:]:
            value = self.inst.source_values[site]
            found = False
            for t in self.by_value[value]:
                if t in used:
                    continue
                if all(
                    _d2(t, u) * m2.denominator <= m2.numerator * _d2(site, s)
                    for s, u in assignment.items()
                ):
                    found = True
                    break
            if not found:
                return False
        return True


def find_embedding(
    inst: Instance, node_cap: int = DEFAULT_NODE_CAP
) -> Optional[dict]:
    """The lexically-first embedding found, or None if none exists.

    Raises SearchBudgetExceeded when the node cap trips: that outcome is
    distinct from a proven absence.
    """
    for emb in _Search(inst, node_cap).run(limit=1):
        return emb
    return None


def count_embeddings(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> int:
    """The exact number of embeddings; raises on budget exhaustion."""
    n = 0
    for _ in _Search(inst, node_cap).run(limit=None):
        n += 1
    return n


def enumerate_embeddings(
    inst: Instance, limit: Optional[int] = None, node_cap: int = DEFAULT_NODE_CAP
) -> Iterator[dict]:
    """Stream embeddings; order is deterministic for fixed inputs."""
    yield from _Search(inst, node_cap).run(limit=limit)
