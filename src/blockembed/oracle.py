"""Exact brute-force search for distance-bounded value-preserving injections.

The oracle decides, counts, or enumerates injections phi from a small source
window into a target window with X(v) = Y(phi(v)) and
||phi(u) - phi(v)|| <= M ||u - v|| for every pair, using exact rational
arithmetic for the distance comparisons.  It is deliberately independent of
the constructive machinery so it can serve as ground truth for it.

The search backtracks over the source sites center-out, with a domain per
site: a bitmask over the target sites still open to it.  Each assignment
intersects the later domains with a ball around its image (forward
checking); the balls and the nearest-first candidate streams are built
lazily and cached for one search.  Counting takes the last site's domain
size without visiting its targets one by one, and counts the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

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
        if len(set(self.source_sites)) != len(self.source_sites):
            raise ConfigError("oracle source sites must be distinct")
        for s in self.source_sites:
            if s not in self.source_values:
                raise ConfigError(f"oracle source site {s} has no value")
            if self.source_values[s] not in (0, 1):
                raise ConfigError(
                    f"oracle source site {s} has value {self.source_values[s]!r}, not 0 or 1"
                )
        if not np.isin(self.target.bits, (0, 1)).all():
            raise ConfigError("oracle target bits must be 0 or 1")
        try:
            m_squared = Fraction(self.m_squared)
        except (ValueError, OverflowError):
            raise ConfigError(
                f"the squared bound must be finite, got {self.m_squared}"
            ) from None
        if m_squared < 0:
            raise ConfigError(f"the squared bound must be nonnegative, got {m_squared}")
        object.__setattr__(self, "m_squared", m_squared)


def _d2(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _variable_order(sites) -> list:
    """Center-out order: most-constrained (central) sites first."""
    cx = Fraction(sum(s[0] for s in sites), len(sites))
    cy = Fraction(sum(s[1] for s in sites), len(sites))
    return sorted(sites, key=lambda s: ((s[0] - cx) ** 2 + (s[1] - cy) ** 2, s))


def _bitmask(mask: np.ndarray) -> int:
    """A boolean vector as an int whose bit k is mask[k]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class _Search:
    """Backtracking over the sites of ``_variable_order``.

    Target sites are numbered row-major, k = iy * width + ix, and sets of
    them are int bitmasks.  Each source site keeps a domain: the targets
    still open to it.  Assigning site i to target k intersects every later
    domain with the ball of k whose radius is M times the source distance,
    minus k itself; the assignment is kept only when no later domain
    empties (forward checking).  Balls and candidate orders are built on
    first use and cached for the search.
    """

    def __init__(self, inst: Instance, node_cap: int):
        self.inst = inst
        self.node_cap = node_cap
        self.nodes = 0
        y = inst.target
        self.order = _variable_order(inst.source_sites)
        iy, ix = np.indices((y.height, y.width))
        self._tx = ix.ravel().astype(np.int64) + y.origin[0]
        self._ty = iy.ravel().astype(np.int64) + y.origin[1]
        self._targets = list(zip(self._tx.tolist(), self._ty.tolist()))
        self._far = (y.width - 1) ** 2 + (y.height - 1) ** 2
        bits = y.bits.ravel()
        self._roots = [_bitmask(bits == inst.source_values[s]) for s in self.order]
        self._src_d2 = [[_d2(a, b) for b in self.order] for a in self.order]
        self._balls: dict = {}
        self._rows: dict = {}
        self._streams: dict = {}

    def _visit(self, n: int = 1) -> None:
        """Count n nodes; on a trip, stop where one-at-a-time counting would."""
        if self.nodes + n > self.node_cap:
            self.nodes = max(self.nodes + 1, self.node_cap + 1)
            raise SearchBudgetExceeded(f"oracle exceeded {self.node_cap} search nodes")
        self.nodes += n

    def _ball(self, d2: int, k: int) -> int:
        """Targets u != k with d(u, k)^2 <= M^2 d2, exactly."""
        ball = self._balls.get((d2, k))
        if ball is None:
            m2 = self.inst.m_squared
            # Over integers, d^2 * den <= num * d2 iff d^2 <= floor(num * d2 / den).
            radius = min(m2.numerator * d2 // m2.denominator, self._far)
            dist = (self._tx - self._tx[k]) ** 2 + (self._ty - self._ty[k]) ** 2
            ball = _bitmask(dist <= radius) & ~(1 << k)
            self._balls[(d2, k)] = ball
        return ball

    def _row(self, i: int, k: int) -> list:
        """The balls that order[i] -> k imposes on each later site."""
        row = self._rows.get((i, k))
        if row is None:
            d2 = self._src_d2[i]
            row = [self._ball(d2[j], k) for j in range(i + 1, len(self.order))]
            self._rows[(i, k)] = row
        return row

    def _narrow(self, i: int, k: int, domains: list) -> Optional[list]:
        """The domains after order[i] -> k, or None when a later one empties."""
        out = domains[:]
        j = i
        for ball in self._row(i, k):
            j += 1
            d = out[j] & ball
            if not d:
                return None
            out[j] = d
        return out

    def _stream(self, i: int, k0: int) -> list:
        """Targets nearest first to the rigid continuation of order[0] -> k0
        at order[i], by (d^2, target)."""
        stream = self._streams.get((i, k0))
        if stream is None:
            (ax, ay), (bx, by) = self.order[0], self.order[i]
            rx, ry = self._tx[k0] + bx - ax, self._ty[k0] + by - ay
            dist = (self._tx - rx) ** 2 + (self._ty - ry) ** 2
            stream = np.lexsort((self._ty, self._tx, dist)).tolist()
            self._streams[(i, k0)] = stream
        return stream

    def run(self, limit: Optional[int]) -> Iterator[dict]:
        """Yield embeddings (as dicts) up to ``limit``; None means all."""
        if limit is not None and limit < 1:
            raise ConfigError(f"the witness limit must be at least 1, got {limit}")
        count = 0
        for emb in self._walk(0, self._roots, []):
            yield emb
            count += 1
            if limit is not None and count >= limit:
                return

    def _walk(self, i: int, domains: list, image: list) -> Iterator[dict]:
        self._visit()
        if i == len(self.order):
            yield dict(zip(self.order, (self._targets[k] for k in image)))
            return
        domain = domains[i]
        for k in self._stream(i, image[0]) if i else range(len(self._targets)):
            if domain >> k & 1:
                narrowed = self._narrow(i, k, domains)
                if narrowed is not None:
                    image.append(k)
                    yield from self._walk(i + 1, narrowed, image)
                    image.pop()

    def count(self) -> int:
        """The number of embeddings.  The nodes are those ``run`` visits, in
        target order: the set of nodes, and so the count and the node cap's
        trip point, do not depend on the order of siblings."""
        return self._count(0, self._roots)

    def _count(self, i: int, domains: list) -> int:
        self._visit()
        domain = domains[i]
        if i == len(self.order) - 1:
            # Each target left to the last site is one leaf node.
            leaves = domain.bit_count()
            self._visit(leaves)
            return leaves
        total = 0
        while domain:
            low = domain & -domain
            domain ^= low
            narrowed = self._narrow(i, low.bit_length() - 1, domains)
            if narrowed is not None:
                total += self._count(i + 1, narrowed)
        return total


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
    return _Search(inst, node_cap).count()


def enumerate_embeddings(
    inst: Instance, limit: Optional[int] = None, node_cap: int = DEFAULT_NODE_CAP
) -> Iterator[dict]:
    """Stream embeddings; order is deterministic for fixed inputs."""
    yield from _Search(inst, node_cap).run(limit=limit)
