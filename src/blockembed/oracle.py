"""Exact brute-force search for distance-bounded value-preserving injections.

The oracle decides, counts, or enumerates injections phi from a small source
window into a target window with X(v) = Y(phi(v)) and
||phi(u) - phi(v)|| <= M ||u - v|| for every pair, using exact rational
arithmetic for the distance comparisons.  It is deliberately independent of
the constructive machinery so it can serve as ground truth for it.

The search backtracks over the source sites center-out, with a domain per
site: a bitmask over the target sites still open to it.  Each assignment
intersects the later domains with a ball around its image (forward
checking).  The tables a search reads are built once per instance and
shared by every search on it: the balls, keyed on each source pair's
integer radius floor(M^2 d^2) and filled per target on first use, and the
nearest-first candidate streams.  Counting does the last two sites in
bulk: each target of the second-to-last site adds the size of the last
site's domain inside its ball, without visiting those targets one by one,
and counts the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
        cls, x: BitField, y: BitField, m: Fraction | int | float | str
    ) -> "Instance":
        """Text such as "2.3" is read exactly, as 23/10."""
        try:
            m = Fraction(m)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise ConfigError(
                f"the Lipschitz bound must be a finite number, got {m!r}") from None
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

    @cached_property
    def _tables(self) -> "_Tables":
        """The search tables, shared by every search on this instance."""
        return _Tables(self)


def _d2(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _variable_order(sites) -> list:
    """Center-out order: most-constrained (central) sites first."""
    # n^2 times the squared distance to the centroid, in integers.
    n, sx, sy = len(sites), sum(s[0] for s in sites), sum(s[1] for s in sites)
    return sorted(sites, key=lambda s: ((n * s[0] - sx) ** 2 + (n * s[1] - sy) ** 2, s))


def _bitmask(mask: np.ndarray) -> int:
    """A boolean vector as an int whose bit k is mask[k]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class _Tables:
    """What every search on one instance reads, built once per instance.

    Target sites are numbered row-major, k = iy * width + ix, and sets of
    them are int bitmasks.  A source pair (i, j) of ``order`` admits images
    at squared distance at most its integer radius min(floor(num * d2 /
    den), far), where num/den is M^2 and d2 the pair's squared distance:
    over integers, d^2 * den <= num * d2 iff d^2 <= floor(num * d2 / den).
    ``rows[i][k]`` lists the balls that order[i] -> k imposes on the later
    sites, each minus k itself.  Every row of target k is filled the first
    time k is used, from one comparison against all the radii at once, so
    the tables grow with the targets visited.
    """

    def __init__(self, inst: "Instance"):
        y = inst.target
        self.order = _variable_order(inst.source_sites)
        iy, ix = np.indices((y.height, y.width))
        self.tx = ix.ravel().astype(np.int64) + y.origin[0]
        self.ty = iy.ravel().astype(np.int64) + y.origin[1]
        self.targets = list(zip(self.tx.tolist(), self.ty.tolist()))
        bits = y.bits.ravel()
        self.roots = [_bitmask(bits == inst.source_values[s]) for s in self.order]
        far = (y.width - 1) ** 2 + (y.height - 1) ** 2
        m2 = inst.m_squared
        radius = [[min(m2.numerator * _d2(a, b) // m2.denominator, far)
                   for b in self.order[i + 1:]] for i, a in enumerate(self.order)]
        radii = sorted({r for row in radius for r in row})
        slot = {r: n for n, r in enumerate(radii)}
        self._slots = [[slot[r] for r in row] for row in radius]
        self._radii = np.array(radii, dtype=np.int64)[:, None]
        self.rows = [[None] * len(self.targets) for _ in self.order]
        self._streams: dict = {}

    def fill(self, k: int) -> None:
        """Fill rows[i][k] for every i."""
        x, y = self.targets[k]
        dx, dy = self.tx - x, self.ty - y
        packed = np.packbits(dx * dx + dy * dy <= self._radii, axis=1, bitorder="little")
        width, data, clear = packed.shape[1], packed.tobytes(), ~(1 << k)
        balls = [int.from_bytes(data[r * width:(r + 1) * width], "little") & clear
                 for r in range(len(packed))]
        for rows, slots in zip(self.rows, self._slots):
            rows[k] = [balls[r] for r in slots]

    def stream(self, i: int, k0: int) -> list:
        """Targets nearest first to the rigid continuation of order[0] -> k0
        at order[i], by (d^2, target)."""
        stream = self._streams.get((i, k0))
        if stream is None:
            (ax, ay), (bx, by) = self.order[0], self.order[i]
            rx, ry = self.tx[k0] + bx - ax, self.ty[k0] + by - ay
            dist = (self.tx - rx) ** 2 + (self.ty - ry) ** 2
            stream = np.lexsort((self.ty, self.tx, dist)).tolist()
            self._streams[(i, k0)] = stream
        return stream


class _Search:
    """Backtracking over the sites of ``_variable_order``: one search per
    public call, with its own node count, over the instance's tables.

    Each source site keeps a domain: the targets still open to it.
    Assigning site i to target k intersects every later domain with the
    ball of k at the pair's integer radius, minus k itself; the assignment
    is kept only when no later domain empties (forward checking).
    """

    def __init__(self, inst: Instance, node_cap: int):
        self.node_cap = node_cap
        self.nodes = 0
        self.tables = inst._tables

    def _visit(self, n: int = 1) -> None:
        """Count n nodes."""
        if self.nodes + n > self.node_cap:
            self._trip()
        self.nodes += n

    def _trip(self) -> None:
        """Stop where one-at-a-time counting would: one node past the cap."""
        self.nodes = max(self.nodes + 1, self.node_cap + 1)
        raise SearchBudgetExceeded(f"oracle exceeded {self.node_cap} search nodes")

    def run(self, limit: Optional[int]) -> Iterator[dict]:
        """Yield embeddings (as dicts) up to ``limit``; None means all."""
        if limit is not None and limit < 1:
            raise ConfigError(f"the witness limit must be at least 1, got {limit}")
        count = 0
        for emb in self._walk(0, self.tables.roots, []):
            yield emb
            count += 1
            if limit is not None and count >= limit:
                return

    def _walk(self, i: int, domains: list, image: list) -> Iterator[dict]:
        """Domains are those of order[i:]."""
        self._visit()
        t = self.tables
        if i == len(t.order):
            yield dict(zip(t.order, (t.targets[k] for k in image)))
            return
        domain, rest, rows = domains[0], domains[1:], t.rows[i]
        for k in t.stream(i, image[0]) if i else range(len(t.targets)):
            if domain >> k & 1:
                if rows[k] is None:
                    t.fill(k)
                narrowed = [d & ball for d, ball in zip(rest, rows[k])]
                if all(narrowed):
                    image.append(k)
                    yield from self._walk(i + 1, narrowed, image)
                    image.pop()

    def count(self) -> int:
        """The number of embeddings.  The nodes are those ``run`` visits, in
        target order: the set of nodes, and so the count and the node cap's
        trip point, do not depend on the order of siblings."""
        return self._count(0, self.tables.roots)

    def _count(self, i: int, domains: list) -> int:
        """Domains are those of order[i:]."""
        if self.nodes >= self.node_cap:
            self._trip()
        self.nodes += 1
        domain = domains[0]
        if len(domains) == 1:
            # Each target left to the last site is one leaf node.
            leaves = domain.bit_count()
            self._visit(leaves)
            return leaves
        t = self.tables
        rows, total = t.rows[i], 0
        if len(domains) == 2:
            # Each k whose ball meets the last domain gives one node of the
            # last site with |last & ball| leaves below it, counted at once.
            last, cap = domains[1], self.node_cap
            while domain:
                low = domain & -domain
                domain ^= low
                k = low.bit_length() - 1
                if rows[k] is None:
                    t.fill(k)
                leaves = (last & rows[k][0]).bit_count()
                if leaves:
                    if self.nodes + 1 + leaves > cap:
                        self._trip()
                    self.nodes += 1 + leaves
                    total += leaves
            return total
        rest = domains[1:]
        while domain:
            low = domain & -domain
            domain ^= low
            k = low.bit_length() - 1
            if rows[k] is None:
                t.fill(k)
            narrowed = [d & ball for d, ball in zip(rest, rows[k])]
            if all(narrowed):
                total += self._count(i + 1, narrowed)
        return total


def find_embedding(
    inst: Instance, node_cap: int = DEFAULT_NODE_CAP
) -> Optional[dict]:
    """The first embedding in the search order, or None if none exists.

    The search order assigns the sites of ``_variable_order`` in turn: the
    first in row-major target order, each later one nearest first (by
    squared distance, then target) to the image the first site's rigid
    translation gives it.

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
