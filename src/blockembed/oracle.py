"""Exact brute-force search for distance-bounded value-preserving injections.

The oracle decides, counts, or enumerates injections phi from a small source
window into a target window with X(v) = Y(phi(v)) and
||phi(u) - phi(v)|| <= M ||u - v|| for every pair, using exact rational
arithmetic for the distance comparisons.  It is deliberately independent of
the constructive machinery so it can serve as ground truth for it.

The search assigns the source sites center-out, with a domain per site:
the set of target sites still open to it.  Each assignment intersects the
later domains with a ball around its image (forward checking).  What
reads no bit forms a frame: one array of the balls of every target, keyed
on each source pair's integer radius floor(M^2 d^2) and built a block of
targets at a time, and the nearest-first candidate streams.  Instances of
one source, target window and bound share a frame of at most 256 targets.
Finding and enumerating backtrack over int bitmasks.  Counting
expands a depth at a time over uint64 words instead: one numpy pass takes a
chunk of the (node, target) pairs of a frontier, ANDs the target's balls
into the node's later domains and keeps the children where none empties;
the chunks hold a fixed number of words, so that its memory stays bounded.
The last site adds the sizes of its domains.  It visits the nodes the
backtracking visits, so the count and the node cap's trip point are the
same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, SearchBudgetExceeded
from .fields import BitField
from .params import lipschitz_bound

__all__ = [
    "Instance",
    "find_embedding",
    "count_embeddings",
    "enumerate_embeddings",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 5_000_000
SOURCE_SITE_CAP = 64

# The uint64 words of later domains a count narrows in one numpy pass, and
# the target pairs one block of the ball table compares: they bound the
# temporaries whatever the target size or node cap.
_CHUNK_WORDS = 1 << 15
_TABLE_PAIRS = 1 << 16
# Frames of at most 256 targets kept for reuse (see _Tables).
_SHARED_FRAMES = 8


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
        """Text such as "2.3" is read exactly, as 23/10.  A source over the
        site cap is refused before any site is listed."""
        m = lipschitz_bound(m)
        _check_source_size(x.width * x.height)
        sites = tuple(
            (sx, sy)
            for sy in range(x.origin[1], x.origin[1] + x.height)
            for sx in range(x.origin[0], x.origin[0] + x.width)
        )
        return cls(sites, dict(zip(sites, x.bits.ravel().tolist())), y, m ** 2)

    def __post_init__(self) -> None:
        if not self.source_sites:
            raise ConfigError("oracle instance needs at least one source site")
        _check_source_size(len(self.source_sites))
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


def _check_source_size(n: int) -> None:
    if n > SOURCE_SITE_CAP:
        raise ConfigError(f"oracle source of {n} sites exceeds cap {SOURCE_SITE_CAP}")


def _d2(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _variable_order(sites) -> list:
    """Center-out order: most-constrained (central) sites first."""
    # n^2 times the squared distance to the centroid, in integers.
    n, sx, sy = len(sites), sum(s[0] for s in sites), sum(s[1] for s in sites)
    return sorted(sites, key=lambda s: ((n * s[0] - sx) ** 2 + (n * s[1] - sy) ** 2, s))


class _Frame:
    """What every search on one source, target window and bound reads.

    Target sites are numbered row-major, k = iy * width + ix.  A set of them
    is W = ceil(targets / 64) little-endian uint64 words, bit k % 64 of word
    k // 64, or the int with the same bits.  A source pair (i, j) of
    ``order`` admits images at squared distance at most its integer radius
    min(floor(num * d2 / den), far), where num/den is M^2 and d2 the pair's
    squared distance: over integers, d^2 * den <= num * d2 iff
    d^2 <= floor(num * d2 / den).  ``slots[i]`` names the radius of each
    pair (order[i], later site), and word w of the ball of target k at the
    r-th distinct radius, minus k itself, sits at [w, r, k - k0] of the
    block of targets k0 to k0 + step - 1 that holds k.  A block comes from
    comparing the M-free squared distances between its targets and every
    target against the radii, once and on first use, by ``fill`` or
    ``gather``.  ``rows[k]`` holds the balls of target k as ints, copied
    out by ``fill(k)`` the first time a backtracking search uses k; a count
    reads the blocks as arrays.  No bit enters a frame, its arrays are
    read-only, and its lazy fills write equal values whoever fills first.
    """

    def __init__(self, sites: tuple, origin: tuple, width: int, height: int, m_squared: Fraction):
        self.order = _variable_order(sites)
        iy, ix = np.indices((height, width))
        self.tx = ix.ravel().astype(np.int64) + origin[0]
        self.ty = iy.ravel().astype(np.int64) + origin[1]
        self.targets = list(zip(self.tx.tolist(), self.ty.tolist()))
        far = (width - 1) ** 2 + (height - 1) ** 2
        num, den = m_squared.numerator, m_squared.denominator
        radius = [[min(num * _d2(a, b) // den, far)
                   for b in self.order[i + 1:]] for i, a in enumerate(self.order)]
        radii = sorted({r for row in radius for r in row})
        slot = {r: n for n, r in enumerate(radii)}
        self.slots = [[slot[r] for r in row] for row in radius]
        self.radii = np.array(radii, dtype=np.int64)
        self.columns = [np.array(slots, dtype=np.intp)[:, None] for slots in self.slots]
        for array in (self.tx, self.ty, self.radii, *self.columns):
            array.flags.writeable = False
        n_targets = len(self.targets)
        self.words = -(-n_targets // 64)
        self.step = max(1, _TABLE_PAIRS // n_targets)
        self._blocks = [None] * -(-n_targets // self.step)
        self.rows = [None] * n_targets
        self._streams: dict = {}

    def _block(self, b: int) -> np.ndarray:
        """The (W, radii, step) balls of the targets from b * step on, built
        on first use from at most ``_TABLE_PAIRS`` target pairs."""
        block = self._blocks[b]
        if block is None:
            k0, n = b * self.step, len(self.targets)
            dx = self.tx[k0:k0 + self.step, None] - self.tx
            dy = self.ty[k0:k0 + self.step, None] - self.ty
            d2 = dx * dx + dy * dy
            d2.ravel()[k0::n + 1] = np.iinfo(np.int64).max  # k is not in its own ball
            block = np.ascontiguousarray(
                _pack(d2 <= self.radii[:, None, None]).transpose(2, 0, 1))
            block.flags.writeable = False
            self._blocks[b] = block
        return block

    def gather(self, i: int, ks: np.ndarray) -> np.ndarray:
        """The balls of targets ks for the sites after order[i], at [w, j, n]
        for order[i + 1 + j] and ks[n], building the blocks they fall in."""
        if len(self._blocks) == 1:
            return self._take(0, i, ks)
        blocks = ks // self.step
        balls = np.empty((self.words, len(self.columns[i]), len(ks)), dtype="<u8")
        for b in np.unique(blocks).tolist():
            at = np.flatnonzero(blocks == b)
            balls[:, :, at] = self._take(b, i, ks[at])
        return balls

    def _take(self, b: int, i: int, ks: np.ndarray) -> np.ndarray:
        """gather(i, ks) for targets ks of block b."""
        block = self._block(b)
        # Word w of the ball of target k at radius slot r sits at column
        # r * width + k - k0 of the block's (W, radii * width) view.
        columns = self.columns[i] * block.shape[2] + (ks - b * self.step)
        return block.reshape(len(block), -1).take(columns, axis=1)

    def fill(self, k: int) -> list:
        """Fill and return rows[k]."""
        words = self._block(k // self.step)[:, :, k % self.step].tolist()
        row = words[0]
        for w, more in enumerate(words[1:], 1):
            row = [low | high << 64 * w for low, high in zip(row, more)]
        self.rows[k] = row
        return row

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


_shared_frame = lru_cache(maxsize=_SHARED_FRAMES)(_Frame)


class _Tables:
    """What every search on one instance reads, built once per instance:
    a ``frame``, shared while its ball table is one block of at most 256
    targets, and the targets whose bit matches each site, word w of them
    for order[i] at ``domains[w, i]`` and as an int at ``roots[i]``.  Arrays
    of sets keep the word axis first, so that numpy reduces over words, and
    over sites, with whole-array operations.
    """

    def __init__(self, inst: "Instance"):
        y = inst.target
        key = (tuple(inst.source_sites), tuple(y.origin), y.width, y.height, inst.m_squared)
        shared = (y.width * y.height) ** 2 <= _TABLE_PAIRS
        self.frame = (_shared_frame if shared else _Frame)(*key)
        values = np.array([inst.source_values[s] for s in self.frame.order], dtype=np.uint8)
        words = _pack(y.bits.ravel() == values[:, None])
        self.roots = [int.from_bytes(row.tobytes(), "little") for row in words]
        self.domains = np.ascontiguousarray(words.T)


def _pack(mask: np.ndarray) -> np.ndarray:
    """Boolean rows over the targets as rows of little-endian uint64 words."""
    packed = np.packbits(mask, axis=-1, bitorder="little")
    words = np.zeros(mask.shape[:-1] + (-(-mask.shape[-1] // 64) * 8,), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view("<u8")


class _Search:
    """Backtracking over the sites of ``_variable_order``: one search per
    public call, with its own node count, over the instance's tables.

    Each source site keeps a domain: the targets still open to it.
    Assigning site i to target k intersects every later domain with the
    ball of k at the pair's integer radius, minus k itself; the assignment
    is kept only when no later domain empties (forward checking).  ``run``
    walks that tree depth first over int bitmasks; ``count`` expands it a
    depth at a time over uint64 words, and visits the same nodes.
    """

    def __init__(self, inst: Instance, node_cap: int):
        if isinstance(node_cap, bool) or not isinstance(node_cap, (int, np.integer)) or node_cap < 0:
            raise ConfigError(f"the node cap must be an integer of at least 0, got {node_cap!r}")
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
        count = 0
        for emb in self._walk(0, self.tables.roots, []):
            yield emb
            count += 1
            if limit is not None and count >= limit:
                return

    def _walk(self, i: int, domains: list, image: list) -> Iterator[dict]:
        """Domains are those of order[i:]."""
        self._visit()
        t = self.tables.frame
        if i == len(t.order):
            yield dict(zip(t.order, (t.targets[k] for k in image)))
            return
        domain, rest, slots = domains[0], domains[1:], t.slots[i]
        for k in t.stream(i, image[0]) if i else range(len(t.targets)):
            if domain >> k & 1:
                balls = t.rows[k]
                if balls is None:
                    balls = t.fill(k)
                narrowed = [d & balls[r] for d, r in zip(rest, slots)]
                if all(narrowed):
                    image.append(k)
                    yield from self._walk(i + 1, narrowed, image)
                    image.pop()

    def count(self) -> int:
        """The number of embeddings.  The nodes are those ``run`` visits: the
        set of nodes, and so the count and the node cap's trip point, do not
        depend on the order in which they are visited."""
        self._visit()
        return self._expand(0, self.tables.domains[:, :, None])

    def _expand(self, i: int, frontier: np.ndarray) -> int:
        """The leaves below a frontier of nodes at depth i, which holds word
        w of node f's domain for order[i + j] at [w, j, f].

        Below a node with one site left there is a leaf for each target in
        its domain.  Otherwise every (node, target) pair of the first domains
        is a candidate child, and one numpy pass expands as many pairs as
        narrow ``_CHUNK_WORDS`` words of later domains: gather the balls, AND
        them into the later domains, and keep the children where none
        empties.  A chunk's children are counted, then expanded in turn, so
        that at most a chunk of each depth is held at once.
        """
        if frontier.shape[1] == 1:
            leaves = int(np.bitwise_count(frontier).sum())
            self._visit(leaves)
            return leaves
        first = frontier[:, 0]
        ends = np.cumsum(np.bitwise_count(first).sum(axis=0, dtype=np.int64))
        pairs, width, total = int(ends[-1]), 64 * len(first), 0
        chunk = max(1, _CHUNK_WORDS // (len(first) * (frontier.shape[1] - 1)))
        for a in range(0, pairs, chunk):
            b = min(a + chunk, pairs)
            r0, r1 = np.searchsorted(ends, (a, b - 1), side="right")
            words = np.ascontiguousarray(first[:, r0:r1 + 1].T)
            bits = np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)
            skip = a - (int(ends[r0 - 1]) if r0 else 0)
            nodes, ks = np.divmod(bits.nonzero()[0][skip:skip + b - a], width)
            narrowed = frontier[:, 1:].take(nodes + r0, axis=2) & self.tables.frame.gather(i, ks)
            children = narrowed.compress(narrowed.any(axis=0).all(axis=0), axis=2)
            del narrowed
            self._visit(children.shape[2])
            if children.shape[2]:
                total += self._expand(i + 1, children)
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
    """Stream embeddings; order is deterministic for fixed inputs.  A limit
    that is not an integer of at least 1 raises ``ConfigError`` at the call,
    not at the first ``next``."""
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, (int, np.integer))
                              or limit < 1):
        raise ConfigError(f"the witness limit must be an integer of at least 1, got {limit!r}")
    return _Search(inst, node_cap).run(limit)
