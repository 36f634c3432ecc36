"""The embedding search at levels 0 and 1, and site-level embeddings.

In the paper, blocks embed by shape-preserving maps between cell domains.
At depth 1 a source block is one cell with no bad subcomponent, so the
paper's family of offset maps has one member, the rigid translation.  The
target block is cut from the source cell's own lattice block, so that
translation is the identity, and its curve keeps every bad target cell of
the cell inside the block, so no cell needs a repair.  ``embeds_level`` is
therefore the level-0 rule at both levels: every source bit against the
class of the target block under its own cell, and a witness is the set of
source cells it maps onto their own target blocks.  The search is a sound
semi-decision, never a completeness claim.  ``check_search`` is the one
refusal of a (level, family) pair that no search runs, for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError
from .fields import ACCEPTS, BitField, block_ones, code_table, count_dtype
from .lattice import LatticeAnimal, Rect, cell_array, cell_geometry
from .params import ParameterSet, lipschitz_bound

__all__ = [
    "EmbeddingMap",
    "EmbeddingWitness",
    "translation_family",
    "check_search",
    "embeds_level",
    "verify_embedding",
]

# The family each level searches at depth 1, and its partner: level 0 maps a
# target-family bad component, and level 1 one source-family cell.
SEARCHES = {0: ("Y", "X"), 1: ("X", "Y")}


def check_search(level: int, family: str) -> str:
    """The partner family of a level-``level`` search of a ``family`` block.
    Raises ConfigError for a level other than 0 and 1, whatever the family,
    then for a family that the level does not search."""
    if level not in SEARCHES:
        raise ConfigError(f"the embedding search runs at levels 0 and 1, not {level}")
    searched, partner = SEARCHES[level]
    if family != searched:
        raise ConfigError(f"the level-{level} search maps family {searched}, not {family!r}")
    return partner


class InvalidOffset(PreconditionError):
    """A family offset that gives an invalid map.  No longer raised: depth-1
    maps are rigid and take no offset.  The benchmark's traced run still
    reads the name, until the in-package trace of ROADMAP item 4."""


def translation_family(
    source: LatticeAnimal,
    target: frozenset,
    T_prime: Sequence[LatticeAnimal],
    params: ParameterSet,
) -> dict:
    """The rigid map of a source domain onto its translate, least site onto
    least site, as ``{site: image}``.  At depth 1 this map is the whole
    translation family: a source block has no bad subcomponent to move, so
    no cell is displaced.  No program path calls it: the level-1 search's
    target is the source cell's own region, so the map is the identity,
    which that search decides without building it.  The benchmark's traced
    run still spans the name, until the in-package trace of ROADMAP item 4.

    Raises PreconditionError when the target is not that translate, or when
    the target's designated bad sets ``T_prime`` hold more than v0 * k0
    cells.  The source's own set is its zero translate.
    """
    sites = source.sites
    images = sites
    if target is not sites:
        ax, ay = min(sites)
        bx, by = min(target, default=(ax, ay))
        dx, dy = bx - ax, by - ay
        images = [(x + dx, y + dy) for x, y in sites]
        if set(images) != target:
            raise PreconditionError("source and target domains have different shapes")
    if sum(len(a) for a in T_prime) > params.v0 * params.k0:
        raise PreconditionError("designated sets exceed the size budget")
    return dict(zip(sites, images))


@dataclass(frozen=True)
class EmbeddingMap:
    """A site-level injection with its Lipschitz bound."""

    mapping: dict
    M: float


# Entries of the pairwise distance matrices that verify_embedding holds at
# once: it compares them in blocks of rows, never all n x n together.
VERIFY_CHUNK = 1 << 16


def verify_embedding(emb: EmbeddingMap, x: BitField, y: BitField) -> bool:
    """Exhaustively check injectivity, the Lipschitz bound, and values.

    The map is checked on its own domain, which must lie inside x's window;
    images must lie in y's window.  Pairwise distances are compared exactly,
    a block of rows at a time.  A negative or non-finite bound raises
    ConfigError.
    """
    m = lipschitz_bound(emb.M)
    sites = sorted(emb.mapping)
    if not sites:
        return True  # the empty map is vacuously an embedding
    window = Rect(x.origin[0], x.origin[1], x.origin[0] + x.width, x.origin[1] + x.height)
    if not all(window.contains_cell(s) for s in sites):
        raise PreconditionError("map domain outside the source window")
    src = np.array(sites, dtype=np.int64)
    dst = np.array([emb.mapping[s] for s in sites], dtype=np.int64)
    if (
        dst[:, 0].min() < y.origin[0]
        or dst[:, 1].min() < y.origin[1]
        or dst[:, 0].max() >= y.origin[0] + y.width
        or dst[:, 1].max() >= y.origin[1] + y.height
    ):
        raise PreconditionError("image outside the target window")
    if len({tuple(p) for p in dst.tolist()}) != len(sites):
        return False
    xv = x.bits[src[:, 1] - x.origin[1], src[:, 0] - x.origin[0]]
    yv = y.bits[dst[:, 1] - y.origin[1], dst[:, 0] - y.origin[0]]
    if not np.array_equal(xv, yv):
        return False
    m2 = m ** 2
    num, den = m2.numerator, m2.denominator
    rows = max(1, VERIFY_CHUNK // len(sites))
    for i in range(0, len(sites), rows):
        d_src = _squared_distances(src[i:i + rows], src)
        d_dst = _squared_distances(dst[i:i + rows], dst)
        # Exact comparison; stays in machine integers when products cannot
        # overflow, else falls back to arbitrary precision.  The floor of 1
        # keeps a numerator or denominator too large for int64 out of numpy
        # when every distance in the block is 0.
        if (max(int(d_dst.max()), 1) * den < 2**62
                and max(int(d_src.max()), 1) * num < 2**62):
            ok = np.all(d_dst * den <= d_src * num)
        else:
            ok = np.all(d_dst.astype(object) * den <= d_src.astype(object) * num)
        if not ok:
            return False
    return True


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared euclidean distances from each point of ``a`` to each of ``b``."""
    return (a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2


@dataclass(frozen=True)
class EmbeddingWitness:
    """An embedding found by embeds_level, flattenable to sites.

    Both levels map every source cell onto the target block of its own
    cell, so the witness is its set of ``source_cells``.
    """

    level: int
    source_cells: frozenset

    def flatten(self, x_field: BitField, y_field: BitField, params: ParameterSet) -> EmbeddingMap:
        """Site-level map: each source site to a value-matched target site.

        Source cells carry one site each; the image of a cell is the M0-sided
        square of target sites under it, and the first row-major site with
        the matching value is chosen.
        """
        m0 = params.M0
        mapping = {}
        for cx, cy in sorted(self.source_cells):
            bit = x_field.get(cx, cy)
            chosen = None
            for sy in range(cy * m0, (cy + 1) * m0):
                for sx in range(cx * m0, (cx + 1) * m0):
                    if y_field.get(sx, sy) == bit:
                        chosen = (sx, sy)
                        break
                if chosen:
                    break
            if chosen is None:
                raise PreconditionError("image cell has no matching site")
            mapping[cx, cy] = chosen
        return EmbeddingMap(mapping, params.M)


def embeds_level(
    x,
    y_window: BitField,
    level: int,
    params: ParameterSet,
    x_structure=None,
) -> Optional[EmbeddingWitness]:
    """Search the constructed maps for an embedding witness.

    At level 0, x is a target-family bad component (a source level 0 has
    no bad cell) and y_window a source-family partner covering it, whose
    bits are checked cellwise under the identity map.  At level 1, x is a
    single source-family cell, as every source block is at depth 1, and
    y_window a target-family window over the cell's region, which its
    ``Level1Rule`` decides as a stack of one.
    Sound but not complete: a None result means the searched maps hold no
    witness.
    """
    # The level first: a level that no search runs reads no structure.
    family = _content(x_structure).family if level in SEARCHES else None
    partner = check_search(level, family)
    if y_window.family != partner:
        raise ConfigError(f"the level-{level} partner window must be of family {partner}")
    search = _embeds_level0 if level == 0 else _embeds_level1
    return search(x, y_window, params, x_structure)


def _content(x_structure):
    """The source structure, which every search reads its content from."""
    if x_structure is None:
        raise PreconditionError("source structure required for content lookup")
    return x_structure


def _embeds_level0(component, x_window, params, y_level0):
    """The identity witness when every partner bit embeds into the target
    block of its own cell, else None.  A source level-0 cell carries one
    site, so the bits are read from the partner window, which must cover
    the component."""
    cells = sorted(component.box.cells())
    xy = cell_array(cells)
    ix, iy = xy[:, 0] - x_window.origin[0], xy[:, 1] - x_window.origin[1]
    if not ((ix >= 0) & (ix < x_window.width) & (iy >= 0) & (iy < x_window.height)).all():
        raise PreconditionError("component cell outside the partner window")
    if not ACCEPTS[x_window.bits[iy, ix], y_level0.codes_at(xy)].all():
        return None
    return EmbeddingWitness(0, frozenset(cells))


@lru_cache(maxsize=None)
def count_bounds(m0: int) -> np.ndarray:
    """The one-counts of an M0 x M0 target block that each source bit
    accepts, as ``bounds[bit] = (first, last)``.

    The level-0 rule over counts, ``ACCEPTS[:, code_table(m0)]``,
    accepts one interval of counts per bit, and this checks it: a bit is
    refused only by the majority class of the other value, which is every
    count with fewer than ceil(M0^2 / 3) sites of the bit's own value.
    Computed once per M0.
    """
    table = ACCEPTS[:, code_table(m0)]
    bounds = np.empty((2, 2), dtype=np.int64)
    for bit, row in enumerate(table):
        accepted = np.flatnonzero(row)
        assert accepted.size and accepted[-1] - accepted[0] + 1 == accepted.size, (
            f"bit {bit} accepts no single interval of counts at M0 = {m0}")
        bounds[bit] = accepted[0], accepted[-1]
    bounds.flags.writeable = False
    return bounds


@dataclass(frozen=True, eq=False)
class Level1Rule:
    """The level-1 search of one source block, checked once and applied to
    any number of target windows over the block's cell region.

    A target window is accepted, with the identity witness, exactly when
    every domain cell's bit is accepted by the class of the M0 x M0 target
    block under it.  A bit accepts one interval of counts of ones (see
    ``count_bounds``), so ``low`` and ``high`` hold, per cell of the
    region, the first and last count that the cell's bit accepts, and a
    cell off the domain accepts every count.  Both are indexed [y, x]
    relative to ``region``, in the dtype that ``block_ones`` counts in.
    """

    region: Rect
    m0: int
    low: np.ndarray
    high: np.ndarray

    @property
    def window(self) -> tuple:
        """(origin, width, height) of the region's target sites."""
        s = self.region.scaled(self.m0)
        return (s.x0, s.y0), s.x1 - s.x0, s.y1 - s.y0

    def accepts(self, sites: np.ndarray) -> np.ndarray:
        """Per layer of a (T, height, width) stack of target windows over
        the region: whether the search accepts it."""
        ones = block_ones(sites, self.m0)
        return ((ones >= self.low) & (ones <= self.high)).all(axis=(1, 2))

    @classmethod
    def of(cls, block, params: ParameterSet, x_structure) -> "Level1Rule":
        """The rule of a single-cell source-family block; ``check_search``
        refuses a structure of the other family, and a wider block is refused.

        The construction cuts the target block over the cell by a boundary
        curve that moves at most k0 - 1 cells inside the cell's region and
        keeps ``clearance`` from every bad target cell, or by the straight
        placeholder.  With k0 <= clearance the block therefore holds every
        bad cell of the region, so each source cell there lies in the
        target block or over a good cell, and no cell needs moving: no
        target curve need be drawn.  A larger k0 lets a curve leave a bad
        cell outside (toy1 at k0 = 3 does), so it is refused.  A source
        curve is straight with probability 1 - 10**-11, and its domain is
        the region; one that leaves the region is refused rather than
        repaired.
        """
        check_search(1, _content(x_structure).family)
        if block.size != 1:
            raise ConfigError(f"the level-1 search maps a block of one cell, not {block.size}")
        if params.k0 > params.margins(1).clearance:
            raise ConfigError("the level-1 search needs k0 <= the level-1 clearance")
        region = cell_geometry(1, min(block.animal.sites), params).region
        side = region.x1 - region.x0
        rel = block.domain_cells - (region.x0, region.y0)
        if not ((rel >= 0) & (rel < side)).all():
            raise PreconditionError("source domain leaves its cell's region")
        m0 = params.M0
        low = np.zeros((side, side), dtype=count_dtype(m0))
        high = np.full((side, side), m0 * m0, dtype=count_dtype(m0))
        first, last = count_bounds(m0)[x_structure.bits_at(block.domain_cells)].T
        low[rel[:, 1], rel[:, 0]] = first
        high[rel[:, 1], rel[:, 0]] = last
        return cls(region, m0, low, high)


def _embeds_level1(block, y_window, params, x_structure):
    """``Level1Rule.of`` the block applied to one target window, a stack
    of one: the identity witness when it accepts, else None.  The window
    must cover the cell's region."""
    rule = Level1Rule.of(block, params, x_structure)
    sites = _crop(y_window, rule.region, rule.m0)
    if sites is None:
        raise PreconditionError("target window does not cover the cell's region")
    if not rule.accepts(sites.bits[np.newaxis])[0]:
        return None
    return EmbeddingWitness(1, block.domain)


def _crop(field: BitField, rect: Rect, m0: int) -> Optional[BitField]:
    """The target-family sites of a rectangle of level-0 cells, cut from
    ``field``, or None when the field does not cover them."""
    s = rect.scaled(m0)
    x0, y0 = s.x0 - field.origin[0], s.y0 - field.origin[1]
    width, height = s.x1 - s.x0, s.y1 - s.y0
    if x0 < 0 or y0 < 0 or x0 + width > field.width or y0 + height > field.height:
        return None
    return BitField("Y", (s.x0, s.y0), width, height, field.seed,
                    field.bits[y0:y0 + height, x0:x0 + width])
