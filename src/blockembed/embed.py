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
semi-decision, never a completeness claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError
from .fields import ACCEPTS, BitField, block_codes, block_ones
from .lattice import LatticeAnimal, Rect, cell_array, cell_geometry
from .params import ParameterSet

__all__ = [
    "EmbeddingMap",
    "EmbeddingWitness",
    "translation_family",
    "embeds_level",
    "level1_rule",
    "verify_embedding",
]


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
    a block of rows at a time.
    """
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
    m2 = Fraction(emb.M) ** 2
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

    At level 0, x is a bad component of the target family, the only family
    with level-0 components (a source level 0 has no bad cell), and
    y_window is a source-family partner covering it, whose bits are checked
    cellwise under the identity map.
    At level 1, x is a single-cell block of the source family, as every
    source block is at depth 1, and y_window a target-family window that
    covers the cell's region, whose sites are classified under the cell;
    its ``Level1Rule`` decides that window as a stack of one.
    Sound but not complete: a None result means the searched maps hold no
    witness.
    """
    if level not in (0, 1):
        raise ConfigError("embedding search supports levels 0 and 1")
    if level == 0:
        if _content(x_structure).family != "Y":
            raise ConfigError("the level-0 search maps a target-family component")
        partner, search = "X", _embeds_level0
    else:
        _level1_source(x, x_structure)
        partner, search = "Y", _embeds_level1
    if y_window.family != partner:
        raise ConfigError(f"the level-{level} partner window must be of family {partner}")
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


@dataclass(frozen=True, eq=False)
class Level1Rule:
    """The level-1 search of one source block, checked once and applied to
    any number of target windows over the block's cell region.

    ``rel`` is the domain as (x, y) cells relative to ``region`` and
    ``bits`` their source bits.  A target window is accepted, with the
    identity witness, exactly when every domain cell's bit is accepted by
    the class of the M0 x M0 target block under it.  ``table[bit, ones]``
    is that verdict for a target block holding ``ones`` ones.
    """

    region: Rect
    m0: int
    rel: np.ndarray
    bits: np.ndarray
    table: np.ndarray

    @property
    def window(self) -> tuple:
        """(origin, width, height) of the region's target sites."""
        r, m0 = self.region, self.m0
        return (r.x0 * m0, r.y0 * m0), (r.x1 - r.x0) * m0, (r.y1 - r.y0) * m0

    def accepts(self, sites: np.ndarray) -> np.ndarray:
        """Per layer of a (T, height, width) stack of target windows over
        the region: whether the search accepts it."""
        ones = block_ones(sites, self.m0)[:, self.rel[:, 1], self.rel[:, 0]]
        return self.table[self.bits, ones].all(axis=1)

    @classmethod
    def of(cls, block, params: ParameterSet, x_structure) -> "Level1Rule":
        """The rule of a single-cell source block.

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
        if params.k0 > params.margins(1).clearance:
            raise ConfigError("the level-1 search needs k0 <= the level-1 clearance")
        region = cell_geometry(1, min(block.animal.sites), params).region
        rel = block.domain_cells - (region.x0, region.y0)
        if not ((rel >= 0) & (rel < region.x1 - region.x0)).all():
            raise PreconditionError("source domain leaves its cell's region")
        m0 = params.M0
        table = ACCEPTS[:, block_codes(np.arange(m0 * m0 + 1), m0)]
        return cls(region, m0, rel, x_structure.bits_at(block.domain_cells), table)


def _level1_source(block, x_structure) -> None:
    if _content(x_structure).family != "X" or block.size != 1:
        raise ConfigError("the level-1 search maps one source-family cell")


def level1_rule(block, params: ParameterSet, x_structure) -> Level1Rule:
    """The level-1 search of a source block, with every check that
    ``embeds_level`` makes of it done once: the Monte Carlo estimator
    applies it to its trials a stack at a time."""
    _level1_source(block, x_structure)
    return Level1Rule.of(block, params, x_structure)


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
    x0, y0 = rect.x0 * m0 - field.origin[0], rect.y0 * m0 - field.origin[1]
    width, height = (rect.x1 - rect.x0) * m0, (rect.y1 - rect.y0) * m0
    if x0 < 0 or y0 < 0 or x0 + width > field.width or y0 + height > field.height:
        return None
    return BitField("Y", (rect.x0 * m0, rect.y0 * m0), width, height, field.seed,
                    field.bits[y0:y0 + height, x0:x0 + width])
