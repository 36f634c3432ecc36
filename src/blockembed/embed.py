"""Cell correspondences, the rigid map and its repair, and site-level embeddings.

A CellCorrespondence is the discrete stand-in for a shape-preserving map
between two domains: a bijection on member cells that carries an integer
displacement budget in place of continuum distortion constants.  At depth 1
a source block has no bad subcomponent, so the paper's family of offset
maps has one member, the rigid translation.  ``embeds_level`` searches that
map and a boundary repair; it is a sound semi-decision, never a
completeness claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from . import hierarchy as hier
from .errors import ConfigError, PreconditionError
from .fields import ACCEPTS, GRID_GOOD, BitField
from .lattice import LatticeAnimal, Point, Rect, cell_array, cell_geometry, chebyshev
from .params import ParameterSet

__all__ = [
    "CellCorrespondence",
    "EmbeddingMap",
    "EmbeddingWitness",
    "translation_family",
    "embeds_level",
    "verify_embedding",
]


class InvalidOffset(PreconditionError):
    """A family offset that gives an invalid map.  No longer raised: depth-1
    maps are rigid and take no offset.  The benchmark's traced run still
    reads the name, until the in-package trace of ROADMAP item 4."""


@dataclass(frozen=True)
class CellCorrespondence:
    """A bijection between two cell domains.

    ``displacement_budget`` is the largest per-cell displacement relative
    to the rigid translation between the domains.
    """

    level: int
    source_cells: frozenset
    target_cells: frozenset
    mapping: dict
    displacement_budget: int

    def __post_init__(self) -> None:
        if self.mapping.keys() != _as_set(self.source_cells):
            raise ConfigError("mapping must cover exactly the source cells")
        images = set(self.mapping.values())
        if images != _as_set(self.target_cells) or len(images) != len(self.mapping):
            raise ConfigError("mapping must be a bijection onto the target cells")

    def apply(self, cell: Point) -> Point:
        return self.mapping[cell]


def _as_set(cells: Iterable[Point]):
    return cells if isinstance(cells, (set, frozenset)) else set(cells)


def translation_family(
    source: LatticeAnimal,
    target: frozenset,
    T_prime: Sequence[LatticeAnimal],
    params: ParameterSet,
) -> CellCorrespondence:
    """The rigid map of a source domain onto its translate: least site onto
    least site, with displacement budget 0.  At depth 1 this map is the
    whole translation family: a source block has no bad subcomponent to
    move.

    Raises PreconditionError when the target is not that translate, or when
    the target's designated bad sets ``T_prime`` hold more than v0 * k0
    cells.  The source's own set is its zero translate.
    """
    sites = source.sites
    t = (0, 0)
    if target is not sites:
        ax, ay = min(sites)
        bx, by = min(target, default=(ax, ay))
        t = (bx - ax, by - ay)
        if {(x + t[0], y + t[1]) for x, y in sites} != target:
            raise PreconditionError("source and target domains have different shapes")
    if sum(len(a) for a in T_prime) > params.v0 * params.k0:
        raise PreconditionError("designated sets exceed the size budget")
    mapping = {c: (c[0] + t[0], c[1] + t[1]) for c in sites}
    return CellCorrespondence(1, sites, target, mapping, 0)


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
    """The correspondence found by embeds_level, flattenable to sites."""

    level: int
    correspondence: CellCorrespondence

    def flatten(self, x_field: BitField, y_field: BitField, params: ParameterSet) -> EmbeddingMap:
        """Site-level map: each source site to a value-matched target site.

        Source cells carry one site each; the image cell is an M0-sided
        square of target sites, and the first row-major site with the
        matching value is chosen.
        """
        m0 = params.M0
        corr = self.correspondence
        mapping = {}
        for cell in sorted(corr.source_cells):
            bit = x_field.get(cell[0], cell[1])
            ix, iy = corr.apply(cell)
            chosen = None
            for sy in range(iy * m0, (iy + 1) * m0):
                for sx in range(ix * m0, (ix + 1) * m0):
                    if y_field.get(sx, sy) == bit:
                        chosen = (sx, sy)
                        break
                if chosen:
                    break
            if chosen is None:
                raise PreconditionError("image cell has no matching site")
            mapping[cell] = chosen
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
    source block is at depth 1: the one target block over that cell is cut
    from the target-family window with curve randomness derived from the
    window's seed, and the rigid map, then a boundary repair, is checked
    cell by cell.  Sound but not complete: a None result means the
    searched maps hold no witness.
    """
    if level not in (0, 1):
        raise ConfigError("embedding search supports levels 0 and 1")
    if x_structure is None:
        raise PreconditionError("source structure required for content lookup")
    if level == 0:
        if x_structure.family != "Y":
            raise ConfigError("the level-0 search maps a target-family component")
        partner, search = "X", _embeds_level0
    else:
        if x_structure.family != "X" or x.size != 1:
            raise ConfigError("the level-1 search maps one source-family cell")
        partner, search = "Y", _embeds_level1
    if y_window.family != partner:
        raise ConfigError(f"the level-{level} partner window must be of family {partner}")
    return search(x, y_window, params, x_structure)


def _embeds_level0(component, x_window, params, y_level0):
    """The identity witness when every partner bit embeds into the target
    block of its own cell, else None.  A source level-0 cell carries one
    site, so the bits are read from the partner window, which must cover
    the component."""
    cells = sorted(component.animal.sites)
    xy = cell_array(cells)
    ix, iy = xy[:, 0] - x_window.origin[0], xy[:, 1] - x_window.origin[1]
    if not ((ix >= 0) & (ix < x_window.width) & (iy >= 0) & (iy < x_window.height)).all():
        raise PreconditionError("component cell outside the partner window")
    if not ACCEPTS[x_window.bits[iy, ix], y_level0.codes_at(xy)].all():
        return None
    identity = CellCorrespondence(0, frozenset(cells), frozenset(cells), {c: c for c in cells}, 0)
    return EmbeddingWitness(0, identity)


def _repair_correspondence(
    src_cells: frozenset,
    free_pool: Iterable[Point],
    level: int,
    cap: int,
) -> Optional[CellCorrespondence]:
    """Identity plus nearest-free reassignment of boundary slivers.

    Source cells present in the pool map to themselves; the rest go to the
    nearest unused pool cell (Chebyshev, lexicographic tie-break) within the
    displacement cap.  Discrete stand-in for the boundary-reassignment maps
    that absorb curve differences between two domains of the same block.
    """
    pool = set(free_pool)
    mapping = {}
    cells = sorted(src_cells)
    for c in cells:
        if c in pool:
            mapping[c] = c
            pool.discard(c)
    budget = 0
    for c in cells:
        if c in mapping:
            continue
        near = [q for q in pool if chebyshev(c, q) <= cap]
        if not near:
            return None
        best = min(near, key=lambda q: (chebyshev(c, q), q))
        mapping[c] = best
        pool.discard(best)
        budget = max(budget, chebyshev(c, best))
    target = frozenset(mapping.values())
    return CellCorrespondence(level, frozenset(src_cells), target, mapping, budget)


def _embeds_level1(block, y_window, params, x_structure):
    (x, y), = block.animal.sites
    # The target block is cut over the level-0 window of the cell's own
    # level-1 window, from y_window's sites when it covers that window and
    # resampled from its seed otherwise: windows of one seed agree site for
    # site, so y_window only needs to cover the images.
    window0 = hier.level0_window_for(Rect(x, y, x + 1, y + 1), params)
    y_level0 = hier.build_level0(params, "Y", y_window.seed, window0,
                                 site_field=_crop(y_window, window0, params.M0))
    # The cell's blow-up reaches past its own window, so the block is
    # censored: a missed curve leaves the straight placeholder.
    curve, _ = hier.block_curve(block.lattice_block, y_level0, y_window.seed, censored=True)
    y_domain = curve.domain
    y_bad = [c.animal for c in hier.bad_subcomponents(y_domain, y_level0)]

    # The block checks its domain once for all the trials that search it;
    # a domain that is not a lattice animal has no rigid map.
    source = block.domain_animal
    if source is not None:
        try:
            corr = translation_family(source, y_domain, y_bad, params)
        except PreconditionError:
            corr = None
        if corr is not None and _accepts(corr, x_structure, y_level0):
            return EmbeddingWitness(1, corr)

    # Domains of the two blocks may have different curve perturbations:
    # absorb the boundary slivers with an in-place reassignment into
    # good-class cells of the blow-up.
    geometry = cell_geometry(1, (x, y), params)
    pool = _good_or_in(y_level0, geometry.blowup, y_domain)
    corr = _repair_correspondence(block.domain, pool, 1, cap=3 * geometry.margin)
    if corr is not None and _accepts(corr, x_structure, y_level0):
        return EmbeddingWitness(1, corr)
    return None


def _pairs(mapping: dict) -> np.ndarray:
    """A cell map as an (n, 2, 2) array: [i, 0] a source cell, [i, 1] its image."""
    return cell_array(itertools.chain.from_iterable(mapping.items())).reshape(-1, 2, 2)


def _accepts(corr: CellCorrespondence, x_level0, y_level0) -> bool:
    """Whether every source cell's bit embeds into its image's target block."""
    pairs = _pairs(corr.mapping)
    return bool(ACCEPTS[x_level0.bits_at(pairs[:, 0]), y_level0.codes_at(pairs[:, 1])].all())


def _good_or_in(level0, rect: Rect, domain: frozenset) -> list:
    """Cells of ``rect`` that are good or in ``domain``, row-major; ``rect``
    lies inside the level-0 window."""
    w = level0.window
    mask = level0.class_grid[rect.y0 - w.y0:rect.y1 - w.y0,
                             rect.x0 - w.x0:rect.x1 - w.x0] == GRID_GOOD
    xy = cell_array(domain) - (rect.x0, rect.y0)
    xy = xy[((xy >= 0) & (xy < (rect.x1 - rect.x0, rect.y1 - rect.y0))).all(axis=1)]
    mask[xy[:, 1], xy[:, 0]] = True
    ys, xs = np.nonzero(mask)
    return list(zip((xs + rect.x0).tolist(), (ys + rect.y0).tolist()))


def _crop(field: BitField, window0: Rect, m0: int) -> Optional[BitField]:
    """The target-family sites of a level-0 cell window, cut from ``field``,
    or None when the field does not cover them."""
    x0, y0 = window0.x0 * m0 - field.origin[0], window0.y0 * m0 - field.origin[1]
    width, height = (window0.x1 - window0.x0) * m0, (window0.y1 - window0.y0) * m0
    if x0 < 0 or y0 < 0 or x0 + width > field.width or y0 + height > field.height:
        return None
    return BitField("Y", (window0.x0 * m0, window0.y0 * m0), width, height, field.seed,
                    field.bits[y0:y0 + height, x0:x0 + width])
