"""Cell correspondences, the translation family, and site-level embeddings.

A CellCorrespondence is the discrete stand-in for a shape-preserving map
between equal-shape domains: a bijection on member cells that matches up
designated bad sets and carries an integer displacement budget in place of
continuum distortion constants.  ``embeds_level`` searches the constructed
families only; it is a sound semi-decision, never a completeness claim.
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
from .lattice import LatticeAnimal, Point, Rect, cell_array, chebyshev, same_shape
from .params import ParameterSet

__all__ = [
    "CellCorrespondence",
    "EmbeddingMap",
    "EmbeddingWitness",
    "translation_family",
    "translation_subfamily",
    "embeds_level",
    "verify_embedding",
]


class InvalidOffset(PreconditionError):
    """The requested family offset produces a geometrically invalid map."""


def _set_distance(a: Iterable[Point], b: Iterable[Point]) -> int:
    return min(chebyshev(p, q) for p in a for q in b)


def _boundary_distance(cells: frozenset, subset: Iterable[Point]) -> int:
    boundary = hier.domain_boundary_cells(cells)
    return _set_distance(subset, boundary)


@dataclass(frozen=True)
class CellCorrespondence:
    """A bijection between equal-shape cell domains with matched bad sets.

    ``matched_pairs`` lists (source animal, image animal) for the designated
    sets; ``displacement_budget`` is the largest per-cell displacement
    relative to the rigid translation between the domains.
    """

    level: int
    source_cells: frozenset
    target_cells: frozenset
    mapping: dict
    matched_pairs: tuple
    displacement_budget: int

    def __post_init__(self) -> None:
        if set(self.mapping) != set(self.source_cells):
            raise ConfigError("mapping must cover exactly the source cells")
        images = set(self.mapping.values())
        if images != set(self.target_cells) or len(images) != len(self.mapping):
            raise ConfigError("mapping must be a bijection onto the target cells")
        for src, dst in self.matched_pairs:
            if same_shape(src, dst) is None:
                raise ConfigError("matched sets must have equal shapes")

    def apply(self, cell: Point) -> Point:
        return self.mapping[cell]


def _base_translation(source: frozenset, target: frozenset) -> Point:
    """The translation taking source onto target: least site onto least site.

    Both must be lattice animals: constructing one raises ConfigError
    otherwise.  A target that is a translate of a connected source is one,
    so only a mismatched target is checked apart.
    """
    LatticeAnimal(source)
    if target:
        (ax, ay), (bx, by) = min(source), min(target)
        t = (bx - ax, by - ay)
        if {(x + t[0], y + t[1]) for x, y in source} == target:
            return t
    LatticeAnimal(target)
    raise PreconditionError("source and target domains have different shapes")


def _lex(cells: Iterable[Point]) -> list:
    return sorted(cells)


def _swap_sets(mapping: dict, zone_from: frozenset, zone_to: frozenset) -> None:
    """Redirect images so zone_from maps onto zone_to.

    ``mapping`` currently sends each source cell to its rigid-translation
    image; the swap permutes images inside the union of the two zones.
    """
    inverse = {v: k for k, v in mapping.items()}
    src_from = [inverse[v] for v in _lex(zone_from)]
    src_to_displaced = [inverse[v] for v in _lex(zone_to - zone_from)]
    for s, v in zip(src_from, _lex(zone_to)):
        mapping[s] = v
    vacated = _lex(zone_from - zone_to)
    for s, v in zip(src_to_displaced, vacated):
        mapping[s] = v


def translation_family(
    source: frozenset,
    target: frozenset,
    T: Sequence[LatticeAnimal],
    T_prime: Sequence[LatticeAnimal],
    h: Point,
    params: ParameterSet,
    level: int = 1,
) -> CellCorrespondence:
    """Member h of the translation family of maps between two domains.

    The base map (h = (1, 1)) is the rigid translation; member h displaces
    the image of every designated source set by h - (1, 1).  Images of the
    source sets and preimages of the target sets must come out pairwise
    disjoint and non-neighbouring, else the offset is rejected.
    """
    t = _base_translation(source, target)
    scale_sq = params.scale(max(level - 1, 0)) ** 2
    if not (1 <= h[0] <= scale_sq and 1 <= h[1] <= scale_sq):
        raise ConfigError("offset outside the family index window")
    budget_cap = params.v0 * params.k0
    if sum(len(a) for a in T) > budget_cap or sum(len(a) for a in T_prime) > budget_cap:
        raise PreconditionError("designated sets exceed the size budget")
    margin = params.margins(level).interior
    delta = (h[0] - 1, h[1] - 1)

    mapping = {c: (c[0] + t[0], c[1] + t[1]) for c in source}
    images = []
    for animal in T:
        if _boundary_distance(source, animal.sites) < margin:
            raise PreconditionError("designated set too close to the domain boundary")
        zone_from = frozenset((x + t[0], y + t[1]) for x, y in animal.sites)
        zone_to = frozenset(
            (x + delta[0], y + delta[1]) for x, y in zone_from
        )
        if not zone_to <= target:
            raise InvalidOffset("image leaves the target domain")
        if _boundary_distance(target, zone_to) < margin:
            raise InvalidOffset("image too close to the target boundary")
        images.append(zone_to)
    # Images of T and preimages of T' must be pairwise disjoint and
    # non-neighbouring.
    zones = images + [frozenset(a.sites) for a in T_prime]
    for i in range(len(zones)):
        for k in range(i + 1, len(zones)):
            if _set_distance(zones[i], zones[k]) <= 1:
                raise InvalidOffset("designated images neighbour each other")
    for animal, zone_to in zip(T, images):
        zone_from = frozenset((x + t[0], y + t[1]) for x, y in animal.sites)
        _swap_sets(mapping, zone_from, zone_to)
    # Largest Chebyshev displacement from the rigid image.
    pairs = _pairs(mapping)
    budget = int(np.abs(pairs[:, 1] - pairs[:, 0] - t).max())
    matched = tuple(
        (animal, LatticeAnimal(img)) for animal, img in zip(T, images)
    )
    return CellCorrespondence(level, source, target, mapping, matched, budget)


def translation_subfamily(
    source: frozenset,
    T: Sequence[LatticeAnimal],
    params: ParameterSet,
    level: int = 1,
) -> list:
    """A deterministic subfamily of offsets with non-neighbouring images.

    Mirrors the proof device of trying ``scale(level - 1)`` offsets whose
    designated images are pairwise disjoint and non-neighbouring: offsets
    form a grid spaced by the largest designated diameter plus two.
    """
    want = params.scale(max(level - 1, 0))
    diam = 1
    for animal in T:
        x0, y0, x1, y1 = animal.bounding_box()
        diam = max(diam, x1 - x0 + 1, y1 - y0 + 1)
    spacing = diam + 2
    out = []
    g = int(np.ceil(np.sqrt(want)))
    for b in range(g):
        for a in range(g):
            h = (1 + a * spacing, 1 + b * spacing)
            try:
                translation_family(source, source, T, (), h, params, level)
            except (InvalidOffset, PreconditionError, ConfigError):
                continue
            out.append(h)
            if len(out) == want:
                return out
    return out


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
    offset: Optional[Point]

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


DEFAULT_OFFSET_BUDGET = 512


def embeds_level(
    x,
    y_window: BitField,
    level: int,
    params: ParameterSet,
    x_structure=None,
    budget: int = DEFAULT_OFFSET_BUDGET,
) -> Optional[EmbeddingWitness]:
    """Search the constructed map families for an embedding witness.

    At level 0, x is a component and the check is cellwise.  At level 1, x
    is a block; the target structure is built from the given window with
    curve randomness derived from the window's seed, and the translation
    family is searched for an offset matching every bad subcomponent of x
    to an embeddable target.  Sound but not complete: a None result means
    the searched families contain no witness.
    """
    if level not in (0, 1):
        raise ConfigError("embedding search supports levels 0 and 1")
    if x_structure is None:
        raise PreconditionError("source structure required for content lookup")
    if level == 0:
        return _embeds_level0(x, y_window, params, x_structure)
    return _embeds_level1(x, y_window, params, x_structure, budget)


def _embeds_level0(component, y_window, params, x_structure):
    cells = sorted(component.animal.sites)
    identity = CellCorrespondence(
        0,
        frozenset(cells),
        frozenset(cells),
        {c: c for c in cells},
        ((component.animal, component.animal),),
        0,
    )
    if x_structure.family == "X":
        # Source bits against target block classes sampled from y_window.
        y0 = hier.build_level0(
            params, "Y", y_window.seed,
            _cell_window_of_field(y_window, params), site_field=y_window,
        )
        ok = _accepts(identity, x_structure, y0)
    else:
        # Source is a target-family component; partner window carries bits.
        x0 = hier.build_level0(
            params, "X", y_window.seed,
            Rect(y_window.origin[0], y_window.origin[1],
                 y_window.origin[0] + y_window.width,
                 y_window.origin[1] + y_window.height),
            site_field=y_window,
        )
        ok = _accepts(identity, x0, x_structure)
    return EmbeddingWitness(0, identity, None) if ok else None


def _cell_window_of_field(field: BitField, params: ParameterSet) -> Rect:
    m0 = params.M0
    if field.origin[0] % m0 or field.origin[1] % m0 or field.width % m0 or field.height % m0:
        raise PreconditionError("target window must align to whole blocks")
    return Rect(
        field.origin[0] // m0,
        field.origin[1] // m0,
        (field.origin[0] + field.width) // m0,
        (field.origin[1] + field.height) // m0,
    )


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
    for c in sorted(src_cells):
        if c in pool:
            mapping[c] = c
            pool.discard(c)
    budget = 0
    for c in sorted(src_cells):
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
    return CellCorrespondence(level, frozenset(src_cells), target, mapping, (), budget)


def _embeds_level1(block, y_window, params, x_structure, budget):
    animal = block.animal
    window1 = Rect(*_level1_window(animal))
    # The target structure is built over the level-0 window of the block's
    # level-1 window, from y_window's sites when it covers that window and
    # resampled from its seed otherwise: windows of one seed agree site for
    # site, so y_window only needs to cover the images.
    y_hier = hier.build_hierarchy(params, "Y", y_window.seed, window1,
                                  site_field=_crop(y_window, window1, params))
    y_level1 = y_hier.levels[1]
    # The target must reproduce the same lattice block (valid buffers).
    y_block = None
    for b in y_level1.blocks:
        if b.animal.sites == animal.sites:
            y_block = b
            break
    if y_block is None:
        return None

    x_bad = [c.animal for c in hier.bad_subcomponents(block, x_structure)]
    y_bad = [
        c.animal
        for c in hier.bad_subcomponents(y_block, y_hier.level0)
    ]

    candidates = [(1, 1)]
    if x_bad:
        candidates += [
            h
            for h in translation_subfamily(block.domain, x_bad, params, 1)
            if h != (1, 1)
        ]
    tried = 0
    for h in candidates:
        if tried >= budget:
            break
        tried += 1
        try:
            corr = translation_family(
                block.domain, y_block.domain, x_bad, y_bad, h, params, 1
            )
        except (InvalidOffset, PreconditionError, ConfigError):
            continue
        if _accepts(corr, x_structure, y_hier.level0):
            return EmbeddingWitness(1, corr, h)

    # Domains of the two blocks may have different curve perturbations.
    # Without designated bad sets to relocate, absorb the boundary slivers
    # with an in-place reassignment into good-class cells of the blow-up.
    if not x_bad:
        mb = params.margins(1).buffer
        r = params.cells_per_side(1)
        bx0, by0, bx1, by1 = y_block.animal.bounding_box()
        blowup = Rect(bx0 * r - mb, by0 * r - mb, (bx1 + 1) * r + mb, (by1 + 1) * r + mb)
        pool = _good_or_in(y_hier.level0, blowup, y_block.domain)
        corr = _repair_correspondence(block.domain, pool, 1, cap=3 * mb)
        if corr is not None and _accepts(corr, x_structure, y_hier.level0):
            return EmbeddingWitness(1, corr, (1, 1))
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


def _crop(field: BitField, window1: Rect, params: ParameterSet) -> Optional[BitField]:
    """The target-family sites of the level-0 window under ``window1``, cut
    from ``field``, or None when the field does not cover them."""
    w0 = hier.level0_window_for(window1, params)
    m0 = params.M0
    x0, y0 = w0.x0 * m0 - field.origin[0], w0.y0 * m0 - field.origin[1]
    width, height = (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0
    if (field.family != "Y" or x0 < 0 or y0 < 0
            or x0 + width > field.width or y0 + height > field.height):
        return None
    return BitField("Y", (w0.x0 * m0, w0.y0 * m0), width, height, field.seed,
                    field.bits[y0:y0 + height, x0:x0 + width])


def _level1_window(animal: LatticeAnimal) -> tuple:
    x0, y0, x1, y1 = animal.bounding_box()
    return (x0, y0, x1 + 1, y1 + 1)
