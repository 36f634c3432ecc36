"""Recursive block structure for one field family.

Pipeline per level: decide which shared buffers are conjoined from the bad
components one level below, percolate conjoined edges into lattice blocks,
pick a valid boundary curve for each lattice block, cut the domain into a
block by the north-east-corner rule, classify block goodness, and group
blocks into components.

Both groupings are connected-component labellings of a boolean grid, done
by ``_label_groups``.  Bad cells (level 0) or the cells of bad blocks are
closed under the 2x2 rule, a diagonal pair pulling in the rest of its
square, and labelled with close-packed connectivity.  Lattice blocks are
labelled on a doubled grid: cells on the even sites, conjoined edges on the
odd sites between them.

Coordinates: level-j cells are indexed by integer points; the geometry of a
level-j object (domains, curves, buffers) is expressed in level-(j-1) cell
indices.  Level-0 cells coincide with level-0 blocks of the field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import ndimage

from . import fields as fields_mod
from .errors import ConfigError, CurveSelectionError, PreconditionError
from .fields import BitField, Y0Class, classify_grid, derive_seed
from .lattice import (
    BufferZone,
    LatticeAnimal,
    Point,
    Rect,
    buffer_zone,
    chebyshev,
    neighbors,
)
from .params import ParameterSet

__all__ = [
    "ParameterSet",
    "LatticeBlock",
    "BoundaryCurve",
    "Block",
    "Component",
    "Level0Structure",
    "LevelStructure",
    "BlockHierarchy",
    "is_conjoined",
    "form_lattice_blocks",
    "select_boundary_curve",
    "form_block",
    "form_components",
    "classify_good_block",
    "build_level0",
    "build_hierarchy",
    "nonneighbouring_bad_subset",
    "curve_family_size",
]

GOOD_SINGLETON = "good-singleton"
SEMI_BAD = "semi-bad"
REALLY_BAD = "really-bad"

# Attempt caps for randomized then deterministic curve selection.
CURVE_SAMPLE_TRIES = 200
CURVE_SCAN_CAP = 2_000


@dataclass(frozen=True)
class LatticeBlock:
    """A connected component of the conjoined-edge bond percolation."""

    level: int
    animal: LatticeAnimal

    @property
    def size(self) -> int:
        return len(self.animal)


@dataclass(frozen=True)
class BoundaryCurve:
    """A realized boundary choice for one lattice block.

    Indices follow the curve family: every boundary vertex carries
    (offset index in [2*k0], orientation in {1, 2}) and every boundary edge
    carries an offset index in [2*k0].  The realized domain is the set of
    level-(j-1) cells enclosed by the rectilinear polyline.
    """

    level: int
    corner_indices: tuple  # ((vertex, (ell, s)), ...) sorted
    edge_indices: tuple  # (((cell, side), s_e), ...) sorted
    domain: frozenset
    polyline: tuple  # loops of vertices in level-(j-1) cell coordinates

    @property
    def is_straight(self) -> bool:
        return all(v == (1, 1) for _, v in self.corner_indices) and all(
            s == 1 for _, s in self.edge_indices
        )


@dataclass(frozen=True)
class Block:
    """A level-j block: lattice block, selected domain, and member cells."""

    level: int
    lattice_block: LatticeBlock
    domain: frozenset
    member_cells: frozenset
    curve: Optional[BoundaryCurve] = None
    good: Optional[bool] = None
    censored: bool = False

    @property
    def animal(self) -> LatticeAnimal:
        return self.lattice_block.animal

    @property
    def size(self) -> int:
        return self.lattice_block.size


@dataclass(frozen=True)
class Component:
    """A maximal grouping of blocks around bad blocks.

    ``bad_summary`` is (number of bad blocks, total cell count of bad
    blocks).  Bad components without an embedding-probability certificate
    are conservatively reported really-bad.
    """

    level: int
    animal: LatticeAnimal
    blocks: tuple  # member Block objects
    status: str
    bad_summary: tuple
    censored: bool = False

    @property
    def size(self) -> int:
        return len(self.animal)

    @property
    def is_bad(self) -> bool:
        return self.status != GOOD_SINGLETON


# ---------------------------------------------------------------------------
# Level-0 structure


@dataclass
class Level0Structure:
    """Classification of level-0 blocks over a window, plus bad components."""

    family: str
    window: Rect  # level-0 cell indices
    seed: int
    params: ParameterSet
    class_grid: Optional[np.ndarray]  # target family only; int8 codes
    bits: Optional[np.ndarray]  # source family only; one bit per cell
    bad_components: list

    def in_window(self, cell: Point) -> bool:
        return self.window.contains_cell(cell)

    def class_at(self, cell: Point) -> Y0Class:
        if self.class_grid is None:
            raise ConfigError("source-family cells are unclassified (always good)")
        x, y = cell[0] - self.window.x0, cell[1] - self.window.y0
        return fields_mod.grid_code_to_class(self.class_grid[y, x])

    def bit_at(self, cell: Point) -> int:
        if self.bits is None:
            raise ConfigError("target-family cells carry classes, not single bits")
        return int(self.bits[cell[1] - self.window.y0, cell[0] - self.window.x0])

    def is_good(self, cell: Point) -> bool:
        if self.class_grid is None:
            return True
        x, y = cell[0] - self.window.x0, cell[1] - self.window.y0
        return int(self.class_grid[y, x]) == fields_mod.GRID_GOOD

    def iter_components(self) -> Iterable[Component]:
        """Full component partition: bad components plus good singletons."""
        absorbed = set()
        for comp in self.bad_components:
            absorbed.update(comp.animal.sites)
        yield from self.bad_components
        for cell in self.window.cells():
            if cell not in absorbed:
                yield _good_singleton_component(0, cell)


def _good_singleton_component(level: int, cell: Point) -> Component:
    animal = LatticeAnimal(frozenset([cell]))
    block = Block(level, LatticeBlock(level, animal), frozenset([cell]),
                  frozenset([cell]), good=True)
    return Component(level, animal, (block,), GOOD_SINGLETON, (0, 0))


def exact_level0_status(size: int, good: bool, params: ParameterSet) -> str:
    """Exact semi-bad status of a level-0 component of the target family."""
    if good:
        return GOOD_SINGLETON
    if size <= params.v0 and Fraction(1, 2**size) >= params.semibad_threshold(0):
        return SEMI_BAD
    return REALLY_BAD


def build_level0(
    params: ParameterSet,
    family: str,
    seed: int,
    window: Rect,
    site_field: Optional[BitField] = None,
) -> Level0Structure:
    """Sample (or reuse) the field over a cell window and classify it.

    The source family has one site per level-0 cell and every cell is good;
    the target family has M0 x M0 sites per cell classified Good/Zero/One.
    """
    if family == "X":
        if site_field is None:
            site_field = fields_mod.sample_field(
                seed, "X", (window.x0, window.y0),
                window.x1 - window.x0, window.y1 - window.y0,
            )
        bits = site_field.bits
        return Level0Structure(family, window, seed, params, None, bits, [])
    m0 = params.M0
    if site_field is None:
        site_field = fields_mod.sample_field(
            seed, "Y", (window.x0 * m0, window.y0 * m0),
            (window.x1 - window.x0) * m0, (window.y1 - window.y0) * m0,
        )
    grid = classify_grid(site_field, params)
    structure = Level0Structure(family, window, seed, params, grid, None, [])
    structure.bad_components = _level0_bad_components(grid, window, params)
    return structure


def _level0_bad_components(
    grid: np.ndarray, window: Rect, params: ParameterSet
) -> list:
    bad = grid != fields_mod.GRID_GOOD
    if not bad.any():
        return []
    # The window is a rectangle, so it never clips the 2x2 fill.
    labels = _label_groups(bad, np.ones_like(bad))
    height, width = bad.shape
    comps = []
    for k, (sy, sx) in enumerate(ndimage.find_objects(labels), start=1):
        # Transposed, nonzero lists the cells in sorted (x, y) order.
        inside = (labels[sy, sx] == k).T
        xs, ys = np.nonzero(inside)
        cell_bad = bad[sy, sx].T[inside].tolist()
        cells = list(zip((xs + sx.start + window.x0).tolist(),
                         (ys + sy.start + window.y0).tolist()))
        n_bad = sum(cell_bad)
        blocks = tuple(
            Block(0, LatticeBlock(0, LatticeAnimal(frozenset([c]))),
                  frozenset([c]), frozenset([c]), good=not b)
            for c, b in zip(cells, cell_bad)
        )
        status = exact_level0_status(len(cells), False, params)
        # A component on the window's edge may extend past it.
        censored = (sx.start == 0 or sy.start == 0
                    or sx.stop == width or sy.stop == height)
        comps.append(
            Component(0, LatticeAnimal(frozenset(cells)), blocks, status,
                      (n_bad, n_bad), censored)
        )
    comps.sort(key=lambda c: min(c.animal.sites))
    return comps


def _label_groups(mask: np.ndarray, allowed: Optional[np.ndarray] = None) -> np.ndarray:
    """Label the close-packed (8-connected) groups of a boolean grid.

    With ``allowed`` given, the mask is first closed under the 2x2 rule:
    a diagonal pair of mask cells pulls the other two cells of its square
    in, where ``allowed`` holds them.  Close-packed neighbours share a
    label, so this is the grouping of bad cells into components.  Returns
    ``ndimage.label``'s label grid (0 off the groups).
    """
    if allowed is not None:
        while True:
            pair = (mask[:-1, :-1] & mask[1:, 1:]) | (mask[:-1, 1:] & mask[1:, :-1])
            square = np.zeros_like(mask)
            square[:-1, :-1] |= pair
            square[:-1, 1:] |= pair
            square[1:, :-1] |= pair
            square[1:, 1:] |= pair
            grown = square & allowed & ~mask
            if not grown.any():
                break
            mask = mask | grown
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    return labels


# ---------------------------------------------------------------------------
# Conjoined buffers and lattice blocks


def is_conjoined(buffer: BufferZone, level_below) -> bool:
    """Whether a shared buffer forces its two cells into one lattice block.

    True when the bad components of the level below that meet the buffer
    rectangle total more than k0 cells, or any of them is not semi-bad.
    """
    if buffer.rect is None:
        raise PreconditionError("buffer has no extent")
    params = level_below.params
    if not level_below.window.contains_rect(buffer.rect):
        raise PreconditionError("structure not built over the buffer extent")
    total = 0
    for comp in level_below.bad_components:
        if any(buffer.rect.contains_cell(c) for c in comp.animal.sites):
            total += comp.size
            if comp.status != SEMI_BAD:
                return True
    return total > params.k0


def form_lattice_blocks(window: Iterable[Point], conjoined) -> list:
    """Partition a cell window into connected components of conjoined edges.

    ``conjoined`` is a predicate on ordered cell pairs (u, u') for euclidean
    neighbors; it is queried once per undirected internal edge.
    """
    cells = sorted(set(window))
    if not cells:
        return []
    x0 = min(x for x, _ in cells)
    y0 = min(y for _, y in cells)
    # Doubled grid: cell (x, y) sits at (2x, 2y) and the edge to its right
    # or upper neighbour at the odd site between them.  Odd-odd sites stay
    # empty, so diagonal contact only joins two edges of one shared cell and
    # the close-packed labels are the 4-connected ones.
    grid = np.zeros((2 * (max(y for _, y in cells) - y0) + 1,
                     2 * (max(x for x, _ in cells) - x0) + 1), dtype=bool)
    cell_set = set(cells)
    for x, y in cells:
        gx, gy = 2 * (x - x0), 2 * (y - y0)
        grid[gy, gx] = True
        for v, (ex, ey) in (((x + 1, y), (gx + 1, gy)), ((x, y + 1), (gx, gy + 1))):
            if v in cell_set and conjoined((x, y), v):
                grid[ey, ex] = True
    labels = _label_groups(grid)
    groups: dict = {}
    for x, y in cells:
        groups.setdefault(labels[2 * (y - y0), 2 * (x - x0)], []).append((x, y))
    blocks = [LatticeBlock(0, LatticeAnimal(frozenset(g))) for g in groups.values()]
    blocks.sort(key=lambda b: min(b.animal.sites))
    return blocks


# ---------------------------------------------------------------------------
# Boundary curves


def _offset_of_index(i: int) -> int:
    """Map a track index in [2*k0] to a signed offset; index 1 is straight."""
    if i < 1:
        raise ConfigError("track indices start at 1")
    if i == 1:
        return 0
    return i // 2 if i % 2 == 0 else -(i // 2)


def _boundary_edges(animal: LatticeAnimal) -> list:
    """Boundary sides (cell, side) of the ideal multi-cell, sorted."""
    out = []
    for u in animal:
        for side, step in (("B", (0, -1)), ("L", (-1, 0)), ("R", (1, 0)), ("T", (0, 1))):
            if (u[0] + step[0], u[1] + step[1]) not in animal:
                out.append((u, side))
    return sorted(out)


def _edge_vertices(edge, r: int) -> tuple:
    """Endpoint vertices of a boundary side, in level-(j-1) coordinates."""
    (ux, uy), side = edge
    x0, y0 = ux * r, uy * r
    if side == "T":
        return (x0, y0 + r), (x0 + r, y0 + r)
    if side == "B":
        return (x0, y0), (x0 + r, y0)
    if side == "L":
        return (x0, y0), (x0, y0 + r)
    return (x0 + r, y0), (x0 + r, y0 + r)


def _edge_normal(side: str) -> Point:
    return {"T": (0, 1), "B": (0, -1), "L": (-1, 0), "R": (1, 0)}[side]


def _edge_outside_cells(edge, r: int) -> list:
    """Cells just outside the side, ordered from the low vertex."""
    (ux, uy), side = edge
    x0, y0 = ux * r, uy * r
    if side == "T":
        return [(x0 + i, y0 + r) for i in range(r)]
    if side == "B":
        return [(x0 + i, y0 - 1) for i in range(r)]
    if side == "L":
        return [(x0 - 1, y0 + i) for i in range(r)]
    return [(x0 + r, y0 + i) for i in range(r)]


def boundary_family(animal: LatticeAnimal, j: int, params: ParameterSet):
    """Boundary edges and vertices indexing the curve family of a block."""
    r = params.cells_per_side(j)
    edges = _boundary_edges(animal)
    vertices = sorted({v for e in edges for v in _edge_vertices(e, r)})
    return edges, vertices


def curve_family_size(animal: LatticeAnimal, j: int, params: ParameterSet) -> int:
    """Number of index tuples in the potential-curve family of a block."""
    edges, vertices = boundary_family(animal, j, params)
    k2 = 2 * params.k0
    return (k2**len(edges)) * ((2 * k2) ** len(vertices))


def realize_domain(
    animal: LatticeAnimal,
    j: int,
    params: ParameterSet,
    corner_indices: dict,
    edge_indices: dict,
) -> frozenset:
    """Cells of the domain carved out by one curve-index assignment.

    Each boundary side runs at its own track offset over its middle, bending
    to the vertex offsets within one buffer width of each endpoint; an
    orientation index of 2 additionally fills (or cuts) the diagonal square
    where two perpendicular sides meet.
    """
    r = params.cells_per_side(j)
    mb = params.margins(j).buffer
    if params.k0 > mb:
        raise ConfigError("buffer margin too small for 2*k0 curve tracks")
    edges = _boundary_edges(animal)
    cells = {
        (ux * r + i, uy * r + k)
        for ux, uy in animal
        for i in range(r)
        for k in range(r)
    }
    add: set = set()
    rem: set = set()

    def apply_strip(outside_cell: Point, n: Point, depth: int) -> None:
        ox, oy = outside_cell
        if depth > 0:
            for k in range(depth):
                add.add((ox + k * n[0], oy + k * n[1]))
        else:
            for k in range(-depth):
                rem.add((ox - (k + 1) * n[0], oy - (k + 1) * n[1]))

    vertex_edges: dict = {}
    for edge in edges:
        n = _edge_normal(edge[1])
        v_low, v_high = _edge_vertices(edge, r)
        vertex_edges.setdefault(v_low, []).append(edge)
        vertex_edges.setdefault(v_high, []).append(edge)
        d_edge = _offset_of_index(edge_indices[edge])
        d_low = _offset_of_index(corner_indices[v_low][0])
        d_high = _offset_of_index(corner_indices[v_high][0])
        outside = _edge_outside_cells(edge, r)
        for i, cell in enumerate(outside):
            if i < mb:
                d = d_low
            elif i >= r - mb:
                d = d_high
            else:
                d = d_edge
            apply_strip(cell, n, d)

    for v, (ell, s) in corner_indices.items():
        if s != 2:
            continue
        d = _offset_of_index(ell)
        if d == 0:
            continue
        incident = vertex_edges.get(v, [])
        if len(incident) != 2:
            continue
        n1, n2 = (_edge_normal(e[1]) for e in incident)
        qx, qy = n1[0] + n2[0], n1[1] + n2[1]
        if qx == 0 or qy == 0:
            continue
        if d < 0:
            qx, qy, d = -qx, -qy, -d
        for a in range(d):
            for b in range(d):
                cx = v[0] + a if qx > 0 else v[0] - 1 - a
                cy = v[1] + b if qy > 0 else v[1] - 1 - b
                # Outward squares extend the domain; inward ones cut it.
                if (cx, cy) in cells:
                    rem.add((cx, cy))
                else:
                    add.add((cx, cy))

    return frozenset((cells | add) - rem)


def domain_boundary_cells(domain: frozenset) -> frozenset:
    """Domain cells with at least one lattice neighbor outside the domain."""
    out = set()
    for x, y in domain:
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if n not in domain:
                out.add((x, y))
                break
    return frozenset(out)


def region_boundary_loops(domain: frozenset) -> tuple:
    """Closed rectilinear loops bounding a cell set, as vertex tuples."""
    edges: dict = {}
    for x, y in domain:
        if (x, y - 1) not in domain:
            edges[(x, y)] = (x + 1, y)
        if (x + 1, y) not in domain:
            edges[(x + 1, y)] = (x + 1, y + 1)
        if (x, y + 1) not in domain:
            edges[(x + 1, y + 1)] = (x, y + 1)
        if (x - 1, y) not in domain:
            edges[(x, y + 1)] = (x, y)
    loops = []
    remaining = dict(edges)
    while remaining:
        start = min(remaining)
        loop = [start]
        cur = remaining.pop(start)
        while cur != start:
            loop.append(cur)
            cur = remaining.pop(cur)
        # Merge collinear runs.
        merged = []
        m = len(loop)
        for i, v in enumerate(loop):
            a, b = loop[i - 1], loop[(i + 1) % m]
            if (a[0] == v[0] == b[0]) or (a[1] == v[1] == b[1]):
                continue
            merged.append(v)
        loops.append(tuple(merged))
    return tuple(loops)


def curve_clearance(domain: frozenset, bad_components: Sequence) -> int:
    """Smallest distance from any bad-component cell to the domain boundary."""
    boundary = domain_boundary_cells(domain)
    bad: list = []
    for comp in bad_components:
        bad.extend(comp.animal.sites)
    if not bad or not boundary:
        return 10**9
    b_arr = np.array(sorted(boundary), dtype=np.int64)
    c_arr = np.array(bad, dtype=np.int64)
    diff = np.abs(c_arr[:, None, :] - b_arr[None, :, :])
    return int(diff.max(axis=2).min())


def curve_is_valid(
    domain: frozenset, bad_components: Sequence, clearance: int
) -> bool:
    """Whether every bad component keeps the required clearance."""
    return curve_clearance(domain, bad_components) >= clearance


def _make_curve(
    j: int,
    corner_indices: dict,
    edge_indices: dict,
    domain: frozenset,
) -> BoundaryCurve:
    return BoundaryCurve(
        j,
        tuple(sorted(corner_indices.items())),
        tuple(sorted(edge_indices.items())),
        domain,
        region_boundary_loops(domain),
    )


def select_boundary_curve(
    ideal_block: LatticeBlock,
    bad_components: Sequence,
    params: ParameterSet,
    rng: np.random.Generator,
    j: Optional[int] = None,
) -> BoundaryCurve:
    """Randomly choose a valid boundary curve for a lattice block.

    A curve is valid when every bad component of the level below keeps the
    configured clearance from its polyline.  When the straight choice (all
    indices 1) is valid it is kept with probability 1 - 10**-(j+10);
    otherwise indices are drawn uniformly and rejected until valid, with a
    deterministic scan as a final fallback.  Raises CurveSelectionError if
    no valid curve exists, which indicates the caller formed the block from
    conjoined buffers.
    """
    if j is None:
        j = ideal_block.level or 1
    clearance = params.margins(j).clearance
    edges, vertices = boundary_family(ideal_block.animal, j, params)
    k2 = 2 * params.k0

    # Prefilter: only components near the blow-up can constrain the curve.
    r = params.cells_per_side(j)
    mb = params.margins(j).buffer
    x0, y0, x1, y1 = ideal_block.animal.bounding_box()
    reach = Rect(
        x0 * r - mb - clearance,
        y0 * r - mb - clearance,
        (x1 + 1) * r + mb + clearance,
        (y1 + 1) * r + mb + clearance,
    )
    near = [
        c
        for c in bad_components
        if any(reach.contains_cell(p) for p in c.animal.sites)
    ]

    def realize(corner_idx, edge_idx):
        return realize_domain(ideal_block.animal, j, params, corner_idx, edge_idx)

    # Dilate the nearby bad cells by clearance-1 once; a curve is then valid
    # exactly when its boundary cells avoid the dilated set.
    forbidden = set()
    for comp in near:
        for cx, cy in comp.animal.sites:
            for dx in range(1 - clearance, clearance):
                for dy in range(1 - clearance, clearance):
                    forbidden.add((cx + dx, cy + dy))

    def valid(domain: frozenset) -> bool:
        return forbidden.isdisjoint(domain_boundary_cells(domain))

    straight_corners = {v: (1, 1) for v in vertices}
    straight_edges = {e: 1 for e in edges}
    straight = realize(straight_corners, straight_edges)
    straight_ok = valid(straight)
    if straight_ok and rng.random() < params.straight_curve_mass(j):
        return _make_curve(j, straight_corners, straight_edges, straight)

    for _ in range(CURVE_SAMPLE_TRIES):
        corner_idx = {
            v: (int(rng.integers(1, k2 + 1)), int(rng.integers(1, 3)))
            for v in vertices
        }
        edge_idx = {e: int(rng.integers(1, k2 + 1)) for e in edges}
        domain = realize(corner_idx, edge_idx)
        if valid(domain):
            return _make_curve(j, corner_idx, edge_idx, domain)

    # Deterministic targeted scan: only edges (and their endpoints) whose
    # track band comes near an offending cell are perturbed; the rest stay
    # straight.  Scanned in canonical index order, capped.
    offending = [c for comp in near for c in comp.animal.sites]
    reach_d = clearance + params.k0 + 1

    def edge_affected(edge) -> bool:
        cells = _edge_outside_cells(edge, r)
        return any(chebyshev(c, o) <= reach_d for c in cells for o in offending)

    hot_edges = [e for e in edges if edge_affected(e)]
    hot_vertices = sorted({v for e in hot_edges for v in _edge_vertices(e, r)})
    corner_idx = {v: (1, 1) for v in vertices}
    edge_idx = {e: 1 for e in edges}
    corner_space = [(ell, s) for ell in range(1, k2 + 1) for s in (1, 2)]
    edge_space = list(range(1, k2 + 1))
    scanned = 0
    for edge_choice in itertools.product(edge_space, repeat=len(hot_edges)):
        for corner_choice in itertools.product(corner_space, repeat=len(hot_vertices)):
            scanned += 1
            if scanned > CURVE_SCAN_CAP:
                raise CurveSelectionError(
                    "no valid boundary curve found within the scan cap"
                )
            corner_idx.update(zip(hot_vertices, corner_choice))
            edge_idx.update(zip(hot_edges, edge_choice))
            domain = realize(corner_idx, edge_idx)
            if valid(domain):
                return _make_curve(j, corner_idx, edge_idx, domain)
    raise CurveSelectionError("no valid boundary curve exists for this block")


# ---------------------------------------------------------------------------
# Blocks


def form_block(
    domain: frozenset,
    lattice_block: LatticeBlock,
    curve: Optional[BoundaryCurve] = None,
    level: Optional[int] = None,
) -> Block:
    """Cut a block out of a curve-bounded domain.

    Member cells are the level-(j-1) cells lying inside the domain or whose
    north-east corner lies in the domain's interior.
    """
    if not domain:
        raise PreconditionError("domain is empty")
    j = level if level is not None else (curve.level if curve else 1)
    members = set()
    for cell in domain:
        members.add(cell)
    # North-east-corner rule: a cell whose corner point is interior to the
    # domain joins even if the cell itself straddles the boundary.
    for cell in list(domain):
        x, y = cell
        for cand in ((x - 1, y - 1),):
            cx, cy = cand
            corner_cells = ((cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1))
            if all(c in domain for c in corner_cells):
                members.add(cand)
    return Block(j, lattice_block, frozenset(domain), frozenset(members), curve)


# ---------------------------------------------------------------------------
# Components


def form_components(blocks: Sequence[Block]) -> list:
    """Group blocks into the maximal component family.

    The cells of bad blocks are closed under the grouping rules: a
    diagonal pair pulls in the other two cells of its 2x2 square, taking
    the blocks there along, and close-packed neighbours merge.  Each block
    joins the group of its cells; remaining good blocks become good
    singleton components.
    """
    covered: set = set()
    for b in blocks:
        if b.good and b.size != 1:
            raise PreconditionError("good blocks must have size 1")
        if b.good is None:
            raise PreconditionError("goodness must be decided for every block")
        if not covered.isdisjoint(b.animal.sites):
            raise PreconditionError("blocks overlap")
        covered |= b.animal.sites

    labels = None
    if not all(b.good for b in blocks):
        xy = np.array(list(covered), dtype=np.int64)
        x0, y0 = xy.min(axis=0)
        x1, y1 = xy.max(axis=0) + 1
        allowed = np.zeros((y1 - y0, x1 - x0), dtype=bool)
        allowed[xy[:, 1] - y0, xy[:, 0] - x0] = True
        mask = np.zeros_like(allowed)
        for b in blocks:
            if not b.good:
                for x, y in b.animal.sites:
                    mask[y - y0, x - x0] = True
        labels = _label_groups(mask, allowed)
    groups: dict = {}
    for i, b in enumerate(blocks):
        x, y = next(iter(b.animal.sites))
        k = 0 if labels is None else int(labels[y - y0, x - x0])
        groups.setdefault(k or -1 - i, []).append(i)
    comps = []
    for ids in groups.values():
        members = tuple(sorted((blocks[i] for i in ids),
                               key=lambda b: min(b.animal.sites)))
        cells = frozenset().union(*(b.animal.sites for b in members))
        bad_blocks = [b for b in members if not b.good]
        if not bad_blocks and len(members) == 1:
            status = GOOD_SINGLETON
        else:
            status = REALLY_BAD
        level = members[0].level
        n_bad = len(bad_blocks)
        k_bad = sum(b.size for b in bad_blocks)
        censored = any(b.censored for b in members)
        comps.append(
            Component(level, LatticeAnimal(cells), members, status,
                      (n_bad, k_bad), censored)
        )
    comps.sort(key=lambda c: min(c.animal.sites))
    # A group without a bad block larger than a singleton violates the rules.
    for c in comps:
        if c.size > 1 and c.bad_summary[0] == 0:
            raise PreconditionError("component grouping produced a bad-free group")
    return comps


def nonneighbouring_bad_subset(component: Component) -> frozenset:
    """A greedy close-packed-independent set of bad cells of a component.

    For any component of size k > 1 the construction guarantees such a set
    of size at least ceil(k / 25).
    """
    bad_cells = sorted(
        c for b in component.blocks if not b.good for c in b.animal.sites
    )
    chosen: set = set()
    blocked: set = set()
    for c in bad_cells:
        if c in blocked:
            continue
        chosen.add(c)
        blocked.add(c)
        blocked.update(neighbors(c, "close_packed"))
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# Good blocks


def bad_subcomponents(block: Block, level_below: Level0Structure) -> list:
    """Bad components of the level below that meet the block's member cells."""
    return [
        comp
        for comp in level_below.bad_components
        if comp.animal.sites & block.member_cells
    ]


def classify_good_block(
    block: Block,
    level_below: Level0Structure,
    params: ParameterSet,
) -> bool:
    """Goodness test for a block.

    Good blocks have size 1 and carry at most k0 cells of bad
    subcomponents, all of them semi-bad.  The construction also asks every
    airport-sized square of member cells to host nearly every translate of
    each semi-bad partner shape; at depth 1 that condition is vacuous, as
    the partner library is empty: a level-0 component of V cells embeds
    with probability 2**-V, below the semi-bad floor
    1 - 1/(v0**5 * k0**4) whenever v0**5 * k0**4 > 2, as in every bundled
    profile.
    """
    if block.size != 1:
        return False
    bad = bad_subcomponents(block, level_below)
    if sum(c.size for c in bad) > params.k0:
        return False
    return all(c.status == SEMI_BAD for c in bad)


# ---------------------------------------------------------------------------
# Full hierarchy driver (depth 1)


@dataclass
class LevelStructure:
    """Blocks and components of one built level (j >= 1)."""

    level: int
    window: Rect  # level-j cell indices
    conjoined: frozenset  # frozensets {u, u'} of conjoined edges
    lattice_blocks: list
    blocks: list
    components: list


@dataclass
class BlockHierarchy:
    """Per-level record of the construction for one family and window."""

    params: ParameterSet
    family: str
    seed: int
    level0: Level0Structure
    levels: dict

    def level(self, j: int):
        return self.level0 if j == 0 else self.levels[j]


def level0_window_for(window1: Rect, params: ParameterSet) -> Rect:
    """Level-0 extent needed to build level 1 over a level-1 cell window."""
    r = params.cells_per_side(1)
    margins = params.margins(1)
    pad = margins.buffer + margins.clearance + 1
    return Rect(
        window1.x0 * r - pad,
        window1.y0 * r - pad,
        window1.x1 * r + pad,
        window1.y1 * r + pad,
    )


def build_hierarchy(
    params: ParameterSet,
    family: str,
    seed: int,
    window1: Rect,
    depth: int = 1,
    site_field: Optional[BitField] = None,
) -> BlockHierarchy:
    """Build levels 0 and 1 over a window of level-1 cell indices.

    The level-0 field is sampled over the window's blow-up so that buffers
    and clearances never run off the studied region.  Blocks and components
    whose blow-up leaves the level-1 window are flagged censored.
    """
    if depth != 1:
        raise ConfigError("the hierarchy driver supports depth 1")
    window0 = level0_window_for(window1, params)
    level0 = build_level0(params, family, seed, window0, site_field)
    level1 = build_level1(level0, window1, seed)
    return BlockHierarchy(params, family, seed, level0, {1: level1})


def build_level1(
    level0: Level0Structure,
    window1: Rect,
    seed: int,
) -> LevelStructure:
    """Construct level 1 (buffers, lattice blocks, curves, blocks, components)."""
    params = level0.params
    j = 1
    cells = list(window1.cells())
    cell_set = set(cells)

    conjoined_edges = set()
    for u in cells:
        for side in ("R", "T"):
            zone = buffer_zone(j, u, side, params)
            if zone.shared_with in cell_set and is_conjoined(zone, level0):
                conjoined_edges.add(frozenset((u, zone.shared_with)))

    def conjoined(u, v):
        return frozenset((u, v)) in conjoined_edges

    lattice_blocks = [
        LatticeBlock(j, lb.animal)
        for lb in form_lattice_blocks(cells, conjoined)
    ]

    r = params.cells_per_side(j)
    mb = params.margins(j).buffer
    blocks = []
    for lb in lattice_blocks:
        anchor = min(lb.animal.sites)
        rng = np.random.default_rng(
            derive_seed(seed, 0xC0DE, j, anchor[0] & 0xFFFF, anchor[1] & 0xFFFF)
        )
        bx0, by0, bx1, by1 = lb.animal.bounding_box()
        blowup = Rect(bx0 * r - mb, by0 * r - mb, (bx1 + 1) * r + mb, (by1 + 1) * r + mb)
        censored = not Rect(
            window1.x0 * r, window1.y0 * r, window1.x1 * r, window1.y1 * r
        ).contains_rect(blowup)
        try:
            curve = select_boundary_curve(lb, level0.bad_components, params, rng, j)
        except CurveSelectionError:
            if not censored:
                raise
            # Bad content hugging the window edge would have conjoined this
            # block outward in the full construction; keep a straight-curve
            # placeholder, flagged censored and bad, excluded from statistics.
            edges, vertices = boundary_family(lb.animal, j, params)
            domain = realize_domain(
                lb.animal, j, params,
                {v: (1, 1) for v in vertices}, {e: 1 for e in edges},
            )
            curve = _make_curve(j, {v: (1, 1) for v in vertices},
                                {e: 1 for e in edges}, domain)
            block = form_block(curve.domain, lb, curve, j)
            blocks.append(replace(block, good=False, censored=True))
            continue
        block = form_block(curve.domain, lb, curve, j)
        good = classify_good_block(block, level0, params)
        blocks.append(replace(block, good=good, censored=censored))

    components = form_components(blocks)
    return LevelStructure(
        j, window1, frozenset(conjoined_edges), lattice_blocks, blocks, components
    )


def dump_hierarchy(h: BlockHierarchy) -> str:
    """Deterministic line-oriented dump of blocks and components per level."""
    lines = [
        f"hierarchy family={h.family} seed={h.seed} profile={h.params.name}",
        f"level0 window={tuple(h.level0.window)} bad_components={len(h.level0.bad_components)}",
    ]
    for comp in h.level0.bad_components:
        cells = ";".join(f"{x},{y}" for x, y in sorted(comp.animal.sites))
        lines.append(
            f"component level=0 status={comp.status} censored={comp.censored} cells={cells}"
        )
    for j in sorted(h.levels):
        lvl = h.levels[j]
        lines.append(
            f"level{j} window={tuple(lvl.window)} conjoined={len(lvl.conjoined)}"
        )
        for b in lvl.blocks:
            cells = ";".join(f"{x},{y}" for x, y in sorted(b.animal.sites))
            dom = sorted(b.domain)
            lines.append(
                f"block level={j} cells={cells} good={b.good} censored={b.censored} "
                f"domain_size={len(b.domain)} domain_min={dom[0]} domain_max={dom[-1]}"
            )
        for comp in lvl.components:
            cells = ";".join(f"{x},{y}" for x, y in sorted(comp.animal.sites))
            lines.append(
                f"component level={j} status={comp.status} censored={comp.censored} "
                f"bad={comp.bad_summary} cells={cells}"
            )
    return "\n".join(lines) + "\n"
