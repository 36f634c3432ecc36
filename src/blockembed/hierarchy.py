"""Recursive block structure for one field family.

Pipeline per level: decide which shared buffers are conjoined from the bad
components one level below, percolate conjoined edges into lattice blocks,
pick a valid boundary curve for each lattice block, take its realized
domain as the block, classify block goodness, and group blocks into
components.

Both groupings are ``ndimage.label`` of a boolean grid.  Bad cells (level
0) or the cells of bad blocks are closed under the 2x2 rule (a diagonal
pair pulls in the rest of its square) and close-packed neighbours merge:
``_close_boxes`` fills the bounding box of every close-packed group until
each is full.  So every component is a filled rectangle and is held as its
box, a ``Rect``: a bad block lies inside one box, a good block is one
cell, and a good singleton is a 1x1 box.  Lattice blocks are the
4-connected labels of a doubled grid: cells on the even sites, conjoined
edges on the odd sites between them.

Coordinates: level-j cells are indexed by integer points; the geometry of a
level-j object (domains, curves, buffers) is expressed in level-(j-1) cell
indices.  Level-0 cells coincide with level-0 blocks of the field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import ndimage

from . import fields as fields_mod
from .errors import ConfigError, CurveSelectionError, PreconditionError
from .fields import BitField, classify_grid, derive_seed
from .lattice import (
    BufferZone,
    LatticeAnimal,
    Point,
    Rect,
    buffer_zone,
    cell_array,
    cell_mask,
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
    "block_curve",
    "build_hierarchy",
]

GOOD_SINGLETON = "good-singleton"
REALLY_BAD = "really-bad"

# Attempt caps for randomized then deterministic curve selection.
CURVE_SAMPLE_TRIES = 200
CURVE_SCAN_CAP = 2_000
# Curve frames kept for reuse: blocks of one shape and place share a frame.
FRAME_CACHE_SIZE = 64
_NO_CURVE = "no valid boundary curve exists for this block"


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

    @cached_property
    def polyline(self) -> tuple:
        """Loops of vertices in level-(j-1) cell coordinates, traced on
        first read: only rendering needs them."""
        return region_boundary_loops(self.domain)

    @property
    def is_straight(self) -> bool:
        return all(v == (1, 1) for _, v in self.corner_indices) and all(
            s == 1 for _, s in self.edge_indices
        )


@dataclass(frozen=True)
class Block:
    """A level-j block: a lattice block and its selected domain, whose
    level-(j-1) cells are the block's member cells."""

    level: int
    lattice_block: LatticeBlock
    domain: frozenset
    curve: Optional[BoundaryCurve] = None
    good: Optional[bool] = None
    censored: bool = False

    @property
    def animal(self) -> LatticeAnimal:
        return self.lattice_block.animal

    @cached_property
    def domain_cells(self) -> np.ndarray:
        """The domain as a sorted, read-only (n, 2) cell array."""
        cells = cell_array(sorted(self.domain))
        cells.flags.writeable = False
        return cells

    @property
    def size(self) -> int:
        return self.lattice_block.size


@dataclass(frozen=True)
class Component:
    """A maximal grouping of blocks around bad blocks: the filled
    rectangle ``box`` of level-j cells, which its blocks tile.

    ``bad_summary`` is (number of bad blocks, total cell count of bad
    blocks).  Bad components without an embedding-probability certificate
    are conservatively reported really-bad.  At level 0 each cell is its
    own block, so ``blocks`` is empty there: the cells are the box's and
    ``bad_summary`` counts the bad ones.
    """

    level: int
    box: Rect
    blocks: tuple  # member Block objects; () at level 0
    status: str
    bad_summary: tuple
    censored: bool = False

    @property
    def size(self) -> int:
        return self.box.area


# ---------------------------------------------------------------------------
# Level-0 structure


@dataclass
class Level0Structure:
    """Level-0 content over a window, plus the target family's bad components.

    Both grids are indexed [y - window.y0, x - window.x0] by level-0 cell
    (x, y).  A target-family structure holds ``class_grid``, the int8 codes
    GRID_GOOD, GRID_ZERO and GRID_ONE of its blocks; a source-family one
    holds ``bits``, one bit per cell, and all its cells are good.  A source
    bit b embeds into a target block of code k exactly when
    ``fields.ACCEPTS[b, k]``.
    """

    family: str
    window: Rect  # level-0 cell indices
    seed: int
    params: ParameterSet
    class_grid: Optional[np.ndarray]  # target family only; int8 codes
    bits: Optional[np.ndarray]  # source family only; one bit per cell
    bad_components: list

    def codes_at(self, cells: np.ndarray) -> np.ndarray:
        """Class codes of an (n, 2) array of (x, y) cells in the window."""
        if self.class_grid is None:
            raise ConfigError("source-family cells are unclassified (always good)")
        return self._at(self.class_grid, cells)

    def bits_at(self, cells: np.ndarray) -> np.ndarray:
        """Bits of an (n, 2) array of (x, y) cells in the window."""
        if self.bits is None:
            raise ConfigError("target-family cells carry classes, not single bits")
        return self._at(self.bits, cells)

    def _at(self, grid: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The grid at the cells; one outside the window raises PreconditionError."""
        try:
            flat = np.ravel_multi_index((cells[:, 1] - self.window.y0,
                                         cells[:, 0] - self.window.x0), grid.shape)
        except ValueError:
            raise PreconditionError("cell outside the level-0 window") from None
        return grid.take(flat)


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
    structure.bad_components = _level0_bad_components(grid, window)
    return structure


def _level0_bad_components(grid: np.ndarray, window: Rect) -> list:
    """The closed bad boxes of a class grid, each one really-bad."""
    bad = grid != fields_mod.GRID_GOOD
    if not bad.any():
        return []  # no labelling to do
    height, width = bad.shape
    comps = []
    # Sorted by the (x0, y0) corner, the box's least cell.
    boxes = sorted(_close_boxes(bad), key=lambda box: (box[1].start, box[0].start))
    for sy, sx in boxes:
        box = Rect(sx.start + window.x0, sy.start + window.y0,
                   sx.stop + window.x0, sy.stop + window.y0)
        n_bad = int(np.count_nonzero(bad[sy, sx]))
        # A component on the window's edge may extend past it.
        censored = (sx.start == 0 or sy.start == 0
                    or sx.stop == width or sy.stop == height)
        comps.append(Component(0, box, (), REALLY_BAD, (n_bad, n_bad), censored))
    return comps


def _close_boxes(mask: np.ndarray) -> list:
    """Close a boolean grid under the grouping rules and return its groups
    as ``ndimage.find_objects`` boxes, each one filled by the closure.

    A closed set has no 2x2 square holding a diagonal pair or exactly three
    cells, so its close-packed groups are filled rectangles that do not
    touch even at a corner.  Filling every group's bounding box until all
    are full thus reaches the closure and adds no cell outside it.
    """
    while True:
        labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
        boxes = ndimage.find_objects(labels)
        if all(mask[box].all() for box in boxes):
            return boxes
        mask = mask.copy()
        for box in boxes:
            mask[box] = True


# ---------------------------------------------------------------------------
# Conjoined buffers and lattice blocks


def is_conjoined(buffer: BufferZone, level_below) -> bool:
    """Whether a shared buffer forces its two cells into one lattice block:
    some bad component of the level below meets the buffer rectangle.

    Every level-0 component is really-bad (see classify_good_block), so
    the first one that meets the buffer decides; no k0 total is needed.
    """
    if not level_below.window.contains_rect(buffer.rect):
        raise PreconditionError("structure not built over the buffer extent")
    return any(buffer.rect.meets(comp.box) for comp in level_below.bad_components)


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
    # the 4-connected labels are the close-packed ones.
    grid = np.zeros((2 * (max(y for _, y in cells) - y0) + 1,
                     2 * (max(x for x, _ in cells) - x0) + 1), dtype=bool)
    cell_set = set(cells)
    for x, y in cells:
        gx, gy = 2 * (x - x0), 2 * (y - y0)
        grid[gy, gx] = True
        for v, (ex, ey) in (((x + 1, y), (gx + 1, gy)), ((x, y + 1), (gx, gy + 1))):
            if v in cell_set and conjoined((x, y), v):
                grid[ey, ex] = True
    labels, _ = ndimage.label(grid)
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


def _band(axis: int, n0: int, n1: int, a0: int, a1: int) -> tuple:
    """Index of the cells [n0, n1) along a normal axis (0: y, 1: x) and
    [a0, a1) along the other."""
    return (slice(n0, n1), slice(a0, a1)) if axis == 0 else (slice(a0, a1), slice(n0, n1))


class CurveFrame:
    """The mask frame of one lattice block's curve family.

    Masks over the frame are boolean arrays indexed ``[y - y0, x - x0]`` in
    level-(j-1) cells.  The frame is the ideal block's bounding box padded
    by clearance + k0 + 2 cells: realized domains reach k0 cells past the
    ideal outline, the outside strips of the boundary edges one cell, and
    the widest dilation of bad cells read there a further clearance + k0 + 1.
    Bad cells the frame clips are therefore never read.

    A frame depends on the block's geometry alone, so ``curve_frame`` shares
    one among blocks of one shape and place, and the frame holds what a
    selection reads that no field changes: the straight curve and its ring,
    the cells within clearance - 1 of the straight outline, and, built on
    first use, the field-free part of the factor tables (``tables``).  Its
    arrays are read-only.
    """

    def __init__(self, animal: LatticeAnimal, j: int, r: int, mb: int, clearance: int,
                 k0: int):
        self.j = j
        self.r = r
        self.mb = mb
        self.clearance = clearance
        self.k0 = k0
        if self.k0 > self.mb:
            raise ConfigError("buffer margin too small for 2*k0 curve tracks")
        # With k0 <= mb < r / 4 every cell is within one step of the pieces
        # of at most one vertex and two edges (two only where the outward
        # strips of a concave corner meet, at k0 = mb), as _curve_factors
        # needs.
        if 4 * mb >= r:
            raise ConfigError("buffer margin must stay below a quarter of the block side")
        self.edges = _boundary_edges(animal)
        self.vertices = sorted({v for e in self.edges for v in _edge_vertices(e, r)})
        # Values per factor-table variable: the vertices, then the edges.
        self.sizes = [4 * k0] * len(self.vertices) + [2 * k0] * len(self.edges)
        pad = self.clearance + self.k0 + 2
        bx0, by0, bx1, by1 = animal.bounding_box()
        self.x0, self.y0 = bx0 * r - pad, by0 * r - pad
        self.ideal = np.zeros(((by1 - by0 + 1) * r + 2 * pad,
                               (bx1 - bx0 + 1) * r + 2 * pad), dtype=bool)
        for ux, uy in animal.sites:
            self.ideal[uy * r - self.y0:(uy + 1) * r - self.y0,
                       ux * r - self.x0:(ux + 1) * r - self.x0] = True
        # An edge's low-vertex, middle and high-vertex track segments.
        segments = ((0, mb), (mb, r - mb), (r - mb, r))
        # Per edge, its three segments in that order: the vertex or edge
        # whose track index offsets the segment, the edge's normal axis and
        # sign, the side's line along the normal, and the segment's extent
        # along the side (frame coordinates).
        self.bands = []
        self.outside = {}
        incident: dict = {}
        for edge in self.edges:
            nx, ny = _edge_normal(edge[1])
            v_low, v_high = _edge_vertices(edge, r)
            fx, fy = v_low[0] - self.x0, v_low[1] - self.y0
            axis, line, along = (0, fy, fx) if nx == 0 else (1, fx, fy)
            sign = nx + ny
            for key, (a0, a1) in zip((v_low, edge, v_high), segments):
                self.bands.append((key, axis, sign, line, along + a0, along + a1))
            out = line if sign > 0 else line - 1
            self.outside[edge] = _band(axis, out, out + 1, along, along + r)
            for v in (v_low, v_high):
                incident.setdefault(v, []).append((nx, ny))
        # Corner squares: vertices where exactly two perpendicular sides
        # meet, keyed to the diagonal (qx, qy) pointing out of the block.
        self.corners = {}
        for v, normals in incident.items():
            if len(normals) == 2:
                (ax, ay), (bx, by) = normals
                if ax + bx and ay + by:
                    self.corners[v] = (ax + bx, ay + by)
        self.ideal.flags.writeable = False
        corner_idx, edge_idx = dict.fromkeys(self.vertices, (1, 1)), dict.fromkeys(self.edges, 1)
        mask = realize_domain(self, corner_idx, edge_idx)
        self.straight = _make_curve(self, corner_idx, edge_idx, mask)
        # Chebyshev dilation is symmetric: a bad cell lies on the ring exactly
        # when the straight outline lies within clearance - 1 of it.
        self.ring = _dilate(_boundary(mask), self.clearance - 1)
        self.ring.flags.writeable = False

    @cached_property
    def tables(self) -> tuple:
        """What the factor tables read of the frame alone, as (scopes,
        colour, outlines).

        ``scopes[:, y, x]`` is the (vertex, lower edge, higher edge) scope
        of each frame cell (see ``_cell_scopes``).  ``colour`` maps each
        edge variable to a colour, distinct for the two edges of any cell's
        scope; one colour serves unless k0 = mb.  ``outlines`` holds the
        boundary masks of the realizations that give every vertex one state
        and every edge of one colour one index, indexed [vertex state, index
        of colour 0, ..., y, x] by table positions (see ``_curve_factors``).
        """
        nv, k2 = len(self.vertices), 2 * self.k0
        h, w = self.ideal.shape
        scopes = _cell_scopes(self)
        lo, hi = scopes[1].ravel(), scopes[2].ravel()
        pairs = set(zip(lo[lo < hi].tolist(), hi[lo < hi].tolist()))
        colour = dict.fromkeys(range(nv, nv + len(self.edges)), 0)
        for x in colour:
            taken = {colour[y] for pair in pairs if x in pair for y in pair if y < x}
            colour[x] = min(set(range(len(taken) + 1)) - taken)
        colours = max(colour.values(), default=0) + 1

        states = [(ell, s) for ell in range(1, k2 + 1) for s in (1, 2)]
        add, rem = (np.stack(m).reshape((2 * k2,) + (1,) * colours + (h, w)) for m in zip(
            *(_paint(self, dict.fromkeys(self.vertices, st), {}) for st in states)))
        for c in range(colours):
            shape = [1] * (1 + colours) + [h, w]
            shape[1 + c] = k2
            edges = [e for x, e in enumerate(self.edges, start=nv) if colour[x] == c]
            paints = [_paint(self, {}, dict.fromkeys(edges, i)) for i in range(1, k2 + 1)]
            add = add | np.stack([a for a, _ in paints]).reshape(shape)
            rem = rem | np.stack([r for _, r in paints]).reshape(shape)
        outlines = _boundary((self.ideal | add) & ~rem)
        scopes.flags.writeable = outlines.flags.writeable = False
        return scopes, colour, outlines

    def cells(self, mask: np.ndarray) -> frozenset:
        ys, xs = np.nonzero(mask)
        return frozenset(zip((xs + self.x0).tolist(), (ys + self.y0).tolist()))


def curve_frame(animal: LatticeAnimal, j: int, params: ParameterSet) -> CurveFrame:
    """The curve frame of a lattice block, shared by blocks of one shape and
    place: it reads of the parameters only the level's geometry."""
    margins = params.margins(j)
    return _cached_frame(animal, j, params.cells_per_side(j), margins.buffer,
                         margins.clearance, params.k0)


@lru_cache(maxsize=FRAME_CACHE_SIZE)
def _cached_frame(animal: LatticeAnimal, j: int, r: int, mb: int, clearance: int, k0: int):
    return CurveFrame(animal, j, r, mb, clearance, k0)


def realize_domain(
    frame: CurveFrame, corner_indices: dict, edge_indices: dict
) -> np.ndarray:
    """Mask of the domain carved out by one curve-index assignment.

    Each boundary side runs at its own track offset over its middle, bending
    to the vertex offsets within one buffer width of each endpoint; an
    orientation index of 2 additionally fills (or cuts) the diagonal square
    where two perpendicular sides meet.  The domain is the ideal block plus
    every outward strip or square, minus every inward one.
    """
    add, rem = _paint(frame, corner_indices, edge_indices)
    return (frame.ideal | add) & ~rem


def _paint(frame: CurveFrame, corner_indices: dict, edge_indices: dict) -> tuple:
    """The outward and the inward strips and squares of an assignment.

    Pieces whose vertex or edge has no index given are left out, so the
    vertex pieces and the edge pieces can be painted apart.
    """
    add = np.zeros_like(frame.ideal)
    rem = np.zeros_like(frame.ideal)
    tracks = {v: ell for v, (ell, _) in corner_indices.items()}
    tracks.update(edge_indices)
    for key, axis, sign, line, a0, a1 in frame.bands:
        d = _offset_of_index(tracks[key]) if key in tracks else 0
        if d:
            n0, n1 = sorted((line, line + sign * d))
            (add if d > 0 else rem)[_band(axis, n0, n1, a0, a1)] = True
    for v, (qx, qy) in frame.corners.items():
        if v not in corner_indices:
            continue
        ell, s = corner_indices[v]
        d = _offset_of_index(ell)
        if s != 2 or d == 0:
            continue
        if d < 0:
            qx, qy, d = -qx, -qy, -d
        fx, fy = v[0] - frame.x0, v[1] - frame.y0
        square = (slice(fy, fy + d) if qy > 0 else slice(fy - d, fy),
                  slice(fx, fx + d) if qx > 0 else slice(fx - d, fx))
        # Outward squares extend the domain; inward ones cut it.
        inside = frame.ideal[square]
        add[square] |= ~inside
        rem[square] |= inside
    return add, rem


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Mask cells with a lattice neighbour outside the mask or the array;
    masks may be stacked along leading axes."""
    inner = np.zeros_like(mask)
    inner[..., 1:-1, 1:-1] = (mask[..., 1:-1, 1:-1] & mask[..., :-2, 1:-1]
                              & mask[..., 2:, 1:-1] & mask[..., 1:-1, :-2]
                              & mask[..., 1:-1, 2:])
    return mask & ~inner


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Cells within Chebyshev distance ``radius`` of a mask cell."""
    return ndimage.maximum_filter(mask, size=2 * radius + 1, mode="constant")


def _edge_factors(frame: CurveFrame, forbidden: np.ndarray) -> dict:
    """Per boundary edge, which of its 2*k0 track indices keep the middle
    segment's outermost row clear of ``forbidden`` (a boolean array).

    Over an edge's middle segment only the edge's own index moves the
    outline: perpendicular bands and corner squares reach at most k0 <= mb
    cells from a vertex.  There the domain's outermost row at offset d is
    line + d - 1 (outward normal positive) or line - d, and it lies on the
    domain boundary, whatever the other indices.  For d in [1 - k0, k0]
    these rows are the 2*k0 rows from line - k0.
    """
    k0 = frame.k0
    d = np.array([_offset_of_index(i) for i in range(1, 2 * k0 + 1)])
    factors = {}
    for edge, axis, sign, line, a0, a1 in frame.bands[1::3]:  # middle segments
        met = forbidden[_band(axis, line - k0, line + k0, a0, a1)]
        factors[edge] = ~met.any(axis=1 - axis)[d - 1 + k0 if sign > 0 else k0 - d]
    return factors


def _curve_factors(frame: CurveFrame, forbidden: np.ndarray) -> list:
    """Local factors whose product is the validity of an assignment.

    Whether a cell is boundary depends on the mask over the cell and its
    four neighbours, and the mask there on the indices whose strips or
    squares can reach them: at most one vertex and two edges (see
    ``CurveFrame``), the cell's scope.  So validity is a product of one
    factor per scope that forbidden cells have: whether all those cells
    are clear, read off the frame's outline masks (``CurveFrame.tables``).
    The edge factors of ``_edge_factors`` are implied by these.

    Variables are the vertices, then the edges, in frame order; a vertex
    state (ell, s) sits at table position 2 * (ell - 1) + s - 1, an edge
    index i at i - 1.  Returns (variables, table) pairs for ``_contract``
    and ``_first_valid``.
    """
    scopes, colour, outlines = frame.tables
    colours = outlines.ndim - 3
    ys, xs = np.nonzero(forbidden)
    groups: dict = {}
    for i, scope in enumerate(zip(*scopes[:, ys, xs].tolist())):
        groups.setdefault(scope, []).append(i)
    factors = []
    for (v, lo, hi), cells in groups.items():
        by_colour = {colour[x]: x for x in {lo, hi} - {-1}}
        scope = ((v,) if v >= 0 else ()) + tuple(by_colour[c] for c in sorted(by_colour))
        index = ((slice(None) if v >= 0 else 0,)
                 + tuple(slice(None) if c in by_colour else 0 for c in range(colours)))
        factors.append((scope, ~outlines[index][..., ys[cells], xs[cells]].any(axis=-1)))
    return factors


def _cell_scopes(frame: CurveFrame) -> np.ndarray:
    """Per frame cell, the indices its boundary status can depend on: a
    (3, h, w) array of the vertex and of the lower and higher edge
    (variable numbers as in ``_curve_factors``), -1 where there is none.

    Those are the indices whose pieces can lie within one step of the cell,
    over all their values: bands within tracks [1 - k0, k0] of their line,
    corner squares within k0 of their vertex.  The frame's padding keeps
    every such cell inside it.
    """
    k0, nv = frame.k0, len(frame.vertices)
    var = {key: i for i, key in enumerate(frame.vertices + frame.edges)}
    pieces = []
    for key, axis, sign, line, a0, a1 in frame.bands:
        n0, n1 = sorted((line + sign * k0, line - sign * (k0 - 1)))
        pieces.append((var[key], (n0, n1, a0, a1) if axis == 0 else (a0, a1, n0, n1)))
    for vx, vy in frame.corners:
        fx, fy = vx - frame.x0, vy - frame.y0
        pieces.append((var[(vx, vy)], (fy - k0, fy + k0, fx - k0, fx + k0)))
    scopes = np.full((3,) + frame.ideal.shape, -1)
    vertex, lo, hi = scopes
    lo[:] = len(var)
    for x, (y0, y1, x0, x1) in pieces:
        # The piece's rectangle widened by one step along either axis.
        for near in ((slice(y0 - 1, y1 + 1), slice(x0, x1)),
                     (slice(y0, y1), slice(x0 - 1, x1 + 1))):
            if x < nv:
                np.maximum(vertex[near], x, out=vertex[near])
            else:
                np.maximum(hi[near], x, out=hi[near])
                np.minimum(lo[near], x, out=lo[near])
    lo[hi < 0] = -1
    return scopes


def _contract(factors: list, sizes: list) -> int:
    """Sum over all assignments of the product of factor tables, exactly.

    ``factors`` holds (variables, boolean table) pairs, one table axis per
    variable; variable i takes ``sizes[i]`` values.  Variables are summed
    out one at a time, each time the one whose factors span the fewest
    other variables.
    """
    total = 1
    named = {x for scope, _ in factors for x in scope}
    for x in set(range(len(sizes))) - named:
        total *= sizes[x]
    factors = [(scope, np.asarray(table, dtype=np.int64).astype(object))
               for scope, table in factors]
    while factors:
        if any(not scope for scope, _ in factors):
            for scope, table in factors:
                if not scope:
                    total *= table.item()
            factors = [f for f in factors if f[0]]
            continue

        def span(x):
            return len({y for scope, _ in factors if x in scope for y in scope})

        x = min({y for scope, _ in factors for y in scope}, key=span)
        touching = [f for f in factors if x in f[0]]
        factors = [f for f in factors if x not in f[0]]
        joint = sorted({y for scope, _ in touching for y in scope})
        product = np.ones([sizes[y] for y in joint], dtype=object)
        for scope, table in touching:
            order = sorted(range(len(scope)), key=scope.__getitem__)
            shape = [sizes[y] if y in scope else 1 for y in joint]
            product = product * table.transpose(order).reshape(shape)
        k = joint.index(x)
        factors.append((tuple(joint[:k] + joint[k + 1:]),
                        np.asarray(product.sum(axis=k), dtype=object)))
    return total


def _hot_edges(frame: CurveFrame, bad: np.ndarray) -> list:
    """Edges whose outside strip comes within clearance + k0 + 1 of a bad cell."""
    near = _dilate(bad, frame.clearance + frame.k0 + 1)
    return [e for e in frame.edges if near[frame.outside[e]].any()]


def domain_boundary_cells(domain: frozenset) -> frozenset:
    """Domain cells with at least one lattice neighbor outside the domain.

    No program path calls it; the benchmark's traced run spans it by name
    until the in-package trace of ROADMAP item 4."""
    if not domain:
        return frozenset()
    mask, x0, y0 = cell_mask(domain)
    ys, xs = np.nonzero(_boundary(mask))
    return frozenset(zip((xs + x0).tolist(), (ys + y0).tolist()))


def region_boundary_loops(domain: frozenset) -> tuple:
    """Closed rectilinear loops bounding a cell set, as vertex tuples.

    Boundary edges run with the set on their left.  A pinch vertex, whose
    four cells hold exactly one diagonal pair of the set, has two outgoing
    edges; the walk turns left there, so that each loop keeps to the cell
    it has just passed.  Every loop starts at its least vertex, which is
    never a pinch.
    """
    edges: dict = {}
    for x, y in domain:
        if (x, y - 1) not in domain:
            edges.setdefault((x, y), []).append((x + 1, y))
        if (x + 1, y) not in domain:
            edges.setdefault((x + 1, y), []).append((x + 1, y + 1))
        if (x, y + 1) not in domain:
            edges.setdefault((x + 1, y + 1), []).append((x, y + 1))
        if (x - 1, y) not in domain:
            edges.setdefault((x, y + 1), []).append((x, y))

    def step(prev, cur):
        ends = edges[cur]
        if len(ends) == 1:
            del edges[cur]
            return ends[0]
        nxt = (cur[0] - (cur[1] - prev[1]), cur[1] + (cur[0] - prev[0]))
        ends.remove(nxt)
        return nxt

    loops = []
    while edges:
        start = min(edges)
        loop = [start]
        prev, cur = start, step(None, start)
        while cur != start:
            loop.append(cur)
            prev, cur = cur, step(prev, cur)
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


def _make_curve(
    frame: CurveFrame, corner_indices: dict, edge_indices: dict, mask: np.ndarray
) -> BoundaryCurve:
    return BoundaryCurve(
        frame.j,
        tuple(sorted(corner_indices.items())),
        tuple(sorted(edge_indices.items())),
        frame.cells(mask),
    )


def _bad_cells(frame: CurveFrame, animal: LatticeAnimal, bad_components: Sequence) -> np.ndarray:
    """Mask of the cells of the bad components that come near the blow-up,
    the only ones that can constrain the curve."""
    r, margin = frame.r, frame.mb + frame.clearance
    x0, y0, x1, y1 = animal.bounding_box()
    reach = Rect(x0 * r - margin, y0 * r - margin, (x1 + 1) * r + margin, (y1 + 1) * r + margin)
    h, w = frame.ideal.shape
    view = Rect(frame.x0, frame.y0, frame.x0 + w, frame.y0 + h)
    mask = np.zeros_like(frame.ideal)
    for comp in bad_components:
        part = reach.meets(comp.box) and view.intersection(comp.box)
        if part:
            mask[part.y0 - frame.y0:part.y1 - frame.y0,
                 part.x0 - frame.x0:part.x1 - frame.x0] = True
    return mask


def select_boundary_curve(
    ideal_block: LatticeBlock,
    bad_components: Sequence,
    params: ParameterSet,
    rng: np.random.Generator,
    j: int,
) -> BoundaryCurve:
    """Randomly choose a valid boundary curve for a lattice block.

    A curve is valid when every bad component of the level below keeps the
    configured clearance from its polyline.  When the straight choice (all
    indices 1) is valid it is kept with probability 1 - 10**-(j+10);
    otherwise CURVE_SAMPLE_TRIES index assignments are drawn uniformly and
    the first valid one is kept, with a deterministic scan as a final
    fallback.  Raises CurveSelectionError if no valid curve exists, which
    indicates the caller formed the block from conjoined buffers: before
    any draw when some boundary edge has a forbidden cell on every track,
    else once every draw has failed and the exact count of valid curves is
    0.  A scan that reaches its cap raises too, and its message gives that
    count.

    Validity is read off the straight curve's ring first, then off the
    exact factor tables of ``_curve_factors``, for all draws at once; only
    the kept curve is realized.  A selection that draws takes all
    CURVE_SAMPLE_TRIES draws in one generator call, whichever one is kept.
    """
    frame = curve_frame(ideal_block.animal, j, params)
    # With no bad component the straight ring clears without a raster.
    bad = _bad_cells(frame, ideal_block.animal, bad_components) if bad_components else None
    straight_clears = bad is None or not (bad & frame.ring).any()
    if straight_clears and rng.random() < params.straight_curve_mass(j):
        return frame.straight
    if bad is None:
        bad = np.zeros_like(frame.ideal)
    # A curve is valid exactly when its boundary cells avoid the bad cells
    # dilated by clearance - 1.
    forbidden = _dilate(bad, frame.clearance - 1)
    if not all(f.any() for f in _edge_factors(frame, forbidden).values()):
        raise CurveSelectionError(_NO_CURVE)
    factors = _curve_factors(frame, forbidden)

    # A draw is (ell, s) per vertex, then one index per edge, in frame order.
    k2, nv = 2 * frame.k0, len(frame.vertices)
    high = np.array([k2 + 1, 3] * nv + [k2 + 1] * len(frame.edges))
    draws = rng.integers(1, np.tile(high, CURVE_SAMPLE_TRIES))
    found = _first_valid(factors, _draw_states(draws.reshape(-1, len(high)), nv))
    if found is not None:
        return _realized_curve(frame, found)
    count = _contract(factors, frame.sizes)
    if count == 0:
        raise CurveSelectionError(_NO_CURVE)

    # Deterministic targeted scan: only edges (and their endpoints) whose
    # track band comes near an offending cell are perturbed; the rest stay
    # straight.  Scanned in canonical index order, hot edges before hot
    # vertices and the last one fastest, capped.
    hot_edges = _hot_edges(frame, bad)
    hot_vertices = sorted({v for e in hot_edges for v in _edge_vertices(e, frame.r)})
    var = {key: i for i, key in enumerate(frame.vertices + frame.edges)}
    digits = [(var[e], k2) for e in hot_edges] + [(var[v], 2 * k2) for v in hot_vertices]
    total = math.prod(radix for _, radix in digits)
    rest = np.arange(min(total, CURVE_SCAN_CAP))
    states = np.zeros((len(rest), len(var)), dtype=np.int64)
    for x, radix in reversed(digits):
        rest, states[:, x] = np.divmod(rest, radix)
    found = _first_valid(factors, states)
    if found is not None:
        return _realized_curve(frame, found)
    if total > CURVE_SCAN_CAP:
        raise CurveSelectionError(
            f"no valid boundary curve found within the scan cap ({count} valid curves exist)")
    raise CurveSelectionError(_NO_CURVE)


def _draw_states(draws: np.ndarray, nv: int) -> np.ndarray:
    """Table positions (see ``_curve_factors``) of drawn index rows."""
    ell, s = draws[:, 0:2 * nv:2], draws[:, 1:2 * nv:2]
    return np.concatenate([2 * ell + s - 3, draws[:, 2 * nv:] - 1], axis=1)


def _first_valid(factors: list, states: np.ndarray) -> Optional[np.ndarray]:
    """The first row of table positions at which every factor holds."""
    valid = np.ones(len(states), dtype=bool)
    for scope, table in factors:
        valid &= table[tuple(states[:, x] for x in scope)]
    hits = np.flatnonzero(valid)
    return states[hits[0]] if len(hits) else None


def _realized_curve(frame: CurveFrame, states: np.ndarray) -> BoundaryCurve:
    """The curve of one row of table positions."""
    row = states.tolist()
    corner_idx = {v: (st // 2 + 1, st % 2 + 1) for v, st in zip(frame.vertices, row)}
    edge_idx = {e: st + 1 for e, st in zip(frame.edges, row[len(frame.vertices):])}
    return _make_curve(frame, corner_idx, edge_idx, realize_domain(frame, corner_idx, edge_idx))


# ---------------------------------------------------------------------------
# Blocks


def form_block(
    domain: frozenset,
    lattice_block: LatticeBlock,
    curve: Optional[BoundaryCurve],
    level: int,
) -> Block:
    """Cut a block out of a curve-bounded domain: its member cells are the
    domain's cells."""
    if not domain:
        raise PreconditionError("domain is empty")
    return Block(level, lattice_block, frozenset(domain), curve)


# ---------------------------------------------------------------------------
# Components


def form_components(blocks: Sequence[Block]) -> list:
    """Group blocks into the maximal component family.

    The cells of bad blocks are closed under the grouping rules: a
    diagonal pair pulls in the other two cells of its 2x2 square, taking
    the blocks there along, and close-packed neighbours merge.  Each
    closed group is a filled box, and the blocks in it form one component;
    each remaining good block is a good singleton, its cell's 1x1 box.

    The blocks must cover the closure of their bad cells, as a tiling of a
    rectangle always does; a closure that reaches a cell no block covers
    raises ``PreconditionError``.
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

    boxes, labels = [], None
    if not all(b.good for b in blocks):
        cover, x0, y0 = cell_mask(covered)
        bad = cell_array(c for b in blocks if not b.good for c in b.animal.sites)
        mask = np.zeros_like(cover)
        mask[bad[:, 1] - y0, bad[:, 0] - x0] = True
        labels = np.zeros(mask.shape, dtype=np.intp)
        for k, (sy, sx) in enumerate(_close_boxes(mask), start=1):
            if not cover[sy, sx].all():
                raise PreconditionError("bad-block closure reaches a cell no block covers")
            labels[sy, sx] = k
            boxes.append(Rect(sx.start + x0, sy.start + y0, sx.stop + x0, sy.stop + y0))
    # A bad block lies in one box and a good one is one cell, so any cell
    # of a block tells its group.
    groups: dict = {}
    for b in blocks:
        x, y = next(iter(b.animal.sites))
        k = 0 if labels is None else labels[y - y0, x - x0]
        groups.setdefault(boxes[k - 1] if k else Rect(x, y, x + 1, y + 1), []).append(b)
    comps = []
    for box in sorted(groups, key=lambda box: (box.x0, box.y0)):
        members = tuple(sorted(groups[box], key=lambda b: min(b.animal.sites)))
        bad_blocks = [b for b in members if not b.good]
        status = REALLY_BAD if bad_blocks else GOOD_SINGLETON
        comps.append(Component(members[0].level, box, members, status,
                               (len(bad_blocks), sum(b.size for b in bad_blocks)),
                               any(b.censored for b in members)))
    return comps


# ---------------------------------------------------------------------------
# Good blocks


def classify_good_block(block: Block, level_below: Level0Structure) -> bool:
    """Goodness test for a block: size 1, and no bad component of the level
    below meets its domain.

    The construction lets a good block carry up to k0 cells of semi-bad
    subcomponents, and asks every airport-sized square of member cells to
    host nearly every translate of each semi-bad partner shape.  At depth 1
    neither applies: a level-0 component of V >= 1 cells embeds with
    probability 2**-V <= 1/2, below the semi-bad floor
    1 - 1/(v0**5 * k0**4) >= 15/16 that ParameterSet keeps, so every
    level-0 component is really-bad.
    """
    domain = block.domain
    # Each box's cells against the domain, iterated in C: exact for any domain.
    return block.size == 1 and all(
        domain.isdisjoint(itertools.product(range(b.x0, b.x1), range(b.y0, b.y1)))
        for b in (comp.box for comp in level_below.bad_components))


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
) -> BlockHierarchy:
    """Build levels 0 and 1 over a window of level-1 cell indices.

    The level-0 field is sampled over the window's blow-up so that buffers
    and clearances never run off the studied region.  Blocks and components
    whose blow-up leaves the level-1 window are flagged censored.
    """
    if window1.x1 <= window1.x0 or window1.y1 <= window1.y0:
        raise ConfigError(f"level-1 window {tuple(window1)} holds no cell")
    window0 = level0_window_for(window1, params)
    level0 = build_level0(params, family, seed, window0)
    level1 = build_level1(level0, window1, seed)
    return BlockHierarchy(params, family, seed, level0, {1: level1})


def block_curve(
    lattice_block: LatticeBlock,
    level0: Level0Structure,
    seed: int,
    censored: bool,
) -> tuple:
    """The boundary curve of one lattice block, as (curve, placeholder).

    The curve randomness is keyed by the seed and the block's least cell.
    When no valid curve is found for a censored block, the straight curve
    stands in and ``placeholder`` is True: bad content hugging the window
    edge would have conjoined the block outward in the full construction,
    so the block is kept flagged censored and bad, excluded from
    statistics.  An uncensored block raises CurveSelectionError instead.
    """
    params, j = level0.params, lattice_block.level
    x, y = min(lattice_block.animal.sites)
    rng = np.random.default_rng(derive_seed(seed, 0xC0DE, j, x & 0xFFFF, y & 0xFFFF))
    try:
        return select_boundary_curve(lattice_block, level0.bad_components, params, rng, j), False
    except CurveSelectionError:
        if not censored:
            raise
        return curve_frame(lattice_block.animal, j, params).straight, True


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

    if level0.bad_components:
        edges = [(u, side) for u in cells for side in ("R", "T")]
    else:
        # No buffer is conjoined; the extreme ones check level 0 covers all.
        x0, y0, x1, y1 = window1
        edges = [((x0, y0), "R"), ((x1 - 2, y1 - 1), "R"), ((x0, y0), "T"), ((x1 - 1, y1 - 2), "T")]
    conjoined_edges = set()
    for u, side in edges:
        zone = buffer_zone(j, u, side, params)
        if u in cell_set and zone.shared_with in cell_set and is_conjoined(zone, level0):
            conjoined_edges.add(frozenset((u, zone.shared_with)))

    def conjoined(u, v):
        return frozenset((u, v)) in conjoined_edges

    lattice_blocks = [
        LatticeBlock(j, lb.animal)
        for lb in form_lattice_blocks(cells, conjoined)
    ]

    r = params.cells_per_side(j)
    mb = params.margins(j).buffer
    region = Rect(window1.x0 * r, window1.y0 * r, window1.x1 * r, window1.y1 * r)
    blocks = []
    for lb in lattice_blocks:
        bx0, by0, bx1, by1 = lb.animal.bounding_box()
        blowup = Rect(bx0 * r - mb, by0 * r - mb, (bx1 + 1) * r + mb, (by1 + 1) * r + mb)
        censored = not region.contains_rect(blowup)
        curve, placeholder = block_curve(lb, level0, seed, censored)
        block = form_block(curve.domain, lb, curve, j)
        good = not placeholder and classify_good_block(block, level0)
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
        cells = ";".join(f"{x},{y}" for x, y in sorted(comp.box.cells()))
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
            cells = ";".join(f"{x},{y}" for x, y in sorted(comp.box.cells()))
            lines.append(
                f"component level={j} status={comp.status} censored={comp.censored} "
                f"bad={comp.bad_summary} cells={cells}"
            )
    return "\n".join(lines) + "\n"
