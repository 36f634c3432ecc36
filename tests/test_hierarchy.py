"""Recursive block structure: components, buffers, curves, blocks."""

import copy
import functools
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from blockembed import hierarchy
from blockembed.errors import (
    CapExceeded,
    ConfigError,
    CurveSelectionError,
    PreconditionError,
)
from blockembed.fields import GRID_GOOD, GRID_ONE, GRID_ZERO, derive_seed
from blockembed.hierarchy import (
    GOOD_SINGLETON,
    REALLY_BAD,
    Block,
    BoundaryCurve,
    Component,
    LatticeBlock,
    Level0Structure,
    _below,
    _boundary,
    _boundary_edges,
    _cell_scopes,
    _close_boxes,
    _contract,
    _curve_factors,
    _draw_assignment,
    _edge_factors,
    _edge_vertices,
    _forbidden,
    _level0_bad_components,
    _make_curve,
    _offset_of_index,
    build_hierarchy,
    build_level0,
    build_level1,
    classify_good_block,
    curve_frame,
    domain_boundary_cells,
    dump_hierarchy,
    form_block,
    form_components,
    form_lattice_blocks,
    is_conjoined,
    level0_window_for,
    realize_domain,
    region_boundary_loops,
    select_boundary_curve,
)
from blockembed.lattice import (
    SIDE_STEPS,
    LatticeAnimal,
    Rect,
    buffer_zone,
    cell_array,
    cell_mask,
    neighbors,
    shared_buffers,
)
from blockembed.params import ParameterSet, named_profile

TOY1 = named_profile("toy1")
# k0 = buffer: the widest tracks the margins allow.
TOY1_K3 = replace(TOY1, k0=3)
# Two tracks: a single-cell block has 2**4 * 4**4 = 4096 curves.
TOY1_K1 = named_profile("toy1", k0=1)


def chebyshev(a, b) -> int:
    """Close-packed (king-move) distance between two lattice points."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _component_closure(bad_cells: set, in_window) -> list:
    """Reference grouping: union-find to the fixed point of the rules.

    Rules: close-packed-adjacent cells of bad components merge, and any
    diagonal pair inside one component pulls the full 2x2 square in.
    """
    parent: dict = {}

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    members = set(bad_cells)
    for c in members:
        parent[c] = c
    changed = True
    while changed:
        changed = False
        for c in list(members):
            for n in neighbors(c, "close_packed"):
                if n in members and find(n) != find(c):
                    union(c, n)
                    changed = True
        for c in list(members):
            x, y = c
            for dx, dy in ((1, 1), (1, -1)):
                d = (x + dx, y + dy)
                if d in members and find(d) == find(c):
                    for e in ((x + dx, y), (x, y + dy)):
                        if e not in members:
                            if not in_window(e):
                                continue
                            members.add(e)
                            parent[e] = e
                            union(e, c)
                            changed = True
                        elif find(e) != find(c):
                            union(e, c)
                            changed = True
    groups: dict = {}
    for c in members:
        groups.setdefault(find(c), set()).add(c)
    return [groups[k] for k in sorted(groups)]


def _helper_groups(cells) -> list:
    """Groups of ``_close_boxes`` over the bounding box of its input, as
    cell sets ordered by their least cell, like the reference."""
    mask, x0, y0 = cell_mask(cells)
    boxes, _ = _close_boxes(mask)
    groups = [set(Rect(bx0 + x0, by0 + y0, bx1 + x0, by1 + y0).cells())
              for bx0, by0, bx1, by1 in boxes.tolist()]
    return sorted(groups, key=min)


def _fill_until_full(mask):
    """The closure ``_close_boxes`` replaced, kept verbatim as its
    reference: label, fill every group's box, until every box is full."""
    while True:
        labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
        boxes = ndimage.find_objects(labels)
        if all(mask[box].all() for box in boxes):
            return boxes
        mask = mask.copy()
        for box in boxes:
            mask[box] = True


def _reference_boxes(mask) -> tuple:
    """``_fill_until_full`` in ``_close_boxes``' terms: an (n, 4) array of
    (x0, y0, x1, y1) boxes in its order, and each box's count of mask cells."""
    slices = _fill_until_full(mask)
    boxes = [(sx.start, sy.start, sx.stop, sy.stop) for sy, sx in slices]
    return (np.array(boxes, dtype=np.intp).reshape(-1, 4),
            np.array([np.count_nonzero(mask[box]) for box in slices], dtype=np.intp))


def _random_mask(height, width, density, seed):
    return np.random.default_rng(seed).random((height, width)) < density


def _flood_fill(cells, edges) -> list:
    """Reference lattice blocks: flood fill along the given edges."""
    cellset = set(cells)
    seen = set()
    flood = []
    for start in sorted(cellset):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for n in neighbors(c):
                if n in cellset and n not in comp and frozenset((c, n)) in edges:
                    comp.add(n)
                    stack.append(n)
        seen |= comp
        flood.append(frozenset(comp))
    return flood


def _realize_domain_ref(animal, j, params, corner_indices, edge_indices) -> frozenset:
    """Reference realization on cell sets: ideal cells plus outward strips
    and squares, minus inward ones."""
    r = params.cells_per_side(j)
    mb = params.margins(j).buffer
    cells = {(ux * r + i, uy * r + k) for ux, uy in animal
             for i in range(r) for k in range(r)}
    add: set = set()
    rem: set = set()
    vertex_edges: dict = {}
    for edge in _boundary_edges(animal):
        n = SIDE_STEPS[edge[1]]
        v_low, v_high = _edge_vertices(edge, r)
        vertex_edges.setdefault(v_low, []).append(edge)
        vertex_edges.setdefault(v_high, []).append(edge)
        for i, (ox, oy) in enumerate(_edge_outside_cells(edge, r)):
            if i < mb:
                d = _offset_of_index(corner_indices[v_low][0])
            elif i >= r - mb:
                d = _offset_of_index(corner_indices[v_high][0])
            else:
                d = _offset_of_index(edge_indices[edge])
            if d > 0:
                add.update((ox + k * n[0], oy + k * n[1]) for k in range(d))
            else:
                rem.update((ox - (k + 1) * n[0], oy - (k + 1) * n[1]) for k in range(-d))
    for v, (ell, s) in corner_indices.items():
        d = _offset_of_index(ell)
        incident = vertex_edges.get(v, [])
        if s != 2 or d == 0 or len(incident) != 2:
            continue
        n1, n2 = (SIDE_STEPS[e[1]] for e in incident)
        qx, qy = n1[0] + n2[0], n1[1] + n2[1]
        if qx == 0 or qy == 0:
            continue
        if d < 0:
            qx, qy, d = -qx, -qy, -d
        for a in range(d):
            for b in range(d):
                c = (v[0] + a if qx > 0 else v[0] - 1 - a,
                     v[1] + b if qy > 0 else v[1] - 1 - b)
                (rem if c in cells else add).add(c)
    return frozenset((cells | add) - rem)


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


def _domain_boundary_cells_ref(domain: frozenset) -> frozenset:
    """Reference boundary: domain cells with a lattice neighbour outside."""
    return frozenset(
        (x, y) for x, y in domain
        if any(n not in domain for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)))
    )


def curve_clearance(domain: frozenset, bad_components) -> int:
    """Reference clearance: smallest distance from any bad-component cell
    to the domain boundary (10**9 when either side is empty)."""
    boundary = _domain_boundary_cells_ref(domain)
    bad = [c for comp in bad_components for c in comp.box.cells()]
    if not bad or not boundary:
        return 10**9
    return min(chebyshev(b, c) for b in boundary for c in bad)


def _region_boundary_loops_ref(domain: frozenset) -> tuple:
    """Reference loops for sets without a pinch vertex: one outgoing edge
    per vertex, walked from the least vertex left."""
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
    while edges:
        start = min(edges)
        loop = [start]
        cur = edges.pop(start)
        while cur != start:
            loop.append(cur)
            cur = edges.pop(cur)
        m = len(loop)
        loops.append(tuple(v for i, v in enumerate(loop)
                           if not (loop[i - 1][0] == v[0] == loop[(i + 1) % m][0]
                                   or loop[i - 1][1] == v[1] == loop[(i + 1) % m][1])))
    return tuple(loops)


def _pinch_free(cells) -> frozenset:
    """The set with a cell added at a pinch vertex until none is left."""
    cells = set(cells)
    while True:
        pinch = next(((x, y) for x, y in sorted(cells) for dy in (1, -1)
                      if (x + 1, y + dy) in cells
                      and (x + 1, y) not in cells and (x, y + dy) not in cells), None)
        if pinch is None:
            return frozenset(cells)
        cells.add((pinch[0] + 1, pinch[1]))


def _unit_edges(loops) -> list:
    """Directed unit edges of closed loops given by their turning vertices."""
    out = []
    for loop in loops:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            step = ((b[0] > a[0]) - (b[0] < a[0]), (b[1] > a[1]) - (b[1] < a[1]))
            assert 0 in step and step != (0, 0)
            while a != b:
                nxt = (a[0] + step[0], a[1] + step[1])
                out.append((a, nxt))
                a = nxt
    return out


def _middle_rows(frame, edge, d) -> list:
    """Cells of an edge's middle segment on the outermost domain row at
    offset d: the outside cells shifted by d - 1 along the outward normal."""
    nx, ny = SIDE_STEPS[edge[1]]
    mid = _edge_outside_cells(edge, frame.r)[frame.mb:frame.r - frame.mb]
    return [(x + (d - 1) * nx, y + (d - 1) * ny) for x, y in mid]


def _realized(animal, params, corner_indices, edge_indices) -> frozenset:
    """Cells of the mask ``realize_domain`` returns."""
    frame = curve_frame(animal, 1, params)
    return frame.cells(realize_domain(frame, corner_indices, edge_indices))


_SHAPES = [
    [(0, 0)],
    [(0, 0), (1, 0), (0, 1)],  # L: one concave corner
    [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)],  # ring
    [(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)],  # T
    [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)],  # staircase
]


# A hook whose end touches its start at one vertex: a pinch vertex with
# four boundary edges, between the outline and the enclosed cell (0, 1).
_PINCHED = [(0, 0), (-1, 0), (-1, 1), (-1, 2), (0, 2), (1, 2), (1, 1)]


@st.composite
def _animals(draw, shapes=tuple(_SHAPES)):
    """A listed shape or a random animal grown cell by cell, shifted."""
    sites = set(draw(st.sampled_from(shapes)))
    for _ in range(draw(st.integers(0, 5))):
        x, y = draw(st.sampled_from(sorted(sites)))
        dx, dy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        sites.add((x + dx, y + dy))
    ox, oy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return LatticeAnimal(frozenset((x + ox, y + oy) for x, y in sites))


@st.composite
def _curve_choices(draw, params):
    """An animal and a random index assignment of its curve family."""
    animal = draw(_animals())
    return (animal, *draw(_indices(curve_frame(animal, 1, params))))


@st.composite
def _indices(draw, frame):
    """A random index assignment of a frame's curve family."""
    k2 = 2 * frame.k0
    corner = {v: (draw(st.integers(1, k2)), draw(st.integers(1, 2))) for v in frame.vertices}
    edge = {e: draw(st.integers(1, k2)) for e in frame.edges}
    return corner, edge


@st.composite
def _outline_cells(draw, frame, max_size, near=None):
    """A few cells of the outlines of two random curves: forbidding them
    makes validity hinge on the indices around them.  With ``near`` given
    as (point, radius), only cells within that Chebyshev radius."""
    outline = set()
    for _ in range(2):
        corner, edge = draw(_indices(frame))
        outline |= frame.cells(_boundary(realize_domain(frame, corner, edge)))
    if near is not None:
        outline = {c for c in outline if chebyshev(c, near[0]) <= near[1]}
    return draw(st.lists(st.sampled_from(sorted(outline)), min_size=1, max_size=max_size,
                         unique=True))


def _cells_around(frame, max_size):
    """Cell sets over a frame and four cells past each of its sides."""
    h, w = frame.ideal.shape
    return st.sets(st.tuples(st.integers(frame.x0 - 4, frame.x0 + w + 3),
                             st.integers(frame.y0 - 4, frame.y0 + h + 3)),
                   max_size=max_size)


def _clears(mask, forbidden) -> bool:
    """Reference predicate: whether a realized domain's boundary avoids
    every forbidden cell."""
    return not (_boundary(mask) & forbidden).any()


@functools.cache
def _k1_single_cell_boundaries():
    """The frame of a single-cell block at k0 = 1 and the boundary masks of
    all 4 096 of its curves, stacked once per session, so that ``_clears``
    on every curve is one reduction of the stack."""
    frame = curve_frame(LatticeAnimal(frozenset([(0, 0)])), 1, TOY1_K1)
    corner_space = [(ell, s) for ell in (1, 2) for s in (1, 2)]
    return frame, np.stack([
        _boundary(realize_domain(frame, dict(zip(frame.vertices, corner_choice)),
                                 dict(zip(frame.edges, edge_choice))))
        for edge_choice in itertools.product((1, 2), repeat=len(frame.edges))
        for corner_choice in itertools.product(corner_space, repeat=len(frame.vertices))])


def _edge_blocked(frame, forbidden) -> bool:
    """Whether some edge factor is all false, the selection's check before
    it draws."""
    return not all(f.any() for f in _edge_factors(frame, forbidden).values())


def _raster(frame, cells):
    """Mask of the given cells, an (n, 2) array of (x, y) rows or an
    iterable of points, clipped to the frame."""
    mask = np.zeros_like(frame.ideal)
    xy = cells if isinstance(cells, np.ndarray) else cell_array(cells)
    xs, ys = xy[:, 0] - frame.x0, xy[:, 1] - frame.y0
    keep = (xs >= 0) & (ys >= 0) & (xs < mask.shape[1]) & (ys < mask.shape[0])
    mask[ys[keep], xs[keep]] = True
    return mask


def _box_cells(bad_components) -> list:
    """The cells of the boxes of some bad components."""
    return [p for c in bad_components for p in c.box.cells()]


def _widened(frame, extra):
    """A copy of a frame padded by ``extra`` more cells a side: its masks
    padded with False, its bands shifted, and its tables and scoped mask
    built afresh."""
    wide = copy.copy(frame)
    wide.__dict__.pop("tables", None)
    wide.__dict__.pop("scoped", None)
    wide.x0, wide.y0 = frame.x0 - extra, frame.y0 - extra
    wide.ideal, wide.outline = (np.pad(m, extra) for m in (frame.ideal, frame.outline))
    wide.bands = [(key, axis, sign, line + extra, a0 + extra, a1 + extra)
                  for key, axis, sign, line, a0, a1 in frame.bands]
    return wide


def _forbidden_ref(frame, cells, clearance):
    """Reference: the frame cells within Chebyshev distance clearance - 1
    of one of the given cells, by scipy's square maximum filter over the
    frame widened by clearance - 1, so that cells past its edge count."""
    grow = clearance - 1
    h, w = frame.ideal.shape
    wide = ndimage.maximum_filter(_raster(_widened(frame, grow), cells), size=2 * grow + 1,
                                  mode="constant")
    return wide[grow:grow + h, grow:grow + w]


def _parent_selection(lb, bad_components, params, key, j=1):
    """Reference: the selection as it read a frame padded clearance + k0 + 2.
    The cells of the components that meet the blow-up's reach are clipped
    to that frame and dilated by clearance - 1 (scipy's maximum filter),
    and the straight curve clears when they miss its outline dilated alike,
    its ring."""
    clearance = params.margins(j).clearance
    frame = _widened(curve_frame(lb.animal, j, params), clearance)
    size = 2 * clearance - 1
    reach = lb.animal.bounding_box().scaled(frame.r).outset(frame.mb + clearance)
    bad = _raster(frame, _box_cells(c for c in bad_components if reach.meets(c.box)))
    ring = ndimage.maximum_filter(frame.outline, size=size, mode="constant")
    if ((not bad_components or not (bad & ring).any())
            and derive_seed(key, 0) < params.straight_curve_mass(j) * 2**64):
        return frame.straight
    forbidden = ndimage.maximum_filter(bad, size=size, mode="constant")
    count, steps = _contract(_curve_factors(frame, forbidden), frame.sizes)
    if _edge_blocked(frame, forbidden) or count == 0:
        raise CurveSelectionError("no valid boundary curve exists for this block")
    row = _draw_assignment(steps, frame.sizes, _words(key))
    corner = {v: (st // 2 + 1, st % 2 + 1) for v, st in zip(frame.vertices, row)}
    edge = {e: st + 1 for e, st in zip(frame.edges, row[len(frame.vertices):])}
    return _make_curve(frame, corner, edge, realize_domain(frame, corner, edge))


def _scope_pieces(frame) -> tuple:
    """Every band's and corner's rectangle over all its values, as
    (y0, y1, x0, x1) in frame cells, and the variable number of each."""
    k0 = frame.k0
    var = {key: i for i, key in enumerate(frame.vertices + frame.edges)}
    rects, owner = [], []
    for key, axis, sign, line, a0, a1 in frame.bands:
        n0, n1 = sorted((line + sign * k0, line - sign * (k0 - 1)))
        rects.append((n0, n1, a0, a1) if axis == 0 else (a0, a1, n0, n1))
        owner.append(var[key])
    for vx, vy in frame.corners:
        fx, fy = vx - frame.x0, vy - frame.y0
        rects.append((fy - k0, fy + k0, fx - k0, fx + k0))
        owner.append(var[(vx, vy)])
    return rects, owner


def _cell_scopes_ref(frame, ys, xs) -> tuple:
    """Reference scopes of the cells (ys, xs): every band and corner
    rectangle against every cell, by Manhattan distance."""
    nv, nvar = len(frame.vertices), len(frame.vertices) + len(frame.edges)
    rects, owner = _scope_pieces(frame)
    y0, y1, x0, x1 = np.array(rects).T[:, :, None]
    near = (np.maximum(np.maximum(y0 - ys, ys - y1 + 1), 0)
            + np.maximum(np.maximum(x0 - xs, xs - x1 + 1), 0)) <= 1
    owner = np.array(owner)[:, None]
    edge = near & (owner >= nv)
    vertex = np.where(near & (owner < nv), owner, -1).max(axis=0)
    hi = np.where(edge, owner, -1).max(axis=0)
    lo = np.where(edge, owner, nvar).min(axis=0)
    return vertex, np.where(hi < 0, -1, lo), hi


def _blocked_edge_ref(frame, forbidden, k2) -> bool:
    """Reference: some edge has a forbidden cell on each of its 2*k0 middle
    rows, taken one row at a time."""
    for e in frame.edges:
        if all(_raster(frame, _middle_rows(frame, e, _offset_of_index(i)))[forbidden].any()
               for i in range(1, k2 + 1)):
            return True
    return False


def _curve_count(frame, forbidden) -> int:
    """The exact number of index assignments whose domain clears ``forbidden``."""
    return _contract(_curve_factors(frame, forbidden), frame.sizes)[0]


def _factor_product(frame, factors, corner, edge) -> bool:
    """The product of the curve factors at one index assignment."""
    at = {i: 2 * (corner[v][0] - 1) + corner[v][1] - 1 for i, v in enumerate(frame.vertices)}
    at.update({len(frame.vertices) + i: edge[e] - 1 for i, e in enumerate(frame.edges)})
    return all(bool(table[tuple(at[x] for x in scope)]) for scope, table in factors)


def _brute_count(frame, forbidden, free_vertices, free_edges) -> int:
    """Valid assignments counted by realizing each one.  Only the given
    vertices and edges vary; the rest stay straight and multiply the count
    by their number of indices."""
    k2 = 2 * frame.k0
    corner = {v: (1, 1) for v in frame.vertices}
    edge = {e: 1 for e in frame.edges}
    corner_space = [(ell, s) for ell in range(1, k2 + 1) for s in (1, 2)]
    valid = 0
    for edge_choice in itertools.product(range(1, k2 + 1), repeat=len(free_edges)):
        edge.update(zip(free_edges, edge_choice))
        for corner_choice in itertools.product(corner_space, repeat=len(free_vertices)):
            corner.update(zip(free_vertices, corner_choice))
            valid += _clears(realize_domain(frame, corner, edge), forbidden)
    fixed = ((2 * k2) ** (len(frame.vertices) - len(free_vertices))
             * k2 ** (len(frame.edges) - len(free_edges)))
    return valid * fixed


def _curve_factors_unmasked(frame, forbidden) -> list:
    """Reference (the factors before scopeless cells were masked out):
    every forbidden cell grouped by scope, so that a scopeless group gives
    a factor of no variable, which holds."""
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


@st.composite
def _planted_boxes(draw, frame, clearance):
    """Bad boxes of three kinds: deep inside the block, where the cells
    they forbid have no scope; just past the frame, so that they forbid
    only cells of its outer ring; and unit boxes on the outlines of random
    curves."""
    h, w = frame.ideal.shape
    deep = ndimage.binary_erosion(frame.ideal, np.ones((3, 3), dtype=bool),
                                  iterations=frame.k0 + clearance + 1)
    ys, xs = np.nonzero(deep)
    deep = sorted(zip((xs + frame.x0).tolist(), (ys + frame.y0).tolist()))
    past = clearance - 1  # the box's cells past the frame edge
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        (ax, ay), (bx, by) = draw(st.sampled_from(deep)), draw(st.sampled_from(deep))
        boxes.append(Rect(min(ax, bx), min(ay, by), max(ax, bx) + 1, max(ay, by) + 1))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.integers(frame.x0 - past, frame.x0 + w - 1 + past))
        y = draw(st.integers(frame.y0 - past, frame.y0 + h - 1 + past))
        side = draw(st.sampled_from("LRBT"))
        x = {"L": frame.x0 - past, "R": frame.x0 + w - 1 + past}.get(side, x)
        y = {"B": frame.y0 - past, "T": frame.y0 + h - 1 + past}.get(side, y)
        boxes.append(Rect(x, y, x + 1, y + 1))
    boxes += [Rect(x, y, x + 1, y + 1) for x, y in draw(_outline_cells(frame, 3))][
        :draw(st.integers(0, 3))]
    return boxes


def _family(animal, j, params) -> tuple:
    """Boundary edges and vertices indexing the curve family of a block."""
    frame = curve_frame(animal, j, params)
    return frame.edges, frame.vertices


@st.composite
def _factor_cases(draw):
    """A profile, an animal (pinches included), an index assignment, one or
    two cells of its outline to forbid, and four more assignments."""
    params = draw(st.sampled_from([TOY1, TOY1_K3]))
    animal = draw(_animals(_SHAPES + [_PINCHED]))
    frame = curve_frame(animal, 1, params)
    corner, edge = draw(_indices(frame))
    outline = sorted(frame.cells(_boundary(realize_domain(frame, corner, edge))))
    cells = draw(st.lists(st.sampled_from(outline), min_size=1, max_size=2, unique=True))
    return params, animal, corner, edge, cells, [draw(_indices(frame)) for _ in range(4)]


# An L-tromino at k0 = mb: the two edges at its concave corner (16, 16)
# both reach cell (18, 18), so the frame's edges take two colours, and that
# corner at offset 3 puts the cell on the outline.
_L_EDGES, _L_VERTICES = _family(LatticeAnimal(frozenset(_SHAPES[1])), 1, TOY1_K3)
_TWO_COLOUR_CASE = (TOY1_K3, LatticeAnimal(frozenset(_SHAPES[1])),
                    {**dict.fromkeys(_L_VERTICES, (1, 1)), (16, 16): (6, 1)},
                    dict.fromkeys(_L_EDGES, 1), [(18, 18)], [])


def curve_family_size(animal, j, params) -> int:
    """Reference: the number of index tuples in a block's curve family,
    (2 k0) per boundary edge and (4 k0) per boundary vertex."""
    edges, vertices = _family(animal, j, params)
    k2 = 2 * params.k0
    return k2 ** len(edges) * (2 * k2) ** len(vertices)


def _words(key):
    """The word stream a selection keyed by ``key`` draws its assignment from."""
    return (derive_seed(key, i) for i in itertools.count(1))


def _checked_selection(lb, bad_components, params, key, j=1):
    """A selection checked against the references: it raises exactly when
    no index assignment clears (the count is 0, or an edge is blocked on
    every track row by row), and else its curve is the realization of its
    indices and keeps the clearance from every bad cell cell by cell."""
    frame = curve_frame(lb.animal, j, params)
    clearance = params.margins(j).clearance
    forbidden = _forbidden_ref(frame, _box_cells(bad_components), clearance)
    count = _curve_count(frame, forbidden)
    if _blocked_edge_ref(frame, forbidden, 2 * params.k0):
        assert count == 0
    try:
        curve = select_boundary_curve(lb, bad_components, params, key, j)
    except CurveSelectionError as exc:
        assert count == 0
        return str(exc)
    assert count > 0
    corner, edge = dict(curve.corner_indices), dict(curve.edge_indices)
    assert curve.domain == _realize_domain_ref(lb.animal, j, params, corner, edge)
    assert curve_clearance(curve.domain, bad_components) >= clearance
    return curve


def _selection(select, *args):
    """A selection's curve indices and domain, or its error message."""
    try:
        curve = select(*args)
    except CurveSelectionError as exc:
        return str(exc)
    return curve.corner_indices, curve.edge_indices, curve.domain


def _block(cells, good, level=1):
    cells = frozenset(cells)
    return Block(level, LatticeBlock(level, LatticeAnimal(cells)), cells, good=good)


@st.composite
def _full_tilings(draw):
    """A full tiling of a small window: rectangular bad blocks, then good
    singletons on every cell left, in shuffled order."""
    w, h = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    ox, oy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    rects = draw(st.lists(
        st.tuples(st.integers(0, w - 1), st.integers(0, h - 1),
                  st.integers(1, 3), st.integers(1, 3)),
        max_size=8,
    ))
    taken: set = set()
    blocks = []
    for x, y, bw, bh in rects:
        cells = {(ox + x + i, oy + y + k)
                 for i in range(min(bw, w - x)) for k in range(min(bh, h - y))}
        if not cells & taken:
            taken |= cells
            blocks.append(_block(cells, good=False))
    for x in range(ox, ox + w):
        for y in range(oy, oy + h):
            if (x, y) not in taken:
                blocks.append(_block({(x, y)}, good=True))
    return draw(st.permutations(blocks))


def _bad_component(box: Rect) -> Component:
    """A fabricated level-0 component: a box of bad cells."""
    return Component(0, box, (), REALLY_BAD, (box.area, box.area))


def _unit_bad(cell) -> Component:
    """The fabricated bad component of one cell."""
    x, y = cell
    return _bad_component(Rect(x, y, x + 1, y + 1))


class TestLevel0:
    @given(st.sampled_from(["toy1", "toy-m0-3"]), st.integers(0, 2**32),
           st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_source_family_all_good(self, profile, seed, x0, y0, w, h):
        # One good site per source cell: no bad component at level 0, so no
        # buffer is conjoined and every level-1 block is one good cell.
        # No source component exists at any level, which is why nothing
        # prices or searches one.
        p = named_profile(profile)
        hx = build_hierarchy(p, "X", seed, Rect(x0, y0, x0 + w, y0 + h))
        s = hx.level0
        assert s.bad_components == []
        assert s.class_grid is None  # no classes: every cell is good
        assert set(np.unique(s.bits)) <= {0, 1}
        with pytest.raises(ConfigError, match="unclassified"):
            s.codes_at(cell_array([min(s.window.cells())]))
        level1 = hx.levels[1]
        assert level1.conjoined.shape == (0, 4) and not level1.conjoined.flags.writeable
        assert len(level1.blocks) == w * h
        assert all(b.size == 1 and b.good is True for b in level1.blocks)
        assert len(level1.components) == w * h
        assert all(c.status == GOOD_SINGLETON and c.size == 1 and c.bad_summary == (0, 0)
                   for c in level1.components)

    def test_target_family_classes(self, toy1):
        s = build_level0(toy1, "Y", 5, Rect(0, 0, 10, 10))
        assert s.bits is None and s.class_grid.shape == (10, 10)
        assert set(np.unique(s.class_grid)) <= {GRID_GOOD, GRID_ZERO, GRID_ONE}
        with pytest.raises(ConfigError, match="not single bits"):
            s.bits_at(np.array([(3, 3)]))

    def test_readers_index_by_cell(self, toy1):
        # Grids are indexed [y - window.y0, x - window.x0].
        window = Rect(-3, 4, 5, 9)
        ys = build_level0(toy1, "Y", 5, window)
        xs = build_level0(toy1, "X", 5, window)
        cells = np.array(list(window.cells()))
        expect_codes = [ys.class_grid[y - 4, x + 3] for x, y in window.cells()]
        expect_bits = [xs.bits[y - 4, x + 3] for x, y in window.cells()]
        assert ys.codes_at(cells).tolist() == expect_codes
        assert xs.bits_at(cells).tolist() == expect_bits

    @pytest.mark.parametrize("cell", [(-4, 4), (-3, 3), (5, 4), (-3, 9), (5, 9), (-4, 3)])
    def test_readers_reject_cells_outside_the_window(self, toy1, cell):
        # Left of, above, past or below the window: an error, never a read
        # wrapped round from the far side or a bare IndexError.
        window = Rect(-3, 4, 5, 9)
        ys = build_level0(toy1, "Y", 5, window)
        xs = build_level0(toy1, "X", 5, window)
        cells = np.array([(-3, 4), cell, (4, 8)])
        with pytest.raises(PreconditionError, match="outside the level-0 window"):
            ys.codes_at(cells)
        with pytest.raises(PreconditionError, match="outside the level-0 window"):
            xs.bits_at(cells)
        assert ys.codes_at(cells[:0]).tolist() == xs.bits_at(cells[:0]).tolist() == []

    def test_all_good_window_skips_the_labelling(self, toy1, monkeypatch):
        # No bad cell: no component, and no closure or labelling is run.
        def fail(mask):
            raise AssertionError("labelled a window with no bad cell")

        monkeypatch.setattr(hierarchy, "_close_boxes", fail)
        grid = np.full((7, 5), GRID_GOOD, dtype=np.int8)
        assert _level0_bad_components(grid, Rect(-2, 3, 3, 10)) == []
        grid[6, 0] = GRID_ONE
        with pytest.raises(AssertionError, match="no bad cell"):
            _level0_bad_components(grid, Rect(-2, 3, 3, 10))

    def test_bad_components_cover_all_bad_cells(self, toy1):
        s = build_level0(toy1, "Y", 5, Rect(0, 0, 30, 30))
        covered = set()
        for comp in s.bad_components:
            covered |= set(comp.box.cells())
        bad = {(x, y) for y, x in zip(*np.nonzero(s.class_grid != GRID_GOOD))}
        assert bad <= covered

    def test_components_disjoint_and_separated(self, toy1):
        s = build_level0(toy1, "Y", 17, Rect(0, 0, 40, 40))
        seen = set()
        for comp in s.bad_components:
            assert not (set(comp.box.cells()) & seen)
            seen |= set(comp.box.cells())
        # Distinct components are never close-packed adjacent.
        for i, a in enumerate(s.bad_components):
            for b in s.bad_components[i + 1:]:
                for c in a.box.cells():
                    assert not (neighbors(c, "close_packed") & set(b.box.cells()))

    def test_diagonal_square_completion(self):
        groups = _helper_groups({(0, 0), (1, 1)})
        assert groups == [{(0, 0), (1, 0), (0, 1), (1, 1)}]

    def test_closure_fixed_point_chain(self):
        # Two diagonal pairs sharing a cell collapse into one filled component.
        groups = _helper_groups({(0, 0), (1, 1), (2, 2)})
        assert len(groups) == 1
        cells = groups[0]
        for x, y in list(cells):
            for dx, dy in ((1, 1), (1, -1)):
                if (x + dx, y + dy) in cells:
                    assert (x + dx, y) in cells and (x, y + dy) in cells

    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                   min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_close_boxes_matches_reference(self, bad):
        # The bad cells lie inside a full 10x10 window: nothing clips the fill.
        window = Rect(0, 0, 10, 10)
        assert _helper_groups(bad) == _component_closure(bad, window.contains_cell)

    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_close_boxes_are_separated_filled_and_closed(self, bad):
        mask = np.zeros((10, 10), dtype=bool)
        for x, y in bad:
            mask[y, x] = True
        before = mask.copy()
        boxes, counts = _close_boxes(mask)
        assert (mask == before).all()
        slices = [(slice(y0, y1), slice(x0, x1)) for x0, y0, x1, y1 in boxes.tolist()]
        closed = np.zeros_like(mask)
        for box in slices:
            closed[box] = True
        assert (mask <= closed).all()
        assert counts.tolist() == [np.count_nonzero(mask[box]) for box in slices]
        # Every close-packed group of the result is one of the filled boxes,
        # and the boxes come in raster order of their least cell.
        labels, _ = ndimage.label(closed, structure=np.ones((3, 3), dtype=bool))
        assert ndimage.find_objects(labels) == slices
        # No two boxes lie within Chebyshev distance 1 of each other.
        for (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) in itertools.combinations(
                boxes.tolist(), 2):
            gap = max(ax0 - bx1, bx0 - ax1, ay0 - by1, by0 - ay1) + 1
            assert gap > 1
        # Closed under the rule: a diagonal pair fills its 2x2 square.
        a, b = closed[:-1, :-1], closed[:-1, 1:]
        c, d = closed[1:, :-1], closed[1:, 1:]
        assert not (((a & d) | (b & c)) & ~(a & b & c & d)).any()

    @pytest.mark.parametrize("chunk", [hierarchy.PAIR_CHUNK, 3, 7])
    @given(st.integers(1, 64), st.integers(1, 64), st.floats(0.01, 0.5), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_close_boxes_matches_fill_until_full(self, chunk, height, width, density, seed):
        # The box merges give the boxes, order and counts of the grid
        # fills, also with chunks small enough that a mask of this size
        # is swept chunk by chunk.
        mask = _random_mask(height, width, density, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hierarchy, "PAIR_CHUNK", chunk)
            boxes, counts = _close_boxes(mask)
        expect_boxes, expect_counts = _reference_boxes(mask)
        assert boxes.tolist() == expect_boxes.tolist()
        assert counts.tolist() == expect_counts.tolist()

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_close_boxes_matches_fill_until_full_at_toy_m0_3_density(self, seed):
        # A toy-m0-3 window: 60 x 60 level-0 cells, about 18% of them bad.
        mask = _random_mask(60, 60, 0.18, seed)
        boxes, counts = _close_boxes(mask)
        expect_boxes, expect_counts = _reference_boxes(mask)
        assert boxes.tolist() == expect_boxes.tolist()
        assert counts.tolist() == expect_counts.tolist()

    def test_close_boxes_labels_at_most_once(self, monkeypatch):
        calls = []
        label = ndimage.label

        def counted(*args, **kwargs):
            calls.append(1)
            return label(*args, **kwargs)

        monkeypatch.setattr(ndimage, "label", counted)
        mask = _random_mask(60, 60, 0.18, 7)
        expect_boxes, expect_counts = _reference_boxes(mask)
        assert len(calls) > 2  # the grid fills label this mask round after round
        calls.clear()
        boxes, counts = _close_boxes(mask)
        assert len(calls) == 1
        assert boxes.tolist() == expect_boxes.tolist()
        assert counts.tolist() == expect_counts.tolist()
        # An all-True mask is one box, with no labelling.
        calls.clear()
        boxes, counts = _close_boxes(np.ones((3, 4), dtype=bool))
        assert boxes.tolist() == [[0, 0, 4, 3]] and counts.tolist() == [12]
        assert calls == []

    def test_close_boxes_memory_stays_within_twice_the_reference(self):
        # A 600 x 600 mask at 18%: the pair search's temporaries are
        # bounded, so the traced peak stays near the grid fills'.
        mask = _random_mask(600, 600, 0.18, 3)
        peaks = []
        for close in (_fill_until_full, _close_boxes):
            tracemalloc.start()
            try:
                close(mask)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(-5, 5),
           st.integers(-5, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_level0_components_match_reference(self, toy1, w, h, x0, y0, data):
        codes = data.draw(st.lists(st.sampled_from([0, 0, 1, 2]),
                                   min_size=w * h, max_size=w * h))
        grid = np.array(codes, dtype=np.int8).reshape(h, w)
        window = Rect(x0, y0, x0 + w, y0 + h)
        bad = {(x0 + x, y0 + y) for y in range(h) for x in range(w) if grid[y, x]}
        comps = _level0_bad_components(grid, window)
        expected = _component_closure(bad, window.contains_cell)
        assert [set(c.box.cells()) for c in comps] == expected
        for comp, cells in zip(comps, expected):
            assert comp.size == len(cells)
            n_bad = len(cells & bad)
            assert comp.bad_summary == (n_bad, n_bad)
            assert comp.status == REALLY_BAD
            assert comp.censored == any(
                not window.contains_cell(n)
                for c in cells for n in neighbors(c, "close_packed"))
            assert comp.blocks == ()


class TestConjoined:
    @pytest.mark.parametrize("window1", [
        Rect(0, 0, 1, 1), Rect(0, 0, 2, 1), Rect(0, 0, 1, 2), Rect(-2, 1, 1, 4)])
    def test_no_bad_component_still_checks_the_buffer_cover(self, toy1, window1):
        # Without a bad component no buffer is tested for conjoining, yet a
        # level-0 window that misses a buffer raises as it does when a far
        # bad component sends every buffer through is_conjoined.
        full = level0_window_for(window1, toy1)
        raised = set()
        for side, trim in itertools.product(range(4), (0, 3, 4, 6)):
            edges = list(full)
            edges[side] += trim if side < 2 else -trim
            level0 = build_level0(toy1, "X", 5, Rect(*edges))
            outcomes = []
            for comps in ([], [_unit_bad((full.x1 + 50, full.y1 + 50))]):
                level0.bad_components = comps
                try:
                    level1 = build_level1(level0, window1, 5)
                except PreconditionError as exc:
                    outcomes.append(str(exc))
                else:
                    outcomes.append((level1.conjoined.tolist(), [b.curve for b in level1.blocks]))
            assert outcomes[0] == outcomes[1]
            raised.add(isinstance(outcomes[0], str))
        # A window of one cell has no shared buffer to cover.
        assert raised == ({False} if window1.area == 1 else {False, True})

    @pytest.mark.parametrize("profile, seed, window1", [
        ("toy1", 0, Rect(0, 0, 5, 5)), ("toy-m0-3", derive_seed(3, 0xA0, 0), Rect(0, 0, 3, 3))])
    def test_level1_keeps_the_conjoined_pair_rows(self, profile, seed, window1):
        # The level holds the conjoined rows of shared_buffers, in its row
        # order and read-only, and its lattice blocks are theirs.
        p = named_profile(profile)
        h = build_hierarchy(p, "Y", seed, window1)
        pairs, rects = shared_buffers(1, window1, p)
        want = pairs[is_conjoined(rects, h.level0)]
        got = h.levels[1].conjoined
        assert len(want) > 0
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tolist() == want.tolist()
        with pytest.raises(ValueError):
            got[0, 0] = 0
        assert [b.lattice_block for b in h.levels[1].blocks] == form_lattice_blocks(
            window1, want, 1)

    def test_empty_buffer_not_conjoined(self, toy1):
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        assert not _conjoined(z, s)

    def test_really_bad_component_conjoins(self, toy1):
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        s.bad_components = [_unit_bad((z.rect.x0, z.rect.y0))]
        assert _conjoined(z, s)

    def test_any_meeting_component_conjoins(self, toy1):
        # Every level-0 component is really-bad, so one that meets the
        # buffer conjoins, with one cell or with one cell of two straddling
        # its edge, however small its total; one beside the buffer does not.
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        r = z.rect
        beside = _unit_bad((r.x1, r.y0))
        s.bad_components = [beside]
        assert not _conjoined(z, s)
        for box in (Rect(r.x0, r.y0, r.x0 + 1, r.y0 + 1), Rect(r.x1 - 1, r.y1 - 1, r.x1 + 1, r.y1)):
            s.bad_components = [beside, _bad_component(box)]
            assert _conjoined(z, s)

    def test_total_above_k0_conjoins(self, toy1):
        # Components meeting the buffer with k0 + 1 cells in all conjoin,
        # split over two components or in one.
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        x0, y0 = z.rect.x0, z.rect.y0
        s.bad_components = [
            _bad_component(Rect(x0, y0, x0 + 2, y0 + 1)),
            _unit_bad((x0, y0 + 4)),
        ]
        assert toy1.k0 == 2 and _conjoined(z, s)
        s.bad_components = [_bad_component(Rect(x0 + 1, y0, x0 + 2, y0 + toy1.k0 + 1))]
        assert _conjoined(z, s)

    def test_requires_structure_coverage(self, toy1):
        s = build_level0(toy1, "X", 5, Rect(0, 0, 4, 4))
        z = buffer_zone(1, (5, 5), "R", toy1)
        with pytest.raises(PreconditionError):
            _conjoined(z, s)


def _conjoined(zone, level_below) -> bool:
    """is_conjoined of the one buffer of a BufferZone."""
    return bool(is_conjoined(np.array([zone.rect]), level_below)[0])


def _is_conjoined_loop(rect: Rect, level_below) -> bool:
    """Reference (the former per-buffer test): the level-0 window must hold
    the buffer, and then any bad box that meets it conjoins it."""
    if not level_below.window.contains_rect(rect):
        raise PreconditionError("structure not built over the buffer extent")
    return any(rect.meets(comp.box) for comp in level_below.bad_components)


@st.composite
def _boxes_on_edges(draw, rects):
    """Boxes 1 to 4 cells a side, each set against one of the rectangles:
    along x and along y it takes the rectangle's first or last cells, lies
    just outside them, or starts somewhere inside; so boxes meet a buffer
    on its edge or corner by one cell, or miss it by none."""
    boxes = []
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.sampled_from(rects))
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        x = draw(st.sampled_from([r.x0 - w, r.x0 - w + 1, r.x1 - 1, r.x1,
                                  draw(st.integers(r.x0, r.x1 - 1))]))
        y = draw(st.sampled_from([r.y0 - h, r.y0 - h + 1, r.y1 - 1, r.y1,
                                  draw(st.integers(r.y0, r.y1 - 1))]))
        boxes.append(Rect(x, y, x + w, y + h))
    return boxes


def _is_conjoined_ref(buffer, bad_components) -> bool:
    """Reference (the former per-cell scan): some cell of some component
    lies in the buffer rectangle."""
    return any(buffer.rect.contains_cell(c)
               for comp in bad_components for c in comp.box.cells())


def _classify_good_block_ref(block, bad_components) -> bool:
    """Reference (the former per-cell test): a one-cell block whose domain
    shares no cell with any component."""
    return block.size == 1 and all(frozenset(comp.box.cells()).isdisjoint(block.domain)
                                   for comp in bad_components)


@st.composite
def _boxes_around(draw, cells, span: Rect):
    """Boxes inside, straddling or outside a cell set: each is anchored at
    one of the cells or anywhere in ``span``, and is 1 to 6 cells a side."""
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        if cells and draw(st.booleans()):
            x, y = draw(st.sampled_from(sorted(cells)))
            x -= draw(st.integers(0, 5))
            y -= draw(st.integers(0, 5))
        else:
            x = draw(st.integers(span.x0, span.x1 - 1))
            y = draw(st.integers(span.y0, span.y1 - 1))
        boxes.append(Rect(x, y, x + draw(st.integers(1, 6)), y + draw(st.integers(1, 6))))
    return boxes


class TestBoxPredicates:
    """The box tests against the per-cell expressions they replace."""

    SPAN = Rect(-8, -8, 26, 26)

    @given(st.sampled_from(["R", "T", "L", "B"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_conjoined_matches_reference(self, side, data):
        z = buffer_zone(1, (0, 0), side, TOY1)
        window = level0_window_for(Rect(-1, -1, 2, 2), TOY1)
        boxes = data.draw(_boxes_around(list(z.rect.cells()), self.SPAN))
        comps = [_bad_component(b) for b in boxes]
        # Each box alone, then all together.
        for group in [[c] for c in comps] + [comps]:
            s = Level0Structure("Y", window, 0, TOY1, None, None, group)
            assert _conjoined(z, s) == _is_conjoined_ref(z, group)

    @given(st.integers(-6, 2), st.integers(-6, 2), st.integers(1, 4), st.integers(1, 4),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_array_is_conjoined_matches_the_loop(self, x0, y0, w, h, data):
        # Every shared buffer of a window, negative origins among them, at
        # once against the per-buffer loop, with boxes on buffer edges and
        # corners and anywhere around.
        window1 = Rect(x0, y0, x0 + w, y0 + h)
        _, rects = shared_buffers(1, window1, TOY1)
        buffers = [Rect(*r) for r in rects.tolist()]
        window0 = level0_window_for(window1, TOY1)
        boxes = data.draw(_boxes_around([], window0))
        if buffers:
            boxes += data.draw(_boxes_on_edges(buffers))
        s = Level0Structure("Y", window0, 0, TOY1, None, None, [_bad_component(b) for b in boxes])
        got = is_conjoined(rects, s)
        assert got.dtype == bool and got.shape == (len(buffers),)
        assert got.tolist() == [_is_conjoined_loop(b, s) for b in buffers]

    @given(st.integers(-6, 2), st.integers(-6, 2), st.integers(1, 4), st.integers(1, 4),
           st.tuples(*[st.integers(0, 6)] * 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_array_is_conjoined_raises_where_the_loop_raises(self, x0, y0, w, h, trim, data):
        # A level-0 window cut short on any side: the array test raises
        # exactly when the loop raises for some buffer.
        window1 = Rect(x0, y0, x0 + w, y0 + h)
        _, rects = shared_buffers(1, window1, TOY1)
        full = level0_window_for(window1, TOY1)
        window0 = Rect(full.x0 + trim[0], full.y0 + trim[1], full.x1 - trim[2], full.y1 - trim[3])
        boxes = data.draw(_boxes_around([], full))
        s = Level0Structure("Y", window0, 0, TOY1, None, None, [_bad_component(b) for b in boxes])
        try:
            want = [_is_conjoined_loop(Rect(*r), s) for r in rects.tolist()]
        except PreconditionError:
            with pytest.raises(PreconditionError, match="not built over the buffer extent"):
                is_conjoined(rects, s)
        else:
            assert is_conjoined(rects, s).tolist() == want

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_classify_good_block_matches_reference(self, data):
        # Arbitrary domains, not only realized ones: scattered cells, or a
        # rectangle with holes, anywhere in the span, also far from the
        # block's cell.
        cell = st.tuples(st.integers(self.SPAN.x0, self.SPAN.x1 - 1),
                         st.integers(self.SPAN.y0, self.SPAN.y1 - 1))
        if data.draw(st.booleans()):
            domain = data.draw(st.frozensets(cell, min_size=1, max_size=40))
        else:
            x, y = data.draw(cell)
            rect = Rect(x, y, x + data.draw(st.integers(1, 20)), y + data.draw(st.integers(1, 20)))
            holes = data.draw(st.frozensets(st.sampled_from(list(rect.cells())), max_size=10))
            domain = frozenset(rect.cells()) - holes or frozenset([(x, y)])
        cells = data.draw(st.sampled_from([[(0, 0)], [(0, 0), (1, 0)]]))
        block = Block(1, LatticeBlock(1, LatticeAnimal(frozenset(cells))), domain)
        comps = [_bad_component(b) for b in data.draw(_boxes_around(domain, self.SPAN))]
        for group in [[c] for c in comps] + [comps]:
            s = Level0Structure("Y", self.SPAN, 0, TOY1, None, None, group)
            assert (classify_good_block(block.lattice_block, block.domain, s)
                    == _classify_good_block_ref(block, group))


def _pair_subset(window: Rect, data) -> np.ndarray:
    """A random subset of the window's shared-buffer pairs, in their order."""
    pairs, _ = shared_buffers(1, window, TOY1)
    keep = [data.draw(st.booleans()) for _ in range(len(pairs))]
    return pairs[np.array(keep, dtype=bool)]


def _edge_set(rows: np.ndarray) -> set:
    return {frozenset(((ux, uy), (vx, vy))) for ux, uy, vx, vy in rows.tolist()}


class TestLatticeBlocks:
    def test_flood_fill_equivalence(self):
        # form_lattice_blocks must equal an independent flood fill.
        window = Rect(0, 0, 5, 5)
        rows = np.array([(0, 0, 1, 0), (1, 0, 1, 1), (3, 3, 3, 4)], dtype=np.int64)
        blocks = form_lattice_blocks(window, rows, 1)
        assert [b.animal.sites for b in blocks] == sorted(
            _flood_fill(list(window.cells()), _edge_set(rows)), key=min)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_edges_match_flood_fill(self, w, h, level, data):
        # Negative origins and 1-wide windows among them; the blocks come
        # out in least-cell order and carry the caller's level.
        window = Rect(-2, -1, w - 2, h - 1)
        rows = _pair_subset(window, data)
        blocks = form_lattice_blocks(window, rows, level)
        assert [b.animal.sites for b in blocks] == sorted(
            _flood_fill(list(window.cells()), _edge_set(rows)), key=min)
        least = [min(b.animal.sites) for b in blocks]
        assert least == sorted(least)
        assert all(b.level == level for b in blocks)

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_animal_is_connected(self, w, h, data):
        # The animals are built from their labels unchecked; each passes the
        # public constructor's connectivity check.
        window = Rect(-3, -2, w - 3, h - 2)
        for block in form_lattice_blocks(window, _pair_subset(window, data), 1):
            assert LatticeAnimal(block.animal.sites) == block.animal

    def test_a_toy_m0_3_window_labels_twice(self, monkeypatch):
        # One labelling closes the level-0 bad cells and one finds the
        # lattice blocks; the window's one 9-cell block is not labelled again.
        calls = []
        label = ndimage.label
        monkeypatch.setattr(ndimage, "label", lambda *a, **k: calls.append(1) or label(*a, **k))
        h = build_hierarchy(named_profile("toy-m0-3"), "Y", derive_seed(3, 0xA0, 0),
                            Rect(0, 0, 3, 3))
        assert [b.size for b in h.levels[1].blocks] == [9]
        assert len(calls) == 2

    def test_partition(self):
        window = Rect(0, 0, 4, 4)
        blocks = form_lattice_blocks(window, np.empty((0, 4), dtype=np.int64), 1)
        assert len(blocks) == 16
        assert {c for b in blocks for c in b.animal.sites} == set(window.cells())

    def test_no_conjoined_edge_labels_nothing(self, monkeypatch):
        # Every cell is its own block in least-cell order, at the caller's
        # level, with no labelling.
        def refused(*args, **kwargs):
            raise AssertionError("labelled a grid with no conjoined edge")

        monkeypatch.setattr(ndimage, "label", refused)
        window = Rect(-1, 2, 4, 5)
        none = np.empty((0, 4), dtype=np.int64)
        blocks = form_lattice_blocks(window, none, 2)
        assert [b.animal.sites for b in blocks] == [frozenset([c]) for c in sorted(window.cells())]
        assert all(b.level == 2 for b in blocks)
        assert form_lattice_blocks(Rect(0, 0, 0, 0), none, 1) == []

    @pytest.mark.parametrize("rows", [
        [(1, 0, 0, 0)],  # a left step
        [(0, 1, 0, 0)],  # a down step
        [(0, 0, 1, 1)],  # a diagonal step
        [(0, 0, 0, 0)],  # no step
        [(0, 0, 2, 0)],  # a step of two
        [(2, 0, 3, 0)],  # u' right of the window
        [(0, 2, 0, 3)],  # u' above the window
        [(-1, 0, 0, 0)],  # u left of the window
        [(0, -1, 0, 0)],  # u below the window
        [(0, 0, 1, 0), (1, 1, 0, 1)],  # one bad row among good ones
    ])
    def test_a_bad_row_is_refused(self, rows):
        with pytest.raises(PreconditionError, match="right or up steps"):
            form_lattice_blocks(Rect(0, 0, 3, 3), np.array(rows, dtype=np.int64), 1)

    @pytest.mark.parametrize("rows", [
        np.zeros((2, 3), dtype=np.int64),
        np.zeros(4, dtype=np.int64),
        np.zeros((1, 2, 4), dtype=np.int64),
        np.array([(0.0, 0.0, 1.0, 0.0)]),
    ])
    def test_a_wrong_shape_is_refused(self, rows):
        with pytest.raises(PreconditionError, match=r"not \(m, 4\) integers"):
            form_lattice_blocks(Rect(0, 0, 3, 3), rows, 1)


class TestCurves:
    def test_family_size_single_cell(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0)]))
        # 4 edges, 4 vertices: (2k0)^4 * (4k0)^4.
        k2 = 2 * toy1.k0
        assert curve_family_size(a, 1, toy1) == k2**4 * (2 * k2) ** 4

    def test_family_size_bound(self, toy1):
        # |family| <= (8 k0)^(16 |U| k0^2) for small animals.
        for sites in ([(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)]):
            a = LatticeAnimal(frozenset(sites))
            bound = (8 * toy1.k0) ** (16 * len(sites) * toy1.k0**2)
            assert curve_family_size(a, 1, toy1) <= bound

    def test_straight_realization_tiles_ideal(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0), (1, 0)]))
        edges, vertices = _family(a, 1, toy1)
        domain = _realized(a, toy1, {v: (1, 1) for v in vertices},
                           {e: 1 for e in edges})
        r = toy1.cells_per_side(1)
        expected = {(x, y) for u in a.sites
                    for x in range(u[0] * r, (u[0] + 1) * r)
                    for y in range(u[1] * r, (u[1] + 1) * r)}
        assert domain == frozenset(expected)

    def test_offset_edge_matches_region_difference(self, toy1):
        # Pushing one edge out by delta adds exactly the strip over its middle
        # and the vertex-offset strips near its endpoints.
        a = LatticeAnimal(frozenset([(0, 0)]))
        edges, vertices = _family(a, 1, toy1)
        corner_idx = {v: (1, 1) for v in vertices}
        edge_idx = {e: 1 for e in edges}
        right = ((0, 0), "R")
        edge_idx[right] = 2  # offset +1
        domain = _realized(a, toy1, corner_idx, edge_idx)
        r, mb = toy1.cells_per_side(1), toy1.margins(1).buffer
        base = {(x, y) for x in range(r) for y in range(r)}
        strip = {(r, y) for y in range(mb, r - mb)}
        assert domain == frozenset(base | strip)

    def test_domain_within_blowup(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0)]))
        edges, vertices = _family(a, 1, toy1)
        rng = np.random.default_rng(0)
        r, mb = toy1.cells_per_side(1), toy1.margins(1).buffer
        blowup = Rect(-mb, -mb, r + mb, r + mb)
        interior = Rect(mb, mb, r - mb, r - mb)
        k2 = 2 * toy1.k0
        for _ in range(50):
            corner_idx = {v: (int(rng.integers(1, k2 + 1)), int(rng.integers(1, 3)))
                          for v in vertices}
            edge_idx = {e: int(rng.integers(1, k2 + 1)) for e in edges}
            domain = _realized(a, toy1, corner_idx, edge_idx)
            assert all(blowup.contains_cell(c) for c in domain)
            assert all(c in domain for c in interior.cells())

    def test_straight_preference_without_obstructions(self, toy1):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        curves = [select_boundary_curve(lb, [], toy1, key, 1) for key in range(500)]
        assert all(c.is_straight for c in curves)

    def test_planted_obstruction_cleared(self, toy1):
        # A bad cell on the straight boundary forces a perturbed curve that
        # still clears it by the configured clearance.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        obstruction = _unit_bad((0, 7))
        clearance = toy1.margins(1).clearance
        for key in range(50):
            curve = select_boundary_curve(lb, [obstruction], toy1, key, 1)
            assert not curve.is_straight
            assert curve_clearance(curve.domain, [obstruction]) >= clearance

    def test_region_boundary_loops_square(self):
        domain = frozenset((x, y) for x in range(2) for y in range(2))
        loops = region_boundary_loops(domain)
        assert len(loops) == 1
        assert set(loops[0]) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    @pytest.mark.parametrize("domain, expected", [
        ({(0, 0), (1, 1)},
         (((0, 0), (1, 0), (1, 1), (0, 1)), ((1, 1), (2, 1), (2, 2), (1, 2)))),
        ({(0, 0), (1, 0), (2, 1)},
         (((0, 0), (2, 0), (2, 1), (0, 1)), ((2, 1), (3, 1), (3, 2), (2, 2)))),
    ])
    def test_region_boundary_loops_pinch(self, domain, expected):
        # Two cells meeting only at a corner: one loop around each side.
        assert region_boundary_loops(frozenset(domain)) == expected

    @given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_region_boundary_loops_cover_boundary_once(self, domain):
        domain = frozenset(domain)
        expected = []
        for x, y in domain:
            for edge, across in ((((x, y), (x + 1, y)), (x, y - 1)),
                                 (((x + 1, y), (x + 1, y + 1)), (x + 1, y)),
                                 (((x + 1, y + 1), (x, y + 1)), (x, y + 1)),
                                 (((x, y + 1), (x, y)), (x - 1, y))):
                if across not in domain:
                    expected.append(edge)
        assert sorted(_unit_edges(region_boundary_loops(domain))) == sorted(expected)

    @given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_region_boundary_loops_unchanged_without_pinches(self, cells):
        domain = _pinch_free(cells)
        assert region_boundary_loops(domain) == _region_boundary_loops_ref(domain)

    def test_domain_boundary_cells_square(self):
        domain = frozenset((x, y) for x in range(3) for y in range(3))
        assert domain_boundary_cells(domain) == domain - {(1, 1)}

    @given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_domain_boundary_cells_match_reference(self, domain):
        domain = frozenset(domain)
        assert domain_boundary_cells(domain) == _domain_boundary_cells_ref(domain)

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_realize_domain_matches_reference(self, params, data):
        animal, corner, edge = data.draw(_curve_choices(params))
        assert _realized(animal, params, corner, edge) == _realize_domain_ref(
            animal, 1, params, corner, edge)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_clearance_predicate_matches_reference(self, data):
        # Obstructions reach past the frame, whose clipping must not matter.
        animal, corner, edge = data.draw(_curve_choices(TOY1))
        frame = curve_frame(animal, 1, TOY1)
        mask = realize_domain(frame, corner, edge)
        cells = data.draw(_cells_around(frame, 12))
        bad = [_unit_bad(c) for c in cells]
        clearance = TOY1.margins(1).clearance
        assert _clears(mask, _forbidden(frame, bad, clearance)) == (
            curve_clearance(frame.cells(mask), bad) >= clearance)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_blocked_edge_is_exact(self, data):
        # Exhaustive at k0 = 1: when the predicate fires, no curve clears.
        frame, boundaries = _k1_single_cell_boundaries()
        cells = data.draw(st.sets(st.tuples(st.integers(-3, 18), st.integers(-3, 18)),
                                  min_size=1, max_size=6))
        forbidden = _forbidden(frame, [_unit_bad(c) for c in cells],
                               TOY1_K1.margins(1).clearance)
        assume(_edge_blocked(frame, forbidden))
        assert (boundaries & forbidden).any(axis=(1, 2)).all()

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_middle_rows_lie_on_the_outline(self, params, data):
        # Whatever the other indices, an edge's middle-segment row at its
        # own offset is boundary of the realized domain.
        animal, corner, edge = data.draw(_curve_choices(params))
        frame = curve_frame(animal, 1, params)
        outline = frame.cells(_boundary(realize_domain(frame, corner, edge)))
        for e in frame.edges:
            assert set(_middle_rows(frame, e, _offset_of_index(edge[e]))) <= outline

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_blocked_edge_reads_every_track(self, params, data):
        # One forbidden cell on each track row of one edge blocks it; with
        # any one of them gone, nothing is blocked.
        frame = curve_frame(data.draw(_animals()), 1, params)
        k2 = 2 * params.k0
        e = data.draw(st.sampled_from(frame.edges))
        cells = [data.draw(st.sampled_from(_middle_rows(frame, e, _offset_of_index(i))))
                 for i in range(1, k2 + 1)]
        assert _edge_blocked(frame, _raster(frame, cells))
        gone = data.draw(st.integers(0, k2 - 1))
        assert not _edge_blocked(frame, _raster(frame, cells[:gone] + cells[gone + 1:]))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocked_edge_never_when_straight_clears(self, data):
        frame = curve_frame(data.draw(_animals()), 1, TOY1)
        cells = data.draw(_cells_around(frame, 12))
        forbidden = _forbidden(frame, [_unit_bad(c) for c in cells], TOY1.margins(1).clearance)
        straight = realize_domain(frame, {v: (1, 1) for v in frame.vertices},
                                  {e: 1 for e in frame.edges})
        assert not (_clears(straight, forbidden) and _edge_blocked(frame, forbidden))

    def test_blocked_block_raises_before_sampling(self, toy1, monkeypatch):
        # Bad cells across every track of the right edge: no curve exists,
        # and the selection raises before it counts or draws.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))

        def fail(*args):
            raise AssertionError("counted a blocked block")

        monkeypatch.setattr(hierarchy, "_contract", fail)
        with pytest.raises(CurveSelectionError, match="no valid boundary curve exists"):
            select_boundary_curve(lb, [_unit_bad(c) for c in ((15, 8), (17, 8))],
                                  toy1, 0, 1)


class TestCurveCount:
    @given(st.data())
    @settings(max_examples=8, deadline=None)
    def test_count_matches_brute_force_one_cell(self, data):
        # All 4096 assignments of a one-cell block at k0 = 1.
        frame = curve_frame(LatticeAnimal(frozenset([(0, 0)])), 1, TOY1_K1)
        forbidden = _raster(frame, data.draw(_outline_cells(frame, 3)))
        assert _curve_count(frame, forbidden) == _brute_count(
            frame, forbidden, frame.vertices, frame.edges)

    @given(st.sampled_from([[(0, 0), (1, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]]),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_count_matches_brute_force_near_a_vertex(self, shape, data):
        # Two-cell and L-shaped blocks at k0 = 1, forbidden cells near one
        # vertex: the vertex, its edges and their far vertices vary, 4**3 *
        # 2**2 assignments.
        animal = LatticeAnimal(frozenset(shape))
        frame = curve_frame(animal, 1, TOY1_K1)
        v = data.draw(st.sampled_from(frame.vertices))
        forbidden = _raster(frame, data.draw(_outline_cells(frame, 3, (v, frame.mb + frame.k0))))
        edges = [e for e in frame.edges if v in _edge_vertices(e, frame.r)]
        vertices = sorted({w for e in edges for w in _edge_vertices(e, frame.r)})
        assert _curve_count(frame, forbidden) == _brute_count(frame, forbidden, vertices, edges)

    @given(_factor_cases())
    @example(_TWO_COLOUR_CASE)
    @settings(max_examples=60, deadline=None)
    def test_factors_multiply_to_validity(self, case):
        # Forbidden cells on the outline of one assignment: at that
        # assignment, at every assignment one index away from it and at
        # random ones, the product of the factors is the validity.
        params, animal, corner, edge, cells, others = case
        frame = curve_frame(animal, 1, params)
        forbidden = _raster(frame, cells)
        factors = _curve_factors(frame, forbidden)
        k2 = 2 * params.k0
        nearby = [({**corner, v: (ell, s)}, edge) for v in frame.vertices
                  for ell in range(1, k2 + 1) for s in (1, 2)]
        nearby += [(corner, {**edge, e: i}) for e in frame.edges for i in range(1, k2 + 1)]
        for c, e in nearby + others:
            assert _factor_product(frame, factors, c, e) == _clears(
                realize_domain(frame, c, e), forbidden)

    @given(st.sampled_from([TOY1, TOY1_K3, TOY1_K1]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_masked_factors_count_and_draw_as_unmasked(self, params, data):
        # Leaving out forbidden cells with no scope drops only factors of no
        # variable that hold: the count and every draw stay the same.
        frame = curve_frame(data.draw(_animals(_SHAPES + [_PINCHED])), 1, params)
        clearance = params.margins(1).clearance
        boxes = data.draw(_planted_boxes(frame, clearance))
        forbidden = _forbidden(frame, [_bad_component(b) for b in boxes], clearance)
        factors, unmasked = _curve_factors(frame, forbidden), _curve_factors_unmasked(
            frame, forbidden)
        assert all(table.item() for scope, table in unmasked if not scope)
        kept = [(scope, table) for scope, table in unmasked if scope]
        assert [scope for scope, _ in factors] == [scope for scope, _ in kept]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(factors, kept))
        count, steps = _contract(factors, frame.sizes)
        count_unmasked, steps_unmasked = _contract(unmasked, frame.sizes)
        assert count == count_unmasked
        if count:
            for key in data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3)):
                assert (_draw_assignment(steps, frame.sizes, _words(key))
                        == _draw_assignment(steps_unmasked, frame.sizes, _words(key)))

    @pytest.mark.parametrize("params", [TOY1, TOY1_K3, TOY1_K1], ids=["k2", "k3", "k1"])
    def test_planted_boxes_forbid_scopeless_cells(self, params):
        # The differential above plants boxes whose cells have no scope: a
        # box deep inside a one-cell block, and cells past each frame edge.
        frame = curve_frame(LatticeAnimal(frozenset([(0, 0)])), 1, params)
        clearance = params.margins(1).clearance
        inner = ndimage.binary_erosion(frame.ideal, np.ones((3, 3), dtype=bool),
                                       iterations=frame.k0 + clearance + 1)
        ys, xs = np.nonzero(inner)
        h, w = frame.ideal.shape
        past = clearance - 1
        boxes = [Rect(xs.min() + frame.x0, ys.min() + frame.y0,
                      xs.max() + frame.x0 + 1, ys.max() + frame.y0 + 1),
                 Rect(frame.x0 - past, frame.y0 + 5, frame.x0 - past + 1, frame.y0 + 6),
                 Rect(frame.x0 + w - 1 + past, frame.y0 + h - 1 + past,
                      frame.x0 + w + past, frame.y0 + h + past)]
        for box in boxes:
            forbidden = _forbidden(frame, [_bad_component(box)], clearance)
            assert forbidden.any() and not (forbidden & frame.scoped).any()
            assert _curve_factors(frame, forbidden) == []
            assert [scope for scope, _ in _curve_factors_unmasked(frame, forbidden)] == [()]

    @given(st.sampled_from([TOY1, TOY1_K3, TOY1_K1]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cell_scopes_hold_every_index_that_moves_a_cell(self, params, data):
        # Changing one index changes the boundary status only of cells whose
        # scope holds that index.
        frame = curve_frame(data.draw(_animals(_SHAPES + [_PINCHED])), 1, params)
        scopes = _cell_scopes(frame).reshape(3, -1)
        corner, edge = data.draw(_indices(frame))
        before = _boundary(realize_domain(frame, corner, edge)).ravel()
        k2 = 2 * params.k0
        for x, v in enumerate(frame.vertices):
            state = data.draw(st.sampled_from(
                [(ell, s) for ell in range(1, k2 + 1) for s in (1, 2) if (ell, s) != corner[v]]))
            moved = _boundary(realize_domain(frame, {**corner, v: state}, edge)).ravel() != before
            assert (scopes[:, moved] == x).any(axis=0).all()
        for x, e in enumerate(frame.edges, start=len(frame.vertices)):
            i = data.draw(st.sampled_from([i for i in range(1, k2 + 1) if i != edge[e]]))
            moved = _boundary(realize_domain(frame, corner, {**edge, e: i})).ravel() != before
            assert (scopes[:, moved] == x).any(axis=0).all()

    @given(st.sampled_from([TOY1, TOY1_K3, TOY1_K1]), _animals(_SHAPES + [_PINCHED]))
    @settings(max_examples=60, deadline=None)
    def test_cell_scopes_match_reference(self, params, animal):
        frame = curve_frame(animal, 1, params)
        h, w = frame.ideal.shape
        ys, xs = (a.ravel() for a in np.mgrid[0:h, 0:w])
        assert np.array_equal(_cell_scopes(frame).reshape(3, -1),
                              np.stack(_cell_scopes_ref(frame, ys, xs)))

    @pytest.mark.parametrize("shape, v", [(_SHAPES[1], (16, 16)), (_SHAPES[2], (32, 32))])
    def test_two_edge_cells_at_a_concave_corner(self, shape, v):
        # At k0 = mb the outward strips of a concave corner's two edges meet:
        # forbid the cells near it that both reach, and count against the
        # brute force over the corner and its edges.
        frame = curve_frame(LatticeAnimal(frozenset(shape)), 1, TOY1_K3)
        assert set(frame.tables[1].values()) == {0, 1}  # two edge colours
        h, w = frame.ideal.shape
        ys, xs = (a.ravel() for a in np.mgrid[0:h, 0:w])
        _, lo, hi = _cell_scopes(frame).reshape(3, -1)
        both = ((lo >= 0) & (lo != hi) & (abs(xs + frame.x0 - v[0]) <= frame.mb + frame.k0)
                & (abs(ys + frame.y0 - v[1]) <= frame.mb + frame.k0))
        assert both.any()
        forbidden = np.zeros_like(frame.ideal)
        forbidden[ys[both], xs[both]] = True
        edges = [e for e in frame.edges if v in _edge_vertices(e, frame.r)]
        assert _curve_count(frame, forbidden) == _brute_count(frame, forbidden, [v], edges)

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_blocked_edge_reads_the_edge_factors(self, params, data):
        # An all-false edge factor is the row-by-row blocked edge, and no
        # curve is valid then; every false entry is one the factor tables
        # rule out too.
        frame = curve_frame(data.draw(_animals(_SHAPES + [_PINCHED])), 1, params)
        forbidden = _raster(frame, data.draw(_cells_around(frame, 40)))
        blocked = _edge_blocked(frame, forbidden)
        assert blocked == _blocked_edge_ref(frame, forbidden, 2 * params.k0)
        factors = _curve_factors(frame, forbidden)
        corner, edge = data.draw(_indices(frame))
        for e, f in _edge_factors(frame, forbidden).items():
            for i in np.flatnonzero(~f).tolist():
                assert not _factor_product(frame, factors, corner, {**edge, e: i + 1})
        if blocked:
            assert _curve_count(frame, forbidden) == 0

    def test_count_without_bad_cells_is_the_family_size(self):
        for animal in (_SHAPES[0], _SHAPES[2], _PINCHED):
            frame = curve_frame(LatticeAnimal(frozenset(animal)), 1, TOY1)
            assert _curve_count(frame, np.zeros_like(frame.ideal)) == curve_family_size(
                LatticeAnimal(frozenset(animal)), 1, TOY1)

    def test_contract_sums_a_cycle(self):
        # Three two-state variables on a cycle, each pair unequal: none.
        ne = np.array([[False, True], [True, False]])
        assert _contract([((0, 1), ne), ((1, 2), ne), ((0, 2), ne)], [2, 2, 2])[0] == 0
        assert _contract([((0, 1), ne), ((1, 2), ne)], [2, 2, 2, 5])[0] == 10

    # Target seeds of the ten level-1 trials of estimate-l1-toy1 (seed 1,
    # items 1-100) whose block {(1, 1)} has no edge blocked on every track
    # yet no curve was found; counts from enumerating all 2**20 assignments.
    FUTILE_TARGETS = {
        11802693454003433696: 0, 4886134052447959575: 0, 3163779586740611331: 0,
        16392776005298054927: 0, 12206845312523714862: 0, 6196704347490519625: 0,
        15883531645252787833: 0, 18099999912603604144: 0, 3583140666337361999: 0,
        13511787533275398868: 1536,
    }

    def test_futile_blocks_of_the_benchmark(self, toy1):
        animal = LatticeAnimal(frozenset([(1, 1)]))
        frame = curve_frame(animal, 1, toy1)
        window0 = level0_window_for(Rect(1, 1, 2, 2), toy1)
        for seed, count in self.FUTILE_TARGETS.items():
            level0 = build_level0(toy1, "Y", seed, window0)
            forbidden = _forbidden(frame, level0.bad_components, toy1.margins(1).clearance)
            assert not _edge_blocked(frame, forbidden)
            assert _curve_count(frame, forbidden) == count

    def test_count_zero_raises_without_realizing(self, toy1, monkeypatch):
        # Seed 100008's futile block: the tables count no valid curve, and
        # the selection raises with no realization.
        level0 = build_level0(toy1, "Y", 11802693454003433696,
                              level0_window_for(Rect(1, 1, 2, 2), toy1))
        curve_frame(LatticeAnimal(frozenset([(1, 1)])), 1, toy1)  # straight realized
        calls = []
        realize = realize_domain
        monkeypatch.setattr(hierarchy, "realize_domain",
                            lambda *a: calls.append(1) or realize(*a))
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(1, 1)])))
        with pytest.raises(CurveSelectionError, match="no valid boundary curve exists"):
            select_boundary_curve(lb, level0.bad_components, toy1, 0, 1)
        assert calls == []

    def test_the_1536_curve_block_gets_a_valid_curve(self, toy1):
        # The benchmark's block with 1 536 valid curves, under the key
        # build_level1 gives it, which a capped scan once missed.
        seed = 13511787533275398868
        level0 = build_level0(toy1, "Y", seed, level0_window_for(Rect(1, 1, 2, 2), toy1))
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(1, 1)])))
        key = derive_seed(seed, 0xC0DE, 1, 1, 1)
        curve = _checked_selection(lb, level0.bad_components, toy1, key)
        assert not curve.is_straight


def _chi2_z(counts, cells: int) -> float:
    """The chi-squared statistic of draws spread over ``cells`` equally
    likely cells (``counts`` lists the drawn ones), in standard deviations
    of its null distribution from the mean."""
    n = sum(counts)
    expect = n / cells
    chi2 = sum((c - expect) ** 2 for c in counts) / expect + (cells - len(counts)) * expect
    return (chi2 - (cells - 1)) / (2 * (cells - 1)) ** 0.5


class TestCurveSampler:
    """``_draw_assignment`` against enumerated valid curves, and the
    selection's raise against the brute-force count."""

    def test_uniform_over_a_one_cell_block(self):
        # k0 = 1 with a bad cell at (-2, -2): 3 072 of the 4 096 curves
        # clear it; 20 000 draws hit valid ones only, evenly.
        frame, boundaries = _k1_single_cell_boundaries()
        forbidden = _forbidden(frame, [_unit_bad((-2, -2))], TOY1_K1.margins(1).clearance)
        valid = ~(boundaries & forbidden).any(axis=(1, 2))
        count, steps = _contract(_curve_factors(frame, forbidden), frame.sizes)
        assert count == valid.sum() == 3072
        nv, ne = len(frame.vertices), len(frame.edges)
        # Position of an assignment in the enumeration of the boundary stack.
        place = np.array([4 ** (nv - 1 - i) for i in range(nv)]
                         + [4 ** nv * 2 ** (ne - 1 - i) for i in range(ne)])
        drawn = np.array([_draw_assignment(steps, frame.sizes, _words(key))
                          for key in range(20_000)]) @ place
        assert valid[drawn].all()
        assert abs(_chi2_z(np.unique(drawn, return_counts=True)[1].tolist(), 3072)) < 4

    def test_uniform_over_the_1536_curve_block(self, toy1):
        # 15 360 draws over the benchmark block's 1 536 valid curves, each
        # valid by the factor product, ten per curve on average.
        seed = 13511787533275398868
        level0 = build_level0(toy1, "Y", seed, level0_window_for(Rect(1, 1, 2, 2), toy1))
        animal = LatticeAnimal(frozenset([(1, 1)]))
        frame = curve_frame(animal, 1, toy1)
        forbidden = _forbidden(frame, level0.bad_components, toy1.margins(1).clearance)
        factors = _curve_factors(frame, forbidden)
        count, steps = _contract(factors, frame.sizes)
        assert count == 1536
        drawn: dict = {}
        for key in range(15_360):
            row = tuple(_draw_assignment(steps, frame.sizes, _words(key)))
            drawn[row] = drawn.get(row, 0) + 1
        for row in drawn:
            assert all(bool(table[tuple(row[x] for x in scope)]) for scope, table in factors)
        assert abs(_chi2_z(list(drawn.values()), 1536)) < 4

    @given(_factor_cases(), st.integers(0, 2**64 - 1))
    @example(_TWO_COLOUR_CASE, 0)
    @settings(max_examples=60, deadline=None)
    def test_every_draw_is_valid(self, case, key):
        params, animal, corner, edge, cells, _ = case
        frame = curve_frame(animal, 1, params)
        forbidden = _raster(frame, cells)
        count, steps = _contract(_curve_factors(frame, forbidden), frame.sizes)
        assume(count)
        row = _draw_assignment(steps, frame.sizes, _words(key))
        corner = {v: (st // 2 + 1, st % 2 + 1) for v, st in zip(frame.vertices, row)}
        edge = {e: st + 1 for e, st in zip(frame.edges, row[len(frame.vertices):])}
        assert _clears(realize_domain(frame, corner, edge), forbidden)

    @given(st.sets(st.tuples(st.integers(-4, 19), st.integers(-4, 19)), min_size=1,
                   max_size=10), st.integers(0, 2**64 - 1))
    @example({(14, 8), (17, 8)}, 0)  # the right edge blocked
    @settings(max_examples=100, deadline=None)
    def test_raises_exactly_at_count_zero(self, cells, key):
        # A one-cell block at k0 = 1 with bad cells around it: the
        # selection raises exactly when none of the 4 096 curves clears.
        frame, boundaries = _k1_single_cell_boundaries()
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        forbidden = _forbidden_ref(frame, cells, TOY1_K1.margins(1).clearance)
        count = _curve_count(frame, forbidden)
        assert count == (~(boundaries & forbidden).any(axis=(1, 2))).sum()
        try:
            select_boundary_curve(lb, [_unit_bad(c) for c in cells], TOY1_K1, key, 1)
        except CurveSelectionError:
            assert count == 0
        else:
            assert count > 0

    @pytest.mark.parametrize("n, words, want", [
        (1, [], 0),
        (3, [5], 2),
        (3, [2**64 - 1, 5], 2),  # 2**64 - 1 is past the last multiple of 3
        (2**64, [2**64 - 1], 2**64 - 1),
        (2**64 + 1, [0, 7], 7),  # two words a try, high word first
        (2**64 + 1, [2**64 - 1, 2**64 - 1, 1, 0], 2**64),
    ])
    def test_below_reads_whole_tries(self, n, words, want):
        # Each try reads as many words as n - 1 has 64-bit digits, and one
        # that reaches the largest multiple of n below 2**(64 * digits) is
        # drawn again; every word given is read.
        stream = iter(words)
        assert _below(n, stream) == want
        assert next(stream, None) is None

    @pytest.mark.parametrize("cells", [[(0, 7)], [(13, 8), (17, 8), (8, 15), (15, 15)]])
    def test_one_key_one_curve(self, toy1, cells):
        # A key gives one curve, from a cold frame cache or a warm one;
        # over 20 keys the curves differ.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_unit_bad(c) for c in cells]
        hierarchy._cached_frame.cache_clear()
        cold = [select_boundary_curve(lb, bad, toy1, key, 1) for key in range(20)]
        warm = [select_boundary_curve(lb, bad, toy1, key, 1) for key in range(20)]
        assert cold == warm
        assert len(set(cold)) > 1


class TestCurveTables:
    """Curve selection through the frame cache and the factor tables,
    checked against the references that realize curves cell by cell."""

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_selection_matches_reference(self, params, data):
        animal = data.draw(_animals(_SHAPES[:2]))
        frame = curve_frame(animal, 1, params)
        cells = data.draw(_outline_cells(frame, 12))
        _checked_selection(LatticeBlock(1, animal), [_unit_bad(c) for c in cells], params,
                           data.draw(st.integers(0, 2**64 - 1)))

    def test_benchmark_blocks_match_reference(self, toy1):
        # The futile blocks raise exactly when their enumerated count is 0,
        # each under the key build_level1 gives it.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(1, 1)])))
        window0 = level0_window_for(Rect(1, 1, 2, 2), toy1)
        for seed, count in TestCurveCount.FUTILE_TARGETS.items():
            comps = build_level0(toy1, "Y", seed, window0).bad_components
            got = _checked_selection(lb, comps, toy1, derive_seed(seed, 0xC0DE, 1, 1, 1))
            assert isinstance(got, str) == (count == 0)

    @pytest.mark.parametrize("cells, seeds", [
        ([(0, 7)], range(4)),  # many valid curves
        ([(13, 8), (17, 8), (8, 15), (15, 15)], range(8)),  # few valid curves
        ([(15, 8), (17, 8)], (0,)),  # an edge blocked on every track
    ])
    def test_planted_blocks_match_reference(self, toy1, cells, seeds):
        # Each seed is a selection key.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_unit_bad(c) for c in cells]
        for seed in seeds:
            _checked_selection(lb, bad, toy1, seed)

    @pytest.mark.parametrize("cells, seed", [
        ([(0, 7)], 0),  # many valid curves
        ([(13, 8), (17, 8), (8, 15), (15, 15)], 5),  # few valid curves
        ([(15, 8), (17, 8)], 0),  # an edge blocked on every track
    ])
    def test_selection_realizes_only_the_kept_curve(self, toy1, monkeypatch, cells, seed):
        # Validity is decided by the tables: only the kept curve is
        # realized, and a selection that raises realizes none.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        frame = curve_frame(lb.animal, 1, toy1)  # straight curve realized
        bad = [_unit_bad(c) for c in cells]
        masks = []
        realize = realize_domain
        monkeypatch.setattr(hierarchy, "realize_domain",
                            lambda *a: masks.append(realize(*a)) or masks[-1])
        try:
            curve = select_boundary_curve(lb, bad, toy1, seed, 1)
        except CurveSelectionError:
            assert masks == []
        else:
            assert [frame.cells(m) for m in masks] == [curve.domain]

    def test_second_selection_paints_nothing(self, toy1, monkeypatch):
        # Seed 100008's futile block: the first selection builds the frame's
        # tables, and the second reads them without painting a mask.
        level0 = build_level0(toy1, "Y", 11802693454003433696,
                              level0_window_for(Rect(1, 1, 2, 2), toy1))
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(1, 1)])))
        calls = []
        paint = hierarchy._paint
        monkeypatch.setattr(hierarchy, "_paint", lambda *a: calls.append(1) or paint(*a))
        for _ in range(2):
            calls.clear()
            with pytest.raises(CurveSelectionError, match="no valid boundary curve exists"):
                select_boundary_curve(lb, level0.bad_components, toy1, 0, 1)
        assert calls == []

    @pytest.mark.parametrize("mass", [None, 0.0])
    @pytest.mark.parametrize("cells", [[(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)]])
    def test_no_bad_component_selects_as_a_far_one(self, toy1, monkeypatch, mass, cells):
        # With no bad component nothing is rasterized, yet the curve is that
        # of a selection that rasterizes one bad component beyond the frame.
        # With a straight mass of 0 the straight test fails and both go on
        # to draw.
        if mass is not None:
            monkeypatch.setattr(ParameterSet, "straight_curve_mass", lambda self, j: mass)
        lb = LatticeBlock(1, LatticeAnimal(frozenset(cells)))
        far = [_unit_bad((200, 200))]
        frame = curve_frame(lb.animal, 1, toy1)
        assert not _forbidden(frame, far, toy1.margins(1).clearance).any()
        rasters = []
        monkeypatch.setattr(hierarchy, "_forbidden",
                            lambda *a: rasters.append(a[1]) or _forbidden(*a))
        for key in range(5):
            got = _selection(select_boundary_curve, lb, [], toy1, key, 1)
            assert rasters == []
            assert got == _selection(select_boundary_curve, lb, far, toy1, key, 1)
            assert rasters == [far]
            if mass is None:
                assert got == _selection(lambda: frame.straight)
            rasters.clear()

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_forbidden_matches_reference(self, params, data):
        # Boxes as level 0 builds them, or the unit boxes of a random walk's
        # cells, around the frame: some reach into it, some only come near
        # it, and boxes may overhang it.
        animal = data.draw(_animals())
        frame = curve_frame(animal, 1, params)
        h, w = frame.ideal.shape
        comps = []
        for _ in range(data.draw(st.integers(0, 10))):
            x = data.draw(st.integers(frame.x0 - 8, frame.x0 + w + 4))
            y = data.draw(st.integers(frame.y0 - 8, frame.y0 + h + 4))
            if data.draw(st.booleans()):
                bw, bh = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
                box = Rect(x, y, x + bw, y + bh)
                comps.append(_bad_component(box))
                continue
            cells = [(x, y)]
            for step in data.draw(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
                                           max_size=8)):
                cells.append((cells[-1][0] + step[0], cells[-1][1] + step[1]))
            comps += [_unit_bad(c) for c in set(cells)]
        clearance = params.margins(1).clearance
        assert np.array_equal(_forbidden(frame, comps, clearance),
                              _forbidden_ref(frame, _box_cells(comps), clearance))

    @given(st.sampled_from([TOY1, TOY1_K1, TOY1_K3]), st.sampled_from([None, 0.0]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_selection_matches_the_wider_frame(self, params, mass, data):
        # Bad boxes near and past the edges of the frame and of the frame
        # padded clearance more, some outside the reach that one read, and
        # at times cells on two curves' outlines: both selections give one
        # curve, or both raise.  With a straight mass of 0 both draw.
        animal = data.draw(_animals())
        frame = curve_frame(animal, 1, params)
        h, w = frame.ideal.shape
        past = params.margins(1).clearance + 6
        comps = []
        if data.draw(st.booleans()):
            comps += [_unit_bad(c) for c in data.draw(_outline_cells(frame, 3))]
        for _ in range(data.draw(st.integers(0, 6))):
            x = data.draw(st.integers(frame.x0 - past, frame.x0 + w + past - 1))
            y = data.draw(st.integers(frame.y0 - past, frame.y0 + h + past - 1))
            bw, bh = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
            comps.append(_bad_component(Rect(x, y, x + bw, y + bh)))
        lb, key = LatticeBlock(1, animal), data.draw(st.integers(0, 2**64 - 1))
        with pytest.MonkeyPatch.context() as mp:
            if mass is not None:
                mp.setattr(ParameterSet, "straight_curve_mass", lambda self, j: mass)
            assert _selection(select_boundary_curve, lb, comps, params, key, 1) == _selection(
                _parent_selection, lb, comps, params, key)

    @pytest.mark.parametrize("params", [TOY1_K1, TOY1, TOY1_K3], ids=["k0=1", "k0=2", "k0=3"])
    @pytest.mark.parametrize("shape", _SHAPES + [_PINCHED])
    def test_frame_holds_every_piece_read(self, params, shape):
        # Every scope piece widened by one step, every edge-factor band and
        # every corner square lies inside the frame padded k0 + 2, and no
        # slice starts below 0, where numpy would wrap; the frame's
        # outermost ring has no scope.
        frame = curve_frame(LatticeAnimal(frozenset(shape)), 1, params)
        k0, (h, w) = params.k0, frame.ideal.shape
        assert (frame.x0, frame.y0) == (min(shape)[0] * frame.r - k0 - 2,
                                        min(y for _, y in shape) * frame.r - k0 - 2)
        rects = [r for y0, y1, x0, x1 in _scope_pieces(frame)[0]
                 for r in ((y0 - 1, y1 + 1, x0, x1), (y0, y1, x0 - 1, x1 + 1))]
        for _, axis, _, line, a0, a1 in frame.bands[1::3]:
            rects.append((line - k0, line + k0, a0, a1) if axis == 0
                         else (a0, a1, line - k0, line + k0))
        for vx, vy in frame.corners:
            fx, fy = vx - frame.x0, vy - frame.y0
            rects += [(y, y + k0, x, x + k0) for y in (fy - k0, fy) for x in (fx - k0, fx)]
        for y0, y1, x0, x1 in rects:
            assert 0 <= y0 < y1 <= h and 0 <= x0 < x1 <= w
        ring = np.ones((h, w), dtype=bool)
        ring[1:-1, 1:-1] = False
        assert (_cell_scopes(frame)[:, ring] == -1).all()

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_outline_test_is_the_straight_clearance(self, params, data):
        frame = curve_frame(data.draw(_animals(_SHAPES + [_PINCHED])), 1, params)
        cells = data.draw(st.one_of(_cells_around(frame, 12), _outline_cells(frame, 3)))
        bad = [_unit_bad(c) for c in cells]
        clearance = params.margins(1).clearance
        assert (not (_forbidden(frame, bad, clearance) & frame.outline).any()) == (
            curve_clearance(frame.straight.domain, bad) >= clearance)

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cached_straight_curve_is_the_realized_one(self, params, data):
        animal = data.draw(_animals(_SHAPES + [_PINCHED]))
        frame = curve_frame(animal, 1, params)
        assert curve_frame(animal, 1, params) is frame
        corner, edge = dict.fromkeys(frame.vertices, (1, 1)), dict.fromkeys(frame.edges, 1)
        assert frame.straight == _make_curve(frame, corner, edge,
                                             realize_domain(frame, corner, edge))
        assert frame.straight.is_straight

    def test_dumps_do_not_depend_on_the_cache(self, toy1, toy_m0_2):
        cases = [(toy1, "Y", seed, Rect(0, 0, 3, 3)) for seed in (1, 4, 99)]
        cases.append((toy_m0_2, "Y", 3, Rect(0, 0, 2, 2)))
        hierarchy._cached_frame.cache_clear()
        cold = [dump_hierarchy(build_hierarchy(*case)) for case in cases]
        warm = [dump_hierarchy(build_hierarchy(*case)) for case in cases]
        assert hierarchy._cached_frame.cache_info().hits > 0
        assert cold == warm

    def test_cache_stays_at_its_maxsize(self):
        size = hierarchy.FRAME_CACHE_SIZE
        for x in range(size + 8):
            curve_frame(LatticeAnimal(frozenset([(x, 0)])), 1, TOY1)
        info = hierarchy._cached_frame.cache_info()
        assert info.maxsize == size
        assert info.currsize == size


class TestLazyPolyline:
    def test_polyline_traced_on_first_read(self, toy1, monkeypatch):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_unit_bad((0, 7))]
        calls = []
        trace = region_boundary_loops
        monkeypatch.setattr(hierarchy, "region_boundary_loops",
                            lambda d: calls.append(d) or trace(d))
        curve = select_boundary_curve(lb, bad, toy1, 2, 1)
        assert calls == []
        assert curve.polyline == region_boundary_loops(curve.domain)
        assert curve.polyline is curve.polyline
        assert calls == [curve.domain]

    def test_equality_and_hash_ignore_reading(self, toy1):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_unit_bad((0, 7))]
        a, b = (select_boundary_curve(lb, bad, toy1, 2, 1) for _ in range(2))
        other = select_boundary_curve(lb, bad, toy1, 3, 1)
        before = hash(a)
        assert a == b and hash(a) == hash(b)
        assert a.polyline
        assert hash(a) == before and a == b and hash(a) == hash(b)
        assert a != other
        assert [f for f in BoundaryCurve.__dataclass_fields__] == [
            "level", "corner_indices", "edge_indices", "domain"]

    def test_blocks_read_their_curve_s_sorted_cells(self, toy1):
        # A block cut by a curve shares its curve's sorted cell array, so
        # a straight curve's domain is sorted once per frame; a block given
        # another domain sorts its own.
        h = build_hierarchy(toy1, "X", 7, Rect(0, 0, 2, 2))
        for block in h.levels[1].blocks:
            cells = block.domain_cells
            assert cells is block.curve.cells and not cells.flags.writeable
            assert cells.tolist() == [list(c) for c in sorted(block.domain)]
        block = h.levels[1].blocks[0]
        other = Block(1, block.lattice_block, frozenset(sorted(block.domain)), block.curve)
        assert other.domain_cells is not block.curve.cells
        assert np.array_equal(other.domain_cells, block.domain_cells)


class TestBlocksAndComponents:
    def test_form_block_straight_tiles(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0)]))
        edges, vertices = _family(a, 1, toy1)
        domain = _realized(a, toy1, {v: (1, 1) for v in vertices},
                           {e: 1 for e in edges})
        block = form_block(domain, LatticeBlock(1, a), None, 1)
        assert block.domain == domain

    def test_form_block_contains_interior(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0)]))
        edges, vertices = _family(a, 1, toy1)
        rng = np.random.default_rng(3)
        k2 = 2 * toy1.k0
        r, mb = toy1.cells_per_side(1), toy1.margins(1).buffer
        interior = set(Rect(mb, mb, r - mb, r - mb).cells())
        for _ in range(20):
            corner_idx = {v: (int(rng.integers(1, k2 + 1)), int(rng.integers(1, 3)))
                          for v in vertices}
            edge_idx = {e: int(rng.integers(1, k2 + 1)) for e in edges}
            domain = _realized(a, toy1, corner_idx, edge_idx)
            block = form_block(domain, LatticeBlock(1, a), None, 1)
            assert interior <= block.domain

    def test_form_components_good_singletons(self):
        blocks = [
            _block({c}, good=True)
            for c in [(0, 0), (1, 0), (0, 1)]
        ]
        comps = form_components(blocks)
        assert len(comps) == 3
        assert all(c.status == GOOD_SINGLETON for c in comps)

    def test_form_components_merges_adjacent_bad(self):
        blocks = []
        for c, good in [((0, 0), False), ((1, 1), False), ((2, 2), True)]:
            blocks.append(_block({c}, good=good))
        # Fill the grid with good singletons so 2x2 completion has material.
        for c in [(1, 0), (0, 1), (2, 1), (1, 2)]:
            blocks.append(_block({c}, good=True))
        comps = form_components(blocks)
        big = max(comps, key=lambda c: c.size)
        # The two diagonal bad blocks merge and pull in their 2x2 squares.
        assert big.box == Rect(0, 0, 2, 2)
        assert big.status == REALLY_BAD
        assert big.bad_summary[0] == 2

    @given(_full_tilings())
    @settings(max_examples=400, deadline=None)
    def test_form_components_matches_reference(self, blocks):
        cell_owner = {c: b for b in blocks for c in b.animal.sites}
        bad = {c for b in blocks if not b.good for c in b.animal.sites}
        groups = _component_closure(bad, cell_owner.__contains__)
        grouped = set().union(*groups)
        expected = groups + [{c} for c in cell_owner if c not in grouped]
        expected.sort(key=min)
        comps = form_components(blocks)
        assert [set(c.box.cells()) for c in comps] == expected
        for comp in comps:
            members = {cell_owner[c] for c in comp.box.cells()}
            assert set(comp.blocks) == members
            bad_blocks = [b for b in members if not b.good]
            assert comp.bad_summary == (len(bad_blocks),
                                        sum(b.size for b in bad_blocks))
            assert comp.status == (REALLY_BAD if bad_blocks else GOOD_SINGLETON)

    def test_closure_past_the_blocks_rejected(self):
        # The diagonal bad pair pulls in (0, 1), which no block covers.
        blocks = [_block({(0, 0)}, good=False), _block({(1, 1)}, good=False),
                  _block({(1, 0)}, good=True)]
        with pytest.raises(PreconditionError, match="no block covers"):
            form_components(blocks)

    def test_undecided_goodness_rejected(self):
        b = _block({(0, 0)}, good=None)
        with pytest.raises(PreconditionError):
            form_components([b])


class TestDriver:
    def test_deterministic_dump(self, toy1):
        a = dump_hierarchy(build_hierarchy(toy1, "Y", 99, Rect(0, 0, 2, 2)))
        b = dump_hierarchy(build_hierarchy(toy1, "Y", 99, Rect(0, 0, 2, 2)))
        assert a == b

    @pytest.mark.parametrize("family", ["Z", "x", ""])
    def test_unknown_family_is_refused(self, toy1, family):
        # Only X and Y are families: any other name is refused before a
        # field is sampled, never built as a target family under its name.
        with pytest.raises(ConfigError, match=f"unknown family {family!r}"):
            build_hierarchy(toy1, family, 3, Rect(0, 0, 1, 1))
        with pytest.raises(ConfigError, match=f"unknown family {family!r}"):
            build_level0(toy1, family, 3, Rect(0, 0, 4, 4))

    @pytest.mark.parametrize("window1", [Rect(0, 0, 65537, 1), Rect(-3, 5, -2, 65542)])
    def test_window_past_the_curve_key_span_is_refused_unsampled(self, toy1, monkeypatch,
                                                                  window1):
        # Blocks 65 536 cells apart would share a curve key.  A source-family
        # window that wide is under the site cap and is refused for the key;
        # a target-family one stays over the cap, and an unknown family
        # stays unknown.  No site is sampled either way.
        def fail(*args):
            raise AssertionError("sampled a refused window")

        monkeypatch.setattr(hierarchy.fields_mod, "sample_field", fail)
        with pytest.raises(ConfigError, match="spans more than 65536 cells"):
            build_hierarchy(toy1, "X", 3, window1)
        with pytest.raises(CapExceeded, match="exceeds cap"):
            build_hierarchy(toy1, "Y", 3, window1)
        with pytest.raises(ConfigError, match="unknown family 'Z'"):
            build_hierarchy(toy1, "Z", 3, window1)
        # One cell less goes on to sample its field.
        narrower = Rect(window1.x0, window1.y0, min(window1.x1, window1.x0 + 65536),
                        min(window1.y1, window1.y0 + 65536))
        with pytest.raises(AssertionError, match="sampled a refused window"):
            build_hierarchy(toy1, "X", 3, narrower)

    def test_blocks_partition_window(self, toy1):
        h = build_hierarchy(toy1, "Y", 4, Rect(0, 0, 3, 3))
        cells = [c for b in h.levels[1].blocks for c in b.animal.sites]
        assert sorted(cells) == sorted(Rect(0, 0, 3, 3).cells())

    def test_edge_blocks_censored(self, toy1):
        h = build_hierarchy(toy1, "Y", 4, Rect(0, 0, 3, 3))
        for b in h.levels[1].blocks:
            touches_edge = any(
                x in (0, 2) or y in (0, 2) for x, y in b.animal.sites
            )
            assert b.censored == touches_edge

    def test_source_family_blocks_good(self, toy1):
        h = build_hierarchy(toy1, "X", 4, Rect(0, 0, 2, 2))
        assert all(b.good for b in h.levels[1].blocks)

    @given(st.integers(0, 2**32), st.integers(-3, 3), st.integers(-3, 3))
    @example(7, 0x10000 + 1, 2)
    @example(7, 1, -0x10000 - 5)
    @settings(max_examples=25, deadline=None)
    def test_block_curve_is_the_one_cell_hierarchy_block(self, seed, x, y):
        # Cutting the one target block over a cell gives the single block a
        # 1x1 hierarchy builds; that block is censored, a placeholder is
        # never good, and any other block is classified as usual.  The
        # curve is the one a key made of the cell's low 16 bits selects.
        h = build_hierarchy(TOY1, "Y", seed, Rect(x, y, x + 1, y + 1))
        (block,) = h.levels[1].blocks
        curve, placeholder = hierarchy.block_curve(block.lattice_block, h.level0, seed, True)
        assert block.censored
        assert (curve, curve.domain) == (block.curve, block.domain)
        key = derive_seed(seed, 0xC0DE, 1, x & 0xFFFF, y & 0xFFFF)
        if placeholder:
            assert curve == curve_frame(block.animal, 1, TOY1).straight and not block.good
            with pytest.raises(CurveSelectionError):
                select_boundary_curve(block.lattice_block, h.level0.bad_components, TOY1, key, 1)
        else:
            assert curve == select_boundary_curve(block.lattice_block,
                                                  h.level0.bad_components, TOY1, key, 1)
            assert block.good == classify_good_block(block.lattice_block, block.domain,
                                                      h.level0)

    def test_construction_reads_no_numpy_generator(self, monkeypatch):
        # Hierarchies of both families and direct curve selections run
        # with numpy's generator constructor refused, and leave the global
        # generator as they found it.
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy generator was constructed")

        state = np.random.get_state()
        monkeypatch.setattr(np.random, "default_rng", refuse)
        for family in "XY":
            for seed in range(6):
                h = build_hierarchy(TOY1, family, seed, Rect(0, 0, 3, 3))
                for block in h.levels[1].blocks:
                    curve, _ = hierarchy.block_curve(block.lattice_block, h.level0, seed,
                                                     block.censored)
                    assert curve == block.curve
        after = np.random.get_state()
        assert after[0] == state[0] and np.array_equal(after[1], state[1])
        assert after[2:] == state[2:]
