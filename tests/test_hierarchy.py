"""Recursive block structure: components, buffers, curves, blocks."""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from blockembed import hierarchy
from blockembed.errors import ConfigError, CurveSelectionError, PreconditionError
from blockembed.fields import GRID_GOOD, GRID_ONE, GRID_ZERO, derive_seed
from blockembed.hierarchy import (
    GOOD_SINGLETON,
    REALLY_BAD,
    Block,
    BoundaryCurve,
    Component,
    LatticeBlock,
    _bad_cells,
    _boundary,
    _boundary_edges,
    _cell_scopes,
    _close_boxes,
    _contract,
    _curve_factors,
    _dilate,
    _edge_factors,
    _edge_normal,
    _edge_vertices,
    _hot_edges,
    _level0_bad_components,
    _make_curve,
    _offset_of_index,
    build_hierarchy,
    build_level0,
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
    LatticeAnimal,
    Rect,
    buffer_zone,
    cell_array,
    cell_mask,
    chebyshev,
    neighbors,
)
from blockembed.params import named_profile

TOY1 = named_profile("toy1")
# k0 = buffer: the widest tracks the margins allow.
TOY1_K3 = replace(TOY1, k0=3)
# Two tracks: a single-cell block has 2**4 * 4**4 = 4096 curves.
TOY1_K1 = named_profile("toy1", k0=1)


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
    groups = [
        {(x + x0, y + y0) for x in range(sx.start, sx.stop) for y in range(sy.start, sy.stop)}
        for sy, sx in _close_boxes(mask)
    ]
    return sorted(groups, key=min)


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
        n = _edge_normal(edge[1])
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
        n1, n2 = (_edge_normal(e[1]) for e in incident)
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
    bad = [c for comp in bad_components for c in comp.animal.sites]
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
    nx, ny = _edge_normal(edge[1])
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


def _bad_cells_ref(frame, animal, bad_components):
    """Reference: the cells of every bad component with a cell in the
    blow-up's reach, tested one cell at a time."""
    r, margin = frame.r, frame.mb + frame.clearance
    x0, y0, x1, y1 = animal.bounding_box()
    reach = Rect(x0 * r - margin, y0 * r - margin, (x1 + 1) * r + margin, (y1 + 1) * r + margin)
    return _raster(frame, [
        p
        for c in bad_components
        if any(reach.contains_cell(q) for q in c.animal.sites)
        for p in c.animal.sites
    ])


def _cell_scopes_ref(frame, ys, xs) -> tuple:
    """Reference scopes of the cells (ys, xs): every band and corner
    rectangle against every cell, by Manhattan distance."""
    k0, nv = frame.k0, len(frame.vertices)
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
    y0, y1, x0, x1 = np.array(rects).T[:, :, None]
    near = (np.maximum(np.maximum(y0 - ys, ys - y1 + 1), 0)
            + np.maximum(np.maximum(x0 - xs, xs - x1 + 1), 0)) <= 1
    owner = np.array(owner)[:, None]
    edge = near & (owner >= nv)
    vertex = np.where(near & (owner < nv), owner, -1).max(axis=0)
    hi = np.where(edge, owner, -1).max(axis=0)
    lo = np.where(edge, owner, len(var)).min(axis=0)
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
    return _contract(_curve_factors(frame, forbidden), frame.sizes)


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


def _select_ref(lb, bad_components, params, rng, j=1):
    """Reference curve selection: every draw and every scan candidate is
    realized and checked, each index drawn by its own generator call."""
    frame = curve_frame(lb.animal, j, params)
    k2 = 2 * params.k0
    bad = _bad_cells(frame, lb.animal, bad_components)
    forbidden = _dilate(bad, frame.clearance - 1)
    corner_idx = {v: (1, 1) for v in frame.vertices}
    edge_idx = {e: 1 for e in frame.edges}
    mask = realize_domain(frame, corner_idx, edge_idx)
    if _clears(mask, forbidden):
        if rng.random() < params.straight_curve_mass(j):
            return _make_curve(frame, corner_idx, edge_idx, mask)
    elif _blocked_edge_ref(frame, forbidden, k2):
        raise CurveSelectionError("no valid boundary curve exists for this block")
    for _ in range(hierarchy.CURVE_SAMPLE_TRIES):
        corner = {v: (int(rng.integers(1, k2 + 1)), int(rng.integers(1, 3)))
                  for v in frame.vertices}
        edge = {e: int(rng.integers(1, k2 + 1)) for e in frame.edges}
        mask = realize_domain(frame, corner, edge)
        if _clears(mask, forbidden):
            return _make_curve(frame, corner, edge, mask)
    count = _curve_count(frame, forbidden)
    if count == 0:
        raise CurveSelectionError("no valid boundary curve exists for this block")
    hot_edges = _hot_edges(frame, bad)
    hot_vertices = sorted({v for e in hot_edges for v in _edge_vertices(e, frame.r)})
    corner_space = [(ell, s) for ell in range(1, k2 + 1) for s in (1, 2)]
    scanned = 0
    for edge_choice in itertools.product(range(1, k2 + 1), repeat=len(hot_edges)):
        for corner_choice in itertools.product(corner_space, repeat=len(hot_vertices)):
            scanned += 1
            if scanned > hierarchy.CURVE_SCAN_CAP:
                raise CurveSelectionError("no valid boundary curve found within the scan cap"
                                          f" ({count} valid curves exist)")
            corner_idx.update(zip(hot_vertices, corner_choice))
            edge_idx.update(zip(hot_edges, edge_choice))
            mask = realize_domain(frame, corner_idx, edge_idx)
            if _clears(mask, forbidden):
                return _make_curve(frame, corner_idx, edge_idx, mask)
    raise CurveSelectionError("no valid boundary curve exists for this block")


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


def _singleton_bad_component(cells):
    return Component(0, LatticeAnimal(frozenset(cells)), (), REALLY_BAD,
                     (len(cells), len(cells)))


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
        assert level1.conjoined == frozenset()
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
            covered |= comp.animal.sites
        bad = {(x, y) for y, x in zip(*np.nonzero(s.class_grid != GRID_GOOD))}
        assert bad <= covered

    def test_components_disjoint_and_separated(self, toy1):
        s = build_level0(toy1, "Y", 17, Rect(0, 0, 40, 40))
        seen = set()
        for comp in s.bad_components:
            assert not (comp.animal.sites & seen)
            seen |= comp.animal.sites
        # Distinct components are never close-packed adjacent.
        for i, a in enumerate(s.bad_components):
            for b in s.bad_components[i + 1:]:
                for c in a.animal.sites:
                    assert not (neighbors(c, "close_packed") & b.animal.sites)

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
        boxes = _close_boxes(mask)
        assert (mask == before).all()
        closed = np.zeros_like(mask)
        for box in boxes:
            closed[box] = True
        assert (mask <= closed).all()
        # Every close-packed group of the result is one of the filled boxes.
        labels, _ = ndimage.label(closed, structure=np.ones((3, 3), dtype=bool))
        assert sorted(ndimage.find_objects(labels), key=str) == sorted(boxes, key=str)
        # No two boxes lie within Chebyshev distance 1 of each other.
        for (ay, ax), (by, bx) in itertools.combinations(boxes, 2):
            gap = max(ax.start - bx.stop, bx.start - ax.stop,
                      ay.start - by.stop, by.start - ay.stop) + 1
            assert gap > 1
        # Closed under the rule: a diagonal pair fills its 2x2 square.
        a, b = closed[:-1, :-1], closed[:-1, 1:]
        c, d = closed[1:, :-1], closed[1:, 1:]
        assert not (((a & d) | (b & c)) & ~(a & b & c & d)).any()

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
        assert [set(c.animal.sites) for c in comps] == expected
        for comp, cells in zip(comps, expected):
            assert comp.animal == LatticeAnimal(frozenset(cells))
            assert set(comp.animal.box.cells()) == cells
            n_bad = len(cells & bad)
            assert comp.bad_summary == (n_bad, n_bad)
            assert comp.status == REALLY_BAD
            assert comp.censored == any(
                not window.contains_cell(n)
                for c in cells for n in neighbors(c, "close_packed"))
            assert comp.blocks == ()


class TestConjoined:
    def test_empty_buffer_not_conjoined(self, toy1):
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        assert not is_conjoined(z, s)

    def test_really_bad_component_conjoins(self, toy1):
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        s.bad_components = [_singleton_bad_component([(z.rect.x0, z.rect.y0)])]
        assert is_conjoined(z, s)

    def test_any_meeting_component_conjoins(self, toy1):
        # Every level-0 component is really-bad, so one that meets the
        # buffer conjoins, with one cell or with one cell of two straddling
        # its edge, however small its total; one beside the buffer does not.
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        r = z.rect
        beside = _singleton_bad_component([(r.x1, r.y0)])
        s.bad_components = [beside]
        assert not is_conjoined(z, s)
        for cells in ([(r.x0, r.y0)], [(r.x1 - 1, r.y1 - 1), (r.x1, r.y1 - 1)]):
            s.bad_components = [beside, _singleton_bad_component(cells)]
            assert is_conjoined(z, s)

    def test_total_above_k0_conjoins(self, toy1):
        # Components meeting the buffer with k0 + 1 cells in all conjoin,
        # split over two components or in one.
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        cells1 = [(z.rect.x0, z.rect.y0), (z.rect.x0 + 1, z.rect.y0)]
        cells2 = [(z.rect.x0, z.rect.y0 + 4)]
        s.bad_components = [
            _singleton_bad_component(cells1),
            _singleton_bad_component(cells2),
        ]
        assert toy1.k0 == 2 and is_conjoined(z, s)
        s.bad_components = [_singleton_bad_component(
            [(z.rect.x0 + 1, z.rect.y0 + k) for k in range(toy1.k0 + 1)])]
        assert is_conjoined(z, s)

    def test_requires_structure_coverage(self, toy1):
        s = build_level0(toy1, "X", 5, Rect(0, 0, 4, 4))
        z = buffer_zone(1, (5, 5), "R", toy1)
        with pytest.raises(PreconditionError):
            is_conjoined(z, s)


class TestLatticeBlocks:
    def test_flood_fill_equivalence(self, toy1):
        # form_lattice_blocks must equal an independent flood fill.
        cells = list(Rect(0, 0, 5, 5).cells())
        edges = {frozenset(((0, 0), (1, 0))), frozenset(((1, 0), (1, 1))),
                 frozenset(((3, 3), (3, 4)))}

        blocks = form_lattice_blocks(cells, lambda u, v: frozenset((u, v)) in edges)
        assert [b.animal.sites for b in blocks] == sorted(_flood_fill(cells, edges), key=min)

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_edges_match_flood_fill(self, w, h, data):
        cells = list(Rect(-2, 1, w - 2, h + 1).cells())
        internal = [frozenset((u, v)) for u in cells
                    for v in ((u[0] + 1, u[1]), (u[0], u[1] + 1)) if v in cells]
        edges = {e for e in internal if data.draw(st.booleans())}
        queried = []

        def conjoined(u, v):
            queried.append(frozenset((u, v)))
            return frozenset((u, v)) in edges

        blocks = form_lattice_blocks(cells, conjoined)
        assert len(queried) == len(internal) and set(queried) == set(internal)
        assert [b.animal.sites for b in blocks] == sorted(
            _flood_fill(cells, edges), key=min)

    def test_partition(self, toy1):
        cells = list(Rect(0, 0, 4, 4).cells())
        blocks = form_lattice_blocks(cells, lambda u, v: False)
        assert len(blocks) == 16
        assert {c for b in blocks for c in b.animal.sites} == set(cells)


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
        rng = np.random.default_rng(1)
        curves = [select_boundary_curve(lb, [], toy1, rng, 1) for _ in range(500)]
        assert all(c.is_straight for c in curves)

    def test_planted_obstruction_cleared(self, toy1):
        # A bad cell on the straight boundary forces a perturbed curve that
        # still clears it by the configured clearance.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        obstruction = _singleton_bad_component([(0, 7)])
        clearance = toy1.margins(1).clearance
        rng = np.random.default_rng(2)
        for _ in range(50):
            curve = select_boundary_curve(lb, [obstruction], toy1, rng, 1)
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
        bad = [_singleton_bad_component([c]) for c in cells]
        clearance = frame.clearance
        assert _clears(mask, _dilate(_raster(frame, cells), clearance - 1)) == (
            curve_clearance(frame.cells(mask), bad) >= clearance)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_hot_edges_match_chebyshev_rule(self, data):
        animal = data.draw(_animals())
        frame = curve_frame(animal, 1, TOY1)
        cells = data.draw(_cells_around(frame, 6))
        reach_d = frame.clearance + TOY1.k0 + 1
        expected = [e for e in frame.edges
                    if any(chebyshev(c, o) <= reach_d
                           for c in _edge_outside_cells(e, frame.r) for o in cells)]
        assert _hot_edges(frame, _raster(frame, cells)) == expected


    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_blocked_edge_is_exact(self, data):
        # Exhaustive at k0 = 1: when the predicate fires, no curve clears.
        frame, boundaries = _k1_single_cell_boundaries()
        cells = data.draw(st.sets(st.tuples(st.integers(-3, 18), st.integers(-3, 18)),
                                  min_size=1, max_size=6))
        forbidden = _dilate(_raster(frame, cells), frame.clearance - 1)
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
        forbidden = _dilate(_raster(frame, cells), frame.clearance - 1)
        straight = realize_domain(frame, {v: (1, 1) for v in frame.vertices},
                                  {e: 1 for e in frame.edges})
        assert not (_clears(straight, forbidden) and _edge_blocked(frame, forbidden))

    def test_blocked_block_raises_before_sampling(self, toy1):
        # Bad cells across every track of the right edge: no curve exists,
        # and the selection raises without drawing from its generator.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(CurveSelectionError, match="no valid boundary curve exists"):
            select_boundary_curve(lb, [_singleton_bad_component([c])
                                       for c in ((15, 8), (17, 8))], toy1, rng, 1)
        assert rng.bit_generator.state == state


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
        assert _contract([((0, 1), ne), ((1, 2), ne), ((0, 2), ne)], [2, 2, 2]) == 0
        assert _contract([((0, 1), ne), ((1, 2), ne)], [2, 2, 2, 5]) == 10

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
            bad = _bad_cells(frame, animal, level0.bad_components)
            forbidden = _dilate(bad, frame.clearance - 1)
            assert not _edge_blocked(frame, forbidden)
            assert _curve_count(frame, forbidden) == count

    def test_count_zero_raises_before_the_scan(self, toy1, monkeypatch):
        # Seed 100008's futile block: every draw decided by the tables, then
        # the count, no realization and no scan.
        level0 = build_level0(toy1, "Y", 11802693454003433696,
                              level0_window_for(Rect(1, 1, 2, 2), toy1))
        curve_frame(LatticeAnimal(frozenset([(1, 1)])), 1, toy1)  # straight realized
        calls = []
        realize = realize_domain
        monkeypatch.setattr(hierarchy, "realize_domain",
                            lambda *a: calls.append(1) or realize(*a))
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(1, 1)])))
        with pytest.raises(CurveSelectionError, match="no valid boundary curve exists"):
            select_boundary_curve(lb, level0.bad_components, toy1,
                                  np.random.default_rng(0), 1)
        assert calls == []

    def test_scan_cap_states_the_missed_count(self, toy1):
        # The benchmark's block with 1 536 valid curves: the draws of its own
        # generator (as build_level1 seeds it) and the capped scan miss them
        # all, and the error says how many there are.
        seed = 13511787533275398868
        level0 = build_level0(toy1, "Y", seed, level0_window_for(Rect(1, 1, 2, 2), toy1))
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(1, 1)])))
        rng = np.random.default_rng(derive_seed(seed, 0xC0DE, 1, 1, 1))
        with pytest.raises(CurveSelectionError, match=r"within the scan cap \(1536 valid"):
            select_boundary_curve(lb, level0.bad_components, toy1, rng, 1)


class TestCurveTables:
    """Curve selection through the frame cache and the factor tables
    against the reference that realizes every draw and scan candidate."""

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_selection_matches_reference(self, params, data):
        animal = data.draw(_animals(_SHAPES[:2]))
        frame = curve_frame(animal, 1, params)
        cells = data.draw(_outline_cells(frame, 12))
        bad = [_singleton_bad_component([c]) for c in cells]
        seed = data.draw(st.integers(0, 2**32))
        lb = LatticeBlock(1, animal)
        assert _selection(select_boundary_curve, lb, bad, params,
                          np.random.default_rng(seed), 1) == _selection(
            _select_ref, lb, bad, params, np.random.default_rng(seed), 1)

    def test_benchmark_blocks_match_reference(self, toy1):
        # The futile blocks settle by the tables (count 0) or the scan (1 536
        # valid curves missed), each under its build_level1 generator.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(1, 1)])))
        window0 = level0_window_for(Rect(1, 1, 2, 2), toy1)
        for seed in TestCurveCount.FUTILE_TARGETS:
            comps = build_level0(toy1, "Y", seed, window0).bad_components
            rng_seed = derive_seed(seed, 0xC0DE, 1, 1, 1)
            assert _selection(select_boundary_curve, lb, comps, toy1,
                              np.random.default_rng(rng_seed), 1) == _selection(
                _select_ref, lb, comps, toy1, np.random.default_rng(rng_seed), 1)

    @pytest.mark.parametrize("cells, seeds", [
        ([(0, 7)], range(4)),  # found by a draw
        ([(13, 8), (17, 8), (8, 15), (15, 15)], range(8)),  # found by the scan
        ([(15, 8), (17, 8)], (0,)),  # an edge blocked on every track
    ])
    def test_planted_blocks_match_reference(self, toy1, cells, seeds):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_singleton_bad_component([c]) for c in cells]
        for seed in seeds:
            assert _selection(select_boundary_curve, lb, bad, toy1,
                              np.random.default_rng(seed), 1) == _selection(
                _select_ref, lb, bad, toy1, np.random.default_rng(seed), 1)

    # Seed 5 of the planted scan case misses with all 200 draws, and the
    # scan finds its curve at candidate 1 544.
    SCAN_CELLS = [(13, 8), (17, 8), (8, 15), (15, 15)]

    @pytest.mark.parametrize("cap", [1543, 1544])
    def test_scan_reads_exactly_its_cap(self, toy1, monkeypatch, cap):
        monkeypatch.setattr(hierarchy, "CURVE_SCAN_CAP", cap)
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_singleton_bad_component([c]) for c in self.SCAN_CELLS]
        got = _selection(select_boundary_curve, lb, bad, toy1, np.random.default_rng(5), 1)
        assert got == _selection(_select_ref, lb, bad, toy1, np.random.default_rng(5), 1)
        assert isinstance(got, str) == (cap == 1543)

    @pytest.mark.parametrize("cells, seed", [
        ([(0, 7)], 0),  # found by a draw
        (SCAN_CELLS, 5),  # found by the scan
        ([(15, 8), (17, 8)], 0),  # an edge blocked on every track
    ])
    def test_selection_realizes_only_the_kept_curve(self, toy1, monkeypatch, cells, seed):
        # Draws and scan candidates are decided by the tables: only the kept
        # curve is realized, and a selection that raises realizes none.
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        frame = curve_frame(lb.animal, 1, toy1)  # straight curve realized
        bad = [_singleton_bad_component([c]) for c in cells]
        masks = []
        realize = realize_domain
        monkeypatch.setattr(hierarchy, "realize_domain",
                            lambda *a: masks.append(realize(*a)) or masks[-1])
        try:
            curve = select_boundary_curve(lb, bad, toy1, np.random.default_rng(seed), 1)
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
                select_boundary_curve(lb, level0.bad_components, toy1,
                                      np.random.default_rng(0), 1)
        assert calls == []

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bad_cells_match_reference(self, params, data):
        # Components grown cell by cell, or filled boxes as level 0 builds
        # them, around the frame: some reach into the blow-up's reach, some
        # only come near it, and boxes may overhang the frame.
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
                comps.append(Component(0, LatticeAnimal.filled(box), (), REALLY_BAD, (1, 1)))
                continue
            cells = [(x, y)]
            for step in data.draw(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
                                           max_size=8)):
                cells.append((cells[-1][0] + step[0], cells[-1][1] + step[1]))
            comps.append(_singleton_bad_component(set(cells)))
        assert np.array_equal(_bad_cells(frame, animal, comps),
                              _bad_cells_ref(frame, animal, comps))

    def test_tables_take_every_remaining_draw(self, toy1):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_singleton_bad_component([c]) for c in self.SCAN_CELLS]
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        select_boundary_curve(lb, bad, toy1, rng, 1)
        # Four vertices and four edges at 2 * k0 = 4 tracks.
        ref.integers(1, np.tile([5, 3] * 4 + [5] * 4, hierarchy.CURVE_SAMPLE_TRIES))
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(st.sampled_from([TOY1, TOY1_K3]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_ring_test_is_the_straight_clearance(self, params, data):
        frame = curve_frame(data.draw(_animals(_SHAPES + [_PINCHED])), 1, params)
        cells = data.draw(st.one_of(_cells_around(frame, 12), _outline_cells(frame, 3)))
        bad = _raster(frame, cells)
        straight = realize_domain(frame, {v: (1, 1) for v in frame.vertices},
                                  {e: 1 for e in frame.edges})
        assert (not (bad & frame.ring).any()) == _clears(
            straight, _dilate(bad, frame.clearance - 1))

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

    @given(st.integers(0, 2**63), st.integers(1, 6), st.integers(1, 9), st.integers(0, 9))
    @settings(max_examples=100, deadline=None)
    def test_array_bounds_draw_as_scalar_calls(self, seed, k0, nv, ne):
        # One integers() call over per-index bounds yields the values, and
        # leaves the generator state, of one call per index.
        k2 = 2 * k0
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        scalar = []
        for _ in range(3):
            for _ in range(nv):
                scalar += [int(a.integers(1, k2 + 1)), int(a.integers(1, 3))]
            scalar += [int(a.integers(1, k2 + 1)) for _ in range(ne)]
        high = np.array([k2 + 1, 3] * nv + [k2 + 1] * ne)
        assert b.integers(1, np.tile(high, 3)).tolist() == scalar
        assert a.bit_generator.state == b.bit_generator.state


class TestLazyPolyline:
    def test_polyline_traced_on_first_read(self, toy1, monkeypatch):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_singleton_bad_component([(0, 7)])]
        calls = []
        trace = region_boundary_loops
        monkeypatch.setattr(hierarchy, "region_boundary_loops",
                            lambda d: calls.append(d) or trace(d))
        curve = select_boundary_curve(lb, bad, toy1, np.random.default_rng(2), 1)
        assert calls == []
        assert curve.polyline == region_boundary_loops(curve.domain)
        assert curve.polyline is curve.polyline
        assert calls == [curve.domain]

    def test_equality_and_hash_ignore_reading(self, toy1):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        bad = [_singleton_bad_component([(0, 7)])]
        a, b = (select_boundary_curve(lb, bad, toy1, np.random.default_rng(2), 1)
                for _ in range(2))
        other = select_boundary_curve(lb, bad, toy1, np.random.default_rng(3), 1)
        before = hash(a)
        assert a == b and hash(a) == hash(b)
        assert a.polyline
        assert hash(a) == before and a == b and hash(a) == hash(b)
        assert a != other
        assert [f for f in BoundaryCurve.__dataclass_fields__] == [
            "level", "corner_indices", "edge_indices", "domain"]


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
        assert {(0, 0), (1, 1), (1, 0), (0, 1)} <= big.animal.sites
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
        assert [set(c.animal.sites) for c in comps] == expected
        for comp in comps:
            members = {cell_owner[c] for c in comp.animal.sites}
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

    def test_blocks_partition_window(self, toy1):
        h = build_hierarchy(toy1, "Y", 4, Rect(0, 0, 3, 3))
        cells = [c for b in h.levels[1].lattice_blocks for c in b.animal.sites]
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
        # curve is the one a generator keyed by the cell's low 16 bits
        # selects.
        h = build_hierarchy(TOY1, "Y", seed, Rect(x, y, x + 1, y + 1))
        (block,) = h.levels[1].blocks
        curve, placeholder = hierarchy.block_curve(block.lattice_block, h.level0, seed, True)
        assert block.censored
        assert (curve, curve.domain) == (block.curve, block.domain)
        rng = np.random.default_rng(derive_seed(seed, 0xC0DE, 1, x & 0xFFFF, y & 0xFFFF))
        if placeholder:
            assert curve == curve_frame(block.animal, 1, TOY1).straight and not block.good
            with pytest.raises(CurveSelectionError):
                select_boundary_curve(block.lattice_block, h.level0.bad_components, TOY1, rng, 1)
        else:
            assert curve == select_boundary_curve(block.lattice_block,
                                                  h.level0.bad_components, TOY1, rng, 1)
            assert block.good == classify_good_block(block, h.level0)
