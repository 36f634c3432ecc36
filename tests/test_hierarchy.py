"""Recursive block structure: components, buffers, curves, blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockembed.errors import ConfigError, PreconditionError
from blockembed.fields import Y0Class
from blockembed.hierarchy import (
    GOOD_SINGLETON,
    REALLY_BAD,
    SEMI_BAD,
    Block,
    BoundaryCurve,
    Component,
    LatticeBlock,
    _label_groups,
    _level0_bad_components,
    boundary_family,
    build_hierarchy,
    build_level0,
    curve_clearance,
    curve_family_size,
    domain_boundary_cells,
    dump_hierarchy,
    exact_level0_status,
    form_block,
    form_components,
    form_lattice_blocks,
    is_conjoined,
    level0_window_for,
    nonneighbouring_bad_subset,
    realize_domain,
    region_boundary_loops,
    select_boundary_curve,
)
from blockembed.lattice import LatticeAnimal, Rect, buffer_zone, neighbors


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


def _helper_groups(cells, allowed=None) -> list:
    """Groups of ``_label_groups`` over the bounding box of its input.

    ``allowed`` defaults to the whole box.  Groups come back as cell sets
    ordered by their least cell, like the reference.
    """
    pts = set(cells) | set(allowed or ())
    x0, y0 = min(x for x, _ in pts), min(y for _, y in pts)
    shape = (max(y for _, y in pts) - y0 + 1, max(x for x, _ in pts) - x0 + 1)
    mask = np.zeros(shape, dtype=bool)
    for x, y in cells:
        mask[y - y0, x - x0] = True
    if allowed is None:
        allow = np.ones(shape, dtype=bool)
    else:
        allow = np.zeros(shape, dtype=bool)
        for x, y in allowed:
            allow[y - y0, x - x0] = True
    labels = _label_groups(mask, allow)
    groups: dict = {}
    for y, x in zip(*np.nonzero(labels)):
        groups.setdefault(labels[y, x], set()).add((int(x) + x0, int(y) + y0))
    return sorted(groups.values(), key=min)


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


def _block(cells, good, level=1):
    cells = frozenset(cells)
    return Block(level, LatticeBlock(level, LatticeAnimal(cells)), cells, cells,
                 good=good)


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


def _singleton_bad_component(cells, status=REALLY_BAD):
    blocks = tuple(
        Block(0, LatticeBlock(0, LatticeAnimal(frozenset([c]))),
              frozenset([c]), frozenset([c]), good=False)
        for c in sorted(cells)
    )
    return Component(0, LatticeAnimal(frozenset(cells)), blocks, status,
                     (len(cells), len(cells)))


class TestLevel0:
    def test_source_family_all_good(self, toy1):
        s = build_level0(toy1, "X", 5, Rect(0, 0, 10, 10))
        assert s.bad_components == []
        assert s.is_good((3, 3))
        assert s.bit_at((0, 0)) in (0, 1)

    def test_target_family_classes(self, toy1):
        s = build_level0(toy1, "Y", 5, Rect(0, 0, 10, 10))
        assert all(isinstance(s.class_at(c), Y0Class) for c in s.window.cells())

    def test_bad_components_cover_all_bad_cells(self, toy1):
        s = build_level0(toy1, "Y", 5, Rect(0, 0, 30, 30))
        covered = set()
        for comp in s.bad_components:
            covered |= comp.animal.sites
        bad = {c for c in s.window.cells() if not s.is_good(c)}
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
                   min_size=1, max_size=60),
           st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_label_groups_matches_reference(self, bad, extra):
        # Cells outside ``allowed`` clip the 2x2 fill.
        allowed = bad | extra
        assert _helper_groups(bad, allowed) == _component_closure(
            bad, lambda c: c in allowed)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(-5, 5),
           st.integers(-5, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_level0_components_match_reference(self, toy1, w, h, x0, y0, data):
        codes = data.draw(st.lists(st.sampled_from([0, 0, 1, 2]),
                                   min_size=w * h, max_size=w * h))
        grid = np.array(codes, dtype=np.int8).reshape(h, w)
        window = Rect(x0, y0, x0 + w, y0 + h)
        bad = {(x0 + x, y0 + y) for y in range(h) for x in range(w) if grid[y, x]}
        comps = _level0_bad_components(grid, window, toy1)
        expected = _component_closure(bad, window.contains_cell)
        assert [set(c.animal.sites) for c in comps] == expected
        for comp, cells in zip(comps, expected):
            n_bad = len(cells & bad)
            assert comp.bad_summary == (n_bad, n_bad)
            assert comp.status == exact_level0_status(len(cells), False, toy1)
            assert comp.censored == any(
                not window.contains_cell(n)
                for c in cells for n in neighbors(c, "close_packed"))
            assert [b.animal.sites for b in comp.blocks] == [
                frozenset([c]) for c in sorted(cells)]
            assert [b.good for b in comp.blocks] == [
                c not in bad for c in sorted(cells)]

    def test_exact_level0_status_toy_never_semibad(self, toy1):
        # 2^-V is always far below the toy semi-bad threshold.
        for v in range(1, 5):
            assert exact_level0_status(v, False, toy1) == REALLY_BAD
        assert exact_level0_status(1, True, toy1) == GOOD_SINGLETON

    def test_iter_components_partitions_window(self, toy1):
        s = build_level0(toy1, "Y", 8, Rect(0, 0, 12, 12))
        cells = []
        for comp in s.iter_components():
            cells.extend(comp.animal.sites)
        inside = [c for c in cells if s.window.contains_cell(c)]
        assert sorted(inside) == sorted(set(inside))
        assert set(cells) >= set(s.window.cells())


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

    def test_semibad_small_total_does_not_conjoin(self, toy1):
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        s.bad_components = [
            _singleton_bad_component([(z.rect.x0, z.rect.y0)], status=SEMI_BAD)
        ]
        assert not is_conjoined(z, s)

    def test_total_above_k0_conjoins(self, toy1):
        s = build_level0(toy1, "X", 5, level0_window_for(Rect(0, 0, 2, 2), toy1))
        z = buffer_zone(1, (0, 0), "R", toy1)
        cells1 = [(z.rect.x0, z.rect.y0), (z.rect.x0 + 1, z.rect.y0)]
        cells2 = [(z.rect.x0, z.rect.y0 + 4)]
        s.bad_components = [
            _singleton_bad_component(cells1, status=SEMI_BAD),
            _singleton_bad_component(cells2, status=SEMI_BAD),
        ]
        assert toy1.k0 == 2 and is_conjoined(z, s)

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
        assert sorted(b.animal.sites for b in blocks) == sorted(_flood_fill(cells, edges))

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
        edges, vertices = boundary_family(a, 1, toy1)
        domain = realize_domain(a, 1, toy1,
                                {v: (1, 1) for v in vertices},
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
        edges, vertices = boundary_family(a, 1, toy1)
        corner_idx = {v: (1, 1) for v in vertices}
        edge_idx = {e: 1 for e in edges}
        right = ((0, 0), "R")
        edge_idx[right] = 2  # offset +1
        domain = realize_domain(a, 1, toy1, corner_idx, edge_idx)
        r, mb = toy1.cells_per_side(1), toy1.margins(1).buffer
        base = {(x, y) for x in range(r) for y in range(r)}
        strip = {(r, y) for y in range(mb, r - mb)}
        assert domain == frozenset(base | strip)

    def test_domain_within_blowup(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0)]))
        edges, vertices = boundary_family(a, 1, toy1)
        rng = np.random.default_rng(0)
        r, mb = toy1.cells_per_side(1), toy1.margins(1).buffer
        blowup = Rect(-mb, -mb, r + mb, r + mb)
        interior = Rect(mb, mb, r - mb, r - mb)
        k2 = 2 * toy1.k0
        for _ in range(50):
            corner_idx = {v: (int(rng.integers(1, k2 + 1)), int(rng.integers(1, 3)))
                          for v in vertices}
            edge_idx = {e: int(rng.integers(1, k2 + 1)) for e in edges}
            domain = realize_domain(a, 1, toy1, corner_idx, edge_idx)
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

    def test_domain_boundary_cells_square(self):
        domain = frozenset((x, y) for x in range(3) for y in range(3))
        assert domain_boundary_cells(domain) == domain - {(1, 1)}


class TestBlocksAndComponents:
    def test_form_block_straight_tiles(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0)]))
        edges, vertices = boundary_family(a, 1, toy1)
        domain = realize_domain(a, 1, toy1,
                                {v: (1, 1) for v in vertices},
                                {e: 1 for e in edges})
        block = form_block(domain, LatticeBlock(1, a), None, 1)
        assert block.member_cells == domain

    def test_form_block_contains_interior(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0)]))
        edges, vertices = boundary_family(a, 1, toy1)
        rng = np.random.default_rng(3)
        k2 = 2 * toy1.k0
        r, mb = toy1.cells_per_side(1), toy1.margins(1).buffer
        interior = set(Rect(mb, mb, r - mb, r - mb).cells())
        for _ in range(20):
            corner_idx = {v: (int(rng.integers(1, k2 + 1)), int(rng.integers(1, 3)))
                          for v in vertices}
            edge_idx = {e: int(rng.integers(1, k2 + 1)) for e in edges}
            domain = realize_domain(a, 1, toy1, corner_idx, edge_idx)
            block = form_block(domain, LatticeBlock(1, a), None, 1)
            assert interior <= block.member_cells

    def test_form_components_good_singletons(self):
        blocks = [
            Block(1, LatticeBlock(1, LatticeAnimal(frozenset([c]))),
                  frozenset([c]), frozenset([c]), good=True)
            for c in [(0, 0), (1, 0), (0, 1)]
        ]
        comps = form_components(blocks)
        assert len(comps) == 3
        assert all(c.status == GOOD_SINGLETON for c in comps)

    def test_form_components_merges_adjacent_bad(self):
        blocks = []
        for c, good in [((0, 0), False), ((1, 1), False), ((2, 2), True)]:
            blocks.append(Block(1, LatticeBlock(1, LatticeAnimal(frozenset([c]))),
                                frozenset([c]), frozenset([c]), good=good))
        # Fill the grid with good singletons so 2x2 completion has material.
        for c in [(1, 0), (0, 1), (2, 1), (1, 2)]:
            blocks.append(Block(1, LatticeBlock(1, LatticeAnimal(frozenset([c]))),
                                frozenset([c]), frozenset([c]), good=True))
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

    def test_undecided_goodness_rejected(self):
        b = Block(1, LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)]))),
                  frozenset([(0, 0)]), frozenset([(0, 0)]))
        with pytest.raises(PreconditionError):
            form_components([b])

    def test_nonneighbouring_subset_bound(self):
        # ceil(k/25) guaranteed for any bad component of size k.
        for w in range(1, 6):
            cells = [(x, y) for x in range(w) for y in range(w)]
            comp = _singleton_bad_component(cells)
            subset = nonneighbouring_bad_subset(comp)
            k = len(cells)
            assert len(subset) >= math.ceil(k / 25)
            for a in subset:
                assert not (neighbors(a, "close_packed") & (subset - {a}))


class TestDriver:
    def test_deterministic_dump(self, toy1):
        a = dump_hierarchy(build_hierarchy(toy1, "Y", 99, Rect(0, 0, 2, 2)))
        b = dump_hierarchy(build_hierarchy(toy1, "Y", 99, Rect(0, 0, 2, 2)))
        assert a == b

    def test_depth_limited(self, toy1):
        with pytest.raises(ConfigError):
            build_hierarchy(toy1, "Y", 0, Rect(0, 0, 1, 1), depth=2)

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
