"""Lattice animals, rectangles, and buffer geometry."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockembed.errors import ConfigError
from blockembed.lattice import (
    LatticeAnimal,
    Rect,
    buffer_zone,
    cell_geometry,
    neighbors,
    outer_buffers,
    shared_buffers,
)
from blockembed.params import named_profile


def is_connected(sites) -> bool:
    """Reference: a flood fill over the 4-neighbourhood."""
    sites = set(sites)
    if not sites:
        return False
    stack = [next(iter(sites))]
    seen = {stack[0]}
    while stack:
        x, y = stack.pop()
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q in sites and q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(sites)


def _is_animal(cells) -> bool:
    try:
        LatticeAnimal(frozenset(cells))
    except ConfigError as exc:
        assert str(exc) in ("a lattice animal must be nonempty",
                            "a lattice animal must be connected")
        return False
    return True


def _walk(steps):
    """Cells of a king-move walk from the origin: connected when every step
    is a lattice edge, possibly joined only at corners otherwise."""
    cells, x, y = {(0, 0)}, 0, 0
    for dx, dy in steps:
        x, y = x + dx, y + dy
        cells.add((x, y))
    return frozenset(cells)


_KING_STEPS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
_RING = {(x, y) for x in range(4) for y in range(4)} - {(1, 1), (2, 1), (1, 2), (2, 2)}


class TestNeighbors:
    def test_euclidean_count(self):
        assert len(neighbors((0, 0))) == 4

    def test_close_packed_count(self):
        assert len(neighbors((3, -2), "close_packed")) == 8

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            neighbors((0, 0), "hex")


class TestAnimals:
    def test_disconnected_rejected(self):
        with pytest.raises(ConfigError):
            LatticeAnimal(frozenset([(0, 0), (2, 0)]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            LatticeAnimal(frozenset())

    def test_diagonal_is_disconnected(self):
        with pytest.raises(ConfigError, match="connected"):
            LatticeAnimal(frozenset([(0, 0), (1, 1)]))

    def test_empty_message(self):
        with pytest.raises(ConfigError, match="a lattice animal must be nonempty"):
            LatticeAnimal(frozenset())

    @given(st.one_of(
        st.frozensets(st.tuples(st.integers(-3, 4), st.integers(-2, 5)), max_size=30),
        st.lists(st.sampled_from(_KING_STEPS), max_size=25).map(_walk),
    ))
    @example(frozenset())
    @example(frozenset([(7, -4)]))
    @example(frozenset([(0, 0), (1, 1), (2, 0), (1, -1)]))  # corners only
    @example(frozenset([(0, 0), (1, 1), (1, 0)]))
    @example(frozenset(_RING))
    @example(frozenset(_RING - {(0, 0)}))
    @example(frozenset(_RING - {(1, 0), (0, 1)}))
    @example(frozenset(_RING | {(6, 6)}))
    @settings(max_examples=300, deadline=None)
    def test_labelling_agrees_with_flood_fill(self, cells):
        assert _is_animal(cells) == is_connected(cells)


class TestRect:
    def test_half_open_contains(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_cell((0, 0)) and r.contains_cell((1, 1))
        assert not r.contains_cell((2, 0))

    def test_intersection(self):
        assert Rect(0, 0, 4, 4).intersection(Rect(2, 2, 6, 6)) == Rect(2, 2, 4, 4)
        assert Rect(0, 0, 2, 2).intersection(Rect(2, 0, 4, 2)) is None

    @given(*[st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 5), st.integers(1, 5)] * 2)
    @settings(max_examples=100, deadline=None)
    def test_meets_is_a_shared_cell(self, ax, ay, aw, ah, bx, by, bw, bh):
        a, b = Rect(ax, ay, ax + aw, ay + ah), Rect(bx, by, bx + bw, by + bh)
        shared = set(a.cells()) & set(b.cells())
        assert a.meets(b) == b.meets(a) == bool(shared)
        assert a.meets(b) == (a.intersection(b) is not None)
        assert a.area == len(list(a.cells()))

    def test_inset_outset(self):
        assert Rect(0, 0, 10, 10).inset(2) == Rect(2, 2, 8, 8)
        assert Rect(0, 0, 10, 10).outset(1) == Rect(-1, -1, 11, 11)

    def test_cells_row_major(self):
        assert list(Rect(0, 0, 2, 2).cells()) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_scaled_cells_are_the_k_by_k_squares(self, x0, y0, w, h, k):
        r = Rect(x0, y0, x0 + w, y0 + h)
        squares = {(x * k + dx, y * k + dy) for x, y in r.cells()
                   for dx in range(k) for dy in range(k)}
        assert set(r.scaled(k).cells()) == squares
        assert r.scaled(k).area == k * k * r.area


def _blowup(g):
    """A cell's blow-up: its region widened by the buffer margin."""
    return g.region.outset(g.margin)


class TestCellGeometry:
    @given(st.sampled_from(["toy1", "toy-m0-2", "toy-m0-3"]), st.integers(0, 1),
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_region_is_the_scaled_unit_cell(self, profile, j, x, y):
        p = named_profile(profile)
        side = p.cell_side(j)
        region = cell_geometry(j, (x, y), p).region
        assert region == Rect(x, y, x + 1, y + 1).scaled(side)
        assert (region.x0, region.y0, region.area) == (x * side, y * side, side * side)

    def test_level0_unit_square(self, toy1):
        g = cell_geometry(0, (3, 5), toy1)
        assert g.region == Rect(3, 5, 4, 6)
        assert g.margin == 0

    def test_level1_margins(self, toy1):
        g = cell_geometry(1, (0, 0), toy1)
        m = toy1.margins(1).buffer
        assert g.region == Rect(0, 0, 16, 16)
        assert g.margin == m

    def test_nested_tiling_cell_count(self, toy1):
        # A level-1 cell tiles into cells_per_side(1)^2 level-0 cells.
        r = toy1.cells_per_side(1)
        g = cell_geometry(1, (0, 0), toy1)
        count = sum(1 for _ in g.region.cells())
        assert count == r * r == 256

    def test_buffer_is_annulus_band(self, toy1):
        # Each side buffer is the intersection of the two adjacent blow-ups.
        z = buffer_zone(1, (0, 0), "R", toy1)
        left = _blowup(cell_geometry(1, (0, 0), toy1))
        right = _blowup(cell_geometry(1, (1, 0), toy1))
        assert z.rect == left.intersection(right)
        assert z.shared_with == (1, 0)

    def test_buffer_set_equality_all_sides(self, toy1):
        for side, nb in (("T", (0, 1)), ("B", (0, -1)), ("L", (-1, 0)), ("R", (1, 0))):
            z = buffer_zone(1, (2, 2), side, toy1)
            a = _blowup(cell_geometry(1, (2, 2), toy1))
            b = _blowup(cell_geometry(1, z.shared_with, toy1))
            assert z.rect == a.intersection(b)
            assert z.shared_with == (2 + nb[0], 2 + nb[1])

    def test_outer_buffers_count(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0), (1, 0)]))
        zones = outer_buffers(a, 1, toy1)
        # Domino has 6 outer sides.
        assert len(zones) == 6
        assert all(z.shared_with not in a for z in zones)


class TestSharedBuffers:
    @given(st.sampled_from(["toy1", "toy-m0-3", "toy-m0-6"]), st.integers(-5, 3),
           st.integers(-5, 3), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_buffer_zones(self, profile, x0, y0, w, h):
        # Right sides, then top sides, each in row-major order: every side
        # two cells of the window share, its buffer the intersection of the
        # two cells' blow-ups.
        p = named_profile(profile)
        window = Rect(x0, y0, x0 + w, y0 + h)
        want = [(u, (u[0] + dx, u[1] + dy)) for dx, dy in ((1, 0), (0, 1))
                for u in window.cells() if window.contains_cell((u[0] + dx, u[1] + dy))]
        pairs, rects = shared_buffers(1, window, p)
        assert pairs.shape == rects.shape == (len(want), 4)
        assert pairs.tolist() == [[*u, *v] for u, v in want]
        assert [Rect(*r) for r in rects.tolist()] == [
            _blowup(cell_geometry(1, u, p)).intersection(_blowup(cell_geometry(1, v, p)))
            for u, v in want]


class TestAnimalFromLabel:
    def test_equals_the_checked_animal(self):
        sites = [(0, 0), (1, 0), (1, 1)]
        animal = LatticeAnimal.from_label(iter(sites))
        assert animal == LatticeAnimal(frozenset(sites))
        assert hash(animal) == hash(LatticeAnimal(frozenset(sites)))
        assert isinstance(animal.sites, frozenset) and len(animal) == 3
