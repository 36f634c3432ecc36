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


class TestFilledAnimals:
    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_box_animal_equals_checked_animal(self, x0, y0, w, h):
        rect = Rect(x0, y0, x0 + w, y0 + h)
        box = LatticeAnimal.filled(rect)
        checked = LatticeAnimal(frozenset(rect.cells()))
        assert box.sites == checked.sites
        assert box == checked and checked == box
        assert hash(box) == hash(checked)
        assert box.bounding_box() == checked.bounding_box()
        assert box.box == rect and checked.box is None

    @pytest.mark.parametrize("rect", [Rect(0, 0, 0, 3), Rect(2, 2, 1, 4), Rect(0, 0, 0, 0)])
    def test_empty_box_rejected(self, rect):
        with pytest.raises(ConfigError, match="a lattice animal must be nonempty"):
            LatticeAnimal.filled(rect)


class TestRect:
    def test_half_open_contains(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_cell((0, 0)) and r.contains_cell((1, 1))
        assert not r.contains_cell((2, 0))

    def test_intersection(self):
        assert Rect(0, 0, 4, 4).intersection(Rect(2, 2, 6, 6)) == Rect(2, 2, 4, 4)
        assert Rect(0, 0, 2, 2).intersection(Rect(2, 0, 4, 2)) is None

    def test_inset_outset(self):
        assert Rect(0, 0, 10, 10).inset(2) == Rect(2, 2, 8, 8)
        assert Rect(0, 0, 10, 10).outset(1) == Rect(-1, -1, 11, 11)

    def test_cells_row_major(self):
        assert list(Rect(0, 0, 2, 2).cells()) == [(0, 0), (1, 0), (0, 1), (1, 1)]


class TestCellGeometry:
    def test_level0_unit_square(self, toy1):
        g = cell_geometry(0, (3, 5), toy1)
        assert g.region == Rect(3, 5, 4, 6)
        assert g.interior == g.region == g.blowup

    def test_level1_margins(self, toy1):
        g = cell_geometry(1, (0, 0), toy1)
        m = toy1.margins(1).buffer
        assert g.region == Rect(0, 0, 16, 16)
        assert g.interior == Rect(m, m, 16 - m, 16 - m)
        assert g.blowup == Rect(-m, -m, 16 + m, 16 + m)

    def test_nested_tiling_cell_count(self, toy1):
        # A level-1 cell tiles into cells_per_side(1)^2 level-0 cells.
        r = toy1.cells_per_side(1)
        g = cell_geometry(1, (0, 0), toy1)
        count = sum(1 for _ in g.region.cells())
        assert count == r * r == 256

    def test_buffer_is_annulus_band(self, toy1):
        # Each side buffer is the intersection of the two adjacent blow-ups.
        z = buffer_zone(1, (0, 0), "R", toy1)
        left = cell_geometry(1, (0, 0), toy1).blowup
        right = cell_geometry(1, (1, 0), toy1).blowup
        assert z.rect == left.intersection(right)
        assert z.shared_with == (1, 0)

    def test_buffer_set_equality_all_sides(self, toy1):
        for side, nb in (("T", (0, 1)), ("B", (0, -1)), ("L", (-1, 0)), ("R", (1, 0))):
            z = buffer_zone(1, (2, 2), side, toy1)
            a = cell_geometry(1, (2, 2), toy1).blowup
            b = cell_geometry(1, z.shared_with, toy1).blowup
            assert z.rect == a.intersection(b)
            assert z.shared_with == (2 + nb[0], 2 + nb[1])

    def test_outer_buffers_count(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0), (1, 0)]))
        zones = outer_buffers(a, 1, toy1)
        # Domino has 6 outer sides.
        assert len(zones) == 6
        assert all(z.shared_with not in a for z in zones)
