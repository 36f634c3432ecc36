"""Lattice animals, rectangles, and buffer geometry."""

import pytest

from blockembed.errors import ConfigError
from blockembed.lattice import (
    LatticeAnimal,
    Rect,
    buffer_zone,
    cell_geometry,
    is_connected,
    neighbors,
    outer_buffers,
    same_shape,
)
from blockembed.params import named_profile


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

    def test_translate(self):
        a = LatticeAnimal(frozenset([(0, 0), (1, 0)]))
        assert a.translate((3, 4)).sites == frozenset([(3, 4), (4, 4)])

    def test_same_shape_translation(self):
        a = LatticeAnimal(frozenset([(0, 0), (1, 0), (1, 1)]))
        b = a.translate((-5, 2))
        assert same_shape(a, b) == (-5, 2)

    def test_different_shapes(self):
        a = LatticeAnimal(frozenset([(0, 0), (1, 0), (2, 0)]))
        b = LatticeAnimal(frozenset([(0, 0), (1, 0), (1, 1)]))
        assert same_shape(a, b) is None

    def test_diagonal_is_disconnected(self):
        assert not is_connected([(0, 0), (1, 1)])


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
