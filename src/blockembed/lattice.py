"""Lattice-animal geometry, neighborhoods, and cell/buffer geometry.

All geometry is stored in integer units of level-0 cells; level-0 cells are
unit squares of the block index lattice.  Rectangles are half-open in cell
units: ``Rect(x0, y0, x1, y1)`` covers cells with x0 <= x < x1 and
y0 <= y < y1.  A lattice animal is an arbitrary connected cell set (a
lattice block); a component, whose grouping rule fills it, is a ``Rect``.
``scipy.ndimage`` is imported only where an animal of two or more sites
is checked, so that commands which never label a grid start without scipy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .params import ParameterSet

Point = tuple[int, int]

_EUCLIDEAN_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_CLOSE_PACKED_STEPS = _EUCLIDEAN_STEPS + ((1, 1), (1, -1), (-1, 1), (-1, -1))


def neighbors(u: Point, mode: str = "euclidean") -> frozenset[Point]:
    """Neighbors of a lattice point: 4 euclidean or 8 close-packed."""
    if mode == "euclidean":
        steps = _EUCLIDEAN_STEPS
    elif mode == "close_packed":
        steps = _CLOSE_PACKED_STEPS
    else:
        raise ConfigError(f"unknown neighborhood mode {mode!r}")
    return frozenset((u[0] + dx, u[1] + dy) for dx, dy in steps)


def cell_array(cells: Iterable[Point]) -> np.ndarray:
    """Cells as an (n, 2) int64 array of (x, y) rows, in iteration order."""
    return np.fromiter(itertools.chain.from_iterable(cells), dtype=np.int64).reshape(-1, 2)


def cell_mask(cells: Iterable[Point]) -> tuple:
    """A nonempty cell set as (mask over its bounding box, x0, y0); the
    mask is indexed [y - y0, x - x0]."""
    xy = cell_array(cells)
    x0, y0 = xy.min(axis=0)
    x1, y1 = xy.max(axis=0)
    mask = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    mask[xy[:, 1] - y0, xy[:, 0] - x0] = True
    return mask, int(x0), int(y0)


@dataclass(frozen=True)
class LatticeAnimal:
    """A nonempty finite subset of the lattice, connected by lattice edges.

    Connectivity is checked with one 4-connected labelling of the set's
    bounding-box mask.
    """

    sites: frozenset[Point]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", frozenset(self.sites))
        if not self.sites:
            raise ConfigError("a lattice animal must be nonempty")
        if len(self.sites) > 1:
            from scipy import ndimage

            if ndimage.label(cell_mask(self.sites)[0])[1] != 1:
                raise ConfigError("a lattice animal must be connected")

    @classmethod
    def from_label(cls, sites: Iterable[Point]) -> "LatticeAnimal":
        """The animal of one label of a 4-connected labelling, connected by
        construction: its sites are not labelled again."""
        animal = object.__new__(cls)
        object.__setattr__(animal, "sites", frozenset(sites))
        return animal

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, p: Point) -> bool:
        return p in self.sites

    def __iter__(self):
        return iter(sorted(self.sites))

    def bounding_box(self) -> "Rect":
        xs = [p[0] for p in self.sites]
        ys = [p[1] for p in self.sites]
        return Rect(min(xs), min(ys), max(xs) + 1, max(ys) + 1)


class Rect(NamedTuple):
    """Half-open axis-aligned rectangle in level-0 cell units."""

    x0: int
    y0: int
    x1: int
    y1: int

    def contains_cell(self, p: Point) -> bool:
        return self.x0 <= p[0] < self.x1 and self.y0 <= p[1] < self.y1

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and other.x1 <= self.x1
            and other.y1 <= self.y1
        )

    @property
    def area(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def meets(self, other: "Rect") -> bool:
        """Whether two nonempty rectangles share a cell."""
        return (self.x0 < other.x1 and other.x0 < self.x1
                and self.y0 < other.y1 and other.y0 < self.y1)

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        x0, y0 = max(self.x0, other.x0), max(self.y0, other.y0)
        x1, y1 = min(self.x1, other.x1), min(self.y1, other.y1)
        if x0 < x1 and y0 < y1:
            return Rect(x0, y0, x1, y1)
        return None

    def inset(self, margin: int) -> "Rect":
        return Rect(self.x0 + margin, self.y0 + margin, self.x1 - margin, self.y1 - margin)

    def outset(self, margin: int) -> "Rect":
        return self.inset(-margin)

    def cells(self) -> Iterable[Point]:
        for y in range(self.y0, self.y1):
            for x in range(self.x0, self.x1):
                yield (x, y)

    def scaled(self, k: int) -> "Rect":
        """The same region in units k times finer: each cell becomes k x k."""
        return Rect(self.x0 * k, self.y0 * k, self.x1 * k, self.y1 * k)


@dataclass(frozen=True)
class CellGeometry:
    """Region square and buffer margin of one cell."""

    region: Rect
    margin: int


def cell_geometry(j: int, u: Point, params: ParameterSet) -> CellGeometry:
    """Geometry of the level-j cell at index u, in level-0 cell units.

    Level 0 has no buffers and uses margin 0.
    """
    margin = params.margins(j).buffer if j >= 1 else 0
    return CellGeometry(Rect(u[0], u[1], u[0] + 1, u[1] + 1).scaled(params.cell_side(j)), margin)


# The unit step out of a cell through each of its sides.
SIDE_STEPS = {"T": (0, 1), "B": (0, -1), "L": (-1, 0), "R": (1, 0)}


@dataclass(frozen=True)
class BufferZone:
    """The shared buffer rectangle on one side of a cell.

    The rectangle is the intersection of the two adjacent cells' buffer
    annuli: a strip of half-width ``margin`` centered on the shared edge,
    extended ``margin`` beyond both corners.
    """

    level: int
    owner: Point
    side: str
    rect: Rect
    shared_with: Point


def buffer_zone(j: int, u: Point, side: str, params: ParameterSet) -> BufferZone:
    """The buffer of the level-j cell at u on the given side (T/L/B/R)."""
    if side not in SIDE_STEPS:
        raise ConfigError(f"unknown side {side!r}")
    dx, dy = SIDE_STEPS[side]
    v = (u[0] + dx, u[1] + dy)
    (x0, y0), (x1, y1) = min(u, v), max(u, v)
    # The two cells' window has one shared side.
    _, rects = shared_buffers(j, Rect(x0, y0, x1 + 1, y1 + 1), params)
    return BufferZone(j, u, side, Rect(*rects[0].tolist()), v)


def shared_buffers(j: int, window: Rect, params: ParameterSet) -> tuple:
    """Every buffer that two side-adjacent level-j cells of a window share,
    as arrays: (pairs, rects).

    Row k of the (m, 4) array ``pairs`` is a cell u and its right or top
    neighbour u' (ux, uy, u'x, u'y); row k of ``rects`` is their buffer
    rectangle (x0, y0, x1, y1).  The right sides come first, then the top
    sides, each in row-major order of u.
    """
    s, m = params.cell_side(j), params.margins(j).buffer
    x0, y0, x1, y1 = window
    pairs = np.array([(x, y, x + dx, y + dy) for dx, dy in ((1, 0), (0, 1))
                      for y in range(y0, y1 - dy) for x in range(x0, x1 - dx)],
                     dtype=np.int64).reshape(-1, 4)
    # The shared side runs from s * u' to s * (u + 1), with u' = u + step:
    # the rectangle widens it by m across it and beyond both corners.
    return pairs, np.concatenate((s * pairs[:, 2:] - m, s * pairs[:, :2] + (s + m)), axis=1)


def outer_buffers(animal: LatticeAnimal, j: int, params: ParameterSet) -> list[BufferZone]:
    """Side buffers shared with cells outside the animal, in sorted order."""
    out = []
    for u in animal:
        for side in ("B", "L", "R", "T"):
            zone = buffer_zone(j, u, side, params)
            if zone.shared_with not in animal:
                out.append(zone)
    return out
