"""Lattice-animal geometry, neighborhoods, and cell/buffer geometry.

All geometry is stored in integer units of level-0 cells; level-0 cells are
unit squares of the block index lattice.  Rectangles are half-open in cell
units: ``Rect(x0, y0, x1, y1)`` covers cells with x0 <= x < x1 and
y0 <= y < y1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np
from scipy import ndimage

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


def chebyshev(a: Point, b: Point) -> int:
    """Close-packed (king-move) distance between two lattice points."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


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
    bounding-box mask.  An animal built by ``filled`` is a rectangle's
    cells, connected by construction, and keeps the rectangle as ``box``;
    any other has ``box`` None.  ``box`` takes no part in ``==`` or hashing.
    """

    sites: frozenset[Point]
    box: Optional[Rect] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", frozenset(self.sites))
        if not self.sites:
            raise ConfigError("a lattice animal must be nonempty")
        if len(self.sites) > 1 and ndimage.label(cell_mask(self.sites)[0])[1] != 1:
            raise ConfigError("a lattice animal must be connected")

    @classmethod
    def filled(cls, rect: Rect) -> LatticeAnimal:
        """The cells of a nonempty rectangle, not re-checked."""
        if rect.x1 <= rect.x0 or rect.y1 <= rect.y0:
            raise ConfigError("a lattice animal must be nonempty")
        animal = object.__new__(cls)
        cells = itertools.product(range(rect.x0, rect.x1), range(rect.y0, rect.y1))
        object.__setattr__(animal, "sites", frozenset(cells))
        object.__setattr__(animal, "box", rect)
        return animal

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, p: Point) -> bool:
        return p in self.sites

    def __iter__(self):
        return iter(sorted(self.sites))

    def bounding_box(self) -> tuple[int, int, int, int]:
        if self.box is not None:
            return self.box.x0, self.box.y0, self.box.x1 - 1, self.box.y1 - 1
        xs = [p[0] for p in self.sites]
        ys = [p[1] for p in self.sites]
        return min(xs), min(ys), max(xs), max(ys)


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


@dataclass(frozen=True)
class CellGeometry:
    """Region, interior, and blow-up squares of one cell."""

    level: int
    index: Point
    region: Rect
    interior: Rect
    blowup: Rect
    margin: int


def cell_geometry(j: int, u: Point, params: ParameterSet) -> CellGeometry:
    """Geometry of the level-j cell at index u, in level-0 cell units.

    The interior and blow-up are inset/outset from the region by the
    buffer margin (level 0 has no buffers and uses margin 0).
    """
    side = params.cell_side(j)
    margin = params.margins(j).buffer if j >= 1 else 0
    region = Rect(u[0] * side, u[1] * side, (u[0] + 1) * side, (u[1] + 1) * side)
    return CellGeometry(j, u, region, region.inset(margin), region.outset(margin), margin)


_SIDE_STEPS = {"T": (0, 1), "B": (0, -1), "L": (-1, 0), "R": (1, 0)}


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
    if side not in _SIDE_STEPS:
        raise ConfigError(f"unknown side {side!r}")
    geo = cell_geometry(j, u, params)
    m = geo.margin
    r = geo.region
    if side == "T":
        rect = Rect(r.x0 - m, r.y1 - m, r.x1 + m, r.y1 + m)
    elif side == "B":
        rect = Rect(r.x0 - m, r.y0 - m, r.x1 + m, r.y0 + m)
    elif side == "L":
        rect = Rect(r.x0 - m, r.y0 - m, r.x0 + m, r.y1 + m)
    else:
        rect = Rect(r.x1 - m, r.y0 - m, r.x1 + m, r.y1 + m)
    dx, dy = _SIDE_STEPS[side]
    return BufferZone(j, u, side, rect, (u[0] + dx, u[1] + dy))


def outer_buffers(animal: LatticeAnimal, j: int, params: ParameterSet) -> list[BufferZone]:
    """Side buffers shared with cells outside the animal, in sorted order."""
    out = []
    for u in animal:
        for side in ("B", "L", "R", "T"):
            zone = buffer_zone(j, u, side, params)
            if zone.shared_with not in animal:
                out.append(zone)
    return out
