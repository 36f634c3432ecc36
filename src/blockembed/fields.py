"""Bernoulli site fields, level-0 block classification, and serialization.

Fields are pure functions of (seed, family, site): every bit is produced by
a counter-based hash of its absolute coordinate, so overlapping windows of
the same seed agree and sampling parallelizes trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapExceeded, ConfigError
from .params import ParameterSet

FORMAT_VERSION = 1

# Default cap on the number of sites in one sampled window.
DEFAULT_SITE_CAP = 1 << 26

_FAMILY_TAGS = {"X": 0x58, "Y": 0x59}

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(z):
    """SplitMix64 finalizer; accepts uint64 scalars or arrays."""
    # Work on arrays of ndim >= 1 throughout: numpy wraps array arithmetic
    # silently but warns on scalar overflow.
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=_U64)) + _GOLDEN
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z[0] if scalar else z


def site_bits(seed: int, family: str, xs, ys) -> np.ndarray:
    """Fair-coin bits for absolute sites (xs, ys); broadcasts like numpy."""
    if family not in _FAMILY_TAGS:
        raise ConfigError(f"unknown family {family!r}")
    xs = np.asarray(xs, dtype=np.int64).astype(_U64)
    ys = np.asarray(ys, dtype=np.int64).astype(_U64)
    h = _mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) ^ _mix64(_FAMILY_TAGS[family]))
    h = _mix64(h ^ xs)
    h = _mix64(h ^ ys)
    return ((h >> _U64(31)) & _U64(1)).astype(np.uint8)


def derive_seed(seed: int, *counters: int) -> int:
    """Derive an independent 64-bit subseed from a seed and counters."""
    h = _U64(seed & 0xFFFFFFFFFFFFFFFF)
    for c in counters:
        h = _mix64(h ^ _U64(c & 0xFFFFFFFFFFFFFFFF))
    return int(h)


@dataclass(frozen=True)
class BitField:
    """A finite window of binary site values with seed provenance.

    ``bits`` is a (height, width) uint8 array; ``bits[iy, ix]`` is the value
    at absolute site (origin[0] + ix, origin[1] + iy).
    """

    family: str
    origin: tuple[int, int]
    width: int
    height: int
    seed: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.shape != (self.height, self.width):
            raise ConfigError("bit array does not match the declared window")

    def get(self, x: int, y: int) -> int:
        ix, iy = x - self.origin[0], y - self.origin[1]
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            raise ConfigError(f"site ({x}, {y}) outside the window")
        return int(self.bits[iy, ix])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitField):
            return NotImplemented
        return (
            self.family == other.family
            and self.origin == other.origin
            and self.width == other.width
            and self.height == other.height
            and self.seed == other.seed
            and np.array_equal(self.bits, other.bits)
        )


def sample_field(
    seed: int,
    family: str,
    origin: tuple[int, int],
    width: int,
    height: int,
    site_cap: int = DEFAULT_SITE_CAP,
) -> BitField:
    """Sample a window of i.i.d. fair bits determined by (seed, family, site)."""
    if width < 1 or height < 1:
        raise ConfigError("window dimensions must be positive")
    if width * height > site_cap:
        raise CapExceeded(f"window of {width * height} sites exceeds cap {site_cap}")
    xs = np.arange(origin[0], origin[0] + width, dtype=np.int64)
    ys = np.arange(origin[1], origin[1] + height, dtype=np.int64)
    bits = site_bits(seed, family, xs[np.newaxis, :], ys[:, np.newaxis])
    return BitField(family, tuple(origin), width, height, seed, bits)


class Y0Class(Enum):
    """Classification of a level-0 block of the target field."""

    GOOD = "Good"
    ZERO = "Zero"
    ONE = "One"


def good_threshold(m0: int) -> int:
    """Minimum count of the rarer symbol for a Good block (ceiling of M0^2/3)."""
    return -((m0 * m0) // -3)


def classify_y0_block(block_bits, params: ParameterSet) -> Y0Class:
    """Classify an M0 x M0 block as Good, Zero, or One.

    Good when both symbols reach the threshold; otherwise the majority
    symbol names the class, with ties going to One (at least as many ones
    as zeros).
    """
    bits = np.asarray(block_bits, dtype=np.uint8).ravel()
    n = params.M0 * params.M0
    if bits.size != n:
        raise ConfigError(f"expected {n} bits, got {bits.size}")
    ones = int(bits.sum())
    zeros = n - ones
    if min(ones, zeros) >= good_threshold(params.M0):
        return Y0Class.GOOD
    return Y0Class.ONE if ones >= zeros else Y0Class.ZERO


GRID_GOOD, GRID_ZERO, GRID_ONE = 0, 1, 2


def classify_grid(field: BitField, params: ParameterSet) -> np.ndarray:
    """Classify every aligned M0 x M0 block of a sampled target window.

    The window must start at a block boundary and span whole blocks.
    Returns an int8 grid of codes GRID_GOOD, GRID_ZERO and GRID_ONE,
    indexed [block y, block x].
    """
    m0 = params.M0
    if field.origin[0] % m0 or field.origin[1] % m0:
        raise ConfigError("window origin must align to the block lattice")
    if field.width % m0 or field.height % m0:
        raise ConfigError("window must span whole blocks")
    h, w = field.height // m0, field.width // m0
    ones = (
        field.bits.reshape(h, m0, w, m0).sum(axis=(1, 3)).astype(np.int64)
    )
    n = m0 * m0
    zeros = n - ones
    good = np.minimum(ones, zeros) >= good_threshold(m0)
    out = np.where(ones >= zeros, GRID_ONE, GRID_ZERO).astype(np.int8)
    out[good] = GRID_GOOD
    return out


def level0_embeds(x_bit: int, y_class: Y0Class) -> bool:
    """Whether a single source bit embeds into a target block of this class."""
    if y_class is Y0Class.GOOD:
        return True
    if x_bit == 0:
        return y_class is Y0Class.ZERO
    return y_class is Y0Class.ONE


# The level-0 rule as a table: ACCEPTS[bit, code] is whether a source bit
# embeds into a target block of grid code GRID_GOOD, GRID_ZERO or GRID_ONE.
ACCEPTS = np.array([[level0_embeds(bit, k) for k in (Y0Class.GOOD, Y0Class.ZERO, Y0Class.ONE)]
                    for bit in (0, 1)])


def dump_field(field: BitField) -> bytes:
    """Serialize a field: text header, then row-major bits packed 8 per byte."""
    header = (
        f"field {field.family} {field.origin[0]} {field.origin[1]} "
        f"{field.width} {field.height} {field.seed} {FORMAT_VERSION}\n"
    )
    packed = np.packbits(field.bits.ravel(), bitorder="little")
    return header.encode("ascii") + packed.tobytes()


def load_field(data: bytes) -> BitField:
    """Inverse of dump_field; bit-exact round trip.

    Raises ConfigError on a malformed header, an unknown family or
    version, non-positive dimensions, or a payload of the wrong length.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise ConfigError("field header has no terminating newline")
    parts = data[:newline].decode("ascii", errors="replace").split()
    if len(parts) != 8 or parts[0] != "field":
        raise ConfigError("malformed field header")
    family = parts[1]
    if family not in _FAMILY_TAGS:
        raise ConfigError(f"unknown family {family!r}")
    try:
        ox, oy, width, height, seed, version = (int(v) for v in parts[2:])
    except ValueError:
        raise ConfigError("non-integer field header value") from None
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported field format version {version}")
    if width < 1 or height < 1:
        raise ConfigError("field dimensions must be positive")
    count = width * height
    payload = data[newline + 1 :]
    expected = -(count // -8)
    if len(payload) != expected:
        raise ConfigError(
            f"payload of {len(payload)} bytes, expected {expected} for "
            f"{width}x{height} bits"
        )
    packed = np.frombuffer(payload, dtype=np.uint8)
    bits = np.unpackbits(packed, count=count, bitorder="little")
    return BitField(family, (ox, oy), width, height, seed, bits.reshape(height, width))
