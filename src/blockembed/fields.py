"""Bernoulli site fields, level-0 block classification, and serialization.

Fields are pure functions of (seed, family, site): every bit is produced by
a counter-based hash of its absolute coordinate, so overlapping windows of
the same seed agree and sampling parallelizes trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, ConfigError
from .params import ParameterSet

FORMAT_VERSION = 1

# Cap on the number of sites in one sampled window.
SITE_CAP = 1 << 26

# The field families, X the source and Y the target, and their hash tags.
FAMILY_TAGS = {"X": 0x58, "Y": 0x59}

_U64 = np.uint64
_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array of ndim >= 1: numpy wraps
    array arithmetic silently but warns on scalar overflow."""
    z = z.copy()
    _mix64_into(z, np.empty_like(z))
    return z ^ (z >> _U64(31))


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """``_mix64`` in place over the uint64 array ``z`` up to its second
    multiply, with ``tmp`` of the same shape as scratch: no array is
    allocated.  The finished word is ``z ^ (z >> 31)``."""
    z += _U64(_GOLDEN)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=tmp)
        z ^= tmp
        z *= _U64(mul)


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer of one value in [0, 2**64), in int arithmetic."""
    z = (z + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def check_family(family: str) -> None:
    """Raise ConfigError unless ``family`` is one of ``FAMILY_TAGS``."""
    if family not in FAMILY_TAGS:
        raise ConfigError(f"unknown family {family!r}")


def check_site_cap(width: int, height: int) -> None:
    """Raise CapExceeded when a width x height window exceeds ``SITE_CAP`` sites."""
    if width * height > SITE_CAP:
        raise CapExceeded(f"window of {width * height} sites exceeds cap {SITE_CAP}")


def site_bits(seed: int, family: str, xs, ys) -> np.ndarray:
    """Fair-coin bits for absolute sites (xs, ys); broadcasts like numpy."""
    check_family(family)
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    prefix = _mix64_int((seed & _M64) ^ _mix64_int(FAMILY_TAGS[family]))
    h = _mix64(np.atleast_1d(xs).astype(_U64) ^ _U64(prefix))
    h = _mix64(h ^ np.atleast_1d(ys).astype(_U64))
    return ((h >> _U64(31)) & _U64(1)).astype(np.uint8).reshape(shape)


def derive_seed(seed: int, *counters: int) -> int:
    """Derive an independent 64-bit subseed from a seed and counters."""
    h = seed & _M64
    for c in counters:
        h = _mix64_int(h ^ (c & _M64))
    return h


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


class WindowHash:
    """The bits of one window of sites under a stack of seeds.

    ``bits(seeds)`` returns the (len(seeds), height, width) uint8 stack
    whose layer t is the window's bits under ``seeds[t]``, hashed as
    ``site_bits`` hashes each site.  Its two uint64 work buffers hold
    ``depth`` >= 1 layers and are reused by every call; a call with more
    than ``depth`` seeds raises ConfigError.
    """

    def __init__(self, family: str, origin: tuple[int, int], width: int, height: int,
                 depth: int = 1):
        if width < 1 or height < 1:
            raise ConfigError("window dimensions must be positive")
        if depth < 1:
            raise ConfigError(f"hash depth {depth} holds no seed")
        check_site_cap(width, height)
        check_family(family)
        self._tag = _mix64_int(FAMILY_TAGS[family])
        self._xs = np.arange(origin[0], origin[0] + width, dtype=np.int64).astype(_U64)
        self._ys = np.arange(origin[1], origin[1] + height, dtype=np.int64).astype(_U64)[:, None]
        self._h, self._tmp = (np.empty((depth, height, width), _U64) for _ in range(2))

    def bits(self, seeds) -> np.ndarray:
        if len(seeds) > len(self._h):
            raise ConfigError(f"{len(seeds)} seeds exceed the hash depth {len(self._h)}")
        h, tmp = self._h[:len(seeds)], self._tmp[:len(seeds)]
        prefix = np.array([_mix64_int((s & _M64) ^ self._tag) for s in seeds], dtype=_U64)
        np.bitwise_xor(_mix64(self._xs ^ prefix[:, None])[:, None, :], self._ys, out=h)
        _mix64_into(h, tmp)
        # Bit 31 of the finished z ^ (z >> 31) is bit 31 of z xor bit 62.
        h &= _U64(1 << 31 | 1 << 62)
        out = np.bitwise_count(h)
        out &= 1
        return out


def sample_field(
    seed: int,
    family: str,
    origin: tuple[int, int],
    width: int,
    height: int,
) -> BitField:
    """Sample a window of i.i.d. fair bits determined by (seed, family, site)."""
    bits = WindowHash(family, origin, width, height).bits([seed])[0]
    return BitField(family, tuple(origin), width, height, seed, bits)


def good_threshold(m0: int) -> int:
    """Minimum count of the rarer symbol for a Good block (ceiling of M0^2/3)."""
    return -((m0 * m0) // -3)


# The class of a level-0 target block, Good, Zero or One, as its int8 code.
GRID_GOOD, GRID_ZERO, GRID_ONE = 0, 1, 2


def classify_grid(field: BitField, params: ParameterSet) -> np.ndarray:
    """Classify every aligned M0 x M0 block of a sampled target window.

    The window must start at a block boundary and span whole blocks.
    Returns an int8 grid of codes GRID_GOOD, GRID_ZERO and GRID_ONE,
    indexed [block y, block x], read from ``code_table``.
    """
    m0 = params.M0
    if field.origin[0] % m0 or field.origin[1] % m0:
        raise ConfigError("window origin must align to the block lattice")
    if field.width % m0 or field.height % m0:
        raise ConfigError("window must span whole blocks")
    return code_table(m0).take(block_ones(field.bits, m0))


def block_ones(bits: np.ndarray, m0: int) -> np.ndarray:
    """Ones in every aligned m0 x m0 block of a (..., H, W) stack of bit
    windows whose sides are multiples of m0, as a (..., H/m0, W/m0) array.

    Block rows are summed over an (..., H/m0, m0, W) view, then block
    columns with m0 - 1 strided adds of every m0-th column, which beat a
    reduce over a trailing axis of length m0.  Counts are in the narrowest
    dtype that holds m0 * m0: uint8 up to m0 = 15, int16 up to m0 = 181
    and int64 above that.
    """
    *stack, h, w = bits.shape
    rows = np.add.reduce(bits.reshape(*stack, h // m0, m0, w), axis=-2, dtype=count_dtype(m0))
    if m0 == 1:
        return rows
    out = np.add(rows[..., 0::m0], rows[..., 1::m0])
    for k in range(2, m0):
        out += rows[..., k::m0]
    return out


def count_dtype(m0: int) -> type:
    """The dtype ``block_ones`` counts an m0 x m0 block in."""
    return np.uint8 if m0 * m0 < 1 << 8 else np.int16 if m0 * m0 < 1 << 15 else np.int64


def block_codes(ones: np.ndarray, m0: int) -> np.ndarray:
    """Class codes of M0 x M0 blocks from their counts of ones: an int8
    array of GRID_GOOD, GRID_ZERO and GRID_ONE of the same shape."""
    n = m0 * m0
    zeros = n - ones
    good = np.minimum(ones, zeros) >= good_threshold(m0)
    out = np.where(ones >= zeros, GRID_ONE, GRID_ZERO).astype(np.int8)
    out[good] = GRID_GOOD
    return out


@lru_cache(maxsize=None)
def code_table(m0: int) -> np.ndarray:
    """``block_codes`` of every count 0 .. m0 * m0, read-only, built once
    per M0: ``code_table(m0)[ones]`` classifies blocks of those counts."""
    table = block_codes(np.arange(m0 * m0 + 1), m0)
    table.flags.writeable = False
    return table


def level0_embeds(x_bit: int, code: int) -> bool:
    """Whether a single source bit embeds into a target block of this code."""
    return code == GRID_GOOD or code == (GRID_ONE if x_bit else GRID_ZERO)


# The level-0 rule as a table: ACCEPTS[bit, code] is whether a source bit
# embeds into a target block of grid code GRID_GOOD, GRID_ZERO or GRID_ONE.
ACCEPTS = np.array([[level0_embeds(bit, code) for code in (GRID_GOOD, GRID_ZERO, GRID_ONE)]
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
    check_family(family)
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
