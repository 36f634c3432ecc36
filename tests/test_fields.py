"""Seeded field sampling, block classification, and serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockembed.cli import EXIT_CONFIG, main
from blockembed.errors import CapExceeded, ConfigError
from blockembed.fields import (
    ACCEPTS,
    FAMILY_TAGS,
    GRID_GOOD,
    GRID_ONE,
    GRID_ZERO,
    BitField,
    WindowHash,
    block_codes,
    block_ones,
    classify_grid,
    code_table,
    count_dtype,
    derive_seed,
    dump_field,
    good_threshold,
    _GOLDEN,
    _MIX1,
    _MIX2,
    _mix64,
    _mix64_int,
    _mix64_into,
    level0_embeds,
    load_field,
    sample_field,
    site_bits,
)
from blockembed.hierarchy import build_level0
from blockembed.lattice import Rect
from blockembed.params import named_profile


def classify_y0_block(block_bits, params) -> int:
    """Per-block reference: the grid code of an M0 x M0 block of bits.

    Good when both symbols reach the threshold; otherwise the majority
    symbol names the class, with ties going to One (at least as many ones
    as zeros).
    """
    bits = np.asarray(block_bits, dtype=np.uint8).ravel()
    n = params.M0 * params.M0
    assert bits.size == n
    ones = int(bits.sum())
    zeros = n - ones
    if min(ones, zeros) >= good_threshold(params.M0):
        return GRID_GOOD
    return GRID_ONE if ones >= zeros else GRID_ZERO


def _grid_code(block_bits, params) -> int:
    """The code ``classify_grid`` gives a window of one M0 x M0 block."""
    m0 = params.M0
    bits = np.asarray(block_bits, dtype=np.uint8).reshape(m0, m0)
    return classify_grid(BitField("Y", (0, 0), m0, m0, 0, bits), params)[0, 0]


class TestSampling:
    def test_overlapping_windows_agree(self):
        a = sample_field(7, "Y", (0, 0), 20, 20)
        b = sample_field(7, "Y", (10, 5), 20, 20)
        assert np.array_equal(a.bits[5:20, 10:20], b.bits[0:15, 0:10])

    def test_families_differ(self):
        a = sample_field(7, "X", (0, 0), 32, 32)
        b = sample_field(7, "Y", (0, 0), 32, 32)
        assert not np.array_equal(a.bits, b.bits)

    def test_seeds_differ(self):
        a = sample_field(1, "X", (0, 0), 32, 32)
        b = sample_field(2, "X", (0, 0), 32, 32)
        assert not np.array_equal(a.bits, b.bits)

    def test_fair_coin_mean(self):
        f = sample_field(3, "Y", (-100, -100), 500, 500)
        assert abs(float(f.bits.mean()) - 0.5) < 0.005

    def test_site_cap(self):
        with pytest.raises(CapExceeded):
            sample_field(0, "X", (0, 0), 1 << 14, 1 << 14)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            sample_field(0, "Z", (0, 0), 4, 4)

    def test_get_matches_site_bits(self):
        f = sample_field(11, "X", (5, -3), 8, 8)
        assert f.get(7, -1) == int(site_bits(11, "X", 7, -1))

    @given(st.integers(0, 2**63), st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=50, deadline=None)
    def test_site_bits_pure(self, seed, x, y):
        assert site_bits(seed, "Y", x, y) == site_bits(seed, "Y", x, y)

    def test_derive_seed_counter_sensitivity(self):
        seen = {derive_seed(42, t) for t in range(1000)}
        assert len(seen) == 1000

    @given(st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    @settings(max_examples=200, deadline=None)
    def test_int_mix_matches_the_array_mix(self, z):
        assert _mix64_int(z) == int(_mix64(np.array([z], dtype=np.uint64))[0])

    @given(st.integers(-2**64, 2**64 - 1),
           st.lists(st.one_of(st.sampled_from([0, -1, 2**64 - 1, -2**63]),
                              st.integers(-2**64, 2**64 - 1)), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_derive_seed_matches_the_array_mix(self, seed, counters):
        # Reference: the mix over one-element uint64 arrays, counters of any
        # sign taken mod 2**64.
        h = np.array([seed % 2**64], dtype=np.uint64)
        for c in counters:
            h = _mix64(h ^ np.uint64(c % 2**64))
        assert derive_seed(seed, *counters) == int(h[0])

    @given(st.integers(0, 2**64 - 1), st.sampled_from(sorted(FAMILY_TAGS)),
           st.integers(-2**40, 2**40), st.integers(-2**40, 2**40))
    @settings(max_examples=100, deadline=None)
    def test_site_bits_match_the_array_mix(self, seed, family, x, y):
        prefix = _mix64(np.array([seed], dtype=np.uint64)
                        ^ _mix64(np.array([FAMILY_TAGS[family]], dtype=np.uint64)))
        h = _mix64(_mix64(prefix ^ np.uint64(x % 2**64)) ^ np.uint64(y % 2**64))
        assert site_bits(seed, family, x, y) == (int(h[0]) >> 31) & 1


def _unmix_rounds(z: int) -> int:
    """The word that ``_mix64_into`` takes to ``z``: its two rounds undone."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z * pow(_MIX2, -1, 2**64) % 2**64, 27)
    z = unshift(z * pow(_MIX1, -1, 2**64) % 2**64, 30)
    return (z - _GOLDEN) % 2**64


_B31, _B62 = 1 << 31, 1 << 62


class TestParityBit:
    """A window's site bit is read off the unfinished SplitMix64 word: bit
    31 of the finished word is the parity of bits 31 and 62 of the word
    before the last xor-shift."""

    @given(st.one_of(
        st.integers(0, 2**64 - 1),
        # Words whose unfinished state sets only bit 31, only bit 62, both
        # or neither of the two, the rest of the state drawn or clear.
        st.builds(lambda rest, pair: _unmix_rounds(rest & ~(_B31 | _B62) | pair),
                  st.one_of(st.just(0), st.integers(0, 2**64 - 1)),
                  st.sampled_from([0, _B31, _B62, _B31 | _B62]))))
    @example(_unmix_rounds(0))
    @example(_unmix_rounds(_B31))
    @example(_unmix_rounds(_B62))
    @example(_unmix_rounds(_B31 | _B62))
    @example(0)
    @example(_B31)
    @example(_B62)
    @example(_B31 | _B62)
    @settings(max_examples=300, deadline=None)
    def test_popcount_parity_is_the_finished_bit(self, w):
        words = np.array([w], dtype=np.uint64)
        z = words.copy()
        _mix64_into(z, np.empty_like(z))
        assert int(z[0]) ^ (int(z[0]) >> 31) == int(_mix64(words)[0])
        parity = np.bitwise_count(z & np.uint64(_B31 | _B62)) & 1
        assert parity.dtype == np.uint8
        assert int(parity[0]) == (int(_mix64(words)[0]) >> 31) & 1

    @pytest.mark.parametrize("pair", [0, _B31, _B62, _B31 | _B62])
    def test_edge_words_reach_their_state(self, pair):
        z = np.array([_unmix_rounds(pair)], dtype=np.uint64)
        _mix64_into(z, np.empty_like(z))
        assert int(z[0]) == pair


def _classify_grid_ref(bits, m0):
    """Reference: block counts by one reshape and sum."""
    h, w = bits.shape[0] // m0, bits.shape[1] // m0
    ones = bits.reshape(h, m0, w, m0).sum(axis=(1, 3)).astype(np.int64)
    zeros = m0 * m0 - ones
    out = np.where(ones >= zeros, GRID_ONE, GRID_ZERO).astype(np.int8)
    out[np.minimum(ones, zeros) >= good_threshold(m0)] = GRID_GOOD
    return out


class TestWindowStacks:
    """A stack of windows hashed together gives each window's own bits."""

    @given(st.lists(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=7),
           st.integers(1, 4), st.sampled_from(sorted(FAMILY_TAGS)),
           st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 12), st.integers(1, 12))
    @example([0, 2**64 - 1], 1, "Y", -1, -1, 1, 1)
    @example([2**64 - 1, 0, 5, 6, 7], 3, "Y", -9, -18, 9, 18)
    @settings(max_examples=60, deadline=None)
    def test_stacked_bits_equal_each_window(self, seeds, depth, family, ox, oy, w, h):
        # Stacks of `depth` seeds through one hasher, the last one short
        # when depth does not divide the seed count.
        hasher = WindowHash(family, (ox, oy), w, h, depth)
        xs, ys = np.arange(ox, ox + w)[None, :], np.arange(oy, oy + h)[:, None]
        for start in range(0, len(seeds), depth):
            stack = hasher.bits(seeds[start:start + depth])
            assert stack.shape == (len(seeds[start:start + depth]), h, w)
            for layer, seed in zip(stack, seeds[start:start + depth]):
                assert np.array_equal(layer, site_bits(seed, family, xs, ys))
                assert np.array_equal(layer, sample_field(seed, family, (ox, oy), w, h).bits)

    @given(st.sampled_from([1, 2, 3, 6, 9]), st.integers(1, 5), st.integers(1, 4),
           st.integers(1, 4), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stacked_counts_classify_like_classify_grid(self, m0, depth, w, h, ox, oy, seed):
        p = named_profile("toy-m0-2", M0=m0)
        origin = (ox * m0, oy * m0)
        seeds = [derive_seed(seed, t) for t in range(depth)]
        stack = WindowHash("Y", origin, w * m0, h * m0, depth).bits(seeds)
        ones = block_ones(stack, m0)
        assert ones.shape == (depth, h, w)
        codes = block_codes(ones, m0)
        for t, layer in enumerate(stack):
            field = BitField("Y", origin, w * m0, h * m0, seeds[t], layer)
            assert np.array_equal(codes[t], classify_grid(field, p))
            assert np.array_equal(codes[t], _classify_grid_ref(layer, m0))

    @pytest.mark.parametrize("m0", [15, 16, 181, 182])
    def test_counts_hold_a_full_block(self, m0):
        # uint8 holds 15 * 15 ones and int16 181 * 181; a larger block
        # counts in the next wider dtype.
        ones = block_ones(np.ones((2, m0, 2 * m0), dtype=np.uint8), m0)
        assert ones.dtype == {15: np.uint8, 16: np.int16, 181: np.int16, 182: np.int64}[m0]
        assert ones.tolist() == [[[m0 * m0] * 2]] * 2

    @given(st.integers(1, 16), st.integers(0, 3), st.integers(1, 5), st.integers(1, 5),
           st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_strided_counts_match_a_reshape_sum(self, m0, depth, w, h, density, seed):
        # A single window (depth 0) or a stack of them, empty and full
        # blocks among them: the strided column adds count like one
        # reshape and sum, in the narrowest dtype.
        rng = np.random.default_rng(seed)
        shape = ((depth,) if depth else ()) + (h * m0, w * m0)
        bits = (rng.random(shape) < density).astype(np.uint8)
        ones = block_ones(bits, m0)
        assert ones.dtype == count_dtype(m0)
        ref = bits.reshape(shape[:-2] + (h, m0, w, m0)).sum(axis=(-3, -1), dtype=np.int64)
        assert ones.shape == ref.shape and np.array_equal(ones.astype(np.int64), ref)

    @pytest.mark.parametrize("m0", range(1, 17))
    def test_code_table_is_block_codes_at_every_count(self, m0):
        counts = np.arange(m0 * m0 + 1)
        table = code_table(m0)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert np.array_equal(table, block_codes(counts, m0))
        assert [int(table[n]) for n in counts] == [int(block_codes(np.array([n]), m0)[0])
                                                   for n in counts]
        assert code_table(m0) is table

    def test_depth_zero_is_refused(self):
        with pytest.raises(ConfigError, match="depth 0"):
            WindowHash("Y", (0, 0), 4, 4, 0)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_seeds_beyond_the_depth_are_refused(self, depth):
        hasher = WindowHash("Y", (0, 0), 4, 4, depth)
        with pytest.raises(ConfigError, match=f"depth {depth}"):
            hasher.bits(list(range(depth + 1)))
        assert hasher.bits(list(range(depth))).shape == (depth, 4, 4)


class TestClassification:
    def test_good_threshold_values(self):
        # ceil(M0^2 / 3) for M0 = 2, 3, 6, 9
        assert [good_threshold(m) for m in (2, 3, 6, 9)] == [2, 3, 12, 27]

    def test_all_ones_is_one(self):
        p = named_profile("toy-m0-3")
        assert _grid_code(np.ones(9), p) == classify_y0_block(np.ones(9), p) == GRID_ONE

    def test_all_zeros_is_zero(self):
        p = named_profile("toy-m0-3")
        assert _grid_code(np.zeros(9), p) == classify_y0_block(np.zeros(9), p) == GRID_ZERO

    def test_balanced_is_good(self):
        p = named_profile("toy-m0-3")
        bits = [1, 0, 1, 0, 1, 0, 1, 0, 1]
        assert _grid_code(bits, p) == classify_y0_block(bits, p) == GRID_GOOD

    def test_tie_goes_to_one(self):
        p = named_profile("toy-m0-2")
        # 2 ones, 2 zeros: both reach threshold 2, so Good, not a tie case;
        # below threshold the majority rules and exact ties resolve to One.
        assert _grid_code([1, 1, 0, 0], p) == classify_y0_block([1, 1, 0, 0], p) == GRID_GOOD
        assert _grid_code([1, 1, 1, 0], p) == classify_y0_block([1, 1, 1, 0], p) == GRID_ONE

    def test_classify_grid_matches_blockwise(self):
        p = named_profile("toy-m0-3")
        f = sample_field(5, "Y", (0, 0), 30, 30)
        grid = classify_grid(f, p)
        for by in range(10):
            for bx in range(10):
                block = f.bits[by * 3 : by * 3 + 3, bx * 3 : bx * 3 + 3]
                assert grid[by, bx] == classify_y0_block(block, p)

    @given(st.sampled_from([2, 3, 6, 9]), st.integers(0, 7), st.integers(0, 7),
           st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([0.2, 0.5, 0.8]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_classify_grid_matches_reshape_sum(self, m0, w, h, ox, oy, density, seed):
        # Windows of any density, aligned but not at the origin, empty ones too.
        p = named_profile(f"toy-m0-{m0}")
        rng = np.random.default_rng(seed)
        bits = (rng.random((h * m0, w * m0)) < density).astype(np.uint8)
        f = BitField("Y", (ox * m0, oy * m0), w * m0, h * m0, seed, bits)
        grid = classify_grid(f, p)
        assert grid.dtype == np.int8
        assert np.array_equal(grid, _classify_grid_ref(bits, m0))

    @given(st.sampled_from([2, 3, 6, 9]), st.integers(1, 60), st.integers(1, 4),
           st.integers(1, 3), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_classify_grid_matches_reshape_sum_on_strips(self, m0, trials, stride, h, seed):
        # Wide strips of blocks side by side, as the good-block frequency check samples.
        p = named_profile(f"toy-m0-{m0}")
        f = sample_field(seed, "Y", (0, 0), trials * stride * m0, h * m0)
        assert np.array_equal(classify_grid(f, p), _classify_grid_ref(f.bits, m0))

    def test_classify_grid_alignment_required(self):
        p = named_profile("toy-m0-3")
        f = sample_field(5, "Y", (1, 0), 30, 30)
        with pytest.raises(ConfigError):
            classify_grid(f, p)

    def test_level0_embeds_table(self):
        assert level0_embeds(0, GRID_GOOD)
        assert level0_embeds(1, GRID_GOOD)
        assert level0_embeds(0, GRID_ZERO)
        assert not level0_embeds(1, GRID_ZERO)
        assert level0_embeds(1, GRID_ONE)
        assert not level0_embeds(0, GRID_ONE)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("code", [GRID_GOOD, GRID_ONE, GRID_ZERO],
                             ids=["good", "one", "zero"])
    def test_accepts_table_is_the_rule(self, bit, code):
        assert ACCEPTS[bit, code] == level0_embeds(bit, code)


class TestSerialization:
    def test_round_trip(self):
        f = sample_field(9, "Y", (-7, 13), 21, 17)
        assert load_field(dump_field(f)) == f

    @given(st.integers(0, 2**32), st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed, w, h):
        f = sample_field(seed, "X", (0, 0), w, h)
        assert load_field(dump_field(f)) == f

    def test_malformed_header_rejected(self):
        with pytest.raises(ConfigError):
            load_field(b"not a field\n")

    def test_version_checked(self):
        f = sample_field(1, "X", (0, 0), 4, 4)
        data = dump_field(f)
        bad = data.replace(b" 1\n", b" 99\n", 1)
        with pytest.raises(ConfigError):
            load_field(bad)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda d: d[:-10], id="payload-short"),
        pytest.param(lambda d: d + b"\0", id="payload-long"),
        pytest.param(lambda d: d.replace(b"field X", b"field Q", 1), id="unknown-family"),
        pytest.param(lambda d: d.replace(b" 16 16 ", b" 0 16 ", 1), id="zero-width"),
        pytest.param(lambda d: d.replace(b" 16 16 ", b" 16 x ", 1), id="non-integer"),
        pytest.param(lambda d: d[:d.index(b"\n")], id="no-newline"),
    ])
    def test_corrupt_input_rejected(self, corrupt):
        data = dump_field(sample_field(1, "X", (0, 0), 16, 16))
        with pytest.raises(ConfigError):
            load_field(corrupt(data))


def _field_file(family: str) -> bytes:
    """A dumped 2 x 2 source field whose header names ``family``."""
    return dump_field(sample_field(1, "X", (0, 0), 2, 2)).replace(
        b"field X", b"field " + family.encode(), 1)


class TestFamilyCheck:
    """Every entry point that takes a family name refuses an unknown one
    with the one message of ``check_family``, which the CLI reports with
    exit code 1."""

    @pytest.mark.parametrize("entry", [
        pytest.param(lambda family: site_bits(1, family, 0, 0), id="site_bits"),
        pytest.param(lambda family: WindowHash(family, (0, 0), 2, 2), id="WindowHash"),
        pytest.param(lambda family: load_field(_field_file(family)), id="load_field"),
        pytest.param(lambda family: build_level0(named_profile("toy1"), family, 1,
                                                 Rect(0, 0, 2, 2)), id="build_level0"),
    ])
    @pytest.mark.parametrize("family", ["Z", "x", "XY"])
    def test_unknown_family_is_refused(self, entry, family):
        with pytest.raises(ConfigError, match=f"^unknown family {family!r}$"):
            entry(family)

    def test_cli_exits_with_the_config_code(self, tmp_path, capsys):
        (tmp_path / "x.bin").write_bytes(_field_file("Z"))
        (tmp_path / "y.bin").write_bytes(dump_field(sample_field(2, "Y", (0, 0), 5, 5)))
        code = main(["oracle", "--x-file", str(tmp_path / "x.bin"),
                     "--y-file", str(tmp_path / "y.bin"), "-m", "2"])
        assert code == EXIT_CONFIG == 1
        assert capsys.readouterr().err == "config error: unknown family 'Z'\n"
