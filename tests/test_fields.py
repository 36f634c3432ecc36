"""Seeded field sampling, block classification, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockembed.errors import CapExceeded, ConfigError
from blockembed.fields import (
    ACCEPTS,
    GRID_GOOD,
    GRID_ONE,
    GRID_ZERO,
    BitField,
    Y0Class,
    classify_grid,
    classify_y0_block,
    derive_seed,
    dump_field,
    good_threshold,
    level0_embeds,
    load_field,
    sample_field,
    site_bits,
)
from blockembed.params import named_profile

CODES = {Y0Class.GOOD: GRID_GOOD, Y0Class.ZERO: GRID_ZERO, Y0Class.ONE: GRID_ONE}


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


class TestClassification:
    def test_good_threshold_values(self):
        # ceil(M0^2 / 3) for M0 = 2, 3, 6, 9
        assert [good_threshold(m) for m in (2, 3, 6, 9)] == [2, 3, 12, 27]

    def test_all_ones_is_one(self):
        p = named_profile("toy-m0-3")
        assert classify_y0_block(np.ones(9), p) is Y0Class.ONE

    def test_all_zeros_is_zero(self):
        p = named_profile("toy-m0-3")
        assert classify_y0_block(np.zeros(9), p) is Y0Class.ZERO

    def test_balanced_is_good(self):
        p = named_profile("toy-m0-3")
        bits = [1, 0, 1, 0, 1, 0, 1, 0, 1]
        assert classify_y0_block(bits, p) is Y0Class.GOOD

    def test_tie_goes_to_one(self):
        p = named_profile("toy-m0-2")
        # 2 ones, 2 zeros: both reach threshold 2, so Good, not a tie case;
        # below threshold the majority rules and exact ties resolve to One.
        assert classify_y0_block([1, 1, 0, 0], p) is Y0Class.GOOD
        assert classify_y0_block([1, 1, 1, 0], p) is Y0Class.ONE

    def test_classify_grid_matches_blockwise(self):
        p = named_profile("toy-m0-3")
        f = sample_field(5, "Y", (0, 0), 30, 30)
        grid = classify_grid(f, p)
        for by in range(10):
            for bx in range(10):
                block = f.bits[by * 3 : by * 3 + 3, bx * 3 : bx * 3 + 3]
                assert grid[by, bx] == CODES[classify_y0_block(block, p)]

    def test_classify_grid_alignment_required(self):
        p = named_profile("toy-m0-3")
        f = sample_field(5, "Y", (1, 0), 30, 30)
        with pytest.raises(ConfigError):
            classify_grid(f, p)

    def test_level0_embeds_table(self):
        assert level0_embeds(0, Y0Class.GOOD)
        assert level0_embeds(1, Y0Class.GOOD)
        assert level0_embeds(0, Y0Class.ZERO)
        assert not level0_embeds(1, Y0Class.ZERO)
        assert level0_embeds(1, Y0Class.ONE)
        assert not level0_embeds(0, Y0Class.ONE)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("klass", list(Y0Class))
    def test_accepts_table_is_the_rule(self, bit, klass):
        assert ACCEPTS[bit, CODES[klass]] == level0_embeds(bit, klass)


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
