"""Exact brute-force embedding oracle."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockembed.embed import EmbeddingMap, verify_embedding
from blockembed.errors import ConfigError, SearchBudgetExceeded
from blockembed.fields import BitField, sample_field
from blockembed.oracle import (
    Instance,
    count_embeddings,
    enumerate_embeddings,
    find_embedding,
)


def _bf(family, bits):
    arr = np.array(bits, dtype=np.uint8)
    return BitField(family, (0, 0), arr.shape[1], arr.shape[0], 0, arr)


def brute_force_count(x: BitField, y: BitField, m) -> int:
    """Independent exhaustive filter over all value-matched injections."""
    m2 = Fraction(m) ** 2
    xsites = [(sx, sy) for sy in range(x.height) for sx in range(x.width)]
    cands = []
    for s in xsites:
        bit = x.get(*s)
        cands.append([
            (tx, ty)
            for ty in range(y.height)
            for tx in range(y.width)
            if y.get(tx, ty) == bit
        ])
    n = 0
    for choice in itertools.product(*cands):
        if len(set(choice)) != len(choice):
            continue
        ok = True
        for i in range(len(xsites)):
            for k in range(i + 1, len(xsites)):
                d_src = (xsites[i][0] - xsites[k][0]) ** 2 + (xsites[i][1] - xsites[k][1]) ** 2
                d_dst = (choice[i][0] - choice[k][0]) ** 2 + (choice[i][1] - choice[k][1]) ** 2
                if d_dst > m2 * d_src:
                    ok = False
                    break
            if not ok:
                break
        n += ok
    return n


class TestFindEmbedding:
    def test_all_zeros_embeds(self):
        x = _bf("X", [[0, 0], [0, 0]])
        y = _bf("Y", [[0] * 6] * 6)
        assert find_embedding(Instance.from_fields(x, y, 2)) is not None

    def test_value_preservation_impossible(self):
        x = _bf("X", [[0, 1]])
        y = _bf("Y", [[0] * 4] * 4)
        assert find_embedding(Instance.from_fields(x, y, 2)) is None

    def test_witnesses_verify(self):
        for seed in range(50):
            x = sample_field(seed, "X", (0, 0), 2, 2)
            y = sample_field(seed + 1000, "Y", (0, 0), 5, 5)
            emb = find_embedding(Instance.from_fields(x, y, 2))
            if emb is not None:
                assert verify_embedding(EmbeddingMap(emb, 2.0), x, y)

    def test_budget_exhaustion_distinct(self):
        x = sample_field(1, "X", (0, 0), 2, 2)
        y = sample_field(2, "Y", (0, 0), 5, 5)
        with pytest.raises(SearchBudgetExceeded):
            find_embedding(Instance.from_fields(x, y, 2), node_cap=1)

    def test_empty_source_rejected(self):
        y = sample_field(2, "Y", (0, 0), 3, 3)
        with pytest.raises(ConfigError):
            Instance((), {}, y, Fraction(4))


class TestCountEmbeddings:
    def test_single_site_count_is_matching_sites(self):
        y = _bf("Y", [[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        x0 = _bf("X", [[0]])
        x1 = _bf("X", [[1]])
        assert count_embeddings(Instance.from_fields(x0, y, 1)) == 5
        assert count_embeddings(Instance.from_fields(x1, y, 1)) == 4

    def test_count_consistent_with_decision(self):
        for seed in range(20):
            x = sample_field(seed, "X", (0, 0), 2, 2)
            y = sample_field(seed + 500, "Y", (0, 0), 4, 4)
            inst = Instance.from_fields(x, y, 2)
            assert (count_embeddings(inst) > 0) == (find_embedding(inst) is not None)

    def test_matches_exhaustive_filter(self):
        for seed in range(10):
            x = sample_field(seed, "X", (0, 0), 2, 2)
            y = sample_field(seed + 300, "Y", (0, 0), 4, 4)
            inst = Instance.from_fields(x, y, Fraction(3, 2))
            assert count_embeddings(inst) == brute_force_count(x, y, Fraction(3, 2))

    def test_rotation_symmetric_instance(self):
        # Y: zeros exactly at the four corners of a 4x4 window (invariant
        # under quarter turns, which act freely on the even-sided grid).
        bits = np.ones((4, 4), dtype=np.uint8)
        for c in ((0, 0), (3, 0), (0, 3), (3, 3)):
            bits[c[1], c[0]] = 0
        y = BitField("Y", (0, 0), 4, 4, 0, bits)
        x = _bf("X", [[0]])
        n = count_embeddings(Instance.from_fields(x, y, 1))
        assert n == 4 and n % 4 == 0

    def test_enumerate_matches_count(self):
        x = sample_field(3, "X", (0, 0), 2, 1)
        y = sample_field(4, "Y", (0, 0), 4, 4)
        inst = Instance.from_fields(x, y, 2)
        assert len(list(enumerate_embeddings(inst))) == count_embeddings(inst)

    def test_enumerate_limit(self):
        x = _bf("X", [[0]])
        y = _bf("Y", [[0] * 5] * 5)
        inst = Instance.from_fields(x, y, 1)
        assert len(list(enumerate_embeddings(inst, limit=7))) == 7

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, limit):
        inst = Instance.from_fields(_bf("X", [[0]]), _bf("Y", [[0] * 5] * 5), 1)
        with pytest.raises(ConfigError, match="at least 1"):
            list(enumerate_embeddings(inst, limit=limit))

    @pytest.mark.parametrize("m, reason", [(-2, "nonnegative"), (Fraction(-1, 3), "nonnegative"),
                                           (float("nan"), "finite"), (float("inf"), "finite")])
    def test_bad_bound_rejected(self, m, reason):
        with pytest.raises(ConfigError, match=reason):
            Instance.from_fields(_bf("X", [[0]]), _bf("Y", [[0] * 5] * 5), m)


class TestMonotonicity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_anti_monotone_in_m(self, seed):
        x = sample_field(seed, "X", (0, 0), 2, 2)
        y = sample_field(seed + 77, "Y", (0, 0), 5, 5)
        low = find_embedding(Instance.from_fields(x, y, 1)) is not None
        high = find_embedding(Instance.from_fields(x, y, 2)) is not None
        assert high or not low  # YES at smaller M implies YES at larger M

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_window(self, seed):
        x = sample_field(seed, "X", (0, 0), 2, 2)
        y5 = sample_field(seed + 77, "Y", (0, 0), 5, 5)
        y6 = sample_field(seed + 77, "Y", (0, 0), 6, 6)
        small = find_embedding(Instance.from_fields(x, y5, 2)) is not None
        big = find_embedding(Instance.from_fields(x, y6, 2)) is not None
        assert big or not small  # growing the window never kills a YES
