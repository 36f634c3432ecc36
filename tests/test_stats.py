"""Exact formulas, Monte Carlo estimation, and report tables."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from blockembed import embed
from blockembed.errors import ConfigError, PreconditionError
from blockembed.fields import ACCEPTS, GRID_GOOD, GRID_ONE, BitField, classify_grid
from blockembed.hierarchy import Component, Level0Structure, build_hierarchy, build_level0
from blockembed.lattice import Rect
from blockembed.params import named_profile
from blockembed.stats import (
    ProbabilityEstimate,
    clopper_pearson,
    estimate_S,
    exact_S0,
    exact_S1,
    good_prob_report,
    size_report,
    tail_report,
)


def _bad_component(box):
    """A fabricated level-0 component: a box of bad cells."""
    return Component(0, box, (), "really-bad", (box.area, box.area))


# Every fabricated component below lies in this window.
_WINDOW = Rect(0, 0, 3, 1)


def _class_content(code=GRID_ONE):
    """Target-family content: every cell of the window has class ``code``."""
    grid = np.full((_WINDOW.y1, _WINDOW.x1), code, dtype=np.int8)
    return Level0Structure("Y", _WINDOW, 0, named_profile("toy1"), grid, None, [])


def _bit_content(bit):
    """Source-family content: every cell of the window carries ``bit``."""
    bits = np.full((_WINDOW.y1, _WINDOW.x1), bit, dtype=np.uint8)
    return Level0Structure("X", _WINDOW, 0, named_profile("toy1"), None, bits, [])


class TestExactS0:
    def test_good_component_is_one(self, toy1):
        comp = Component(0, Rect(0, 0, 1, 1), (), "good-singleton",
                         (0, 0))
        assert exact_S0(comp, "Y", toy1) == 1

    def test_bad_component_2_pow_v(self, toy1):
        for v in (1, 2, 3):
            comp = _bad_component(Rect(0, 0, v, 1))
            assert exact_S0(comp, "Y", toy1) == Fraction(1, 2**v)

    def test_source_singleton(self):
        # A source level 0 has no bad cell, so it has no component to price.
        comp = _bad_component(Rect(0, 0, 1, 1))
        with pytest.raises(ConfigError, match="target-family"):
            exact_S0(comp, "X", named_profile("toy-m0-2"))

    def test_level_restriction(self, toy1):
        comp = _bad_component(Rect(0, 0, 1, 1))
        object.__setattr__(comp, "level", 1)
        with pytest.raises(ConfigError):
            exact_S0(comp, "Y", toy1)

    def test_built_components_count_their_bad_cells(self):
        # Level-0 components carry no blocks: the count of cells that are
        # not good comes from bad_summary.  The 2x2 rule pulls good cells
        # in, so that count is below the size of some components.
        p = named_profile("toy-m0-3")
        sizes_differ = False
        for seed in range(6):
            s = build_level0(p, "Y", seed, Rect(0, 0, 12, 12))
            assert s.bad_components
            for comp in s.bad_components:
                n = sum(int(s.class_grid[y, x]) != GRID_GOOD for x, y in comp.box.cells())
                assert exact_S0(comp, "Y", p) == Fraction(1, 2**n)
                sizes_differ |= n < comp.size
        assert sizes_differ


class TestEstimateS:
    def test_zero_trials_rejected(self, toy1):
        comp = _bad_component(Rect(0, 0, 1, 1))
        with pytest.raises(PreconditionError):
            estimate_S(comp, 0, 0, 1, toy1)

    def test_deterministic(self, toy1):
        comp = _bad_component(Rect(0, 0, 1, 1))
        content = _class_content()
        a = estimate_S(comp, 0, 5000, 42, toy1, family="Y", structure=content)
        b = estimate_S(comp, 0, 5000, 42, toy1, family="Y", structure=content)
        assert a == b

    def test_matches_exact_within_3_sigma(self, toy1):
        for v, seed in ((1, 5), (2, 6), (3, 7)):
            comp = _bad_component(Rect(0, 0, v, 1))
            est = estimate_S(comp, 0, 20000, seed, toy1, family="Y",
                             structure=_class_content())
            exact = float(exact_S0(comp, "Y", toy1))
            sigma = (exact * (1 - exact) / 20000) ** 0.5
            assert abs(est.point - exact) <= 3 * sigma

    def test_level0_source_side_rejected(self):
        comp = _bad_component(Rect(0, 0, 1, 1))
        with pytest.raises(ConfigError, match="target-family"):
            estimate_S(comp, 0, 100, 9, named_profile("toy-m0-2"), family="X",
                       structure=_bit_content(0))

    def test_random_components_both_families(self):
        # Exact vs estimated agreement on components taken from real builds.
        toy1 = named_profile("toy-m0-3")
        s = build_level0(toy1, "Y", 31, Rect(0, 0, 30, 30))
        checked = 0
        for comp in s.bad_components:
            if comp.censored:
                continue
            est = estimate_S(comp, 0, 20000, 100 + checked, toy1,
                             family="Y", structure=s)
            exact = float(exact_S0(comp, "Y", toy1))
            sigma = max((exact * (1 - exact) / 20000) ** 0.5, 1e-9)
            assert abs(est.point - exact) <= 3 * sigma
            checked += 1
            if checked == 20:
                break
        assert checked >= 5

    def test_good_component_estimates_one(self, toy1):
        comp = Component(0, Rect(0, 0, 1, 1), (), "good-singleton",
                         (0, 0))
        est = estimate_S(comp, 0, 1000, 3, toy1, family="Y",
                         structure=_class_content(GRID_GOOD))
        assert est.point == 1.0


@pytest.fixture
def source(toy1):
    """A toy1 source block and its level 0."""
    h = build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
    return h.levels[1].blocks[0], h.level0


class TestExactS1:
    @pytest.mark.parametrize("m0", [1, 2, 3])
    def test_refusal_rate_by_enumerating_every_block(self, m0, source):
        # All 2**(m0*m0) target blocks side by side in one window, each
        # classified as the level-1 search classifies them.
        p = named_profile("toy-m0-3", M0=m0)
        n = m0 * m0
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        row = bits.reshape(2**n, m0, m0).transpose(1, 0, 2).reshape(m0, 2**n * m0)
        codes = classify_grid(BitField("Y", (0, 0), 2**n * m0, m0, 0,
                                       row.astype(np.uint8)), p)[0]
        block, _ = source
        cell = replace(block, domain=frozenset([min(block.domain)]))
        for bit in (0, 1):
            refused = np.count_nonzero(~ACCEPTS[bit, codes])
            assert exact_S1(cell, p) == 1 - Fraction(refused, 2**n)
        assert exact_S1(block, p) == exact_S1(cell, p) ** len(block.domain)

    def test_level0_component_rejected(self, toy1):
        with pytest.raises(ConfigError, match="level-1 block"):
            exact_S1(_bad_component(Rect(0, 0, 1, 1)), toy1)


class TestLevel1FailedTrials:
    """A trial's errors raise: none is folded into a failed trial."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_precondition_errors_raise(self, toy1, source, monkeypatch, workers):
        def broken(*args, **kwargs):
            raise PreconditionError("planted failure")

        monkeypatch.setattr(embed, "embeds_level", broken)
        block, level0 = source
        with pytest.raises(PreconditionError, match="planted failure"):
            estimate_S(block, 1, 5, 0, toy1, family="X", structure=level0, workers=workers)


class TestLevel1Trials:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_search_per_trial_through_the_module(self, toy1, source, monkeypatch,
                                                     workers):
        # Each trial calls embed.embeds_level once, read off the module at
        # call time: the benchmark counts trials by wrapping it there.
        calls = []
        search = embed.embeds_level

        def counted(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(embed, "embeds_level", counted)
        block, level0 = source
        est = estimate_S(block, 1, 7, 3, toy1, family="X", structure=level0, workers=workers)
        assert est.trials == 7 and len(calls) == 7
        assert all(b is block for b in calls)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, toy1, source, workers):
        block, level0 = source
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            estimate_S(block, 1, 5, 0, toy1, family="X", structure=level0, workers=workers)
        comp = _bad_component(Rect(0, 0, 1, 1))
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            estimate_S(comp, 0, 5, 0, toy1, family="Y", structure=_class_content(),
                       workers=workers)


class TestIntervals:
    def test_degenerate_ends(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = clopper_pearson(100, 100)
        assert lo > 0.95 and hi == 1.0

    def test_contains_point(self):
        est = ProbabilityEstimate.from_counts(37, 100, 0)
        assert est.ci_low <= est.point <= est.ci_high

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            clopper_pearson(5, 3)

    def test_calibration(self):
        # Coverage of the 95% interval on synthetic Bernoulli streams.
        rng = np.random.default_rng(7)
        for p in (0.1, 0.5, 0.9):
            covered = 0
            for _ in range(100):
                k = int(rng.binomial(400, p))
                lo, hi = clopper_pearson(k, 400)
                covered += lo <= p <= hi
            assert covered >= 90


class TestReports:
    def test_tail_monotone(self, toy1):
        rng = np.random.default_rng(1)
        samples = [(float(rng.random()), int(rng.integers(1, 5))) for _ in range(200)]
        rep = tail_report(samples, toy1, 0)
        by_v = {}
        for level, x, v, n, emp, bound, ratio in rep.rows:
            by_v.setdefault(v, []).append((x, emp))
        for v, col in by_v.items():
            xs = [x for x, _ in col]
            emps = [e for _, e in col]
            assert xs == sorted(xs)
            assert emps == sorted(emps)  # CDF monotone in x
        # Anti-monotone in v at fixed x.
        for x in {r[1] for r in rep.rows}:
            col = [r[4] for r in rep.rows if r[1] == x]
            assert col == sorted(col, reverse=True)

    def test_tail_bound_formula(self, toy1):
        L = toy1.scale(0)
        x = 1.0 - 1.0 / L
        rep = tail_report([(0.5, 1)], toy1, 0, x_grid=[x])
        row = rep.rows[0]
        assert row[5] == pytest.approx(x ** toy1.m_exponent(0) * L ** (-toy1.beta))

    def test_tail_recount(self, toy1):
        samples = [(0.5, 1), (0.5, 1), (1.0, 1), (0.25, 2)]
        rep = tail_report(samples, toy1, 0, x_grid=[0.5])
        row_v1 = next(r for r in rep.rows if r[2] == 1)
        assert row_v1[4] == 3 / 4  # P(S <= 1/2, V >= 1)

    def test_size_report(self, toy1):
        rep = size_report([1, 1, 2, 3], toy1, 0)
        assert rep.rows[0][3] == 1.0  # P(V >= 1) = 1
        emps = [r[3] for r in rep.rows]
        assert emps == sorted(emps, reverse=True)

    def test_good_prob_report(self, toy1):
        rep = good_prob_report({0: [True] * 90 + [False] * 10}, toy1)
        row = rep.rows[0]
        assert row[2] == 0.9
        assert row[3] <= 0.9 <= row[4]

    def test_reports_byte_identical(self, toy1):
        samples = [(0.5, 1), (0.25, 2)]
        a = tail_report(samples, toy1, 0)
        b = tail_report(samples, toy1, 0)
        assert a.to_csv() == b.to_csv()
        assert a.to_records() == b.to_records()

    def test_empty_samples_rejected(self, toy1):
        with pytest.raises(PreconditionError):
            tail_report([], toy1, 0)
        with pytest.raises(PreconditionError):
            size_report([], toy1, 0)
