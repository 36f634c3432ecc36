"""Exact formulas, Monte Carlo estimation, and report tables."""

import functools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from blockembed import embed, stats as stats_mod
from blockembed.errors import BlockEmbedError, ConfigError, PreconditionError
from blockembed.fields import (ACCEPTS, GRID_GOOD, GRID_ONE, BitField, classify_grid,
                               derive_seed, sample_field, site_bits)
from blockembed.hierarchy import (Component, LatticeBlock, Level0Structure, build_hierarchy,
                                  build_level0)
from blockembed.lattice import LatticeAnimal, Rect, cell_array, cell_geometry
from blockembed.params import named_profile
from blockembed.stats import (
    CONFIDENCE,
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
        with pytest.raises(ConfigError, match="the level-0 search maps family Y, not 'X'"):
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
    def test_zero_trials_rejected(self, toy1, source):
        comp = _bad_component(Rect(0, 0, 1, 1))
        with pytest.raises(PreconditionError):
            estimate_S(comp, 0, 0, 1, toy1)
        # A count that is not an integer is refused the same way, at both
        # levels.
        block, level0 = source
        for trials in (2.5, True, 0.0):
            with pytest.raises(PreconditionError, match="an integer"):
                estimate_S(comp, 0, trials, 1, toy1, structure=_class_content())
            with pytest.raises(PreconditionError, match="an integer"):
                estimate_S(block, 1, trials, 1, toy1, family="X", structure=level0)
        assert estimate_S(comp, 0, np.int64(3), 1, toy1, structure=_class_content()).trials == 3

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
        with pytest.raises(ConfigError, match="the level-0 search maps family Y, not 'X'"):
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

    @pytest.mark.parametrize("profile, window", [("toy-m0-3", Rect(0, 0, 12, 12)),
                                                 ("toy-m0-6", Rect(0, 0, 24, 24))])
    def test_level0_rule_matches_the_bad_cell_comparison(self, profile, window):
        # The reference reads only the bad cells and wants each partner bit
        # to equal the cell's majority; the estimator applies ACCEPTS to
        # every cell of the box, good cells accepting either bit.
        def reference(comp, structure, trials, seed):
            box = comp.box
            cells = cell_array(box.cells())
            codes = structure.codes_at(cells)
            bad = codes != GRID_GOOD
            if not bad.any():
                return trials
            need = cells[bad]
            t = np.arange(trials, dtype=np.int64)[:, None]
            xs = (need[:, 0] - box.x0)[None, :] + t * (box.x1 - box.x0 + 1)
            ys = (need[:, 1] - box.y0)[None, :] + 0 * t
            want = (codes[bad] == GRID_ONE)[None, :]
            return int(np.all(site_bits(seed, "X", xs, ys) == want, axis=1).sum())

        p = named_profile(profile)
        with_good = 0
        for seed in range(4):
            s = build_level0(p, "Y", seed, window)
            for k, comp in enumerate(s.bad_components):
                with_good += comp.bad_summary[1] < comp.size
                trial_seed = derive_seed(seed, k)
                est = estimate_S(comp, 0, 300, trial_seed, p, structure=s)
                assert est.successes == reference(comp, s, 300, trial_seed)
        assert with_good >= 2


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
        # Planted in the acceptance rule that decides every stack of trials.
        def broken(*args, **kwargs):
            raise PreconditionError("planted failure")

        monkeypatch.setattr(embed.Level1Rule, "accepts", broken)
        block, level0 = source
        with pytest.raises(PreconditionError, match="planted failure"):
            estimate_S(block, 1, 5, 0, toy1, family="X", structure=level0, workers=workers)


def _per_trial_ref(block, structure, trials, seed, params):
    """The estimator trial by trial: one ``embeds_level`` search against
    each trial's own target window over the block's cell."""
    region, m0 = cell_geometry(1, min(block.animal.sites), params).region, params.M0
    hits = 0
    for t in range(trials):
        y = sample_field(derive_seed(seed, 0x51, t), "Y", (region.x0 * m0, region.y0 * m0),
                         (region.x1 - region.x0) * m0, (region.y1 - region.y0) * m0)
        hits += embed.embeds_level(block, y, 1, params, structure) is not None
    return hits


@functools.lru_cache(maxsize=None)
def _source_block(profile, seed=42, **overrides):
    h = build_hierarchy(named_profile(profile, **overrides), "X", seed, Rect(0, 0, 1, 1))
    return h.levels[1].blocks[0], h.level0


def _raised(call):
    """(type, message) of the error ``call`` raises, or None."""
    try:
        call()
    except BlockEmbedError as exc:
        return type(exc), str(exc)
    return None


def _stack_depth(params):
    return max(1, stats_mod._STACK_SITES // (params.cells_per_side(1) * params.M0) ** 2)


class TestLevel1Trials:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_trial_decided_once(self, toy1, source, monkeypatch, workers):
        # Every trial index derives its target seed once, every stack the
        # rule decides holds at most the stack depth, and together the
        # stacks hold each trial once.
        indices, depths = [], []
        derive, accepts = stats_mod.derive_seed, embed.Level1Rule.accepts

        def derived(seed, *counters):
            if counters[:1] == (0x51,):
                indices.append(counters[1])
            return derive(seed, *counters)

        def decided(rule, sites):
            depths.append(len(sites))
            return accepts(rule, sites)

        monkeypatch.setattr(stats_mod, "derive_seed", derived)
        monkeypatch.setattr(embed.Level1Rule, "accepts", decided)
        block, level0 = source
        est = estimate_S(block, 1, 7, 3, toy1, family="X", structure=level0, workers=workers)
        assert sorted(indices) == list(range(7))
        assert sum(depths) == 7 and max(depths) <= _stack_depth(toy1)
        monkeypatch.undo()
        assert est.successes == _per_trial_ref(block, level0, 7, 3, toy1)

    @pytest.mark.parametrize("profile", ["toy1", "toy-m0-3", "toy-m0-6", "toy-m0-9"])
    @pytest.mark.parametrize("count", ["1", "depth-1", "depth", "depth+1", "257"])
    @given(st.integers(0, 2**64 - 1), st.integers(0, 3))
    @settings(max_examples=2, deadline=None)
    def test_stacks_equal_the_per_trial_search(self, profile, count, seed, xseed):
        # The same count as the search trial by trial, at 1 and 2 workers,
        # with the last stack full, one short or holding one trial.
        block, level0 = _source_block(profile, xseed)
        p = named_profile(profile)
        depth = _stack_depth(p)
        trials = {"1": 1, "depth-1": depth - 1, "depth": depth, "depth+1": depth + 1,
                  "257": 257}[count]
        expect = _per_trial_ref(block, level0, trials, seed, p)
        for workers in (1, 2):
            est = estimate_S(block, 1, trials, seed, p, family="X", structure=level0,
                             workers=workers)
            assert (est.successes, est.trials) == (expect, trials)

    @given(st.sampled_from(["no structure", "two cells", "target family", "k0 > clearance",
                            "domain leaves region"]),
           st.integers(1, 9), st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_errors_are_those_of_the_search(self, fault, trials, workers):
        p = named_profile("toy1")
        block, structure = _source_block("toy1")
        if fault == "no structure":
            structure = None
        elif fault == "two cells":
            pair = LatticeAnimal(frozenset([(0, 0), (1, 0)]))
            block = replace(block, lattice_block=LatticeBlock(1, pair))
        elif fault == "target family":
            h = build_hierarchy(p, "Y", 42, Rect(0, 0, 1, 1))
            block, structure = h.levels[1].blocks[0], h.level0
        elif fault == "k0 > clearance":
            p = replace(p, k0=3)
            block, structure = _source_block("toy1", 42, k0=3)
        else:
            block = replace(block, domain=block.domain | {(16, 3)})
        y = sample_field(0, "Y", (0, 0), 16 * p.M0, 16 * p.M0)
        searched = _raised(lambda: embed.embeds_level(block, y, 1, p, structure))
        assert searched is not None
        assert _raised(lambda: estimate_S(block, 1, trials, 0, p, family="X",
                                          structure=structure, workers=workers)) == searched

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True])
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

    def test_same_doubles_as_the_beta_quantiles(self):
        # Every k for n <= 200 and for n in {1000, 2000, 5000}, both ends,
        # against scipy.stats.beta.ppf, which the interval was defined by.
        ns = [n for n in range(1, 201) for _ in range(n + 1)]
        ks = [k for n in range(1, 201) for k in range(n + 1)]
        for n in (1000, 2000, 5000):
            ns += [n] * (n + 1)
            ks += range(n + 1)
        k, n = np.array(ks), np.array(ns)
        a = (1.0 - CONFIDENCE) / 2.0
        with np.errstate(all="ignore"):
            lo = np.where(k == 0, 0.0, beta.ppf(a, k, n - k + 1))
            hi = np.where(k == n, 1.0, beta.ppf(1.0 - a, k + 1, n - k))
        got = np.array([clopper_pearson(int(i), int(j)) for i, j in zip(ks, ns)])
        assert np.array_equal(got[:, 0], lo) and np.array_equal(got[:, 1], hi)

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

    def test_good_prob_report_counts_arrays_as_lists(self, toy1):
        flags = np.random.default_rng(3).random(3600) < 0.8
        as_list = good_prob_report({0: flags.tolist(), 1: [True, False, True]}, toy1)
        as_array = good_prob_report({0: flags, 1: np.array([1, 0, 2])}, toy1)
        assert as_array.to_csv() == as_list.to_csv()
        assert as_array.to_records() == as_list.to_records()

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
