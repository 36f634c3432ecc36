"""End-to-end acceptance checks: exact formulas, oracle equivalence,
structural invariants, curve distribution, constructive embeddings,
constraint auditing, and report integrity."""

import itertools
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from blockembed import embed as embed_mod, hierarchy as hier, stats
from blockembed.embed import EmbeddingMap, embeds_level, verify_embedding
from blockembed.fields import (
    GRID_GOOD,
    GRID_ONE,
    classify_grid,
    good_threshold,
    sample_field,
)
from blockembed.hierarchy import (
    GOOD_SINGLETON,
    REALLY_BAD,
    Component,
    LatticeBlock,
    Level0Structure,
    build_hierarchy,
    build_level0,
    form_lattice_blocks,
    is_conjoined,
    level0_window_for,
    select_boundary_curve,
)
from blockembed.lattice import LatticeAnimal, Rect, buffer_zone, neighbors
from blockembed.oracle import Instance, find_embedding
from blockembed.params import check_constraints, named_profile
from blockembed.stats import (
    clopper_pearson,
    estimate_S,
    good_prob_report,
    size_report,
    tail_report,
)
from test_hierarchy import curve_clearance

EXPECTED_PUBLISHED_VERDICTS = [
    True, True, True, False, True, True, False, False, True, True,
]


def _bad_component(box):
    """A fabricated level-0 component: a box of bad cells."""
    return Component(0, box, (), REALLY_BAD, (box.area, box.area))


# Every fabricated component below lies in this window.
_WINDOW = Rect(0, 0, 3, 1)


def _all_ones_content():
    """Target-family content making every cell forced-bad (class One)."""
    grid = np.full((_WINDOW.y1, _WINDOW.x1), GRID_ONE, dtype=np.int8)
    return Level0Structure("Y", _WINDOW, 0, named_profile("toy1"), grid, None, [])


class TestLevel0TargetExactness:
    """Forced-bad target components of size v estimate to 2^-v."""

    def test_within_three_sigma_and_fast(self, toy1):
        start = time.monotonic()
        for v, seed in ((1, 11), (2, 12), (3, 13)):
            comp = _bad_component(Rect(0, 0, v, 1))
            est = estimate_S(comp, 0, 20_000, seed, toy1, family="Y",
                             structure=_all_ones_content())
            exact = 2.0 ** -v
            sigma = (exact * (1 - exact) / 20_000) ** 0.5
            assert abs(est.point - exact) <= 3 * sigma
        assert time.monotonic() - start < 30.0


class TestLevel1SourceExactness:
    """A level-1 source block estimates to its closed form exact_S1."""

    @pytest.mark.parametrize("profile", ["toy1", "toy-m0-6"])
    def test_within_three_sigma(self, profile):
        p = named_profile(profile)
        hx = build_hierarchy(p, "X", 7, Rect(0, 0, 1, 1))
        block = hx.levels[1].blocks[0]
        est = estimate_S(block, 1, 20_000, 5, p, family="X", structure=hx.level0)
        exact = float(stats.exact_S1(block, p))
        sigma = (exact * (1 - exact) / 20_000) ** 0.5
        assert abs(est.point - exact) <= 3 * sigma


class TestGoodBlockProbability:
    """Empirical frequency of good target cells matches the exact binomial sum."""

    @pytest.mark.parametrize("m0", [3, 6, 9])
    def test_within_three_sigma(self, m0):
        p = named_profile(f"toy-m0-{m0}")
        trials = 100_000
        yf = sample_field(23 + m0, "Y", (0, 0), trials * m0, m0)
        grid = classify_grid(yf, p)
        assert grid.shape == (1, trials)
        freq = float(np.count_nonzero(grid == GRID_GOOD)) / trials
        # A block is good when each bit value fills at least the threshold.
        n, t = m0 * m0, good_threshold(m0)
        exact = float(Fraction(sum(comb(n, k) for k in range(t, n - t + 1)), 2**n))
        sigma = max((exact * (1 - exact) / trials) ** 0.5, 1e-12)
        assert abs(freq - exact) <= 3 * sigma


class TestOracleSoundness:
    """Witness validity, exhaustive-filter agreement, bound monotonicity."""

    def _instance_fields(self, seed):
        x = sample_field(seed, "X", (0, 0), 2, 2)
        y = sample_field(seed + 100_000, "Y", (0, 0), 5, 5)
        return x, y

    def test_thousand_instances(self):
        witnesses = 0
        for seed in range(1000):
            x, y = self._instance_fields(seed)
            emb2 = find_embedding(Instance.from_fields(x, y, 2))
            if emb2 is not None:
                assert verify_embedding(EmbeddingMap(emb2, 2.0), x, y)
                witnesses += 1
            # Anti-monotone in the bound on every instance.
            emb1 = find_embedding(Instance.from_fields(x, y, 1))
            assert emb2 is not None or emb1 is None
        assert witnesses > 0

    def test_exhaustive_filter_agreement(self):
        for seed in range(50):
            x, y = self._instance_fields(seed)
            decided = find_embedding(Instance.from_fields(x, y, 2)) is not None
            assert decided == (self._brute_force(x, y, 2) > 0)

    @staticmethod
    def _brute_force(x, y, m):
        """The number of embeddings, by checking every choice of a
        value-matched target site per source site, all choices at once."""
        m2 = Fraction(m) ** 2
        xsites = np.array([(sx, sy) for sy in range(x.height) for sx in range(x.width)])
        ysites = np.array([(tx, ty) for ty in range(y.height) for tx in range(y.width)])
        cands = [ysites[y.bits.ravel() == bit] for bit in x.bits.ravel()]
        picks = np.meshgrid(*(np.arange(len(c)) for c in cands), indexing="ij")
        choice = np.stack([c[p.ravel()] for c, p in zip(cands, picks)], axis=1)
        ok = np.ones(len(choice), dtype=bool)
        for i, k in itertools.combinations(range(len(xsites)), 2):
            d_dst = ((choice[:, i] - choice[:, k]) ** 2).sum(axis=1)
            d_src = int(((xsites[i] - xsites[k]) ** 2).sum())
            ok &= (d_dst > 0) & (d_dst * m2.denominator <= d_src * m2.numerator)
        return int(ok.sum())


class TestStructuralInvariants:
    """500 seeded windows: blow-up containment, interior coverage, clearance,
    flood-fill equivalence, and component grouping rules; 100% required."""

    WINDOW = Rect(0, 0, 2, 2)

    def _check_window(self, toy1, seed):
        h = build_hierarchy(toy1, "Y", seed, self.WINDOW)
        lvl = h.levels[1]
        r = toy1.cells_per_side(1)
        mb = toy1.margins(1).buffer
        clearance = toy1.margins(1).clearance

        for block in lvl.blocks:
            ideal = {
                (x, y)
                for u in block.animal.sites
                for x in range(u[0] * r, (u[0] + 1) * r)
                for y in range(u[1] * r, (u[1] + 1) * r)
            }
            interior = {
                c for c in ideal
                if all((c[0] + dx, c[1] + dy) in ideal
                       for dx in range(-mb, mb + 1) for dy in range(-mb, mb + 1))
            }
            assert interior <= block.domain
            blowup = {
                (c[0] + dx, c[1] + dy)
                for c in ideal
                for dx in range(-mb, mb + 1) for dy in range(-mb, mb + 1)
            }
            assert block.domain <= blowup
            if not block.censored:
                assert curve_clearance(
                    block.domain, h.level0.bad_components) >= clearance

        # Lattice blocks must equal flood fill of the conjoined-edge graph.
        cells = list(self.WINDOW.cells())
        cell_set = set(cells)
        edges = set()
        for u in cells:
            for side in ("R", "T"):
                zone = buffer_zone(1, u, side, toy1)
                if (zone.shared_with in cell_set
                        and is_conjoined(np.array([zone.rect]), h.level0)[0]):
                    edges.add(frozenset((u, zone.shared_with)))
        seen, flood = set(), []
        for start in sorted(cell_set):
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                c = stack.pop()
                for n in neighbors(c):
                    if n in cell_set and n not in comp and frozenset((c, n)) in edges:
                        comp.add(n)
                        stack.append(n)
            seen |= comp
            flood.append(frozenset(comp))
        assert sorted(b.animal.sites for b in lvl.blocks) == sorted(flood)

        # Component grouping: good components are good singletons; distinct
        # components carry no close-packed adjacent bad blocks; diagonal
        # pairs inside a component come with their 2x2 completion.
        window_cells = set(self.WINDOW.cells())
        bad_cells_by_comp = []
        for comp in lvl.components:
            if comp.status == GOOD_SINGLETON:
                assert len(comp.blocks) == 1 and comp.blocks[0].good
                assert comp.size == comp.blocks[0].size
            else:
                bad_cells_by_comp.append(frozenset(
                    c for b in comp.blocks if not b.good for c in b.animal.sites
                ))
            # A component is its box, and its blocks tile it.
            sites = set(comp.box.cells())
            assert sites == {c for b in comp.blocks for c in b.animal.sites}
            for (x, y) in sites:
                for dx, dy in ((1, 1), (1, -1)):
                    if (x + dx, y + dy) in sites:
                        square = {(x + dx, y), (x, y + dy)}
                        assert square & window_cells <= sites
        for i, a in enumerate(bad_cells_by_comp):
            for b in bad_cells_by_comp[i + 1:]:
                for c in a:
                    assert not (neighbors(c, "close_packed") & b)

    def test_500_windows(self, toy1):
        for seed in range(500):
            self._check_window(toy1, seed)


class TestCurveDistribution:
    """Straight-curve frequency and planted-obstruction clearance."""

    def test_straight_frequency(self, toy1):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        n = 10_000
        straight = sum(
            select_boundary_curve(lb, [], toy1, key, 1).is_straight
            for key in range(n)
        )
        p = 1.0 - 10.0 ** -(1 + 10)
        sigma = (p * (1 - p) / n) ** 0.5
        assert straight / n >= p - 3 * sigma

    def test_planted_obstruction_always_cleared(self, toy1):
        lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        obstruction = _bad_component(Rect(0, 7, 1, 8))
        clearance = toy1.margins(1).clearance
        for key in range(100):
            curve = select_boundary_curve(lb, [obstruction], toy1, key, 1)
            assert curve_clearance(curve.domain, [obstruction]) >= clearance


class TestConstructiveGoodEmbedding:
    """Good source blocks embed into good target blocks, constructively."""

    def test_union_bound_holds(self, toy1):
        bound = 2 * toy1.k0 * Fraction(1, toy1.v0**2) * Fraction(1, toy1.k0**4)
        assert bound < 1

    def test_200_good_pairs(self, toy1):
        m0 = toy1.M0
        w1 = Rect(0, 0, 1, 1)
        w0 = level0_window_for(w1, toy1)

        good_x = []
        seed = 0
        while len(good_x) < 10 and seed < 200:
            hx = build_hierarchy(toy1, "X", seed, w1)
            b = hx.levels[1].blocks[0]
            if b.good:
                good_x.append((hx, b))
            seed += 1
        assert len(good_x) == 10

        good_y_seeds = []
        seed = 1000
        while len(good_y_seeds) < 20 and seed < 1400:
            hy = build_hierarchy(toy1, "Y", seed, w1)
            if hy.levels[1].blocks[0].good:
                good_y_seeds.append(seed)
            seed += 1
        assert len(good_y_seeds) == 20

        pairs = 0
        for hx, xb in good_x:
            x_field = sample_field(hx.seed, "X", (0, 0), 16, 16)
            for ys in good_y_seeds:
                yf = sample_field(ys, "Y", (w0.x0 * m0, w0.y0 * m0),
                                  (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
                wit = embeds_level(xb, yf, 1, toy1, x_structure=hx.level0)
                assert wit is not None
                emb = wit.flatten(x_field, yf, toy1)
                assert verify_embedding(emb, x_field, yf)
                pairs += 1
        assert pairs == 200


class TestConstraintAuditor:
    """All ten constraints audited; published-value verdicts are frozen from
    an exact big-integer evaluation done independently before the build."""

    def test_published_values(self, published_profile):
        report = check_constraints(published_profile)
        assert len(report.rows) == 10
        assert [r.satisfied for r in report.rows] == EXPECTED_PUBLISHED_VERDICTS
        assert report.overall is False

    def test_verdicts_stable_and_exact(self, published_profile):
        a = check_constraints(published_profile)
        b = check_constraints(published_profile)
        assert [(r.lhs, r.rhs, r.satisfied, r.slack) for r in a.rows] == \
               [(r.lhs, r.rhs, r.satisfied, r.slack) for r in b.rows]


class TestReportIntegrity:
    """CDF monotonicity, interval calibration, worker-count invariance."""

    def test_cdf_monotonicity(self, toy1):
        rng = np.random.default_rng(41)
        samples = [(float(rng.random()), int(rng.integers(1, 5)))
                   for _ in range(500)]
        rep = tail_report(samples, toy1, 0)
        by_v = {}
        for level, x, v, n, emp, bound, ratio in rep.rows:
            by_v.setdefault(v, []).append(emp)
        for col in by_v.values():
            assert col == sorted(col)  # monotone in the threshold
        srep = size_report([s for _, s in samples], toy1, 0)
        emps = [r[3] for r in srep.rows]
        assert emps == sorted(emps, reverse=True)  # survival function
        grep = good_prob_report({0: [True] * 70 + [False] * 30}, toy1)
        for row in grep.rows:
            assert row[3] <= row[2] <= row[4]

    def test_interval_calibration(self):
        rng = np.random.default_rng(42)
        for p in (0.1, 0.5, 0.9):
            covered = 0
            for _ in range(100):
                k = int(rng.binomial(400, p))
                lo, hi = clopper_pearson(k, 400)
                covered += lo <= p <= hi
            assert covered >= 90

    def test_worker_count_invariance(self, toy1):
        hx = build_hierarchy(toy1, "X", 7, Rect(0, 0, 1, 1))
        block = hx.levels[1].blocks[0]
        single = estimate_S(block, 1, 24, 5, toy1, family="X",
                            structure=hx.level0, workers=1)
        quad = estimate_S(block, 1, 24, 5, toy1, family="X",
                          structure=hx.level0, workers=4)
        assert single == quad

    def test_reports_byte_identical(self, toy1):
        samples = [(0.5, 1), (0.25, 2), (0.125, 3)]
        assert tail_report(samples, toy1, 0).to_csv() == \
            tail_report(samples, toy1, 0).to_csv()
        assert tail_report(samples, toy1, 0).to_records() == \
            tail_report(samples, toy1, 0).to_records()
