"""Parameter profiles, derived scales, and the constraint auditor."""

import decimal
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockembed.errors import CapExceeded, ConfigError
from blockembed.hierarchy import REALLY_BAD, build_level0
from blockembed.lattice import Rect
from blockembed.params import (
    ParameterSet,
    check_constraints,
    named_profile,
)

# Verdicts for the published full-scale values, frozen from an exact
# big-integer evaluation performed independently before the build.
FROZEN_PUBLISHED_VERDICTS = [True, True, True, False, True, True, False, False, True, True]


class TestScales:
    def test_toy_scales(self, toy1):
        assert toy1.scale(0) == 16
        assert toy1.scale(1) == 256
        assert toy1.cell_side(1) == 16
        assert toy1.cells_per_side(1) == 16

    def test_scale_cap(self, toy1):
        with pytest.raises(CapExceeded):
            toy1.scale(4)

    def test_m_exponent(self, toy1):
        assert toy1.m_exponent(0) == toy1.m + 1
        assert toy1.m_exponent(1) == toy1.m + 0.5

    def test_margin_ordering(self, toy1):
        m = toy1.margins(1)
        assert 1 <= m.interior < m.clearance < m.buffer
        assert 4 * m.buffer < toy1.cell_side(1)

    def test_margin_override(self):
        # A profile override that widens the cell widens the margins.
        assert named_profile("toy1", L0=32).margins(1) == (5, 6, 7)

    def test_bad_override_rejected(self):
        # A level-1 cell four cells wide leaves no room for a buffer.
        with pytest.raises(ConfigError, match="interior < clearance < buffer"):
            named_profile("toy1", L0=4).margins(1)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            named_profile("nope")

    def test_validation(self):
        with pytest.raises(ConfigError):
            ParameterSet(alpha=0, beta=1, gamma=1, m=1, k0=1, v0=1, L0=2, M0=2, M=1)

    @pytest.mark.parametrize("label", ["alpha", "beta", "gamma", "m", "M"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, label, value):
        # NaN compares false with 0, so a positivity test alone lets it in.
        with pytest.raises(ConfigError, match=f"{label} must be finite"):
            named_profile("toy1", **{label: value})

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_semibad_floor_must_exceed_level0_probability(self, v0, k0, seed):
        # A level-0 component of V >= 1 cells embeds with probability
        # 2**-V <= 1/2.  Every parameter set that builds puts the semi-bad
        # floor 1 - 1/(v0**5 * k0**4) above that, so level 0 marks every
        # component really-bad; v0 = k0 = 1 would put the floor at 0, and
        # is refused.
        base = dict(alpha=2, beta=1, gamma=1, m=1, L0=2, M0=2, M=1)
        with pytest.raises(ConfigError):
            ParameterSet(k0=1, v0=1, **base)
        if v0 == k0 == 1:
            return
        ParameterSet(k0=k0, v0=v0, **base)
        assert 1 - Fraction(1, v0**5 * k0**4) >= Fraction(15, 16) > Fraction(1, 2)
        # toy-m0-3 leaves about one target block in ten bad.
        ys = build_level0(named_profile("toy-m0-3", v0=v0, k0=k0), "Y", seed,
                          Rect(0, 0, 12, 12))
        assert ys.bad_components
        assert all(c.status == REALLY_BAD for c in ys.bad_components)


class TestPerLevelMemo:
    def test_replace_and_overrides_see_their_own_values(self):
        base = named_profile("published")
        assert base.margins(1) == (4, 30, 31)
        assert base.cell_side(1) == 128
        custom = replace(base, L0=4)
        assert (custom.margins(1), custom.cell_side(1)) == ((32, 1023, 1024), 16384)
        assert base.margins(1) == (4, 30, 31)
        # Built first this time: the default instance does not see it.
        wide = named_profile("toy1", L0=64)
        assert (wide.margins(1), wide.cell_side(1), wide.scale(0)) == ((13, 14, 15), 64, 64)
        toy1 = named_profile("toy1")
        assert (toy1.margins(1), toy1.cell_side(1), toy1.scale(0)) == ((1, 2, 3), 16, 16)

    def test_errors_raise_on_every_call(self, toy1):
        bad = replace(toy1, L0=4)
        for _ in range(3):
            with pytest.raises(ConfigError):
                bad.margins(1)
            with pytest.raises(ConfigError):
                toy1.margins(0)
            with pytest.raises(ConfigError):
                toy1.cells_per_side(0)
            with pytest.raises(ConfigError):
                toy1.scale(-1)
            with pytest.raises(CapExceeded):
                toy1.scale(4)
            with pytest.raises(CapExceeded):
                toy1.margins(4)

    def test_equality_and_repr_unchanged(self):
        used, fresh = named_profile("toy1"), named_profile("toy1")
        used.margins(1), used.scale(1), used.cells_per_side(1)
        assert used == fresh and fresh == used
        assert repr(used) == repr(fresh) == (
            "ParameterSet(alpha=2, beta=1.0, gamma=2.0, m=2.0, k0=2, v0=3, L0=16, M0=9, "
            "M=180.0, name='toy1')")
        assert replace(used, name="other") != used


class TestAuditor:
    def test_ten_rows(self, published_profile):
        report = check_constraints(published_profile)
        assert len(report.rows) == 10

    def test_published_verdicts_frozen(self, published_profile):
        report = check_constraints(published_profile)
        assert [r.satisfied for r in report.rows] == FROZEN_PUBLISHED_VERDICTS
        assert report.overall is False

    def test_boundary_case_strict(self):
        # gamma exactly 40*alpha must fail the strict inequality.
        p = named_profile("published", alpha=7.0, gamma=280.0)
        report = check_constraints(p)
        row = next(r for r in report.rows if r.name == "gamma > 40*alpha")
        assert row.satisfied is False
        assert row.slack == 0

    def test_slack_exact(self, published_profile):
        report = check_constraints(published_profile)
        row = next(r for r in report.rows if r.name == "alpha > 6")
        assert row.slack == Fraction(2)

    def test_exact_arithmetic_on_large_values(self, published_profile):
        report = check_constraints(published_profile)
        row = next(r for r in report.rows if r.name.startswith("m >="))
        # 9*8*4.5e6 + 3*8*350*45000 = 324e6 + 378e6 = 702e6 exactly.
        assert row.rhs == Fraction(702_000_000)

    def test_transcendental_decided(self, published_profile):
        report = check_constraints(published_profile)
        row = report.rows[-1]
        assert row.satisfied is True  # far from the 9/10 boundary

    def test_decimal_context_untouched(self, published_profile):
        with decimal.localcontext() as ctx:
            ctx.prec = 28
            check_constraints(published_profile)
            assert decimal.getcontext().prec == 28

    def test_pure_function(self, published_profile):
        assert check_constraints(published_profile) == check_constraints(published_profile)
