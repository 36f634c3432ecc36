"""Parameter profiles, derived scales, and the constraint auditor."""

import decimal
from fractions import Fraction

import pytest

from blockembed.errors import CapExceeded, ConfigError
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

    def test_margin_override(self, toy1):
        from dataclasses import replace

        p = replace(toy1, margin_overrides={1: (1, 2, 3)})
        assert p.margins(1) == (1, 2, 3)

    def test_bad_override_rejected(self, toy1):
        from dataclasses import replace

        p = replace(toy1, margin_overrides={1: (3, 2, 1)})
        with pytest.raises(ConfigError):
            p.margins(1)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            named_profile("nope")

    def test_semibad_threshold(self, toy1):
        assert toy1.semibad_threshold(0) == 1 - Fraction(1, 3**5 * 2**4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ParameterSet(alpha=0, beta=1, gamma=1, m=1, k0=1, v0=1, L0=2, M0=2, M=1)


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
