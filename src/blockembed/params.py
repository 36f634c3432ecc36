"""Parameter sets, derived scales, named profiles, and the constraint auditor.

The construction depends on a handful of numeric parameters.  A
``ParameterSet`` carries them together with the derived per-level scales and
margins.  ``check_constraints`` audits a parameter set against the ten
inequalities the full-scale construction requires; toy profiles are allowed
to violate them, and the auditor reports rather than repairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import wraps
from typing import NamedTuple

from .errors import CapExceeded, ConfigError

# Scales larger than this (in level-0 cell units) are rejected as overflow.
SCALE_CAP = 10**9


class Margins(NamedTuple):
    """Per-level geometry margins, in level-(j-1) cell units.

    ``clearance`` is the exclusion distance between boundary polylines and
    bad components, and ``buffer`` is the half-width of the buffer annulus
    around a cell.
    """

    clearance: int
    buffer: int


def _per_level(method):
    """Keep a per-level value on its ParameterSet after the first call; a
    call that raises stores nothing, so it raises again on the next."""
    @wraps(method)
    def cached(self, j):
        key = (method.__name__, j)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = method(self, j)
            return value
    return cached


@dataclass(frozen=True)
class ParameterSet:
    """All numeric parameters of the construction plus derived quantities.

    Scales grow as ``scale(j) = L0 ** (alpha ** j)``; the estimate exponent
    at level j is ``m + 2**-j``.  Each instance computes its per-level
    values once.
    """

    alpha: float
    beta: float
    gamma: float
    m: float
    k0: int
    v0: int
    L0: int
    M0: int
    M: float
    name: str = "custom"
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for label in ("alpha", "beta", "gamma", "m", "M"):
            value = getattr(self, label)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{label} must be finite")
            if value <= 0:
                raise ConfigError(f"{label} must be positive")
        for label in ("k0", "v0", "L0", "M0"):
            value = getattr(self, label)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{label} must be a positive integer")
        if self.L0 < 2:
            raise ConfigError("L0 must be at least 2")
        # The semi-bad floor 1 - 1/(v0**5 * k0**4) is then at least 15/16,
        # above the 2**-V <= 1/2 with which a level-0 component embeds: no
        # level-0 component is semi-bad, and hierarchy marks every one
        # really-bad without a test.
        if self.v0**5 * self.k0**4 <= 2:
            raise ConfigError("v0**5 * k0**4 must exceed 2")

    @_per_level
    def scale(self, j: int) -> int:
        """Side length of a level-j cell in site units of the index lattice."""
        if j < 0:
            raise ConfigError("level must be nonnegative")
        if j == 0:
            return self.L0
        exponent = self.alpha**j
        if exponent != int(exponent):
            raise ConfigError("non-integer alpha powers give unrepresentable scales")
        value = self.L0 ** int(exponent)
        if value > SCALE_CAP:
            raise CapExceeded(f"scale at level {j} exceeds cap {SCALE_CAP}")
        return value

    @_per_level
    def cell_side(self, j: int) -> int:
        """Side of a level-j cell counted in level-0 cells (1 at level 0)."""
        if j == 0:
            return 1
        side, rem = divmod(self.scale(j), self.scale(0))
        if rem:
            raise ConfigError("level scales do not nest")
        return side

    @_per_level
    def cells_per_side(self, j: int) -> int:
        """Number of level-(j-1) cells per side of a level-j cell."""
        if j < 1:
            raise ConfigError("level must be at least 1")
        side, rem = divmod(self.cell_side(j), self.cell_side(j - 1))
        if rem:
            raise ConfigError("level scales do not nest")
        return side

    def m_exponent(self, j: int) -> float:
        """Tail-estimate exponent at level j (decreases toward m)."""
        return self.m + 2.0**-j

    @_per_level
    def margins(self, j: int) -> Margins:
        """Clearance/buffer margins for level-j cells.

        They follow the full-scale formulas (previous scale to the 4th and
        5th powers), capped so that buffer < cell_side/4; a cell too narrow
        for 2 <= clearance < buffer raises.
        """
        if j < 1:
            raise ConfigError("margins are defined for levels >= 1")
        prev = self.scale(j - 1)
        buffer = min(prev**5, self.cell_side(j) // 4 - 1)
        clearance = min(10 * prev**4, buffer - 1)
        margins = Margins(clearance, buffer)
        if not (2 <= margins.clearance < margins.buffer):
            raise ConfigError(
                f"margins at level {j} must satisfy 2 <= clearance < buffer, got {margins}"
            )
        return margins

    def straight_curve_mass(self, j: int) -> float:
        """Minimum probability of keeping a valid straight boundary index."""
        return 1.0 - 10.0 ** -(j + 10)


PROFILES: dict[str, dict] = {
    # Published full-scale values; L0/M0/M are placeholders because the
    # source only requires them to be "sufficiently large".
    "published": dict(
        alpha=8, beta=4_500_000.0, gamma=350.0, m=150_000_000.0,
        k0=13_000_000, v0=45_000, L0=2, M0=3, M=60.0,
    ),
    # Desk-scale profile for level-1 construction experiments.
    "toy1": dict(
        alpha=2, beta=1.0, gamma=2.0, m=2.0,
        k0=2, v0=3, L0=16, M0=9, M=180.0,
    ),
    # Level-0 exactness profiles.
    "toy-m0-2": dict(
        alpha=2, beta=1.0, gamma=2.0, m=2.0,
        k0=2, v0=3, L0=16, M0=2, M=40.0,
    ),
    "toy-m0-3": dict(
        alpha=2, beta=1.0, gamma=2.0, m=2.0,
        k0=2, v0=3, L0=16, M0=3, M=60.0,
    ),
    "toy-m0-6": dict(
        alpha=2, beta=1.0, gamma=2.0, m=2.0,
        k0=2, v0=3, L0=16, M0=6, M=120.0,
    ),
    "toy-m0-9": dict(
        alpha=2, beta=1.0, gamma=2.0, m=2.0,
        k0=2, v0=3, L0=16, M0=9, M=180.0,
    ),
}


def named_profile(name: str, **overrides) -> ParameterSet:
    """Return a bundled ParameterSet by name, optionally overriding fields."""
    try:
        base = PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown profile {name!r}") from None
    p = ParameterSet(name=name, **base)
    return replace(p, **overrides) if overrides else p


@dataclass(frozen=True)
class ConstraintRow:
    """One audited inequality: exact sides, verdict, and slack.

    ``satisfied`` is None when the comparison could not be certified within
    the transcendental error band.
    """

    name: str
    lhs: Fraction
    rhs: Fraction
    satisfied: bool | None
    slack: Fraction


@dataclass(frozen=True)
class ConstraintReport:
    rows: tuple[ConstraintRow, ...]
    overall: bool

    def __iter__(self):
        return iter(self.rows)


def _exact(value) -> Fraction:
    return Fraction(value)


# The error band certified for the one transcendental constraint.
TRANSCENDENTAL_BAND = Fraction(1, 10**15)


def _power_bound(v0: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of (1 - 10**-10) ** (4 * v0)."""
    with localcontext() as ctx:
        ctx.prec = 60
        base = Decimal(1) - Decimal(10) ** -10
        value = (4 * v0 * base.ln()).exp()
    # Decimal ops at 60 digits are correct to far better than the band.
    center = Fraction(value)
    return center - TRANSCENDENTAL_BAND, center + TRANSCENDENTAL_BAND


def check_constraints(p: ParameterSet) -> ConstraintReport:
    """Audit a parameter set against the ten required inequalities.

    The nine algebraic constraints are evaluated with exact rational
    arithmetic.  The tenth involves a transcendental power and is decided
    via a certified enclosure; verdicts inside the error band are reported
    as inconclusive (None) rather than guessed.
    """
    a = _exact(p.alpha)
    b = _exact(p.beta)
    g = _exact(p.gamma)
    m = _exact(p.m)
    k0 = _exact(p.k0)
    v0 = _exact(p.v0)

    algebraic = [
        ("alpha > 6", a, Fraction(6), False),
        ("gamma > 40*alpha", g, 40 * a, False),
        ("beta > 1500*alpha*gamma", b, 1500 * a * g, False),
        ("k0 > 6000*alpha*gamma", k0, 6000 * a * g, False),
        ("v0 > 3000*alpha", v0, 3000 * a, False),
        ("8*gamma*(v0-1) > 3*alpha*beta", 8 * g * (v0 - 1), 3 * a * b, False),
        ("m >= 9*alpha*beta + 3*alpha*gamma*v0", m, 9 * a * b + 3 * a * g * v0, True),
        ("gamma*k0 > 300*alpha*beta", g * k0, 300 * a * b, False),
        ("k0 > 10*gamma", k0, 10 * g, False),
    ]
    rows = []
    for name, lhs, rhs, allow_equal in algebraic:
        ok = lhs >= rhs if allow_equal else lhs > rhs
        rows.append(ConstraintRow(name, lhs, rhs, ok, lhs - rhs))

    lo, hi = _power_bound(p.v0)
    rhs = Fraction(9, 10)
    if lo > rhs:
        verdict: bool | None = True
    elif hi <= rhs:
        verdict = False
    else:
        verdict = None
    center = (lo + hi) / 2
    rows.append(
        ConstraintRow("(1 - 10**-10)**(4*v0) > 9/10", center, rhs, verdict, center - rhs)
    )

    overall = all(r.satisfied is True for r in rows)
    return ConstraintReport(tuple(rows), overall)
