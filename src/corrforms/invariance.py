"""Semi-invariance decisions, flat-form solvers and conductor bounds.

A correspondence is a pair of separable self-maps (sigma1, sigma2) of the
line over one field.  A form omega is semi-invariant when
sigma1^* omega = lambda * sigma2^* omega for a nonzero scalar lambda.

The solvers search the two flat shapes dt/(t-a) and (dt)^2/(t^2 - s t + q)
for polynomial pairs with deg sigma1 > deg sigma2; leading-coefficient
comparison pins lambda to d1/d2 (resp. its square), after which a / (s, q)
are forced by exact division / an exact rank-2 linear system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    FieldMismatch,
    HypothesisNotMet,
    InseparableMap,
    NormalizationRequired,
    NotSemiInvariant,
    UnsupportedEqualDegrees,
    WildRamification,
)
from .geometry import (
    DifferentialForm,
    RationalMap,
    conductor,
    divisor_of_form,
    pullback,
    ramification_divisor,
)
from .poly import Polynomial
from .ratfunc import RationalFunction


class Correspondence:
    """A pair of separable self-maps of the line over a common field."""

    __slots__ = ("sigma1", "sigma2")

    def __init__(self, sigma1, sigma2):
        sigma1 = _as_map(sigma1)
        sigma2 = _as_map(sigma2)
        if sigma1.field != sigma2.field:
            raise FieldMismatch("the two maps live over different fields")
        for which, m in (("sigma1", sigma1), ("sigma2", sigma2)):
            if not m.is_separable:
                raise InseparableMap(f"{which} = {m} is inseparable")
        self.sigma1 = sigma1
        self.sigma2 = sigma2

    @property
    def field(self):
        return self.sigma1.field

    @property
    def d1(self):
        return self.sigma1.degree

    @property
    def d2(self):
        return self.sigma2.degree

    @property
    def is_polynomial_pair(self):
        return self.sigma1.is_polynomial and self.sigma2.is_polynomial

    def __repr__(self):
        return f"Correspondence({self.sigma1.body!r}, {self.sigma2.body!r})"


def _as_map(m):
    if isinstance(m, RationalMap):
        return m
    if isinstance(m, (Polynomial, RationalFunction)):
        return RationalMap(m)
    raise TypeError("expected a RationalMap, Polynomial or RationalFunction")


def flat_form_weight1(field, a):
    """dt/(t - a)."""
    a = field.scalar(a)
    den = Polynomial(field, [-a, field.one()])
    return DifferentialForm(RationalFunction(Polynomial.one(field), den), 1)


def flat_form_weight2(field, s, q):
    """(dt)^2 / (t^2 - s t + q)."""
    s, q = field.scalar(s), field.scalar(q)
    den = Polynomial(field, [q, -s, field.one()])
    return DifferentialForm(RationalFunction(Polynomial.one(field), den), 2)


def semi_invariance_ratio(corr, omega):
    """lambda with sigma1^* omega = lambda sigma2^* omega, or None."""
    w1 = pullback(corr.sigma1, omega)
    w2 = pullback(corr.sigma2, omega)
    ratio = w1.coeff / w2.coeff
    if ratio.is_constant:
        return ratio.constant_value()
    return None


class Weight1Solution(NamedTuple):
    a: object
    ratio: object


class Weight2Solution(NamedTuple):
    s: object
    q: object
    ratio: object
    degenerate: bool


def _require_d1_above_d2(d1, d2):
    """Solvers and conductor bounds need deg sigma1 > deg sigma2."""
    if d1 <= d2:
        raise UnsupportedEqualDegrees(
            "deg sigma1 must exceed deg sigma2; no conductor bound exists otherwise"
            f" (got d1 = {d1}, d2 = {d2})"
        )


def _solver_inputs(corr):
    """Polynomial bodies, after the solver preconditions."""
    if not corr.is_polynomial_pair:
        raise NormalizationRequired(
            "flat-form solvers need polynomial maps; conjugate with mobius_conjugate first"
        )
    _require_d1_above_d2(corr.d1, corr.d2)
    p = corr.field.characteristic
    if p and (corr.d1 % p == 0 or corr.d2 % p == 0):
        raise WildRamification("infinity", f"map degree divisible by p = {p}")
    return corr.sigma1.polynomial, corr.sigma2.polynomial


def solve_weight1_flat(corr):
    """Find dt/(t-a) with sigma1^* = lambda sigma2^*, or None.

    The functional equation is sigma1'(sigma2 - a) = lambda sigma2'(sigma1 - a)
    with lambda = d1/d2 pinned by leading coefficients, so a is the exact
    constant quotient of two explicit polynomials.
    """
    s1, s2 = _solver_inputs(corr)
    field = corr.field
    lam = field.scalar(corr.d1) / field.scalar(corr.d2)
    n_poly = s1.derivative() * s2 - lam * (s1 * s2.derivative())
    d_poly = s1.derivative() - lam * s2.derivative()
    if n_poly.is_zero:
        return Weight1Solution(field.zero(), lam)
    quot, rem = divmod(n_poly, d_poly)
    if not rem.is_zero or quot.degree != 0:
        return None
    return Weight1Solution(quot.coefficient(0), lam)


def solve_weight2_flat(corr):
    """Find (dt)^2/(t^2 - s t + q) with ratio lambda = (d1/d2)^2, or None.

    Expanding sigma1'^2 (sigma2^2 - s sigma2 + q) = lambda sigma2'^2 (...)
    gives M = s U - q V over coefficient vectors.  U and V have distinct
    degrees with nonvanishing leading terms, so the system has rank 2: the
    two pivot rows determine (s, q) and the full vector is then verified.
    """
    s1, s2 = _solver_inputs(corr)
    field = corr.field
    lam = (field.scalar(corr.d1) / field.scalar(corr.d2)) ** 2
    ds1, ds2 = s1.derivative(), s2.derivative()
    p1sq, p2sq = ds1 * ds1, ds2 * ds2
    m_vec = p1sq * (s2 * s2) - lam * (p2sq * (s1 * s1))
    u_vec = p1sq * s2 - lam * (p2sq * s1)
    v_vec = p1sq - lam * p2sq
    iu, iv = u_vec.degree, v_vec.degree
    s = m_vec.coefficient(iu) / u_vec.leading
    q = (s * u_vec.coefficient(iv) - m_vec.coefficient(iv)) / v_vec.leading
    if m_vec != u_vec * s - v_vec * q:
        return None
    degenerate = s * s == 4 * q
    return Weight2Solution(s, q, lam, degenerate)


@dataclass(frozen=True)
class GroupReport:
    """Outcome of the primitive search.

    status is "trivial" or "cyclic"; complete records whether d1 >= 14*d2,
    the regime where a trivial answer is a proof rather than a caveat.
    flatness is "weight1", "weight2" or "weight1_square" (degenerate a = b).
    """

    status: str
    complete: bool
    weight: int | None = None
    ratio: object = None
    primitive: DifferentialForm | None = None
    flatness: str | None = None
    params: dict | None = None


def find_primitive(corr):
    """Search flat weights 1 then 2 for a primitive semi-invariant form."""
    complete = corr.d1 >= 14 * corr.d2
    w1 = solve_weight1_flat(corr)
    if w1 is not None:
        return GroupReport(
            status="cyclic",
            complete=complete,
            weight=1,
            ratio=w1.ratio,
            primitive=flat_form_weight1(corr.field, w1.a),
            flatness="weight1",
            params={"a": w1.a},
        )
    w2 = solve_weight2_flat(corr)
    if w2 is not None:
        if w2.degenerate:
            # a degenerate hit factors as a weight-1 hit, which was just excluded
            raise RuntimeError("degenerate weight-2 solution without a weight-1 one")
        return GroupReport(
            status="cyclic",
            complete=complete,
            weight=2,
            ratio=w2.ratio,
            primitive=flat_form_weight2(corr.field, w2.s, w2.q),
            flatness="weight2",
            params={"s": w2.s, "q": w2.q},
        )
    return GroupReport(status="trivial", complete=complete)


def genus_conductor_bound(g_x, g_y, d1, d2):
    """(3(2g_x - 2) - (2 d1 + d2)(2 g_y - 2)) / (d1 - d2), exact."""
    for name, g in (("g_x", g_x), ("g_y", g_y)):
        if not isinstance(g, int) or g < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    if not (isinstance(d1, int) and isinstance(d2, int)) or d1 < 1 or d2 < 1:
        raise ValueError("degrees must be positive integers")
    _require_d1_above_d2(d1, d2)
    return Fraction(3 * (2 * g_x - 2) - (2 * d1 + d2) * (2 * g_y - 2), d1 - d2)


@dataclass(frozen=True)
class BoundCheck:
    conductor: int
    bound: Fraction
    holds: bool


def ramification_conductor_bound(corr):
    """(2 deg R_sigma1 + deg R_sigma2)/(d1 - d2), exact; needs tame maps."""
    _require_d1_above_d2(corr.d1, corr.d2)
    r1 = ramification_divisor(corr.sigma1).degree()
    r2 = ramification_divisor(corr.sigma2).degree()
    return Fraction(2 * r1 + r2, corr.d1 - corr.d2)


def ramification_conductor_check(corr, omega):
    """conductor(omega) <= ramification_conductor_bound(corr) for semi-invariant omega."""
    _require_d1_above_d2(corr.d1, corr.d2)
    if semi_invariance_ratio(corr, omega) is None:
        raise NotSemiInvariant(f"{omega} is not semi-invariant for {corr!r}")
    bound = ramification_conductor_bound(corr)
    cond = conductor(omega)
    return BoundCheck(cond, bound, cond <= bound)


class AffineSumCheck(NamedTuple):
    total: int
    expected: int
    holds: bool


def affine_multiplicity_sum(omega):
    """Sum of affine multiplicities of div(omega) against the expected -weight."""
    total = divisor_of_form(omega).affine_multiplicity_sum()
    expected = -omega.weight
    return AffineSumCheck(total, expected, total == expected)


def affine_conductor_guard(corr, omega):
    """In the regime d1 >= 4*d2 a semi-invariant form has at most 2 affine support points."""
    if not corr.is_polynomial_pair:
        raise NormalizationRequired("guard is stated for polynomial maps")
    if corr.d1 < 4 * corr.d2:
        raise HypothesisNotMet(
            f"needs d1 >= 4*d2 (got d1 = {corr.d1}, d2 = {corr.d2})"
        )
    if semi_invariance_ratio(corr, omega) is None:
        raise NotSemiInvariant(f"{omega} is not semi-invariant for {corr!r}")
    return divisor_of_form(omega).affine_support_size() <= 2
