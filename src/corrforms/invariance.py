"""Semi-invariance decisions, flat-form solvers and conductor bounds.

A correspondence is a pair of separable self-maps (sigma1, sigma2) of the
line over one field.  A form omega is semi-invariant when
sigma1^* omega = lambda * sigma2^* omega for a nonzero scalar lambda.

The solvers search the two flat shapes dt/(t-a) and (dt)^2/(t^2 - s t + q)
for polynomial pairs with deg sigma1 > deg sigma2.  Both are (dt)^nu / h,
h monic of degree nu; leading coefficients pin lambda to (d1/d2)^nu, and
one triangular linear system then forces the coefficients of h.
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
    _ramification_degree,
    conductor,
    divisor_of_form,
    pullback,
)
from .poly import Polynomial, _inverse
from .ratfunc import RationalFunction


class Correspondence:
    """A pair of separable self-maps of the line over a common field."""

    __slots__ = ("sigma1", "sigma2")

    def __init__(self, sigma1, sigma2):
        sigma1, sigma2 = (m if isinstance(m, RationalMap) else RationalMap(m) for m in (sigma1, sigma2))
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
    w1 = pullback(corr.sigma1, omega).coeff
    w2 = pullback(corr.sigma2, omega).coeff
    # reduced with monic denominators, so w1 = lambda w2 exactly when the
    # denominators agree and w1.num = lambda w2.num: no quotient to build
    if w1.den != w2.den or w1.num.degree != w2.num.degree:
        return None
    field = corr.field
    lam = field.raw(w1.num.coeffs[-1] * _inverse(w2.num.coeffs[-1], field.characteristic))
    return field.wrap(lam) if w2.num._scaled(lam) == w1.num else None


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


def _solve_flat(corr, nu):
    """([c_0, ..., c_{nu-1}], lambda) for a semi-invariant (dt)^nu / h, h monic, or None.

    With lambda = (d1/d2)^nu pinned by leading coefficients, the equation
    sigma1'^nu h(sigma2) = lambda sigma2'^nu h(sigma1) is linear in h:
    sum_{i<nu} c_i U_i = -U_nu for U_i = sigma1'^nu sigma2^i - lambda sigma2'^nu sigma1^i.
    As p divides neither degree, deg U_i = nu (d1 - 1) + i d2 for i < nu: the
    pivots are distinct, so the system is triangular.  The c_i are read off
    from the top down, and only a zero residue is a solution.
    """
    s1, s2 = _solver_inputs(corr)
    field = corr.field
    lam = field.raw(Fraction(corr.d1, corr.d2) ** nu)
    left, right = s1.derivative() ** nu, lam * s2.derivative() ** nu
    cols = [left - right]
    for _ in range(nu):
        left, right = left * s2, right * s1
        cols.append(left - right)
    residue, coeffs = cols.pop(), []
    for col in reversed(cols):
        r = residue.coeffs[col.degree] if col.degree < len(residue.coeffs) else 0
        coeffs.insert(0, field.raw(-r * _inverse(col.coeffs[-1], field.characteristic)))
        residue = residue + col._scaled(coeffs[0])
    return ([field.wrap(c) for c in coeffs], field.wrap(lam)) if residue.is_zero else None


def solve_weight1_flat(corr):
    """Find dt/(t-a) with sigma1^* = lambda sigma2^*, lambda = d1/d2, or None."""
    found = _solve_flat(corr, 1)
    if found is None:
        return None
    (c0,), lam = found
    return Weight1Solution(-c0, lam)


def solve_weight2_flat(corr):
    """Find (dt)^2/(t^2 - s t + q) with ratio (d1/d2)^2, or None; degenerate if s^2 = 4q."""
    found = _solve_flat(corr, 2)
    if found is None:
        return None
    (q, c1), lam = found
    s = -c1
    return Weight2Solution(s, q, lam, s * s == 4 * q)


@dataclass(frozen=True)
class GroupReport:
    """Outcome of the primitive search.

    status is "trivial" or "cyclic"; complete records whether d1 >= 14*d2,
    the regime where a trivial answer is a proof rather than a caveat.
    flatness is "weight1" or "weight2".
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
    found = solve_weight1_flat(corr)
    if found is not None:
        params, primitive = {"a": found.a}, flat_form_weight1(corr.field, found.a)
    else:
        found = solve_weight2_flat(corr)
        if found is None:
            return GroupReport(status="trivial", complete=complete)
        if found.degenerate:
            # a degenerate hit factors as a weight-1 hit, which was just excluded
            raise RuntimeError("degenerate weight-2 solution without a weight-1 one")
        params, primitive = {"s": found.s, "q": found.q}, flat_form_weight2(corr.field, found.s, found.q)
    nu = primitive.weight
    return GroupReport(
        status="cyclic", complete=complete, weight=nu, ratio=found.ratio,
        primitive=primitive, flatness=f"weight{nu}", params=params,
    )


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
    """(2 deg R_sigma1 + deg R_sigma2)/(d1 - d2), exact; needs tame maps.

    deg R_sigma is deg W + e_inf - 1 for the Wronskian W of sigma in every
    characteristic; when 0 < p <= deg sigma, `_tame_places` first raises
    WildRamification on a wild map.  It must equal 2 deg sigma - 2 by
    Riemann-Hurwitz on the line; a mismatch is an internal fault and raises
    AssertionError.
    """
    _require_d1_above_d2(corr.d1, corr.d2)
    r1 = _ramification_degree(corr.sigma1)
    r2 = _ramification_degree(corr.sigma2)
    for which, r, d in (("sigma1", r1, corr.d1), ("sigma2", r2, corr.d2)):
        if r != 2 * d - 2:
            raise AssertionError(f"Riemann-Hurwitz failed: deg R_{which} = {r}, not 2*{d} - 2")
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
