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

from fractions import Fraction
from itertools import zip_longest
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
    _pulled_back,
    _ramification_degree,
    conductor,
    divisor_of_form,
)
from .poly import _SCREEN_PRIME, Polynomial, _integer_parts, _mul_raw, _normalized
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
    """lambda with sigma1^* omega = lambda sigma2^* omega, or None.

    That is P1 Q2 = lambda P2 Q1 for (P_i, Q_i) from `_pulled_back`, with lambda
    the ratio of leading coefficients.  By Gauss's lemma it holds exactly when
    prim(P1) prim(Q2) = prim(P2) prim(Q1) for the primitive integer vectors with
    positive leading entries; over F_p the monic vectors take their place.
    """
    p1, q1 = _pulled_back(corr.sigma1, omega)
    p2, q2 = _pulled_back(corr.sigma2, omega)
    if p1.degree + q2.degree != p2.degree + q1.degree:
        return None
    field = corr.field
    p = field.characteristic
    a, b, c, d = (_normalized(_integer_parts(h.coeffs)[0], p) for h in (p1, q2, p2, q1))
    if _mul_raw(a, b, p) != _mul_raw(c, d, p):
        return None
    return field.scalar(Fraction(p1.coeffs[-1] * q2.coeffs[-1], p2.coeffs[-1] * q1.coeffs[-1]))


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
    pivots are distinct, so the system is triangular.  It is solved
    fraction-free (Bareiss, Math. Comp. 22, 1968): for sigma_i = n_i / e_i, U_i
    times (d2 e1 e2)^nu (e1 e2)^i is V_i = (d2 e2 n1')^nu (e1 n2)^i - (d1 e1 n2')^nu (e2 n1)^i,
    and from R = V_nu, s = 1 and the top pivot pv = V_i[k] down,
    c_i (e1 e2)^(nu - i) = -R[k] / (s pv), R <- pv R - R[k] V_i, s <- s pv.
    Only a zero final R is a solution.  Over F_p the same lines run on
    residues, with e_i = 1 (README, "One fraction-free solver").  Most systems
    with no solution are refused before any product, by _refused_at_points.
    """
    s1, s2 = _solver_inputs(corr)
    field, d1, d2 = corr.field, corr.d1, corr.d2
    p = field.characteristic
    (n1, e1), (n2, e2) = _integer_parts(s1.coeffs), _integer_parts(s2.coeffs)
    if _refused_at_points(n1, e1, n2, e2, d1, d2, nu, p):
        return None

    def reduced(v):
        return [c % p for c in v] if p else v

    a = reduced([d2 * e2 * i * c for i, c in enumerate(n1)][1:])
    b = reduced([d1 * e1 * i * c for i, c in enumerate(n2)][1:])
    m1, m2 = reduced([e2 * c for c in n1]), reduced([e1 * c for c in n2])
    left = right = [1]
    for _ in range(nu):
        left, right = _mul_raw(left, a, p), _mul_raw(right, b, p)
    cols = []
    for i in range(nu + 1):
        if i:
            left, right = _mul_raw(left, m2, p), _mul_raw(right, m1, p)
        cols.append(reduced([x - y for x, y in zip_longest(left, right, fillvalue=0)]))
    res, s, ys = cols.pop(), 1, []  # V_nu is longest: its top entries cancel but stay
    for i in range(nu - 1, -1, -1):
        col = cols[i]
        k, pv = len(col) - 1, col[-1]  # the lead of the left term, nonzero
        r = res[k]
        ys.append((r, s * pv * (e1 * e2) ** (nu - i)))
        if r:
            res = reduced([pv * x - r * y for x, y in zip_longest(res, col, fillvalue=0)])
            s *= pv
    if any(res):
        return None
    # over F_p each den is a product of pivots, nonzero residues, so p divides none
    coeffs = [field.scalar(Fraction(-r, den)) for r, den in reversed(ys)]
    return coeffs, field.scalar(Fraction(d1**nu, d2**nu))


_SCREEN_POINT = 10**10 + 19  # a prime above GF's cap: j x, j = 1..nu + 1, are distinct mod every p > nu


def _refused_at_points(n1, e1, n2, e2, d1, d2, nu, p):
    """True when _solve_flat's system has no solution, shown by V_0..V_nu at nu + 1 points.

    A solution is a relation sum z_i V_i = 0 with z_nu != 0; over Q, scale z to
    a primitive integer vector.  Mod a prime q, z stays nonzero and
    annihilates the matrix [V_i(x_j)], so det = 0 mod q.  A unit determinant
    thus refuses the system; every zero one lets the solve run.  q is p over
    F_p and _SCREEN_PRIME over Q.  The points x_j = j _SCREEN_POINT avoid 0,
    +-1 and +-2, where Chebyshev maps agree with their flat forms.
    """
    q = p or _SCREEN_PRIME
    rows = []
    for j in range(1, nu + 2):
        x, ends = j * _SCREEN_POINT % q, []
        for n in (n1, n2):  # n(x) and n'(x) by one Horner pass
            value = slope = 0
            for c in reversed(n):
                slope, value = (slope * x + value) % q, (value * x + c) % q
            ends += (value, slope)
        v1, t1, v2, t2 = ends
        left, right, row = pow(d2 * e2 * t1, nu, q), pow(d1 * e1 * t2, nu, q), []
        for _ in range(nu + 1):  # V_i(x) = left m2(x)^i - right m1(x)^i
            row.append((left - right) % q)
            left, right = left * e1 * v2 % q, right * e2 * v1 % q
        rows.append(row)
    while rows:  # elimination on the first column, fraction-free: it keeps det = 0 or not
        pivot = next((r for r in rows if r[0]), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        a = pivot[0]
        rows = [[(a * x - r[0] * y) % q for x, y in zip(r[1:], pivot[1:])] for r in rows]
    return True


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


class GroupReport(NamedTuple):
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


def _moved_by_affine(report, phi):
    """find_primitive's report for (sigma1, sigma2), moved to (phi sigma_i phi^{-1}).

    phi(t) = alpha t + beta with alpha = a/d, beta = b/d (c = 0).  The primitive
    moves to (phi^{-1})^* omega: a' = alpha a + beta at weight 1, and at weight 2
    s' = alpha s + 2 beta, q' = alpha^2 q + alpha beta s + beta^2.  lambda, the
    weight, the status and complete stay, since the solvers' answer is unique.
    """
    if report.status != "cyclic":
        return report
    field, alpha, beta = phi.field, phi.a / phi.d, phi.b / phi.d
    if report.weight == 1:
        a = alpha * report.params["a"] + beta
        return report._replace(params={"a": a}, primitive=flat_form_weight1(field, a))
    s, q = report.params["s"], report.params["q"]
    s, q = alpha * s + 2 * beta, alpha * (alpha * q + beta * s) + beta * beta
    return report._replace(params={"s": s, "q": q}, primitive=flat_form_weight2(field, s, q))


def genus_conductor_bound(g_x, g_y, d1, d2):
    """(3(2g_x - 2) - (2 d1 + d2)(2 g_y - 2)) / (d1 - d2), exact."""
    for name, g in (("g_x", g_x), ("g_y", g_y)):
        if isinstance(g, bool) or not isinstance(g, int) or g < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    if any(isinstance(d, bool) or not isinstance(d, int) for d in (d1, d2)) or d1 < 1 or d2 < 1:
        raise ValueError("degrees must be positive integers")
    _require_d1_above_d2(d1, d2)
    return Fraction(3 * (2 * g_x - 2) - (2 * d1 + d2) * (2 * g_y - 2), d1 - d2)


class BoundCheck(NamedTuple):
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
    bound = ramification_conductor_bound(corr)  # first: owns d1 > d2, tameness, Riemann-Hurwitz
    if semi_invariance_ratio(corr, omega) is None:
        raise NotSemiInvariant(f"{omega} is not semi-invariant for {corr!r}")
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
