"""Maps, forms, divisors and ramification on the projective line.

Frozen values: ramification of t^d and t^2 - 2, divisors of dt/t and of
(dt)^2/((t-1)(t-2)), pullbacks under squaring maps.  Property checks: the
degree formula deg div(omega) = -2 nu, functoriality of pullback, the
Riemann-Hurwitz count deg R = 2d - 2 for tame maps, the index rule
e = k + 1 against a Taylor refinement written here (for p = 0, for
p > deg sigma, and for p = 2, 3, 5, 7 <= deg sigma, where a map is either
refused or has that index everywhere), deg R = deg W + e_inf - 1 against
the ramification divisor, the local order identity at every point of
the relevant supports, Divisor's one-pass canonical form against the
two-stage refinement it replaced (conftest.divisor_by_refinement),
pullback against the RationalFunction algebra it replaced
(conftest.pullback_by_ratfunc), and the unreduced pullback pair, which
keeps no common power of a squarefree denominator of the map.
"""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from corrforms import geometry
from corrforms.errors import InseparableMap, WildInput, WildRamification
from corrforms.field import GF, QQ, FpElement
from corrforms.geometry import (
    DifferentialForm,
    Divisor,
    MobiusTransform,
    RationalMap,
    Tameness,
    _ramification_degree,
    check_order_identity,
    conductor,
    divisor_of_form,
    is_tame,
    mobius_conjugate,
    pullback,
    pullback_divisor,
    ramification_divisor,
    ramification_places,
)
from corrforms.poly import Polynomial, gcd_monic, squarefree_decompose
from corrforms.ratfunc import RationalFunction, _wronskian

from conftest import (
    derivative_by_quotient_rule,
    divisor_by_refinement,
    fp,
    pullback_by_ratfunc,
    qp,
    random_poly,
    random_separable_poly,
    rf,
)


def w1(num, den):
    return DifferentialForm(rf(num, den), 1)


def w2(num, den):
    return DifferentialForm(rf(num, den), 2)


# ---------------------------------------------------------------- rational functions


def test_rational_function_normalisation():
    t = qp(0, 1)
    f = rf(2 * t**2 + 2 * t, 4 * t)
    assert f.num == qp(Fraction(1, 2), Fraction(1, 2)) and f.den == qp(1)
    assert f.is_polynomial
    g = rf(t**2 - 1, 2 * t - 2)
    assert g.num == qp(Fraction(1, 2), Fraction(1, 2)) and g.den == qp(1)
    zero = rf(qp(), t)
    assert zero.is_zero and zero.den == qp(1)
    with pytest.raises(ZeroDivisionError):
        rf(t, qp())


def test_rational_function_arithmetic():
    t = qp(0, 1)
    a = rf(qp(1), t)  # 1/t
    b = rf(t, t + 1)
    assert a + b == rf(t**2 + t + 1, t**2 + t)
    assert a * b == rf(qp(1), t + 1)
    assert (a - a).is_zero
    assert a / a == RationalFunction.constant(QQ, 1)
    assert a**-2 == rf(t**2, qp(1))


def test_rational_function_compose_and_call():
    t = qp(0, 1)
    f = rf(qp(1), t)  # 1/t
    assert f.compose(rf(qp(1), t)) == rf(t, qp(1))  # 1/(1/t) = t
    g = rf(t**2 - 1, t)
    assert g(Fraction(2)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        g(Fraction(0))


def test_rational_map_basics():
    t = qp(0, 1)
    sq = RationalMap(t**2)
    assert sq.degree == 2 and sq.is_polynomial
    inv = RationalMap(rf(qp(1), t))
    assert inv.degree == 1 and not inv.is_polynomial
    assert sq.compose(sq).degree == 4
    assert sq(Fraction(3)) == 9
    with pytest.raises(ValueError):
        RationalMap(qp(5))  # constants are not maps
    # t^5 over F_5 is inseparable (falls in F_5[t^5])
    assert not RationalMap(fp(5, 0, 0, 0, 0, 0, 1)).is_separable
    assert RationalMap(fp(5, 0, 1, 0, 0, 0, 1)).is_separable


def _in_t_to_the_p(f, p):
    """f(t^p): a polynomial with zero derivative in characteristic p."""
    coeffs = []
    for c in f.coeffs:
        coeffs += [c] + [0] * (p - 1)
    return Polynomial(f.field, coeffs)


def test_is_separable_is_the_nonzero_derivative():
    rng = random.Random(31)
    seen = set()
    for p in (2, 3, 5):
        field = GF(p)
        for _ in range(60):
            num = random_poly(rng, field, rng.randint(0, 4))
            den = random_poly(rng, field, rng.randint(0, 3))
            if rng.random() < 0.3:
                num, den = _in_t_to_the_p(num, p), _in_t_to_the_p(den, p)
            if den.is_zero or rf(num, den).is_constant:
                continue
            sigma = RationalMap(rf(num, den))
            assert sigma.is_separable == (not derivative_by_quotient_rule(sigma.body).is_zero), sigma
            seen.add((sigma.is_polynomial, sigma.is_separable))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    t = fp(5, 0, 1)
    sigma = RationalMap(rf(t**5 + 1, t**5 + 2))
    assert not sigma.is_separable and derivative_by_quotient_rule(sigma.body).is_zero
    verdict = is_tame(sigma)
    assert verdict.tame is False and verdict.witness == "inseparable"


def test_is_separable_matches_the_wronskian():
    # A/B is coprime, so the Wronskian A'B - AB' vanishes exactly when A' = B' = 0
    rng = random.Random(37)
    for field, p in ((QQ, 3), (GF(2), 2), (GF(3), 3), (GF(7), 7)):
        t = Polynomial.variable(field)
        bodies = [rf(t**p), rf(t**p + 1), rf(t ** (2 * p) + 1, t**p), rf(t**p + t)]
        while len(bodies) < 64:
            num = random_poly(rng, field, rng.randint(0, 4))
            den = random_poly(rng, field, rng.randint(0, 3))
            if rng.random() < 0.3:
                num, den = _in_t_to_the_p(num, p), _in_t_to_the_p(den, p)
            if not den.is_zero and not rf(num, den).is_constant:
                bodies.append(rf(num, den))
        verdicts = set()
        for body in bodies:
            sigma = RationalMap(body)
            assert sigma.is_separable == (not _wronskian(body).is_zero), sigma
            verdicts.add(sigma.is_separable)
        assert verdicts == ({True} if field is QQ else {True, False})


@pytest.mark.parametrize("p", [7, 2147483647])
def test_is_separable_reads_the_wronskian_of_the_tameness_check(monkeypatch, p):
    t = fp(p, 0, 1)
    calls = []
    derivative = Polynomial.derivative
    monkeypatch.setattr(Polynomial, "derivative", lambda self: calls.append(self) or derivative(self))
    for sigma in (RationalMap(t**3 + t), RationalMap(rf(t**2 + 1, t + 3))):
        geometry._tame_places(sigma)
        calls.clear()
        assert sigma.is_separable and calls == [], sigma


# ---------------------------------------------------------------------- pullbacks


def test_pullback_frozen():
    t = qp(0, 1)
    # (t^2)^* dt/t = 2 dt/t
    got = pullback(RationalMap(t**2), w1(qp(1), t))
    assert got.weight == 1 and got.coeff == rf(qp(2), t)
    # (t^2 - 2)^* (dt)^2/(t^2-4) = 4 (dt)^2/(t^2-4)
    got = pullback(RationalMap(t**2 - 2), w2(qp(1), t**2 - 4))
    assert got.weight == 2 and got.coeff == rf(qp(4), t**2 - 4)
    # shifted flat coordinate: (t^3)^* dt/t = 3 dt/t stays flat
    got = pullback(RationalMap(t**3), w1(qp(1), t))
    assert got.coeff == rf(qp(3), t)


def test_pullback_respects_weight_scaling():
    t = qp(0, 1)
    omega = w2(qp(1), t**2 - 4)
    tcheb = RationalMap(t**2 - 2)
    assert pullback(tcheb, omega).coeff == rf(qp(4), t**2 - 4)
    # weight-1 flat form under the same map is NOT proportional to itself
    eta = pullback(tcheb, w1(qp(1), t))
    assert not (eta.coeff * rf(t, qp(1))).is_constant


def test_pullback_functoriality_random():
    rng = random.Random(21)
    t = qp(0, 1)
    for _ in range(25):
        f = random_separable_poly(rng, QQ, rng.randint(2, 4))
        g = random_separable_poly(rng, QQ, rng.randint(2, 3))
        num = random_poly(rng, QQ, rng.randint(0, 2), nonzero_lead=True)
        den = random_poly(rng, QQ, rng.randint(1, 2))
        if num.is_zero or den.is_zero:
            continue
        nu = rng.choice([1, 2, 3])
        omega = DifferentialForm(rf(num, den), nu)
        sigma, tau = RationalMap(f), RationalMap(g)
        composed = sigma.compose(tau)
        try:
            lhs = pullback(composed, omega)
        except ZeroDivisionError:
            continue  # composed denominator vanished identically (not here, but safe)
        rhs = pullback(tau, pullback(sigma, omega))
        assert lhs.weight == rhs.weight == nu
        assert lhs.coeff == rhs.coeff


@pytest.mark.parametrize("weight", [True, False])
def test_form_weight_refuses_bools(weight):
    with pytest.raises(ValueError, match="^weight must be a nonzero integer$"):
        DifferentialForm(rf(qp(1), qp(0, 1)), weight)


def test_pullback_rejects_inseparable():
    with pytest.raises(InseparableMap):
        pullback(RationalMap(fp(5, 0, 0, 0, 0, 0, 1)), w1(fp(5, 1), fp(5, 0, 1)))


PULLBACK_WEIGHTS = (-2, -1, 1, 2, 3)


def random_map(rng, field, rational):
    """A random polynomial or rational map; over F_p, p < 100, one in four is composed with t^p."""
    p = field.characteristic
    while True:
        degree = rng.randint(1, 4)
        body = rf(random_poly(rng, field, degree))
        if rational:
            body = body / rf(random_poly(rng, field, rng.randint(1, degree)))
        if 0 < p < 100 and rng.random() < 0.25:
            body = body.compose(rf(Polynomial.variable(field) ** p))  # inseparable
        if not body.is_constant:
            return RationalMap(body)


@pytest.mark.parametrize("p", [0, 7, 2147483647])
def test_pullback_matches_the_ratfunc_oracle(p):
    # pullback reduces the pair of _pulled_back once; the oracle builds
    # (f o sigma) * (sigma')^nu with RationalFunction algebra
    field = GF(p) if p else QQ
    rng = random.Random(2700 + p % 1000)
    seen = Counter()
    for _ in range(60):
        rational = rng.random() < 0.5
        sigma = random_map(rng, field, rational)
        for nu in PULLBACK_WEIGHTS:
            f, g = (random_poly(rng, field, rng.randint(0, 2)) for _ in range(2))
            omega = DifferentialForm(rf(f, g), nu)
            try:
                expected = pullback_by_ratfunc(sigma, omega)
            except InseparableMap as exc:
                with pytest.raises(InseparableMap, match=f"^{re.escape(str(exc))}$"):
                    pullback(sigma, omega)
                seen["inseparable"] += 1
                continue
            got = pullback(sigma, omega)
            assert got == expected and str(got) == str(expected), (sigma, omega)
            seen[rational, nu] += 1
    assert all(seen[rational, nu] >= 5 for rational in (False, True) for nu in PULLBACK_WEIGHTS), seen
    assert (seen["inseparable"] > 0) == (p == 7)


def random_squarefree_quotient(rng, field):
    """A separable rational map A/B with B nonconstant and squarefree."""
    while True:
        body = rf(random_poly(rng, field, rng.randint(1, 4)), random_poly(rng, field, rng.randint(1, 3)))
        b = body.den
        if b.degree > 0 and gcd_monic(b, b.derivative()).degree == 0 and not _wronskian(body).is_zero:
            return RationalMap(body)


@pytest.mark.parametrize("p", [0, 7, 2147483647])
def test_pulled_back_shares_no_power_of_the_denominator(p):
    # for sigma = A/B and omega = (f/g) (dt)^nu the pair is F W^nu B^k over G,
    # k = deg g - deg f - 2 nu, with B^|k| on one side only; F, G and, for a
    # squarefree B, W are prime to B, so P and Q share no factor of B
    field = GF(p) if p else QQ
    rng = random.Random(2800 + p % 1000)
    one = Polynomial.one(field)
    seen = Counter()
    for _ in range(12):
        sigma = random_squarefree_quotient(rng, field)
        for nu in PULLBACK_WEIGHTS:
            for target in (1, 0, -1):
                df = rng.randint(0, 2)
                dg = df + 2 * nu + target
                if dg < 0:
                    df, dg = df - dg, 0
                omega = DifferentialForm(rf(random_poly(rng, field, df), random_poly(rng, field, dg)), nu)
                k = omega.coeff.den.degree - omega.coeff.num.degree - 2 * nu
                P, Q = geometry._pulled_back(sigma, omega)
                assert gcd_monic(gcd_monic(P, Q), sigma.body.den) == one, (sigma, omega)
                expected = pullback_by_ratfunc(sigma, omega).coeff
                assert P.degree - Q.degree == expected.num.degree - expected.den.degree, (sigma, omega)
                assert RationalFunction(P, Q) == expected, (sigma, omega)
                seen[(k > 0) - (k < 0), nu > 0] += 1
    assert all(seen[sign, positive] >= 10 for sign in (-1, 0, 1) for positive in (False, True)), seen


def test_pullback_takes_the_wronskian_from_geometry(monkeypatch):
    # sigma' enters the pullback only through geometry._wronskian, so W t
    # multiplies every pulled-back coefficient by t^nu
    rng = random.Random(2711)
    t = rf(qp(0, 1))
    cases = []
    for rational in (False, True):
        for nu in PULLBACK_WEIGHTS:
            sigma = random_map(rng, QQ, rational)
            omega = DifferentialForm(rf(random_poly(rng, QQ, 2), random_poly(rng, QQ, 1)), nu)
            cases.append((sigma, omega, pullback(sigma, omega)))
    monkeypatch.setattr(geometry, "_wronskian", lambda body: _wronskian(body) * Polynomial.variable(body.field))
    for sigma, omega, before in cases:
        assert pullback(RationalMap(sigma.body), omega).coeff == before.coeff * t**omega.weight, (sigma, omega)


# ----------------------------------------------------------------------- divisors


def test_divisor_of_form_frozen():
    t = qp(0, 1)
    d = divisor_of_form(w1(qp(1), t))  # dt/t
    assert d.affine == ((t, -1),)
    assert d.at_infinity == -1
    assert d.degree() == -2
    assert conductor(w1(qp(1), t)) == 2

    d = divisor_of_form(DifferentialForm(rf(qp(1), qp(1)), 1))  # dt
    assert d.affine == ()
    assert d.at_infinity == -2
    assert conductor(DifferentialForm(rf(qp(1), qp(1)), 1)) == 1

    # (dt)^2 / ((t-1)(t-2)): simple poles at two rational points, -2 at infinity
    den = (t - 1) * (t - 2)
    d = divisor_of_form(w2(qp(1), den))
    assert d.affine == ((den.monic(), -1),)
    assert d.at_infinity == -2
    assert d.degree() == -4
    assert conductor(w2(qp(1), den)) == 3

    # squared pole: dt/(t^2) has order -2 at t=0 and 0 at infinity
    d = divisor_of_form(w1(qp(1), t**2))
    assert d.affine == ((t, -2),)
    assert d.at_infinity == 0


def test_divisor_degree_is_minus_two_nu_random():
    rng = random.Random(22)
    for _ in range(40):
        nu = rng.choice([1, 2, 3, -1])
        num = random_poly(rng, QQ, rng.randint(0, 3))
        den = random_poly(rng, QQ, rng.randint(0, 3))
        omega = DifferentialForm(rf(num, den), nu)
        assert divisor_of_form(omega).degree() == -2 * nu


def test_divisor_refinement_and_arithmetic():
    t = qp(0, 1)
    # overlapping components get split into coprime pieces
    d = Divisor(QQ, [(t * (t - 1), 1), (t, 2)], 0)
    assert d.affine == ((t - 1, 1), (t, 3))
    e = d + Divisor(QQ, [(t - 1, -1)], 2)
    assert e.affine == ((t, 3),)
    assert e.at_infinity == 2
    assert (d - d).is_zero
    assert (2 * d).affine == ((t - 1, 2), (t, 6))
    assert d.degree() == 4
    assert d.support_size() == 2
    assert d.affine_support_size() == 2
    assert Divisor(QQ, [], -1).support_size() == 1


def test_divisor_drops_zero_multiplicities_and_constant_components():
    t = qp(0, 1)
    d = Divisor(QQ, [(t, 0), (Polynomial.constant(QQ, 3), 2), (t - 1, 1)])
    assert d == Divisor(QQ, [(t - 1, 1)])
    assert d.affine == ((t - 1, 1),)


def test_divisor_counts_geometric_points():
    t = qp(0, 1)
    # t^2 + 1 is one cluster but two geometric points
    d = Divisor(QQ, [(t**2 + 1, 1)], 0)
    assert d.support_size() == 2
    assert d.degree() == 2


def _coprime_atoms(rng, field):
    """Distinct monic irreducible polynomials of degree 1 to 3, so pairwise coprime."""
    t = Polynomial.variable(field)
    p = field.characteristic
    if not p:
        return [t, t - 1, t + 2, t**2 + 1, t**2 - 2, t**3 - 2]
    atoms = [t - a for a in range(min(p, 3))]
    for degree in (2, 3, 3):
        # a rootless polynomial of degree 2 or 3 is irreducible
        while True:
            f = Polynomial(field, [rng.randrange(p) for _ in range(degree)] + [1])
            if f not in atoms and all(f(x) for x in range(p)):
                atoms.append(f)
                break
    return atoms


def _squarefree_components(rng, field, atoms):
    """Up to 5 (component, multiplicity) pairs: a nonzero scalar (never 1 over Q
    alone) times a product of distinct atoms, constants and multiplicity 0 included."""
    p = field.characteristic
    out = []
    for _ in range(rng.randint(0, 5)):
        c = rng.randrange(1, p) if p else Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))
        poly = Polynomial.constant(field, c)
        for a in atoms:
            if rng.random() < 0.3:
                poly = poly * a
        out.append((poly, rng.randint(-3, 5)))
    return out


def _refined_sum(a, b):
    """a + b as the two-stage refinement built it: from the concatenated canonical forms."""
    return divisor_by_refinement(a.field, list(a.affine) + list(b.affine), a.at_infinity + b.at_infinity)


def _refined_multiple(a, n):
    return divisor_by_refinement(a.field, [(g, n * m) for g, m in a.affine], n * a.at_infinity)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(101)], ids=repr)
def test_divisor_matches_two_stage_refinement(field):
    # 400 pairs of seeded lists of squarefree components per field, 4000 lists in all
    rng = random.Random(f"one-pass divisor {field!r}")
    atoms = _coprime_atoms(rng, field)
    for _ in range(400):
        cd, ce = (_squarefree_components(rng, field, atoms) for _ in range(2))
        at_d, at_e = rng.randint(-2, 2), rng.randint(-2, 2)
        d, e = Divisor(field, cd, at_d), Divisor(field, ce, at_e)
        od, oe = divisor_by_refinement(field, cd, at_d), divisor_by_refinement(field, ce, at_e)
        assert d == od and e == oe
        assert d + e == _refined_sum(od, oe)
        assert d - e == _refined_sum(od, _refined_multiple(oe, -1))
        assert -d == _refined_multiple(od, -1)
        for n in (-2, 0, 1, 3):
            assert n * d == d * n == _refined_multiple(od, n)
        assert d.degree() == sum(m * g.degree for g, m in od.affine) + at_d
        assert d.support_size() == sum(g.degree for g, _ in od.affine) + (at_d != 0)
        assert (d + e) - e == d
        assert (d - d).is_zero


# ------------------------------------------------------------------- ramification


def test_ramification_places_power_map():
    t = qp(0, 1)
    for d in (2, 3, 5):
        places = ramification_places(RationalMap(t**d))
        assert places.affine == ((t, d),)
        assert places.infinity == d
    places = ramification_places(RationalMap(t**2 - 2))
    assert places.affine == ((t, 2),)
    assert places.infinity == 2


def _random_map_with_pole(rng, field):
    """sigma = A / ((t - c)^e C) in lowest terms, with its pole c and order e."""
    t = Polynomial.variable(field)
    while True:
        c = field.scalar(rng.randint(-5, 5))
        e = rng.randint(1, 4)
        big_c = random_poly(rng, field, rng.randint(0, 2))
        a = random_poly(rng, field, rng.randint(0, 5))
        if big_c.is_zero or not big_c(c) or not a(c) or gcd_monic(a, big_c).degree > 0:
            continue
        body = RationalFunction(a, (t - c) ** e * big_c)
        if body.is_constant:
            continue
        return RationalMap(body), c, e


def test_riemann_hurwitz_rational_maps_with_poles():
    # poles are read off the Wronskian: a pole of order e is a place of index e
    rng = random.Random(29)
    for field in (QQ, GF(53), GF(59)):
        for _ in range(25):
            sigma, c, e = _random_map_with_pole(rng, field)
            r = ramification_divisor(sigma)
            assert r.degree() == 2 * sigma.degree - 2
            # the one cluster of R_sigma through c carries e - 1; e = 1 puts c in none
            assert [m for g, m in r.affine if not g(c)] == ([e - 1] if e >= 2 else [])


def test_ramification_places_nontrivial():
    t = qp(0, 1)
    # sigma = t^2 (t+1): critical points where 3t^2 + 2t = 0, i.e. t = 0, -2/3.
    # Both have index 2, so they sit in one squarefree cluster.
    places = ramification_places(RationalMap(t**2 * (t + 1)))
    assert places.affine == ((t * (t + Fraction(2, 3)), 2),)
    assert places.infinity == 3
    # a map with a double pole: (t^2+1)/t^2
    sigma = RationalMap(rf(t**2 + 1, t**2))
    places = ramification_places(sigma)
    assert (t, 2) in places.affine
    assert places.infinity == 2  # deg num = deg den; e comes from the 1/t chart


def test_ramification_image_value_boxed_once(count_fp_elements):
    # sigma(infinity) = 3/7 is one raw quotient, wrapped once; the other
    # FpElement is the unit of the Wronskian's squarefree decomposition
    f101 = GF(101)
    sigma = RationalMap(rf(fp(101, 1, 0, 3), fp(101, 2, 5, 7)))
    places = ramification_places(sigma)
    assert len(count_fp_elements) == 2
    assert places.image_value == f101.scalar(Fraction(3, 7))
    assert ramification_places(RationalMap(rf(qp(1, 0, 3), qp(2, 5, 7)))).image_value == Fraction(3, 7)


def _taylor_affine(sigma):
    """Affine places by Taylor refinement of the Wronskian's clusters: the
    index of x is the least j >= 2 with A^[j] B - A B^[j] nonzero at x."""
    a, b = sigma.body.num, sigma.body.den
    wronskian = _wronskian(sigma.body)
    entries = []
    for cluster, _ in squarefree_decompose(wronskian).parts if wronskian.degree > 0 else ():
        remaining, j = cluster, 2
        while remaining.degree > 0:
            assert j <= sigma.degree
            taylor = a.hasse_derivative(j) * b - a * b.hasse_derivative(j)
            stays = remaining if taylor.is_zero else gcd_monic(remaining, taylor)
            if stays.degree < remaining.degree:
                entries.append((remaining // stays, j))
            remaining, j = stays, j + 1
    return tuple(sorted(entries, key=lambda ge: ge[0].sort_key()))


def _taylor_infinity(sigma):
    """The index at infinity: the index at s = 0 of A/B = 1/sigma(1/s), the
    least j >= 1 with A^[j] B - A B^[j] nonzero at 0, wild or not."""
    field = sigma.field
    flip = mobius_conjugate(sigma, MobiusTransform(field, 0, 1, 1, 0))
    a, b = flip.body.num, flip.body.den
    j = 1
    while not (a.hasse_derivative(j) * b - a * b.hasse_derivative(j))(field.zero()):
        j += 1
        assert j <= sigma.degree
    return j


def _planted_map(rng, field):
    """A map with planted ramification: a zero of sigma - v of multiplicity up
    to 5, a pole of order 2-4, equal degrees, or a Mobius conjugate of one."""
    t = Polynomial.variable(field)
    v = field.scalar(rng.randint(-5, 5))

    def root_power(low, high):
        return (t - rng.randint(-5, 5)) ** rng.randint(low, high)

    kind = rng.choice(("zeros", "pole", "equal", "conjugate"))
    if kind == "zeros":
        # sigma - v = u (t - r1)^m1 (t - r2)^m2
        body = rf(random_poly(rng, field, rng.randint(0, 1)) * root_power(1, 5) * root_power(1, 5) + v)
    elif kind == "pole":
        # sigma - v = (t - r)^m u / ((t - c)^e w)
        den = root_power(2, 4) * random_poly(rng, field, rng.randint(0, 1))
        if den.is_zero:  # the unit w vanishes in small characteristic
            return _planted_map(rng, field)
        body = rf(root_power(1, 5) * random_poly(rng, field, rng.randint(0, 2)) + v * den, den)
    elif kind == "equal":
        # sigma - v = (t - r)^m / den with m < deg den
        den = random_poly(rng, field, rng.randint(2, 5))
        if den.degree < 2:  # the leading coefficient vanishes in small characteristic
            return _planted_map(rng, field)
        body = rf(v * den + root_power(1, den.degree - 1), den)
    else:
        sigma = _planted_map(rng, field)
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if field.scalar(a * d - b * c):
                return mobius_conjugate(sigma, MobiusTransform(field, a, b, c, d))
    return RationalMap(body) if not body.is_constant else _planted_map(rng, field)


def _tame_planted_maps(rng, field, count):
    """count planted maps with deg sigma < p, so that no index is divisible by p."""
    maps = []
    while len(maps) < count:
        sigma = _planted_map(rng, field)
        if not field.characteristic or sigma.degree < field.characteristic:
            maps.append(sigma)
    return maps


@pytest.mark.parametrize("field", [QQ, GF(11), GF(13), GF(101), GF(997)], ids=repr)
def test_index_rule_matches_taylor_refinement(field):
    # p = 0 or p > deg sigma: a Wronskian zero of order k is a place of index k + 1
    rng = random.Random(f"index rule {field!r}")
    seen = set()
    for sigma in _tame_planted_maps(rng, field, 80):
        places = ramification_places(sigma)
        assert places.affine == _taylor_affine(sigma), sigma
        assert places.infinity == _taylor_infinity(sigma), sigma
        a, b = sigma.body.num, sigma.body.den
        assert places.image_infinite == (a.degree > b.degree)
        if not places.image_infinite:
            assert places.image_value == a.coefficient(b.degree) / b.leading
        seen.update(e for _, e in places.affine)
        # Riemann-Hurwitz: the ramification divisor of a tame map has degree 2d - 2
        total = sum((e - 1) * cluster.degree for cluster, e in places.affine) + places.infinity - 1
        assert total == 2 * sigma.degree - 2, sigma
    assert {2, 3, 4, 5} <= seen


def _random_rational_map(rng, field, low, high):
    """A random map A/B of degree low..high: a polynomial, equal degrees, or
    a denominator of higher degree, Mobius-conjugated one time in four."""
    while True:
        degree = rng.randint(low, high)
        deg_b = rng.choice((0, rng.randint(1, degree), degree))
        deg_a = degree if deg_b < degree else rng.randint(0, degree)
        num, den = random_poly(rng, field, deg_a), random_poly(rng, field, deg_b)
        if den.is_zero:  # a constant denominator can vanish in small characteristic
            continue
        body = RationalFunction(num, den)
        if body.is_constant or not low <= max(body.num.degree, body.den.degree) <= high:
            continue
        sigma = RationalMap(body)
        if rng.random() < 0.25:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if field.scalar(a * d - b * c):
                sigma = mobius_conjugate(sigma, MobiusTransform(field, a, b, c, d))
        return sigma


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7)], ids=repr)
def test_index_rule_matches_taylor_refinement_when_p_is_at_most_the_degree(field):
    # 0 < p <= deg sigma: ramification_places either refuses the map or reads
    # every Wronskian zero of order k as a place of index k + 1, as Taylor does
    p = field.characteristic
    rng = random.Random(f"small prime {field!r}")
    compared = 0
    for _ in range(600):
        if rng.random() < 0.5:
            sigma = _planted_map(rng, field)
        else:
            sigma = _random_rational_map(rng, field, p, p + 4)
        if sigma.degree < p:
            continue
        try:
            places = ramification_places(sigma)
        except (WildInput, InseparableMap):
            continue
        assert places.affine == _taylor_affine(sigma), sigma
        assert places.infinity == _taylor_infinity(sigma), sigma
        compared += 1
    assert compared >= 40, compared


def test_ramification_degree_matches_the_divisor(count_ramification_places):
    # deg W + e_inf - 1 in every characteristic; when 0 < p <= deg sigma,
    # ramification_places runs once first, for the tameness check
    paths = Counter()
    for field, low, high in ((QQ, 2, 8), (GF(101), 2, 8), (GF(7), 7, 10)):
        rng = random.Random(f"ramification degree {field!r}")
        maps = [_random_rational_map(rng, field, low, high) for _ in range(60)]
        if field.characteristic != 7:  # planted maps have degree below 7
            maps += _tame_planted_maps(rng, field, 60)
        for sigma in maps:
            checked = 0 < field.characteristic <= sigma.degree
            try:
                expected = ramification_divisor(sigma).degree()
            except (InseparableMap, WildRamification, WildInput) as exc:
                before = len(count_ramification_places)
                with pytest.raises(type(exc)):
                    _ramification_degree(sigma)
                assert len(count_ramification_places) - before == checked, sigma
                paths["rejected"] += 1
                continue
            before = len(count_ramification_places)
            assert _ramification_degree(sigma) == expected == 2 * sigma.degree - 2, sigma
            assert len(count_ramification_places) - before == checked, sigma
            paths["checked" if checked else "fast"] += 1
    assert paths["fast"] >= 200 and paths["checked"] >= 40, paths


def test_ramification_degree_builds_no_divisor(monkeypatch):
    # over F_7 at degree 7..10 every map takes the tameness check, and the
    # degree still comes from deg W + e_inf - 1, not from a Divisor
    rng = random.Random("ramification degree without a divisor")
    outcomes = []
    for _ in range(80):
        sigma = _random_rational_map(rng, GF(7), 7, 10)
        try:
            outcomes.append((sigma, ramification_divisor(sigma).degree()))
        except (InseparableMap, WildRamification, WildInput) as exc:
            outcomes.append((sigma, type(exc)))

    def no_divisor(*args, **kwargs):
        raise RuntimeError("a Divisor was built")

    monkeypatch.setattr(geometry, "Divisor", no_divisor)
    kinds = Counter()
    for sigma, expected in outcomes:
        if isinstance(expected, int):
            assert _ramification_degree(sigma) == expected == 2 * sigma.degree - 2, sigma
            kinds["tame"] += 1
        else:
            with pytest.raises(expected):
                _ramification_degree(sigma)
            kinds[expected.__name__] += 1
    assert kinds["tame"] >= 20 and len(kinds) >= 2, kinds


def test_ramification_degree_builds_one_wronskian(monkeypatch):
    # when 0 < p <= deg sigma, deg W is read off the places of the tameness check
    sigma = RationalMap(fp(7, 0, 1, 0, 1, 0, 0, 0, 0, 1))  # t^8 + t^3 + t over F_7
    calls = []

    def counted(body):
        calls.append(body)
        return _wronskian(body)

    monkeypatch.setattr(geometry, "_wronskian", counted)
    assert _ramification_degree(sigma) == 14
    assert len(calls) == 1


def test_ramification_divisor_frozen():
    t = qp(0, 1)
    r = ramification_divisor(RationalMap(t**5))
    assert r.affine == ((t, 4),)
    assert r.at_infinity == 4
    assert r.degree() == 8  # 2 * 5 - 2
    r = ramification_divisor(RationalMap(t**2 - 2))
    assert r.affine == ((t, 1),) and r.at_infinity == 1


def test_riemann_hurwitz_random_char_zero():
    rng = random.Random(23)
    for _ in range(30):
        f = random_separable_poly(rng, QQ, rng.randint(2, 6))
        r = ramification_divisor(RationalMap(f))
        assert r.degree() == 2 * f.degree - 2


def test_riemann_hurwitz_random_char_p():
    rng = random.Random(24)
    for p in (53, 59):
        field = GF(p)
        done = 0
        while done < 15:
            f = random_separable_poly(rng, field, rng.randint(2, 5))
            sigma = RationalMap(f)
            if not is_tame(sigma):
                continue
            r = ramification_divisor(sigma)
            assert r.degree() == 2 * f.degree - 2
            done += 1


def test_tameness_frozen():
    t5 = fp(5, 0, 1)
    assert bool(is_tame(RationalMap(t5**2 * (t5 + 1))))  # indices 2, 2, 3 vs p = 5
    # t^3 + t over F_3: separable (derivative 1) but e = 3 at infinity
    t3 = fp(3, 0, 1)
    tame = is_tame(RationalMap(t3**3 + t3))
    assert not tame
    assert "infinity" in str(tame.witness)
    with pytest.raises(WildRamification):
        ramification_divisor(RationalMap(t3**3 + t3))
    # inseparable maps are reported untame rather than raising; the verdict is a (tame, witness) record
    verdict = is_tame(RationalMap(fp(5, 0, 0, 0, 0, 0, 1)))
    assert not verdict and verdict == (False, "inseparable")
    assert Tameness._fields == ("tame", "witness")
    assert bool(Tameness(True)) and Tameness(True) == (True, None)
    # char 0 is always tame
    assert bool(is_tame(RationalMap(qp(0, 1) ** 7)))


def test_wild_affine_structure_rejected():
    # sigma = t^2 (t + 1)^3 over F_3: the index at t = -1 is 3 = p, which
    # forces a multiplicity >= p inside the critical locus.  Squarefree
    # decomposition deliberately stops there (no p-th-root extraction), so
    # the analysis surfaces WildInput instead of a silently wrong divisor.
    from corrforms.errors import WildInput

    t = fp(3, 0, 1)
    sigma = RationalMap(t**2 * (t + 1) ** 3)
    with pytest.raises(WildInput):
        ramification_places(sigma)
    with pytest.raises(WildInput):
        is_tame(sigma)


@pytest.mark.xfail(
    raises=WildInput, strict=True,
    reason="squarefree_decompose refuses the Wronskian t^2 + 1 = (t + 1)^2 over F_2 (ROADMAP item 5)",
)
def test_is_tame_reports_a_wild_affine_place_when_p_is_at_most_the_degree():
    # t^3 + t over F_2 has e = 2 at t = 1, a wild place; the true verdict names it
    t = fp(2, 0, 1)
    assert is_tame(RationalMap(t**3 + t)) == Tameness(False, t + 1)


def test_ramification_places_once_per_map(count_ramification_places):
    t = fp(7, 0, 1)
    sigma = RationalMap(rf(t**3 + 2 * t, t**2 + 3))
    omega = w1(fp(7, 1), t - 1)
    assert ramification_divisor(sigma).degree() == 2 * sigma.degree - 2
    assert count_ramification_places == [sigma]
    assert check_order_identity(sigma, omega)
    assert count_ramification_places == [sigma, sigma]


# ------------------------------------------------------------ pullback of divisors


def test_pullback_divisor_frozen():
    t = qp(0, 1)
    sq = RationalMap(t**2)
    # pulling back the point t = 1 under squaring gives t^2 - 1
    d = Divisor(QQ, [(t - 1, 1)], 0)
    pd = pullback_divisor(sq, d)
    assert pd.affine == ((t**2 - 1, 1),)
    assert pd.at_infinity == 0
    # infinity pulls back to 2 * infinity under a degree-2 polynomial map
    d = Divisor(QQ, [], 1)
    pd = pullback_divisor(sq, d)
    assert pd.affine == () and pd.at_infinity == 2
    # t = 0 pulls back to 2 * (t = 0)
    d = Divisor(QQ, [(t, -1)], 0)
    pd = pullback_divisor(sq, d)
    assert pd.affine == ((t, -2),) and pd.at_infinity == 0


def test_pullback_divisor_with_poles():
    t = qp(0, 1)
    inv = RationalMap(rf(qp(1), t))  # 1/t swaps 0 and infinity
    d = Divisor(QQ, [(t, 1)], -1)
    pd = pullback_divisor(inv, d)
    assert pd.at_infinity == 1
    assert pd.affine == ((t, -1),)


def test_form_divisor_transform_rule_random():
    # div(sigma^* omega) = sigma^* div(omega) + nu * R_sigma for tame sigma.
    rng = random.Random(25)
    for _ in range(25):
        f = random_separable_poly(rng, QQ, rng.randint(2, 5))
        sigma = RationalMap(f)
        num = random_poly(rng, QQ, rng.randint(0, 2))
        den = random_poly(rng, QQ, rng.randint(0, 2))
        nu = rng.choice([1, 2])
        omega = DifferentialForm(rf(num, den), nu)
        lhs = divisor_of_form(pullback(sigma, omega))
        rhs = pullback_divisor(sigma, divisor_of_form(omega)) + nu * ramification_divisor(sigma)
        assert lhs.affine == rhs.affine
        assert lhs.at_infinity == rhs.at_infinity


# -------------------------------------------------------------- order identity


def test_check_order_identity_frozen():
    t = qp(0, 1)
    assert check_order_identity(RationalMap(t**2), w1(qp(1), t))
    assert check_order_identity(RationalMap(t**3 - 3 * t), w2(qp(1), t**2 - 4))
    assert check_order_identity(RationalMap(t**2 - 2), w2(qp(1), t**2 - 4))


def test_check_order_identity_random_char_zero():
    rng = random.Random(26)
    for _ in range(40):
        f = random_separable_poly(rng, QQ, rng.randint(2, 6))
        num = random_poly(rng, QQ, rng.randint(0, 2))
        den = random_poly(rng, QQ, rng.randint(0, 2))
        nu = rng.choice([1, 2, 3])
        omega = DifferentialForm(rf(num, den), nu)
        assert check_order_identity(RationalMap(f), omega)


def test_check_order_identity_random_char_p():
    rng = random.Random(27)
    for p in (53, 61):
        field = GF(p)
        done = 0
        while done < 12:
            f = random_separable_poly(rng, field, rng.randint(2, 5))
            sigma = RationalMap(f)
            if not is_tame(sigma):
                continue
            num = random_poly(rng, field, rng.randint(0, 2))
            den = random_poly(rng, field, rng.randint(0, 2))
            if num.is_zero or den.is_zero:
                continue
            nu = rng.choice([1, 2])
            omega = DifferentialForm(rf(num, den), nu)
            assert check_order_identity(sigma, omega)
            done += 1


# ------------------------------------------------------------------ Mobius action


def test_mobius_transform_basics():
    phi = MobiusTransform(QQ, 1, 1, 0, 1)  # t -> t + 1
    assert phi.as_map()(Fraction(2)) == 3
    inv = phi.inverse()
    assert inv.as_map()(Fraction(3)) == 2
    with pytest.raises(ValueError):
        MobiusTransform(QQ, 1, 2, 2, 4)  # determinant zero


def test_mobius_conjugate_frozen():
    t = qp(0, 1)
    phi = MobiusTransform(QQ, 1, 1, 0, 1)
    conj = mobius_conjugate(RationalMap(t**2), phi)
    # (t-1)^2 + 1 = t^2 - 2t + 2
    assert conj.is_polynomial and conj.polynomial == t**2 - 2 * t + 2


def test_mobius_conjugation_preserves_ramification_random():
    rng = random.Random(28)
    for _ in range(20):
        f = random_separable_poly(rng, QQ, rng.randint(2, 5))
        sigma = RationalMap(f)
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c != 0:
                break
        phi = MobiusTransform(QQ, a, b, c, d)
        conj = mobius_conjugate(sigma, phi)
        assert conj.degree == sigma.degree
        r1 = ramification_divisor(sigma)
        r2 = ramification_divisor(conj)
        assert r1.degree() == r2.degree()
        assert r1.support_size() == r2.support_size()


def test_order_identity_false_when_pullback_is_perturbed(monkeypatch):
    # the identity must reject a pullback off by a factor (t - 5), and accept
    # one off by a nonzero constant, whose divisor is the same
    real_pullback = geometry.pullback
    t, t7 = qp(0, 1), fp(7, 0, 1)
    cases = [
        (RationalMap(t**3 + 2 * t + 1), w2(qp(1), t**2 - 4), t),
        (RationalMap(rf(t**2 + 1, t - 2)), w1(qp(3), t * (t + 1)), t),
        (RationalMap(rf(t7**3 + 2 * t7, t7**2 + 3)), w1(fp(7, 1), t7 - 1), t7),
    ]
    for sigma, omega, x in cases:
        assert check_order_identity(sigma, omega)
        for factor, expected in ((Polynomial.constant(x.field, 3), True), (x - 5, False)):

            def perturbed(s, w, factor=factor):
                pulled = real_pullback(s, w)
                return DifferentialForm(pulled.coeff * factor, pulled.weight)

            with monkeypatch.context() as patch:
                patch.setattr(geometry, "pullback", perturbed)
                assert check_order_identity(sigma, omega) is expected
