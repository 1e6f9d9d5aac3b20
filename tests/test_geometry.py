"""Maps, forms, divisors and ramification on the projective line.

Frozen values: ramification of t^d and t^2 - 2, divisors of dt/t and of
(dt)^2/((t-1)(t-2)), pullbacks under squaring maps.  Property checks: the
degree formula deg div(omega) = -2 nu, functoriality of pullback, the
Riemann-Hurwitz count deg R = 2d - 2 for tame maps, the index rule
e = k + 1 against a Taylor refinement written here (for p = 0, for
p > deg sigma, and for p = 2, 3, 5, 7 <= deg sigma, where a map is either
refused or has that index everywhere), deg R = deg W + e_inf - 1 against
the ramification divisor, and the local order identity at every point of
the relevant supports.
"""

import random
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

from conftest import fp, qp, random_poly, random_separable_poly, rf


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
    assert b.derivative() == rf(qp(1), (t + 1) ** 2)
    assert a.derivative() == rf(qp(-1), t**2)


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
            assert sigma.is_separable == (not sigma.body.derivative().is_zero), sigma
            seen.add((sigma.is_polynomial, sigma.is_separable))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    t = fp(5, 0, 1)
    sigma = RationalMap(rf(t**5 + 1, t**5 + 2))
    assert not sigma.is_separable and sigma.body.derivative().is_zero
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


def test_pullback_rejects_inseparable():
    with pytest.raises(InseparableMap):
        pullback(RationalMap(fp(5, 0, 0, 0, 0, 0, 1)), w1(fp(5, 1), fp(5, 0, 1)))


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
    assert d.multiplicity_at(t) == 3
    assert d.multiplicity_at(Fraction(0)) == 3
    assert d.multiplicity_at(t - 1) == 1
    assert d.multiplicity_at(t + 5) == 0
    assert d.multiplicity_at(Fraction(7)) == 0
    e = d + Divisor(QQ, [(t - 1, -1)], 2)
    assert e.affine == ((t, 3),)
    assert e.at_infinity == 2
    assert (d - d).is_zero
    assert (2 * d).multiplicity_at(t) == 6
    assert d.degree() == 4
    assert d.support_size() == 2
    assert d.affine_support_size() == 2
    assert Divisor(QQ, [], -1).support_size() == 1


def test_divisor_counts_geometric_points():
    t = qp(0, 1)
    # t^2 + 1 is one cluster but two geometric points
    d = Divisor(QQ, [(t**2 + 1, 1)], 0)
    assert d.support_size() == 2
    assert d.degree() == 2


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
            if e >= 2:
                assert r.multiplicity_at(c) == e - 1
            else:
                assert r.multiplicity_at(c) == 0


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
    # inseparable maps are reported untame rather than raising
    assert not is_tame(RationalMap(fp(5, 0, 0, 0, 0, 0, 1)))
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
