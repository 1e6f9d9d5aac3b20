"""RationalFunction operations that skip gcds, against the normalising constructor.

Products, quotients, powers and compositions of reduced operands are built
without the full gcd of RationalFunction(num, den); each must still return
exactly what that constructor returns on the unreduced numerator and
denominator, down to the stored coefficient tuples.  semi_invariance_ratio
tests the cross-multiplied identity P1 Q2 = lambda P2 Q1 and takes no gcd;
it must agree with the definition "sigma1^* omega / sigma2^* omega is a
constant", in value and in type.  Over Q it compares the primitive integer
vectors of the four pullback polynomials (Gauss's lemma), over F_p their
monic forms; seeded affine pairs sigma2 = c sigma1 + e give known ratios,
among them negative ones and ones whose numerator and denominator exceed
2**64, and a near miss whose two products differ in one coefficient must
give None.
"""

import operator
import random
from fractions import Fraction

import pytest

from corrforms import ratfunc
from corrforms.errors import FieldMismatch
from corrforms.field import GF, QQ
from corrforms.geometry import DifferentialForm, MobiusTransform, RationalMap, mobius_conjugate, pullback
from corrforms.invariance import Correspondence, flat_form_weight1, flat_form_weight2, semi_invariance_ratio
from corrforms.poly import Polynomial, gcd_monic
from corrforms.ratfunc import RationalFunction
from corrforms.sweep import chebyshev, multiplicative_pair

from conftest import derivative_by_quotient_rule, horner_by_polynomials

FIELDS = [QQ, GF(2), GF(3), GF(7), GF(101)]


def random_poly(rng, field, degree):
    """A polynomial of exactly the given degree (the zero polynomial for degree < 0)."""
    if degree < 0:
        return Polynomial.zero(field)
    while True:
        f = Polynomial(field, [rng.randint(-9, 9) for _ in range(degree + 1)])
        if f.degree == degree:
            return f


def random_fraction(rng, field, common=None):
    """A reduced num/den; common, when given, is planted in num or den."""
    num = random_poly(rng, field, rng.randint(-1, 4))
    den = random_poly(rng, field, rng.randint(0, 3))
    if common is not None:
        if rng.random() < 0.5:
            num = num * common
        else:
            den = den * common
    return RationalFunction(num, den)


def assert_same(got, want):
    """Equal under ==, with identical coefficient tuples of identical types."""
    assert got == want
    for a, b in ((got.num, want.num), (got.den, want.den)):
        assert a.coeffs == b.coeffs
        assert [type(c) for c in a.coeffs] == [type(c) for c in b.coeffs]


def compose_by_constructor(f, g):
    """f(g) through the normalising constructor, as composition was defined before."""
    order = max(len(f.num.coeffs), len(f.den.coeffs)) - 1
    n = horner_by_polynomials(f.num, g.num, g.den, order)
    d = horner_by_polynomials(f.den, g.num, g.den, order)
    if d.is_zero:
        raise ZeroDivisionError("composition denominator vanished")
    return RationalFunction(n, d)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products_quotients_powers_match_constructor(field):
    rng = random.Random(f"products {field!r}")
    for _ in range(60):
        # plant one factor that a cross-cancellation has to find
        common = random_poly(rng, field, rng.randint(1, 2))
        x, y = random_fraction(rng, field, common), random_fraction(rng, field, common)
        assert_same(x * y, RationalFunction(x.num * y.num, x.den * y.den))
        assert_same(x * y.num, RationalFunction(x.num * y.num, x.den))
        assert_same(x * 3, RationalFunction(x.num * 3, x.den))
        if not y.is_zero:
            assert_same(x / y, RationalFunction(x.num * y.den, x.den * y.num))
            assert_same(x / y.num, RationalFunction(x.num, x.den * y.num))
        for n in range(-3, 4):
            if n < 0 and x.is_zero:
                continue
            num, den = (x.num, x.den) if n >= 0 else (x.den, x.num)
            assert_same(x**n, RationalFunction(num ** abs(n), den ** abs(n)))
        assert_same(-x, RationalFunction(-x.num, x.den))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compose_matches_constructor(field):
    rng = random.Random(f"compose {field!r}")
    zero = RationalFunction(Polynomial.zero(field))
    checked = 0
    for _ in range(60):
        f = random_fraction(rng, field)
        inner = random_fraction(rng, field)
        constant = RationalFunction.constant(field, rng.randint(-9, 9))
        for g in (inner, constant, zero):
            try:
                want = compose_by_constructor(f, g)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    f.compose(g)
                continue
            assert_same(f.compose(g), want)
            checked += 1
        assert_same(zero.compose(inner), zero)
    assert checked > 100


def poly_with_denominators(rng, field, degree):
    """random_poly, with Fraction coefficients of denominators 1..12 over Q."""
    if field is not QQ or degree < 0:
        return random_poly(rng, field, degree)
    while True:
        f = Polynomial(field, [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree + 1)])
        if f.degree == degree:
            return f


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compose_matches_the_two_step_oracle(field):
    # compose runs one integer Horner pass for num and den and makes den monic;
    # the oracle composes them one at a time and reduces by the full gcd
    rng = random.Random(f"compose parity {field!r}")
    zero = RationalFunction(Polynomial.zero(field))
    checked = vanished = 0
    for _ in range(80):
        outer = RationalFunction(*(poly_with_denominators(rng, field, rng.randint(lo, 5)) for lo in (-1, 0)))
        inner = RationalFunction(*(poly_with_denominators(rng, field, rng.randint(0, 4)) for _ in "nd"))
        constant = RationalFunction.constant(field, poly_with_denominators(rng, field, 0).coefficient(0))
        for f, g in ((outer, inner), (constant, inner), (zero, inner), (outer, zero), (outer, constant)):
            try:
                want = compose_by_constructor(f, g)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError, match="composition denominator vanished"):
                    f.compose(g)
                vanished += 1
                continue
            assert_same(f.compose(g), want)
            checked += 1
    assert checked > 300
    assert vanished or field is QQ


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_mobius_conjugate_round_trip(field):
    rng = random.Random(f"conjugate {field!r}")
    rounds = 0
    while rounds < 30:
        a, b, c, d = (poly_with_denominators(rng, field, 0).coefficient(0) for _ in "abcd")
        body = RationalFunction(*(poly_with_denominators(rng, field, rng.randint(0, 4)) for _ in "nd"))
        if not (a * d - b * c) or body.is_constant:
            continue
        sigma, phi = RationalMap(body), MobiusTransform(field, a, b, c, d)
        assert mobius_conjugate(mobius_conjugate(sigma, phi), phi.inverse()) == sigma
        rounds += 1


def ratio_by_quotient(corr, omega):
    """lambda by the definition: sigma1^* omega / sigma2^* omega is a constant."""
    w1 = pullback(corr.sigma1, omega).coeff
    w2 = pullback(corr.sigma2, omega).coeff
    quotient = RationalFunction(w1.num * w2.den, w1.den * w2.num)
    return quotient.constant_value() if quotient.is_constant else None


def semi_invariance_cases():
    t = Polynomial.variable(QQ)
    dt_over_t = flat_form_weight1(QQ, 0)
    chebyshev_form = flat_form_weight2(QQ, 0, -4)
    yield multiplicative_pair(t, 3, 2), dt_over_t, Fraction(3, 2)
    # (sigma^m)^* dt/t = m dsigma/sigma for every sigma
    yield multiplicative_pair(Polynomial(QQ, [1, 2, 0, 1]), 5, 3), dt_over_t, Fraction(5, 3)
    yield multiplicative_pair(Polynomial(QQ, [0, 2, 1]), 4, 1), flat_form_weight1(QQ, -2), None
    # (dt/t)^nu for negative nu: t (dt)^-1 and t^2 (dt)^-2
    for nu in (-1, -2):
        omega = DifferentialForm(RationalFunction(t ** (-nu)), nu)
        yield multiplicative_pair(t, 5, 2), omega, Fraction(5, 2) ** nu
    yield Correspondence(chebyshev(6), chebyshev(2)), chebyshev_form, Fraction(9)
    yield Correspondence(chebyshev(5), chebyshev(3)), chebyshev_form, Fraction(25, 9)
    yield Correspondence(chebyshev(5), chebyshev(3)), dt_over_t, None
    f101 = GF(101)
    cheb = Correspondence(chebyshev(7, f101), chebyshev(2, f101))
    yield cheb, flat_form_weight2(f101, 0, -4), f101.scalar(Fraction(49, 4))
    yield cheb, flat_form_weight1(f101, 0), None
    # Moebius conjugates are rational maps; the form moves with phi^-1
    for phi, (m, h) in ((MobiusTransform(QQ, 1, 2, 1, 3), (3, 1)), (MobiusTransform(QQ, 2, 0, 1, 1), (2, 1))):
        s1 = mobius_conjugate(RationalMap(t**m), phi)
        s2 = mobius_conjugate(RationalMap(t**h), phi)
        eta = pullback(phi.inverse().as_map(), dt_over_t)
        yield Correspondence(s1, s2), eta, Fraction(m, h)
        yield Correspondence(s1, s2), pullback(phi.inverse().as_map(), chebyshev_form), None
    # dt pulls back to sigma', so equal-degree pairs give equal denominators
    sigma = Polynomial(QQ, [1, 1, 1, 1])
    dt = DifferentialForm(RationalFunction.constant(QQ, 1), 1)
    yield Correspondence(sigma, Polynomial(QQ, [0, 3, 1, 1])), dt, None
    yield Correspondence(sigma, sigma * Fraction(2, 7) + 5), dt, Fraction(7, 2)
    yield Correspondence(sigma, Polynomial(QQ, [4, 1, 0, 1])), dt, None
    # over F_p the Moebius-conjugated (dt/t)^nu has ratio (m/h)^nu, for every sign of nu
    for field, (m, h) in ((GF(7), (3, 2)), (GF(101), (5, 3))):
        u = Polynomial.variable(field)
        phi = MobiusTransform(field, 1, 2, 1, 3)
        back = phi.inverse().as_map()
        corr = Correspondence(*(mobius_conjugate(RationalMap(u**k), phi) for k in (m, h)))
        for nu in (-2, -1, 3):
            omega = pullback(back, DifferentialForm(RationalFunction(u) ** -nu, nu))
            yield corr, omega, field.scalar(Fraction(m, h) ** nu)
        yield corr, pullback(back, flat_form_weight2(field, 0, -4)), None
    # sigma2 = psi o sigma1 for psi(t) = 1/t, and psi^* (g/t^s)(dt)^nu = (-1)^nu (g/t^s)(dt)^nu
    # when g is palindromic of degree 2s - 2nu; so lambda = (-1)^nu, and breaking the palindrome misses
    for field in (QQ, GF(7), GF(101)):
        u = Polynomial.variable(field)
        s1 = mobius_conjugate(RationalMap(u**3 + u), MobiusTransform(field, 2, 1, 1, 1))
        corr = Correspondence(s1, RationalMap(1 / s1.body))
        for nu, s, g in ((3, 4, [1, 3, 1]), (-1, 1, [1, 2, 5, 2, 1]), (-2, 1, [1, 1, 3, 4, 3, 1, 1])):
            g = Polynomial(field, g)
            omega = DifferentialForm(RationalFunction(g, u**s), nu)
            assert omega.coeff.num.degree > 0 and omega.coeff.den.degree > 0
            yield corr, omega, field.scalar(-1 if nu % 2 else 1)
            yield corr, DifferentialForm(RationalFunction(g + 1, u**s), nu), None


@pytest.mark.parametrize("case", list(semi_invariance_cases()))
def test_semi_invariance_ratio_matches_quotient_definition(case):
    corr, omega, expected = case
    got = semi_invariance_ratio(corr, omega)
    want = ratio_by_quotient(corr, omega)
    assert type(got) is type(want)
    assert got == want == expected


def test_semi_invariance_ratio_random_equal_denominators():
    # equal denominators with numerators of equal degree, proportional or not
    rng = random.Random("equal denominators")
    for field in (QQ, GF(101)):
        dt = DifferentialForm(RationalFunction.constant(field, 1), 1)
        hits = 0
        for _ in range(40):
            sigma = random_poly(rng, field, 4)
            if sigma.derivative().is_zero:
                continue
            if rng.random() < 0.5:
                other = sigma * rng.randint(1, 9) + rng.randint(-9, 9)
            else:
                other = random_poly(rng, field, 4)
            if other.derivative().is_zero:
                continue
            corr = Correspondence(sigma, other)
            got = semi_invariance_ratio(corr, dt)
            assert type(got) is type(ratio_by_quotient(corr, dt))
            assert got == ratio_by_quotient(corr, dt)
            hits += got is not None
        assert hits > 5


def test_compose_pow_and_ratio_comparison_take_no_gcd(monkeypatch):
    t = Polynomial.variable(QQ)
    f = RationalFunction(t**2 + 1, t**3 - 2)
    inner = RationalFunction(t + 3, t**2 - 5)
    x, y, four = RationalFunction(t**2 + t), RationalFunction(t**3 - 7), RationalFunction(4 * t**0)
    corr = Correspondence(chebyshev(6), chebyshev(2))
    omega = flat_form_weight2(QQ, 0, -4)
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return gcd_monic(a, b)

    monkeypatch.setattr(ratfunc, "gcd_monic", counted)
    f.compose(inner), f.compose(x), x.compose(f)
    f**5, f**-3, inner**2
    x * y, x / four
    assert semi_invariance_ratio(corr, omega) == 9
    assert calls == []


def construct_with_full_gcd(num, den):
    """num/den reduced by a gcd whatever the degrees, as the constructor once was."""
    if not num.is_zero:
        g = gcd_monic(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
    return ratfunc._coprime(num, den)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_constructor_takes_no_gcd_with_a_constant_side(field, monkeypatch):
    # the gcd with a constant is 1: polynomial maps, constant numerators and 0/d
    rng = random.Random(f"constant side {field!r}")
    one, zero = Polynomial.one(field), Polynomial.zero(field)
    cases = []
    for _ in range(40):
        poly, c = random_poly(rng, field, rng.randint(1, 5)), random_poly(rng, field, 0)
        cases += [(poly, one), (poly, c), (c, poly), (c, c), (zero, poly), (zero, c)]
    want = [construct_with_full_gcd(num, den) for num, den in cases]
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return gcd_monic(a, b)

    monkeypatch.setattr(ratfunc, "gcd_monic", counted)
    for (num, den), expected in zip(cases, want):
        assert_same(RationalFunction(num, den), expected)
        if den is one:
            assert_same(RationalFunction(num), expected)
    assert calls == []
    # both sides nonconstant: the gcd still runs
    t = Polynomial.variable(field)
    assert_same(RationalFunction(t**2 - 1, 2 * t - 2), RationalFunction(t * Fraction(1, 2) + Fraction(1, 2)))
    assert len(calls) == 1


def affine_pair_cases(field, seed):
    """(corr, omega, lambda) for sigma2 = c sigma1 + e and omega = (dt)^nu / (t - x)^k at the
    fixed point x = e / (1 - c) of u -> c u + e: then sigma1^* omega = c^(k - nu) sigma2^* omega."""
    rng = random.Random(seed)
    t = Polynomial.variable(field)
    for _ in range(16):
        if field is QQ:
            height = rng.choice((9, 2**70))
            c = Fraction(rng.choice((-1, 1)) * rng.randint(2, height), rng.randint(2, height))
            if c == 1:
                continue
            e = Fraction(rng.randint(-height, height), rng.randint(1, height))
        else:
            c, e = field.scalar(rng.randint(2, field.characteristic - 1)), field.scalar(rng.randint(0, 6))
        sigma1 = RationalFunction(random_poly(rng, field, rng.randint(1, 5)))
        if rng.random() < 0.5:
            sigma1 = sigma1 / RationalFunction(random_poly(rng, field, rng.randint(1, 3)))
        if sigma1.is_constant or derivative_by_quotient_rule(sigma1).is_zero:
            continue
        k, nu = rng.randint(0, 3), rng.choice((-2, -1, 1, 2, 3))
        omega = DifferentialForm(RationalFunction(t**0, (t - e / (1 - c)) ** k), nu)
        yield Correspondence(sigma1, sigma1 * c + e), omega, c ** (k - nu)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_semi_invariance_ratio_gauss_lemma_on_affine_pairs(field):
    cases = list(affine_pair_cases(field, f"gauss {field!r}"))
    assert len(cases) >= 10
    for corr, omega, expected in cases:
        got = semi_invariance_ratio(corr, omega)
        want = ratio_by_quotient(corr, omega)
        assert type(got) is type(want)
        assert got == want == expected
    if field is QQ:
        ratios = [lam for _, _, lam in cases]
        assert any(lam < 0 for lam in ratios)
        assert any(lam.numerator > 2**64 and lam.denominator > 2**64 for lam in ratios)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_semi_invariance_ratio_near_miss_differs_in_one_coefficient(field):
    # omega = dt and polynomial maps: P_i = sigma_i' and Q_i = 1, so adding delta t^j to
    # sigma2 = c sigma1 + e moves exactly one coefficient of lambda P2 Q1 away from P1 Q2
    rng = random.Random(f"near miss {field!r}")
    t = Polynomial.variable(field)
    dt = DifferentialForm(RationalFunction.constant(field, 1), 1)
    checked = 0
    for _ in range(20):
        sigma1 = random_poly(rng, field, rng.randint(2, 6))
        if sigma1.derivative().degree != sigma1.degree - 1:
            continue
        c, e, delta = (field.scalar(rng.randint(a, 6)) for a in (1, 0, 1))
        j = rng.randint(1, sigma1.degree - 1)
        sigma2 = sigma1 * c + e
        assert semi_invariance_ratio(Correspondence(sigma1, sigma2), dt) == 1 / c
        near = Correspondence(sigma1, sigma2 + delta * t**j)
        difference = sigma1.derivative() - (sigma2 + delta * t**j).derivative() * (1 / c)
        assert sum(1 for x in difference.coeffs if x) == 1
        assert semi_invariance_ratio(near, dt) is None
        assert ratio_by_quotient(near, dt) is None
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_polynomial_operators_defer_to_a_rational_function(field):
    # a Polynomial on the left of +, - or * hands a RationalFunction operand to its reflected operator
    rng = random.Random(f"mixed operands {field!r}")
    for _ in range(30):
        t, r = random_poly(rng, field, rng.randint(-1, 4)), random_fraction(rng, field)
        assert isinstance(t + r, RationalFunction)
        assert_same(t + r, r + t)
        assert_same(t * r, r * t)
        assert_same(t - r, -(r - t))
    t = Polynomial.variable(field)
    for operand in (1.5, GF(5).scalar(2)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(FieldMismatch):
                op(t, operand)
