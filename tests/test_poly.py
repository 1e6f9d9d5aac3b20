"""Dense univariate polynomials: ring ops, division, gcd, squarefree parts.

Frozen gcd/decomposition values were computed by hand; randomised checks
cross-validate gcd and Yun decomposition against sympy as an independent
implementation, and one composition of several polynomials over a quotient
against one call per polynomial.
"""

import random
import sys
from fractions import Fraction

import pytest
import sympy

from corrforms.errors import FieldMismatch, WildInput
from corrforms.field import GF, QQ, FpElement
from corrforms.poly import (
    NEG_INFINITY,
    Polynomial,
    _compose_over,
    _divmod_raw,
    gcd_monic,
    radical,
    squarefree_decompose,
)

from conftest import fp, horner_by_polynomials, qp, random_poly


def test_construction_strips_trailing_zeros():
    f = qp(1, 2, 0, 0)
    assert f.coeffs == (Fraction(1), Fraction(2))
    assert f.degree == 1
    assert qp().is_zero and qp(0, 0).is_zero
    assert qp(0).degree == NEG_INFINITY
    assert qp(5).degree == 0
    assert Polynomial.zero(QQ) == qp()
    assert Polynomial.one(QQ) == qp(1)
    assert Polynomial.variable(QQ) == qp(0, 1)
    assert Polynomial.constant(QQ, "2/4") == qp(Fraction(1, 2))


def test_coefficient_access():
    f = qp(3, 0, 7)
    assert f.coefficient(0) == 3
    assert f.coefficient(1) == 0
    assert f.coefficient(2) == 7
    assert f.coefficient(99) == 0
    assert f.leading == 7
    assert qp(0, 0, 0, 4).leading == 4


def test_arithmetic_frozen():
    t = qp(0, 1)
    f = (t + 1) * (t - 1)
    assert f == qp(-1, 0, 1)
    assert (t + 2) ** 3 == qp(8, 12, 6, 1)
    assert 2 * t + t * 3 == qp(0, 5)
    assert t - t == qp()
    assert (t**2 + 1) - 1 == t**2
    assert 1 - t == qp(1, -1)
    assert (-t).coeffs == (Fraction(0), Fraction(-1))


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # binary powering: one product per set bit and one squaring per later bit
    f = qp(1, 2, 1)
    products = [Polynomial.one(QQ)]
    for _ in range(17):
        products.append(products[-1] * f)
    calls = []
    mul = Polynomial.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for n, expected in enumerate(products):
        calls.clear()
        assert f**n == expected
        assert len(calls) == (n.bit_count() + n.bit_length() - 1 if n else 0), n


def test_divmod_exact():
    t = qp(0, 1)
    f = t**3 - 2 * t + 5
    g = t**2 + 1
    q, r = divmod(f, g)
    assert q == t and r == qp(5, -3)
    assert q * g + r == f
    assert f // g == q and f % g == r
    with pytest.raises(ZeroDivisionError):
        divmod(f, qp())


def test_division_ring_property_random():
    rng = random.Random(11)
    for _ in range(60):
        f = random_poly(rng, QQ, rng.randint(0, 6), nonzero_lead=False)
        g = random_poly(rng, QQ, rng.randint(0, 4))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_evaluation_and_composition():
    t = qp(0, 1)
    f = t**2 - 2
    assert f(Fraction(3)) == 7
    assert f(Fraction(1, 2)) == Fraction(-7, 4)
    assert f.compose(t + 1) == t**2 + 2 * t - 1
    assert (t**3).compose(t**2) == t**6
    g = fp(5, 1, 1)  # t + 1 over F_5
    assert g(FpElement(4, 5)) == FpElement(0, 5)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_zero_composes_to_zero(field):
    # 0 o g = 0 for every g; the zero polynomial has degree -inf, not a valid order
    t, zero = Polynomial.variable(field), Polynomial.zero(field)
    for inner in (t, t**2 + 3, Polynomial.one(field), zero):
        assert zero.compose(inner).is_zero
    assert Polynomial.constant(field, 4).compose(zero) == Polynomial.constant(field, 4)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=["QQ", "GF7", "GF2147483647"])
def test_one_composition_over_a_quotient_equals_one_call_per_polynomial(field):
    # _compose_over builds the powers of den once for every outer polynomial;
    # each result must be the one-pair call for that polynomial alone, and the
    # Polynomial-level Horner oracle, at orders up to 3 above the degree
    rng = random.Random(f"compose over {field!r}")

    def poly(degree):
        return Polynomial(field, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)])

    for _ in range(25):
        num, den = poly(rng.randint(0, 3)), poly(rng.randint(0, 3))
        if den.is_zero:
            continue
        polys = [poly(rng.randint(0, 5)) for _ in range(rng.randint(1, 4))] + [Polynomial.zero(field)]
        rng.shuffle(polys)
        pairs = [(f, max(f.degree, 0) + rng.randint(0, 3)) for f in polys]
        got = _compose_over(num, den, pairs)
        assert got == [_compose_over(num, den, [(f, order)])[0] for f, order in pairs]
        assert got == [horner_by_polynomials(f, num, den, order) for f, order in pairs]
    t = Polynomial.variable(field)
    assert _compose_over(t, t + 1, []) == []
    with pytest.raises(ValueError, match="^order must be at least deg\\(poly\\)$"):
        _compose_over(t, t + 1, [(t, 1), (t**3, 2)])


def test_derivative_and_hasse():
    t = qp(0, 1)
    f = t**4 + 3 * t**2 + 1
    assert f.derivative() == 4 * t**3 + 6 * t
    # Hasse derivative H_j picks out binomial-weighted coefficients.
    assert f.hasse_derivative(2) == 6 * t**2 + 3
    assert f.hasse_derivative(4) == qp(1)
    assert f.hasse_derivative(5) == qp()
    # In characteristic p the plain derivative of t^p vanishes but H_1 of
    # t^(p+1) does not.
    g = fp(5, *([0] * 5 + [1]))  # t^5 over F_5
    assert g.derivative().is_zero
    h = fp(5, *([0] * 6 + [1]))  # t^6 over F_5
    assert h.derivative() == fp(5, 0, 0, 0, 0, 0, 1)  # 6 t^5 = t^5


def test_field_mixing_rejected():
    with pytest.raises(FieldMismatch):
        qp(0, 1) + fp(5, 0, 1)
    with pytest.raises(FieldMismatch):
        qp(0, 1) * fp(7, 1)


def test_gcd_monic_frozen():
    t = qp(0, 1)
    a = 2 * t**2 * (t + 1) ** 4
    b = 3 * t * (t + 1) ** 2
    assert gcd_monic(a, b) == t * (t + 1) ** 2  # t^3 + 2 t^2 + t, monic
    assert gcd_monic(a, b) == qp(0, 1, 2, 1)
    assert gcd_monic(t + 1, t - 1) == qp(1)
    assert gcd_monic(qp(), 3 * t) == t
    with pytest.raises(ValueError):
        gcd_monic(qp(), qp())


def test_gcd_matches_sympy_random():
    rng = random.Random(12)
    x = sympy.Symbol("x")
    for _ in range(40):
        f = random_poly(rng, QQ, rng.randint(1, 5))
        g = random_poly(rng, QQ, rng.randint(1, 5))
        ours = gcd_monic(f, g)
        theirs = sympy.gcd(
            sympy.Poly([sympy.Rational(c) for c in reversed(f.coeffs)], x),
            sympy.Poly([sympy.Rational(c) for c in reversed(g.coeffs)], x),
        ).monic()
        got = [Fraction(str(c)) for c in reversed(theirs.all_coeffs())]
        assert list(ours.coeffs) == got


def test_squarefree_decompose_frozen():
    t = qp(0, 1)
    f = (t - 1) ** 2 * (t + 2)
    dec = squarefree_decompose(f)
    assert dec.unit == 1
    assert dec.parts == ((t + 2, 1), (t - 1, 2))
    assert dec.recompose(QQ) == f
    assert dec.radical(QQ) == (t + 2) * (t - 1)
    assert radical(f) == (t - 1) * (t + 2)

    g = 6 * (t**2 + 1) ** 3 * t
    dec = squarefree_decompose(g)
    assert dec.unit == 6
    assert dec.parts == ((t, 1), (t**2 + 1, 3))

    const = squarefree_decompose(qp(5))
    assert const.unit == 5 and const.parts == ()


def test_squarefree_matches_sympy_random():
    rng = random.Random(13)
    x = sympy.Symbol("x")
    for _ in range(30):
        f = qp(1)
        for _ in range(rng.randint(1, 3)):
            f = f * random_poly(rng, QQ, rng.randint(1, 2)) ** rng.randint(1, 3)
        dec = squarefree_decompose(f)
        assert dec.recompose(QQ) == f
        # parts are pairwise coprime, squarefree, with distinct multiplicities
        mults = [k for _, k in dec.parts]
        assert len(set(mults)) == len(mults) and mults == sorted(mults)
        for g, _ in dec.parts:
            assert gcd_monic(g, g.derivative()) == qp(1)
        theirs = sympy.factor_list(
            sympy.Poly([sympy.Rational(c) for c in reversed(f.coeffs)], x)
        )
        # sympy returns full factorisation; group its factors by multiplicity
        by_mult = {}
        for poly, k in theirs[1]:
            by_mult.setdefault(k, []).append(poly.monic())
        for g, k in dec.parts:
            prod = sympy.prod(by_mult[k]).as_poly(x)
            got = [Fraction(str(c)) for c in reversed(prod.all_coeffs())]
            assert list(g.coeffs) == got


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_squarefree_decompose_never_divides_by_one(field, monkeypatch):
    # Yun's loop divides by a gcd only when it is nonconstant; a gcd of one is skipped
    rng = random.Random(17)
    inputs = []
    for _ in range(30):
        f = Polynomial.one(field)
        for _ in range(rng.randint(1, 3)):
            f = f * random_poly(rng, field, rng.randint(1, 3)) ** rng.randint(1, 3)
        inputs.append(f)
    divisors = []

    def recorded(a, b, p):
        # the gcds' own Euclid steps divide too; only Yun's loop is recorded
        if sys._getframe(1).f_code is squarefree_decompose.__code__:
            divisors.append(b)
        return _divmod_raw(a, b, p)

    monkeypatch.setattr("corrforms.poly._divmod_raw", recorded)
    for f in inputs:
        if f.degree > 0 and not f.derivative().is_zero:
            assert squarefree_decompose(f).recompose(field) == f
    assert divisors and all(len(g) > 1 for g in divisors)


def test_squarefree_decompose_char_p():
    t5 = fp(5, 0, 1)
    f = t5**2 * (t5 + 1)
    dec = squarefree_decompose(f)
    assert dec.parts == ((t5 + 1, 1), (t5, 2))
    # t^5 has zero derivative in F_5: wild input.
    with pytest.raises(WildInput):
        squarefree_decompose(fp(5, 0, 0, 0, 0, 0, 1))
    # multiplicity >= p also trips the recomposition check rather than
    # silently returning a wrong answer: (t+1)^5 * t has nonzero derivative.
    g = (t5 + 1) ** 5 * t5
    assert not g.derivative().is_zero
    with pytest.raises(WildInput):
        squarefree_decompose(g)


def test_monic_and_str():
    f = 3 * qp(0, 1) ** 2 + 6
    assert f.monic() == qp(2, 0, 1)
    assert str(qp(0, 1)) == "t"
    assert str(qp(-2, 0, 1)) == "t^2 - 2"
    assert str(qp()) == "0"


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        qp(0, 1) ** -1
