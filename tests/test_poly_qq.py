"""Q polynomial multiplication, division and gcd against sympy's dense arithmetic.

Over Q a Polynomial stores Fractions and multiplies their numerators over
one common denominator by Kronecker substitution with signed slots.  Seeded
operands of degree 0..80 with numerator and denominator heights up to
2**100, zero and negative coefficients, unbalanced pairs, squares, constants
and scalars are compared with sympy.polys.densearith.dup_mul over QQ; the
extreme operands put +-bound, the largest value a slot must hold, into every
product coefficient.

Composition (_compose_over) clears its three inputs to integers
and runs Horner's rule on integer vectors; it is compared with the loop on
Polynomial objects that it replaced (conftest.horner_by_polynomials) on
seeded inputs: the zero polynomial, a zero numerator, the denominator 1,
orders above the degree, negative leading coefficients, denominators up to
2**100, and a quotient num/den at a root of the outer polynomial.

Division and the monic gcd are compared with dup_div and dup_gcd over QQ on
seeded operands of degree 0..40 and the same heights: two-term quotients
(the Euclid step), constant, monic and non-monic divisors, divisors longer
than the dividend, and gcd inputs with a planted common factor or none.

The squarefree decomposition, which runs Yun's loop on primitive integer
vectors, is compared with dup_sqf_list over QQ on 100 seeded products
unit * prod f_i**k_i of degree <= 40: denominators in the unit and in the
factors, multiplicities 1..6, factors repeated under two multiplicities,
and negative leading coefficients.
"""

import random
from fractions import Fraction

import pytest
from sympy.polys.densearith import dup_div, dup_mul
from sympy.polys.domains import QQ as SQQ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.sqfreetools import dup_sqf_list

from corrforms.field import QQ
from corrforms.poly import Polynomial, _compose_over, gcd_monic, squarefree_decompose

from conftest import horner_by_polynomials

HEIGHTS = (1, 2**7, 2**31, 2**64, 2**100)


def dense(poly):
    """Descending coefficient list over sympy's QQ, the densearith layout."""
    return [SQQ(c.numerator, c.denominator) for c in reversed(poly.coeffs)]


def random_coeff(rng, height):
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height)) if kind < 0.7 else Fraction(num)


def random_qq(rng, degree, height):
    coeffs = [random_coeff(rng, height) for _ in range(degree)]
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
    return Polynomial(QQ, coeffs + [lead])


def operand_pairs(height, seed):
    rng = random.Random(f"{seed}:{height}")
    pairs = []
    for _ in range(10):
        a = random_qq(rng, rng.randint(0, 80), height)
        pairs.append((a, random_qq(rng, rng.randint(0, 80), height)))
        pairs.append((a, random_qq(rng, rng.randint(0, 3), height)))  # unbalanced
        pairs.append((random_qq(rng, rng.randint(0, 3), height), a))
        pairs.append((a, random_qq(rng, rng.randint(0, 80), rng.choice(HEIGHTS))))
        pairs.append((a, a))  # squaring
        pairs.append((a, Polynomial.constant(QQ, random_coeff(rng, height) or 1)))
    return pairs


@pytest.mark.parametrize("height", HEIGHTS, ids=lambda h: f"2**{h.bit_length() - 1}")
def test_mul_matches_dup_mul(height):
    for a, b in operand_pairs(height, "mul"):
        product = a * b
        assert dense(product) == dup_mul(dense(a), dense(b), SQQ)
        assert product == b * a
        assert all(type(c) is Fraction for c in product.coeffs)


@pytest.mark.parametrize("height", HEIGHTS, ids=lambda h: f"2**{h.bit_length() - 1}")
def test_mul_extreme_slots(height):
    # the middle product coefficients are +-min(n, m) * M**2 with M the largest
    # numerator: exactly the bound that sizes the slots, with either sign
    for n, m in ((1, 80), (2, 2), (3, 80), (80, 80)):
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            a = Polynomial(QQ, [sa * height] * n)
            b = Polynomial(QQ, [Fraction(sb * height, 3)] * m)
            assert dense(a * b) == dup_mul(dense(a), dense(b), SQQ)
            assert dense(a * a) == dup_mul(dense(a), dense(a), SQQ)
        alternating = Polynomial(QQ, [(-1) ** i * height for i in range(n)])
        assert dense(alternating * alternating) == dup_mul(dense(alternating), dense(alternating), SQQ)


def test_mul_by_scalars_zero_and_one():
    rng = random.Random("scalars")
    zero, one = Polynomial.zero(QQ), Polynomial.one(QQ)
    for _ in range(20):
        a = random_qq(rng, rng.randint(0, 80), rng.choice(HEIGHTS))
        c = random_coeff(rng, rng.choice(HEIGHTS))
        expected = dup_mul(dense(a), dense(Polynomial.constant(QQ, c)), SQQ)
        for product in (a * c, c * a, a * Polynomial.constant(QQ, c), Polynomial.constant(QQ, c) * a):
            assert dense(product) == expected
        assert a * 3 == 3 * a == a * Fraction(3) == a + a + a
        assert a * one == one * a == a
        assert (a * zero).is_zero and (zero * a).is_zero and (a * 0).is_zero


def division_pairs(height):
    rng = random.Random(f"divmod:{height}")
    pairs = []
    for _ in range(8):
        a = random_qq(rng, rng.randint(0, 40), height)
        pairs.append((a, random_qq(rng, rng.randint(0, a.degree), height)))
        pairs.append((a, random_qq(rng, a.degree + rng.randint(1, 3), height)))  # quotient 0
        pairs.append((a, random_qq(rng, 0, height)))  # constant divisor
        pairs.append((a, random_qq(rng, rng.randint(0, a.degree), height).monic()))
        if a.degree >= 1:  # two-term quotient: len(a) == len(b) + 1
            pairs.append((a, random_qq(rng, a.degree - 1, rng.choice(HEIGHTS))))
    return pairs


@pytest.mark.parametrize("height", HEIGHTS, ids=lambda h: f"2**{h.bit_length() - 1}")
def test_divmod_matches_dup_div(height):
    two_term = 0
    for a, b in division_pairs(height):
        quot, rem = divmod(a, b)
        assert (dense(quot), dense(rem)) == dup_div(dense(a), dense(b), SQQ)
        assert quot * b + rem == a
        assert all(type(c) is Fraction for c in quot.coeffs + rem.coeffs)
        two_term += b.degree >= 1 and a.degree == b.degree + 1
    assert two_term >= 5


@pytest.mark.parametrize("height", HEIGHTS, ids=lambda h: f"2**{h.bit_length() - 1}")
def test_gcd_monic_matches_dup_gcd(height):
    rng = random.Random(f"gcd:{height}")
    unit = common = 0
    for _ in range(6):
        f = random_qq(rng, rng.randint(1, 8), height)
        a = f * random_qq(rng, rng.randint(0, 12), height)
        b = f * random_qq(rng, rng.randint(0, 12), height)
        for x, y in ((a, b), (random_qq(rng, rng.randint(0, 20), height), b), (a, f)):
            g = gcd_monic(x, y)
            assert dense(g) == dup_gcd(dense(x), dense(y), SQQ)
            assert (x % g).is_zero and (y % g).is_zero
            unit += g.degree == 0
            common += g.degree >= f.degree
    assert unit >= 3 and common >= 6


def composition_cases(height):
    rng = random.Random(f"compose:{height}")
    zero, one = Polynomial.zero(QQ), Polynomial.one(QQ)
    for _ in range(12):
        poly = random_qq(rng, rng.randint(0, 6), height)
        num = random_qq(rng, rng.randint(0, 4), rng.choice(HEIGHTS))
        den = random_qq(rng, rng.randint(0, 4), rng.choice(HEIGHTS))
        r = random_coeff(rng, height)
        vanishing = poly * Polynomial(QQ, [-r, 1])  # num/den = r is a root: the result is 0
        cases = ((poly, num, den), (zero, num, den), (poly, zero, den), (poly, num, one), (-poly, -num, -den))
        for p, n, d in cases + ((vanishing, den * r, den),):
            for extra in (0, 1, 3):
                yield p, n, d, max(p.degree, 0) + extra


@pytest.mark.parametrize("height", HEIGHTS, ids=lambda h: f"2**{h.bit_length() - 1}")
def test_compose_with_quotient_matches_polynomial_horner(height):
    for poly, num, den, order in composition_cases(height):
        got = _compose_over(num, den, [(poly, order)])[0]
        assert got == horner_by_polynomials(poly, num, den, order)
        assert all(type(c) is Fraction for c in got.coeffs)
        if poly.degree >= 1:
            with pytest.raises(ValueError, match="order must be at least deg"):
                _compose_over(num, den, [(poly, poly.degree - 1)])


def squarefree_inputs():
    rng = random.Random("sqf")
    inputs = []
    while len(inputs) < 100:
        height = rng.choice((1, 2**7, 2**7, 2**31))
        f = Polynomial.constant(QQ, random_coeff(rng, height) or Fraction(-3, 7))
        factors, budget = [], 40
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 6)
            if budget < k:
                break
            if factors and rng.random() < 0.2:
                g = rng.choice(factors)  # the same factor under a second multiplicity
            else:
                g = random_qq(rng, rng.randint(1, min(4, budget // k)), height)
            if g.degree * k <= budget:
                factors.append(g)
                f = f * g**k
                budget -= g.degree * k
        if f.degree > 0:
            inputs.append(f)
    return inputs


def test_squarefree_decompose_matches_dup_sqf_list():
    multiplicities = set()
    for f in squarefree_inputs():
        assert f.degree <= 40
        dec = squarefree_decompose(f)
        coeff, parts = dup_sqf_list(dense(f), SQQ)
        assert dec.unit == Fraction(coeff.numerator, coeff.denominator)
        assert [(dense(part), k) for part, k in dec.parts] == parts
        assert all(type(c) is Fraction for part, _ in dec.parts for c in part.coeffs)
        multiplicities.update(k for _, k in dec.parts)
    assert multiplicities >= set(range(1, 7))
