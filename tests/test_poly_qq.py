"""Q polynomial multiplication against sympy's dense arithmetic.

Over Q a Polynomial stores Fractions and multiplies their numerators over
one common denominator by Kronecker substitution with signed slots.  Seeded
operands of degree 0..80 with numerator and denominator heights up to
2**100, zero and negative coefficients, unbalanced pairs, squares, constants
and scalars are compared with sympy.polys.densearith.dup_mul over QQ; the
extreme operands put +-bound, the largest value a slot must hold, into every
product coefficient.
"""

import random
from fractions import Fraction

import pytest
from sympy.polys.densearith import dup_mul
from sympy.polys.domains import QQ as SQQ

from corrforms.field import QQ
from corrforms.poly import Polynomial

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
