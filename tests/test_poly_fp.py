"""F_p polynomial kernels against sympy's galoistools, and the storage contract.

Over GF(p) a Polynomial stores plain int residues and multiplies by Kronecker
substitution.  Seeded operands of degree 0..80, unbalanced pairs, squares and
all-(p-1) operands (the largest value every Kronecker slot must hold) are
compared with sympy.polys.galoistools at primes from 2 to 2**31 - 1.
Composition runs Horner's rule on residue lists and is compared with the
loop on Polynomial objects that it replaced.
"""

import random
from fractions import Fraction

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_sqf_list

from corrforms.errors import FieldMismatch, WildInput
from corrforms.field import GF, QQ, FpElement
from corrforms.poly import Polynomial, _compose_over, gcd_monic, squarefree_decompose
from corrforms.ratfunc import RationalFunction
from corrforms.serialize import poly_to_json

from conftest import horner_by_polynomials

PRIMES = (2, 3, 5, 1009, 2147483647)


def dense(poly):
    """Descending coefficient list, the galoistools layout."""
    return list(reversed(poly.coeffs))


def random_fp(rng, p, degree):
    return Polynomial(GF(p), [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])


def all_top(p, degree):
    return Polynomial(GF(p), [p - 1] * (degree + 1))


def operand_pairs(p, seed):
    rng = random.Random(f"{seed}:{p}")
    pairs = []
    for _ in range(10):
        a = random_fp(rng, p, rng.randint(0, 80))
        pairs.append((a, random_fp(rng, p, rng.randint(0, 80))))
        pairs.append((a, random_fp(rng, p, rng.randint(0, 3))))  # unbalanced
        pairs.append((random_fp(rng, p, rng.randint(0, 3)), a))
        pairs.append((a, a))  # squaring
    for da, db in ((0, 0), (0, 80), (1, 80), (40, 7), (80, 80)):
        pairs.append((all_top(p, da), all_top(p, db)))
    return pairs


@pytest.mark.parametrize("p", PRIMES)
def test_mul_matches_galoistools(p):
    for a, b in operand_pairs(p, "mul"):
        assert dense(a * b) == gf_mul(dense(a), dense(b), p, ZZ)
    big = all_top(p, 80)
    assert dense(big * big) == gf_mul(dense(big), dense(big), p, ZZ)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_matches_galoistools(p):
    for a, b in operand_pairs(p, "divmod"):
        q, r = divmod(a, b)
        assert (dense(q), dense(r)) == gf_div(dense(a), dense(b), p, ZZ)
        q, r = divmod(a * b + a, b)
        assert (dense(q), dense(r)) == gf_div(dense(a * b + a), dense(b), p, ZZ)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_monic_matches_galoistools(p):
    rng = random.Random(f"gcd:{p}")
    for a, b in operand_pairs(p, "gcd"):
        assert dense(gcd_monic(a, b)) == gf_gcd(dense(a), dense(b), p, ZZ)
        c = random_fp(rng, p, rng.randint(1, 10))  # a nontrivial common factor
        assert dense(gcd_monic(a * c, b * c)) == gf_gcd(dense(a * c), dense(b * c), p, ZZ)


@pytest.mark.parametrize("p", PRIMES)
def test_squarefree_decompose_matches_galoistools(p):
    """Yun's answer equals galoistools' when every multiplicity is below p;
    otherwise squarefree_decompose must refuse with WildInput."""
    rng = random.Random(f"sqf:{p}")
    for _ in range(12):
        f = Polynomial.constant(GF(p), rng.randrange(1, p))
        while f.degree < 2:
            for _ in range(rng.randint(1, 3)):
                f = f * random_fp(rng, p, rng.randint(1, 12)) ** rng.randint(1, 3)
        lead, theirs = gf_sqf_list(dense(f), p, ZZ)
        expected = tuple((Polynomial(GF(p), list(reversed(g))), k) for g, k in theirs)
        if all(k < p for _, k in theirs):
            dec = squarefree_decompose(f)
            assert dec.unit == lead
            assert dec.parts == expected
        else:
            with pytest.raises(WildInput):
                squarefree_decompose(f)


@pytest.mark.parametrize("p", PRIMES)
def test_compose_with_quotient_matches_polynomial_horner(p):
    rng = random.Random(f"compose:{p}")
    zero, one = Polynomial.zero(GF(p)), Polynomial.one(GF(p))
    for _ in range(12):
        poly, num, den = (random_fp(rng, p, rng.randint(0, k)) for k in (6, 4, 4))
        r = rng.randrange(p)
        vanishing = poly * Polynomial(GF(p), [-r, 1])  # num/den = r is a root: the result is 0
        cases = ((poly, num, den), (zero, num, den), (poly, zero, den), (poly, num, one), (all_top(p, 5), num, den))
        for f, n, d in cases + ((vanishing, den * r, den),):
            for order in (max(f.degree, 0), max(f.degree, 0) + 2):
                got = _compose_over(n, d, [(f, order)])[0]
                assert got == horner_by_polynomials(f, n, d, order)
                assert all(type(c) is int and 0 <= c < p for c in got.coeffs)


def test_fp_storage_contract():
    f7 = GF(7)
    f = Polynomial(f7, [10, "1/2", Fraction(-3, 4), FpElement(6, 7), 0])
    g = Polynomial(f7, [1, 1])
    q, r = divmod(f, g)
    results = [f, g * f, f * f, f + g, f - g, -f, f * 3, q, r, f.monic(), f.derivative(),
               f.hasse_derivative(2), gcd_monic(f, g * g), f.compose(g)]
    for h in results:
        assert all(type(c) is int and 0 <= c < 7 for c in h.coeffs)
    assert f.coeffs == (3, 4, 1, 6)
    for value in (f.leading, f.coefficient(1), f.coefficient(9), f(3), f(FpElement(3, 7)),
                  squarefree_decompose(f).unit):
        assert type(value) is FpElement and value.p == 7
    assert f.leading == 6 and f.coefficient(9) == 0
    assert f(3) == (6 * 27 + 9 + 4 * 3 + 3) % 7
    with pytest.raises(FieldMismatch):
        Polynomial(f7, [FpElement(1, 5)])
    with pytest.raises(FieldMismatch):
        Polynomial(QQ, [1, 2]) + f
    with pytest.raises(FieldMismatch):
        f(FpElement(1, 5))
    assert str(f) == "6*t^3 + t^2 + 4*t + 3"
    assert poly_to_json(f) == ["3", "4", "1", "6"]


def test_kernels_create_no_fp_element(count_fp_elements):
    # raw residues all the way: an FpElement is made only where a value is returned
    f101 = GF(101)
    rng = random.Random("boxing")
    for _ in range(20):
        a, b = random_fp(rng, 101, rng.randint(0, 12)), random_fp(rng, 101, rng.randint(1, 8))
        divmod(a, b), divmod(a * b, b), gcd_monic(a * b, b * b), a.monic()
        den = Polynomial(f101, [rng.randrange(101) for _ in range(4)] + [rng.randrange(2, 101)])
        RationalFunction(a * b, den)
        RationalFunction(a, den * b)
    assert count_fp_elements == []
