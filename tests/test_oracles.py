"""Independent checks of find_primitive: an exhaustive census over small
fields and the paper's Theorem 3 over Q.

The census takes every pair of polynomials of degrees (d1, d2) over F_p, all
leading coefficients included; each forms a Correspondence.  For each pair it
tries every dt/(t - a) and every (dt)^2/(t^2 - s t + q) with
semi_invariance_ratio, which builds the two pullbacks and compares them, and
compares the hits with the triangular solver behind find_primitive.  A
weight-1 hit a also makes (dt)^2/(t - a)^2 semi-invariant, so the weight-2
forms are compared only when no weight-1 form exists.  Each flat form, when
one exists, is unique.

Theorem 3: in characteristic 0 a flat weight-1 primitive dt/(t - a) exists
only when (sigma1 - a, sigma2 - a) is a common-power pair
(lambda1 sigma^m, lambda2 sigma^h).
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from corrforms.field import GF, QQ
from corrforms.invariance import (
    Correspondence,
    find_primitive,
    flat_form_weight1,
    flat_form_weight2,
    semi_invariance_ratio,
)
from corrforms.poly import Polynomial
from corrforms.sweep import decompose_power_pair, multiplicative_pair

from conftest import random_poly

# (p, d1, d2): 4268 polynomial pairs in all; p divides neither degree
CENSUS = ((3, 2, 1), (2, 3, 1), (3, 4, 1), (3, 4, 2), (2, 5, 3))


def polys_of_degree(field, d):
    p = field.characteristic
    for lower in product(range(p), repeat=d):
        for lead in range(1, p):
            yield Polynomial(field, [*lower, lead])


@pytest.mark.parametrize("p, d1, d2", CENSUS)
def test_census_flat_forms_match_find_primitive(p, d1, d2):
    field = GF(p)
    weight1 = [(a, flat_form_weight1(field, a)) for a in range(p)]
    weight2 = [((s, q), flat_form_weight2(field, s, q)) for s in range(p) for q in range(p)]
    hits1 = hits2 = 0
    for s1, s2 in product(list(polys_of_degree(field, d1)), list(polys_of_degree(field, d2))):
        corr = Correspondence(s1, s2)  # p divides neither degree, so both maps are separable
        report = find_primitive(corr)
        where = f"sigma1 = {s1}, sigma2 = {s2} over GF({p})"
        found1 = [(a, r) for a, form in weight1 if (r := semi_invariance_ratio(corr, form)) is not None]
        if found1:
            hits1 += 1
            (a, ratio), = found1
            assert (report.weight, report.params, report.ratio) == (1, {"a": a}, ratio), where
            continue
        found2 = [(sq, r) for sq, form in weight2 if (r := semi_invariance_ratio(corr, form)) is not None]
        if found2:
            hits2 += 1
            ((s, q), ratio), = found2
            assert (report.weight, report.params, report.ratio) == (2, {"s": s, "q": q}, ratio), where
            continue
        assert report.status == "trivial", where
    assert hits1 > 0 and (hits2 > 0) == (p == 3)


def theorem3_holds(corr):
    """True when find_primitive has no weight-1 hit or its hit a makes a power pair."""
    report = find_primitive(corr)
    if report.weight != 1:
        return None
    a = report.params["a"]
    s1, s2 = (m.polynomial - a for m in (corr.sigma1, corr.sigma2))
    return decompose_power_pair(s1, s2) is not None


def test_theorem3_weight1_hits_of_multiplicative_pairs_are_power_pairs():
    rng = random.Random(3)
    for _ in range(40):
        sigma = random_poly(rng, QQ, rng.randint(1, 4))
        sigma = sigma * Fraction(1, rng.randint(1, 5))
        h = rng.randint(1, 4)
        m = rng.choice([k for k in range(h + 1, h + 6) if Fraction(k, h).denominator == h])
        corr = multiplicative_pair(sigma, m, h)
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        lam1, lam2 = (Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(2))
        shifted = Correspondence(
            lam1 * corr.sigma1.polynomial + shift, lam2 * corr.sigma2.polynomial + shift
        )
        assert theorem3_holds(corr) is True
        assert theorem3_holds(shifted) is True
        assert find_primitive(shifted).params == {"a": shift}


def test_theorem3_weight1_hits_of_random_pairs_are_power_pairs():
    rng = random.Random(5)
    outcomes = []
    for _ in range(150):
        d2 = rng.randint(1, 3)
        d1 = rng.randint(d2 + 1, 7)
        s1, s2 = (random_poly(rng, QQ, d, span=2) for d in (d1, d2))
        outcomes.append(theorem3_holds(Correspondence(s1, s2)))
    assert False not in outcomes
    assert True in outcomes  # at this seed one pair has a weight-1 hit
