"""The fraction-free flat solver against the Polynomial back-substitution.

invariance._solve_flat runs on integer vectors over Q and on residues over
F_p.  Its answers are compared with the back-substitution on Polynomial
objects that it replaced (conftest.solve_flat_by_polynomials) for weights 1,
2 and 3, on seeded pairs that hit and miss:

- weight-1 hits (a + k1 u^m, a + k2 u^h), Theorem 3's shape;
- weight-2 hits psi^-1(T_m(u)), psi^-1(T_h(u)) for Chebyshev T and affine psi;
- near misses, each a hit plus one small term, and random pairs;
- degenerate residues: a zero top column (t^3, t), zero pivot entries (odd
  Chebyshev pairs, h = t^2 - 4), and the degenerate weight-2 hit (t^4, t^2).

Over Q every input carries coefficient denominators.  Both argument orders
are tried; the swapped pair must raise the same error in both solvers.  One
test makes every Polynomial operation raise inside a Q solve.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from corrforms.errors import CorrformsError
from corrforms.field import GF, QQ
from corrforms.invariance import Correspondence, _solve_flat
from corrforms.poly import Polynomial
from corrforms.sweep import chebyshev

from conftest import affine, qq_pairs, random_separable_poly, solve_flat_by_polynomials


def _outcome(solve, corr, nu):
    try:
        return solve(corr, nu)
    except CorrformsError as exc:
        return type(exc), str(exc)


def assert_solvers_agree(s1, s2, hits):
    """Both solvers, both argument orders, weights 1 to 3; hits counts the forms found by weight."""
    for pair in ((s1, s2), (s2, s1)):
        corr = Correspondence(*pair)
        for nu in (1, 2, 3):
            expected = _outcome(solve_flat_by_polynomials, corr, nu)
            got = _outcome(_solve_flat, corr, nu)
            assert got == expected, (pair, nu)
            if isinstance(got, tuple) and isinstance(got[0], list):
                assert [type(c) for c in got[0]] == [type(c) for c in expected[0]]
                hits[nu] += 1


@pytest.mark.parametrize("den_bits", [0, 8, 70])
def test_solve_flat_matches_polynomial_back_substitution_over_qq(den_bits):
    rng, hits = random.Random(7100 + den_bits), Counter()
    for s1, s2 in qq_pairs(rng, den_bits):
        assert_solvers_agree(s1, s2, hits)
    assert hits[1] >= 6 and hits[2] >= 6


def fp_pairs(rng, field):
    """Seeded F_p pairs whose degrees p divides neither: reduced hits, near misses, random pairs."""
    p = field.characteristic
    t = Polynomial.variable(field)
    degrees = [d for d in range(1, 9) if d % p]
    pairs = [(t**3, t)] if p != 3 else [(t**2, t)]
    for _ in range(8):
        m = rng.choice(degrees[1:])
        h = rng.choice([d for d in degrees if d < m])
        a = rng.randrange(p)
        u = t + rng.randrange(p)
        pairs.append((a + rng.randrange(1, p) * u**m, a + rng.randrange(1, p) * u**h))
        inv = affine(field, 1, rng.randrange(p))
        pairs.append((inv.compose(chebyshev(m, field).compose(u)), inv.compose(chebyshev(h, field).compose(u))))
    for s1, s2 in list(pairs[1:]):
        j = rng.randrange(1, s1.degree)
        nudged = s1 + Polynomial(field, [0] * j + [rng.randrange(1, p)])
        if not nudged.derivative().is_zero:
            pairs.append((nudged, s2))
    for _ in range(8):
        d1 = rng.choice(degrees[1:])
        d2 = rng.choice([d for d in degrees if d < d1])
        pairs.append((random_separable_poly(rng, field, d1), random_separable_poly(rng, field, d2)))
    return [(s1, s2) for s1, s2 in pairs if not s1.derivative().is_zero and not s2.derivative().is_zero]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 2**31 - 1])
def test_solve_flat_matches_polynomial_back_substitution_over_fp(p):
    rng, hits = random.Random(7200 + p), Counter()
    for s1, s2 in fp_pairs(rng, GF(p)):
        assert_solvers_agree(s1, s2, hits)
    assert hits[1] >= 4 and hits[2] >= 4


def test_qq_solve_builds_no_polynomial(monkeypatch):
    # the loop runs on integer vectors: no Polynomial is built or combined until it returns
    t = Polynomial.variable(QQ)
    x = Fraction(3, 5) * t + Fraction(1, 7)
    cases = [
        (Correspondence(Fraction(1, 2) * x**5 - 1, 3 * x**2 - 1), 1),
        (Correspondence(chebyshev(5).compose(x), chebyshev(2).compose(x)), 2),
        (Correspondence(Fraction(1, 3) * t**5 + t, Fraction(1, 5) * t**2), 2),
    ]
    expected = [solve_flat_by_polynomials(corr, nu) for corr, nu in cases]
    assert expected[0] is not None and expected[1] is not None and expected[2] is None

    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial arithmetic inside the flat solver")

    for name in ("__init__", "_make", "__add__", "__sub__", "__neg__", "__mul__", "__pow__",
                 "__divmod__", "_scaled", "_reduced", "derivative", "compose"):
        monkeypatch.setattr(Polynomial, name, refuse)
    got = [_solve_flat(corr, nu) for corr, nu in cases]
    monkeypatch.undo()
    assert got == expected
