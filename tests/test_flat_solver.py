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

The evaluation screen (invariance._refused_at_points) refuses a system with no
solution before any product is built; the last tests check that it refuses
misses without _mul_raw, never refuses a hit, even where its prime divides a
pivot, and that colliding points only make it step aside.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from corrforms import invariance
from corrforms.errors import CorrformsError
from corrforms.field import GF, QQ
from corrforms.invariance import Correspondence, _solve_flat, solve_weight1_flat, solve_weight2_flat
from corrforms.poly import _SCREEN_PRIME, Polynomial
from corrforms.serialize import document_from_json
from corrforms.sweep import chebyshev, primes_in_range, reduce_mod_p

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


@pytest.fixture
def screened(monkeypatch):
    """Every verdict of the evaluation screen, in call order."""
    verdicts = []
    original = invariance._refused_at_points

    def recording(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    monkeypatch.setattr(invariance, "_refused_at_points", recording)
    return verdicts


def test_screen_refuses_misses_before_any_product(gen, monkeypatch):
    # the sweep_fp trivial pair at p = 101 and the pool's trivial documents over Q
    # have no flat form of weight 1 or 2; the screen answers without one _mul_raw
    trivial = document_from_json(gen.sweep_docs()["trivial"]).corr
    corrs = [reduce_mod_p(trivial, 101)]
    corrs += [document_from_json(doc).corr for family, doc in gen.cli_pool() if family == "trivial"]
    assert len(corrs) == 73 and all(isinstance(c, Correspondence) for c in corrs)

    def refuse(*args):
        raise AssertionError("a product was built for a system with no solution")

    monkeypatch.setattr(invariance, "_mul_raw", refuse)
    assert [(solve_weight1_flat(c), solve_weight2_flat(c)) for c in corrs] == [(None, None)] * 73


def test_screen_passes_every_pool_hit_and_refuses_every_pool_miss(gen, screened):
    outcomes = Counter()
    for family, doc in gen.cli_pool():
        if family == "mobius":
            continue
        corr = document_from_json(doc).corr
        for nu in (1, 2):
            found = _solve_flat(corr, nu) is not None
            outcomes[found, screened.pop()] += 1
            if found:
                break
    assert outcomes == {(False, True): 216, (True, False): 144}


def _screen_points(nu, p):
    return [j * invariance._SCREEN_POINT % p for j in range(1, nu + 2)]


@pytest.mark.parametrize("p", [2, 3])
def test_screen_steps_aside_where_its_points_collide(p, screened):
    # nu + 1 points cannot be distinct mod p <= nu: two equal rows make the
    # determinant zero, and the solve runs as it did without the screen
    rng, field = random.Random(7400 + p), GF(p)
    collide = [nu for nu in (1, 2, 3) if len(set(_screen_points(nu, p))) < nu + 1]
    assert collide == ([2, 3] if p == 2 else [3])
    refused = Counter()
    for s1, s2 in fp_pairs(rng, field):
        corr = Correspondence(s1, s2)
        for nu in (1, 2, 3):
            expected = _outcome(solve_flat_by_polynomials, corr, nu)
            assert _outcome(_solve_flat, corr, nu) == expected, (s1, s2, nu)
            if screened:  # an error is raised before the screen
                verdict = screened.pop()
                assert expected is None or not verdict
                refused[nu] += verdict
    assert all(refused[nu] == 0 for nu in collide)
    assert sum(refused.values()) > 0


def test_screen_at_weight_3(screened):
    # (a + k1 u^m, a + k2 u^h) carries (dt)^3/(t - a)^3: the screen lets it through;
    # random pairs have no weight-3 form, and the screen refuses them
    rng = random.Random(7500)
    hits = misses = refused = 0
    for field in (QQ, GF(101), GF(2**31 - 1)):
        t = Polynomial.variable(field)
        for _ in range(6):
            a, k1, k2 = (field.scalar(rng.randint(1, 9)) for _ in range(3))
            u = t + field.scalar(rng.randint(-5, 5))
            m = rng.randint(3, 5)
            corr = Correspondence(a + k1 * u**m, a + k2 * u ** rng.randint(1, m - 1))
            assert _solve_flat(corr, 3) == solve_flat_by_polynomials(corr, 3) is not None
            assert screened.pop() is False
            hits += 1
            d1 = rng.randint(3, 7)
            corr = Correspondence(
                random_separable_poly(rng, field, d1), random_separable_poly(rng, field, rng.randint(1, d1 - 1))
            )
            assert _solve_flat(corr, 3) == solve_flat_by_polynomials(corr, 3) is None
            misses, refused = misses + 1, refused + screened.pop()
    assert (hits, misses) == (18, 18) and refused == 18


def test_screen_is_exact_when_its_prime_divides_a_pivot(screened):
    # leads, denominators and shifts that are multiples of q = 2^31 - 1 make the
    # pivots vanish mod q; a solution, scaled to a primitive integer relation,
    # still annihilates the evaluated matrix mod q, so no hit is refused
    q, t = _SCREEN_PRIME, Polynomial.variable(QQ)
    rng, hits = random.Random(7600), 0
    for _ in range(30):
        w = t * Fraction(rng.choice([1, 2, q]), rng.choice([1, 3, q])) + Fraction(rng.randint(-5, 5), rng.choice([1, q]))
        a = Fraction(rng.randint(-9, 9), rng.choice([1, q, 2 * q]))
        k1, k2 = (Fraction(rng.choice([1, q, 3 * q]) * rng.randint(1, 9), rng.choice([1, 7, q])) for _ in range(2))
        m = rng.randint(2, 6)
        h = rng.randint(1, m - 1)
        psi = affine(QQ, Fraction(rng.choice([1, q]), rng.choice([1, 2, q])), Fraction(rng.randint(-3, 3), rng.choice([1, q])))
        for corr, weights in [
            (Correspondence(a + k1 * w**m, a + k2 * w**h), (1, 2, 3)),
            (Correspondence(psi.compose(chebyshev(m + 1).compose(w)), psi.compose(chebyshev(h).compose(w))), (2,)),
        ]:
            for nu in weights:
                assert _solve_flat(corr, nu) == solve_flat_by_polynomials(corr, nu) is not None
                assert screened.pop() is False
                hits += 1
    assert hits == 120
    # misses with such pivots keep their answer, and the screen may still refuse them
    cases = [
        (Correspondence(q * t**5 + t, t**2 + 1), 1, True),
        (Correspondence(Fraction(1, q) * t**5 + t, t**2 + 1), 2, False),
        (Correspondence(q * chebyshev(5), chebyshev(3)), 2, False),
        (Correspondence(chebyshev(5), Fraction(2 * q, 7) * chebyshev(3)), 1, False),
    ]
    for corr, nu, refused in cases:
        assert _solve_flat(corr, nu) is solve_flat_by_polynomials(corr, nu) is None
        assert screened.pop() is refused


def test_screen_refuses_the_chebyshev_weight1_miss_at_most_primes(screened):
    # T_30, T_7 is cyclic of weight 2 only; T_d(2) = 2 for every d, so points
    # like 2 would let its weight-1 system through at every prime
    primes = primes_in_range(11, 1000)
    for p in primes:
        field = GF(p)
        assert _solve_flat(Correspondence(chebyshev(30, field), chebyshev(7, field)), 1) is None
    assert len(primes) == len(screened) == 164
    assert sum(screened) >= 150
