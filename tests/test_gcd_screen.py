"""The coprimality screen of gcd_monic over Q.

gcd_monic first clears two nonconstant Q polynomials to integer vectors,
reduces them mod the prime q = poly._SCREEN_PRIME and runs the Euclid there.
A constant gcd mod q, with q dividing neither leading coefficient, proves the
two coprime; every other case falls through to the Euclid over Q.  Answers
are compared with that Euclid alone (conftest.gcd_by_euclid) on seeded pairs
with denominators, with and without a planted common factor, at
q = 2**31 - 1 and with q patched to 3 and to 5, where most pairs fall
through.  Edge pairs fall through at q itself: (t + q, t), coprime over Q
but equal mod q, and (q t + 1, t^2 + 1), whose leading coefficient q
divides.

The screen's Euclid reaches no tuple(), _divmod_raw or Polynomial, since a
tuple per step raised peak RSS in a prototype.  Two counts guard the
screen's effect: no gcd taken inside Divisor.__init__ on a seeded
check_order_identity round reaches the Euclid, and on a tiny identity_qq
round the benchmark's tracer counts at most half the Q divisions with the
screen that it counts without it, and no F_p division at all.
"""

import importlib
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import corrforms
from corrforms import geometry, poly
from corrforms.field import QQ
from corrforms.geometry import DifferentialForm, RationalMap, check_order_identity
from corrforms.poly import Polynomial, gcd_monic
from corrforms.ratfunc import RationalFunction

from conftest import gcd_by_euclid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DENS = (1, 1, 2, 3, 7, 12)


def random_qq(rng, degree):
    coeffs = [Fraction(rng.randint(-30, 30), rng.choice(DENS)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.choice(DENS)))
    return Polynomial(QQ, coeffs)


def seeded_pairs(seed, n):
    """n pairs of degree 0..10; about half share a planted factor of degree 1..3."""
    rng = random.Random(seed)
    for _ in range(n):
        common = random_qq(rng, rng.choice((0, 0, 0, 1, 2, 3)))
        yield tuple(random_qq(rng, rng.randint(0, 7)) * common for _ in range(2))


@pytest.mark.parametrize("q", [poly._SCREEN_PRIME, 3, 5])
def test_gcd_matches_the_euclid(q, monkeypatch):
    monkeypatch.setattr(poly, "_SCREEN_PRIME", q)
    proven = fell_through = 0
    for a, b in seeded_pairs(q, 800):
        expected = gcd_by_euclid(a, b)
        assert gcd_monic(a, b) == expected, (a, b)
        assert gcd_monic(b, a) == expected, (b, a)
        if a.degree > 0 and b.degree > 0:
            if poly._coprime_mod_prime(a.coeffs, b.coeffs):
                assert expected.degree == 0
                proven += 1
            else:
                fell_through += 1
    assert proven > 0 and fell_through > 0
    if q < 10:
        assert fell_through > proven


def test_pairs_the_screen_cannot_prove_fall_through():
    q = poly._SCREEN_PRIME
    t = Polynomial.variable(QQ)
    one = Polynomial.one(QQ)
    cases = (
        (t + q, t, one),  # coprime over Q, equal mod q
        (t * Fraction(1, q) + 1, t, one),  # the same after clearing the denominator q
        (q * t + 1, t**2 + 1, one),  # q divides a leading coefficient
        ((q * t + 1) * (t + 2), (t**2 + 1) * (t + 2), t + 2),
        ((t + q) * (t - 3), t * (t - 3), t - 3),
    )
    for a, b, g in cases:
        assert not poly._coprime_mod_prime(a.coeffs, b.coeffs)
        assert gcd_monic(a, b) == gcd_by_euclid(a, b) == g


def test_screen_euclid_runs_on_lists_in_place(monkeypatch):
    # a tuple per Euclid step (tuple(...), or _divmod_raw with its (0,) + b) cost about
    # 2 MB of identity_qq peak RSS in a prototype: the loop reaches neither, nor Polynomial
    pairs = list(seeded_pairs(61, 200))
    expected = [poly._coprime_mod_prime(a.coeffs, b.coeffs) for a, b in pairs if min(a.degree, b.degree) > 0]
    assert any(expected) and not all(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple, _divmod_raw or Polynomial inside the screen's Euclid")

    for name in ("tuple", "_divmod_raw", "Polynomial"):
        monkeypatch.setattr(poly, name, refuse, raising=False)
    got = [poly._coprime_mod_prime(a.coeffs, b.coeffs) for a, b in pairs if min(a.degree, b.degree) > 0]
    monkeypatch.undo()
    assert got == expected


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's gen, tracer and workloads modules, from this checkout."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return SimpleNamespace(**{m: importlib.import_module(m) for m in ("gen", "tracer", "workloads")})


def test_no_gcd_inside_divisor_reaches_the_euclid(monkeypatch, bench):
    # Divisor.__init__ is the one caller of the name gcd_monic in geometry
    inside, gcds, euclid_steps = [False], [], []
    gcd, divmod_ = geometry.gcd_monic, Polynomial.__divmod__

    def gcd_in_divisor(a, b):
        inside[0] = True
        try:
            g = gcd(a, b)
        finally:
            inside[0] = False
        gcds.append(g)
        return g

    def counted_divmod(self, other):
        if inside[0]:
            euclid_steps.append((self, other))
        return divmod_(self, other)

    monkeypatch.setattr(geometry, "gcd_monic", gcd_in_divisor)
    monkeypatch.setattr(Polynomial, "__divmod__", counted_divmod)
    for pair in bench.gen.identity_round(random.Random("identity:7:0")):
        (num, den), (f, g, weight) = pair["sigma"], pair["omega"]
        sigma = RationalMap(RationalFunction(Polynomial(QQ, num), Polynomial(QQ, den)))
        omega = DifferentialForm(RationalFunction(Polynomial(QQ, f), Polynomial(QQ, g)), weight)
        assert check_order_identity(sigma, omega)
    assert len(gcds) > 50 and all(g.degree == 0 for g in gcds)
    assert euclid_steps == []


def test_tracer_counts_at_most_half_the_qq_divisions_with_the_screen(monkeypatch, bench):
    def traced_divisions():
        workload = bench.workloads.IdentityQq(corrforms, 7, None, None, size=bench.workloads.TINY)
        workload.trace_rounds = 1
        workload.tracer = bench.tracer.Tracer()
        assert all(r.result is True for r in workload.trace_pass())
        assert workload.tracer.calls["poly.divmod.fp"] == 0  # nor does the screen divide Polynomials mod q
        return workload.tracer.calls["poly.divmod.qq"]

    screened = traced_divisions()
    monkeypatch.setattr(poly, "_coprime_mod_prime", lambda a, b: False)
    assert 0 < screened <= traced_divisions() // 2
