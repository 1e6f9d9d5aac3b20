"""Answers that must not change when the pair is precomposed or the form scaled.

Precomposition: for a separable nonconstant psi, psi^* is injective on
differentials and (sigma o psi)^* = psi^* o sigma^* (Silverman, The
Arithmetic of Elliptic Curves, II.4.2(c)).  So omega is semi-invariant for
(sigma1 o psi, sigma2 o psi) with ratio lambda exactly when it is for
(sigma1, sigma2).  With psi = t^k + b t + c, k in {2, 3}, on seeded pairs over
Q, F_7, F_101 and F_2147483647:
- `detect` prints the same bytes for both pairs: d1 and d2 both scale by k,
  so `complete` stays, and the flat form is unique;
- `check` keeps `semi_invariant`, `lambda`, `divisor` and `conductor`
  (only the bound moves), on polynomial and on rational maps;
- over Q, `sweep` from 2 to 200 keeps each entry's status, weight, lambda
  and form at every prime where psi reduces to a separable, tame map of full
  degree.  Elsewhere the composite can be wild where sigma is not.

Scaling: c omega, c != 0, has the same lambda and the same divisor as omega.

These relations need no second implementation (metamorphic testing: Chen,
Cheung & Yiu, HKUST-CS98-01, 1998).
"""

import json
import random
from fractions import Fraction

import pytest

from corrforms.errors import WildInput
from corrforms.field import GF, QQ
from corrforms.geometry import DifferentialForm, RationalMap, is_tame
from corrforms.invariance import Correspondence, find_primitive
from corrforms.poly import Polynomial
from corrforms.ratfunc import RationalFunction
from corrforms.serialize import form_to_json, map_to_json, poly_to_json
from corrforms.sweep import chebyshev, sweep

from conftest import run_cli

FIELDS = {"QQ": QQ, "GF7": GF(7), "GF101": GF(101), "GF2147483647": GF(2**31 - 1)}
CHECK_KEYS = ("semi_invariant", "lambda", "divisor", "conductor")


def scalar(rng, field, nonzero=False):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if field == QQ else rng.randint(-9, 9)
        if not nonzero or field.raw(x):
            return field.scalar(x)


def poly(rng, field, degree):
    """A polynomial of exactly the given degree with small seeded coefficients."""
    return Polynomial(field, [scalar(rng, field) for _ in range(degree)] + [scalar(rng, field, True)])


def psi(rng, field):
    """t^k + b t + c for k in {2, 3}: separable over every field of FIELDS, none of characteristic 2 or 3."""
    t = Polynomial.variable(field)
    return t ** rng.choice((2, 3)) + scalar(rng, field) * t + scalar(rng, field)


def polynomial_pairs(rng, field):
    """Weight-1 hits (a + k1 u^m, a + k2 u^h), weight-2 hits T_m(u), T_h(u), and random
    pairs, each with d1 > d2 and neither degree divisible by 7."""
    pairs = []
    for _ in range(4):
        a, k1, k2 = scalar(rng, field), scalar(rng, field, True), scalar(rng, field, True)
        u = poly(rng, field, rng.randint(1, 2))
        m = rng.randint(2, 4)
        pairs.append((a + k1 * u**m, a + k2 * u ** rng.randint(1, m - 1)))
        u = poly(rng, field, 1)
        m = rng.randint(3, 6)
        pairs.append((chebyshev(m, field).compose(u), chebyshev(rng.randint(1, m - 1), field).compose(u)))
        d1 = rng.randint(2, 6)
        pairs.append((poly(rng, field, d1), poly(rng, field, rng.randint(1, d1 - 1))))
    return pairs


def field_json(field):
    return "Q" if field == QQ else {"Fp": field.characteristic}


def precomposed(sigma, inner):
    """sigma o inner as a RationalFunction, for a Polynomial or RationalFunction sigma."""
    body = sigma if isinstance(sigma, RationalFunction) else RationalFunction(sigma)
    return body.compose(RationalFunction(inner))


def check_doc(field, s1, s2, omega):
    return {
        "sigma1": map_to_json(RationalMap(s1)),
        "sigma2": map_to_json(RationalMap(s2)),
        "omega": form_to_json(omega),
        "field": field_json(field),
    }


@pytest.mark.parametrize("name", FIELDS)
def test_detect_is_unchanged_by_precomposition(name, tmp_path, capsys):
    field = FIELDS[name]
    rng = random.Random(f"precompose detect {name}")
    statuses = []
    for s1, s2 in polynomial_pairs(rng, field):
        inner = psi(rng, field)
        doc = {"sigma1": poly_to_json(s1), "sigma2": poly_to_json(s2), "field": field_json(field)}
        base = run_cli(capsys, tmp_path, "detect", doc)
        doc.update(sigma1=poly_to_json(s1.compose(inner)), sigma2=poly_to_json(s2.compose(inner)))
        assert run_cli(capsys, tmp_path, "detect", doc) == base, (s1, s2, inner)
        assert base[0] == 0
        statuses.append(json.loads(base[1]).get("weight"))
    assert {1, 2, None} <= set(statuses)


def affine_rational_cases(rng, field):
    """(sigma1, c sigma1 + e, omega) for rational sigma1 and omega = (dt)^nu / (t - e/(1 - c))^j:
    semi-invariant with lambda = c^(j - nu)."""
    t = Polynomial.variable(field)
    while True:
        c, e = scalar(rng, field, True), scalar(rng, field)
        if c == 1:
            continue
        s1 = RationalFunction(poly(rng, field, rng.randint(1, 3)), poly(rng, field, rng.randint(0, 3)))
        if s1.is_constant:
            continue
        j, nu = rng.randint(-2, 3), rng.choice((-2, -1, 1, 2))
        x = t - e / (1 - c)
        coeff = RationalFunction(x ** max(-j, 0), x ** max(j, 0))
        yield s1, s1 * c + e, DifferentialForm(coeff, nu)


def power_rational_cases(rng, field):
    """(k1 s^m, k2 s^h, (dt/t)^nu) for rational s: semi-invariant with lambda = (m/h)^nu,
    and the two denominators differ."""
    t = Polynomial.variable(field)
    while True:
        s = RationalFunction(poly(rng, field, rng.randint(1, 2)), poly(rng, field, rng.randint(1, 2)))
        if s.is_constant:
            continue
        m, nu = rng.randint(2, 3), rng.choice((-2, -1, 1, 2))
        pair = (s**m * scalar(rng, field, True), s ** rng.randint(1, m - 1) * scalar(rng, field, True))
        yield *pair, DifferentialForm(RationalFunction(t ** max(-nu, 0), t ** max(nu, 0)), nu)


def check_cases(rng, field):
    """Polynomial pairs with detect's form and with a random form, and rational affine and power pairs."""
    cases = []
    for s1, s2 in polynomial_pairs(rng, field):
        report = find_primitive(Correspondence(s1, s2))
        if report.primitive is not None:
            cases.append((s1, s2, report.primitive))
        coeff = RationalFunction(poly(rng, field, rng.randint(0, 3)), poly(rng, field, rng.randint(0, 3)))
        cases.append((s1, s2, DifferentialForm(coeff, rng.choice((-1, 1, 2)))))
    for rational in (affine_rational_cases(rng, field), power_rational_cases(rng, field)):
        cases += [next(rational) for _ in range(6)]
    return cases


@pytest.mark.parametrize("name", FIELDS)
def test_check_is_unchanged_by_precomposition(name, tmp_path, capsys):
    field = FIELDS[name]
    rng = random.Random(f"precompose check {name}")
    verdicts = []
    for s1, s2, omega in check_cases(rng, field):
        inner = psi(rng, field)
        code, out, err = run_cli(capsys, tmp_path, "check", check_doc(field, s1, s2, omega))
        assert (code, err) == (0, "")
        base = json.loads(out)
        doc = check_doc(field, precomposed(s1, inner), precomposed(s2, inner), omega)
        code, out, err = run_cli(capsys, tmp_path, "check", doc)
        assert (code, err) == (0, "")
        moved = json.loads(out)
        assert [moved[k] for k in CHECK_KEYS] == [base[k] for k in CHECK_KEYS], (s1, s2, omega, inner)
        verdicts.append(base["semi_invariant"])
    assert verdicts.count(True) >= 6 and False in verdicts


@pytest.mark.parametrize("name", FIELDS)
def test_scaling_the_form_keeps_lambda_and_divisor(name, tmp_path, capsys):
    field = FIELDS[name]
    rng = random.Random(f"scale {name}")
    verdicts = []
    for s1, s2, omega in check_cases(rng, field):
        code, out, err = run_cli(capsys, tmp_path, "check", check_doc(field, s1, s2, omega))
        base = json.loads(out)
        scaled = omega.scale(scalar(rng, field, True))
        code, out, err = run_cli(capsys, tmp_path, "check", check_doc(field, s1, s2, scaled))
        assert (code, err) == (0, "")
        moved = json.loads(out)
        assert [moved[k] for k in CHECK_KEYS] == [base[k] for k in CHECK_KEYS], (s1, s2, omega)
        verdicts.append(base["semi_invariant"])
    assert True in verdicts and False in verdicts


def good_primes_of(inner, primes):
    """The primes where inner reduces to a separable, tame map of full degree."""
    good = set()
    for p in primes:
        if any(Fraction(c).denominator % p == 0 for c in inner.coeffs):
            continue
        reduced = Polynomial(GF(p), [Fraction(c) for c in inner.coeffs])
        try:
            tame = is_tame(RationalMap(reduced))
        except WildInput:  # the squarefree refusal when p <= deg psi (ROADMAP item 5): not judged, not compared
            continue
        if reduced.degree == inner.degree and tame:
            good.add(p)
    return good


def test_sweep_entries_are_unchanged_by_precomposition():
    rng = random.Random("precompose sweep")
    pairs = polynomial_pairs(rng, QQ)
    compared = skipped_for_psi = 0
    for s1, s2 in pairs:
        inner = psi(rng, QQ)
        base = sweep(Correspondence(s1, s2), 2, 200).entries
        moved = sweep(Correspondence(s1.compose(inner), s2.compose(inner)), 2, 200).entries
        assert [e.p for e in base] == [e.p for e in moved]
        good = good_primes_of(inner, [e.p for e in base])
        for x, y in zip(base, moved):
            if x.p not in good:
                skipped_for_psi += 1
                continue
            want = (x.status, x.weight, x.ratio, x.params)
            assert (y.status, y.weight, y.ratio, y.params) == want, (s1, s2, inner, x.p)
            compared += 1
    assert compared >= 400 and skipped_for_psi
