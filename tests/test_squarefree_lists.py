"""Yun's loop and the F_p gcd on raw coefficient lists.

squarefree_decompose runs Yun's algorithm on the field's raw values, and
gcd_monic over F_p runs the Euclid in place on residue lists
(poly._euclid_in_place, the loop the Q coprimality screen runs mod 2**31 - 1).
Both are compared with the Polynomial-object versions kept in conftest.py:
squarefree_by_polynomials must give the same unit and parts, or raise the same
exception with the same message, on seeded products of powers with
multiplicities up to 6, over Q with denominators and over F_p for small and
word-size p; gcd_monic must equal gcd_by_euclid in both argument orders.

No division by a constant is left in the F_p sweep: the in-place Euclid stops
at a nonzero constant remainder instead of dividing by it, and Yun's loop
skips a gcd of one.  gcd_monic answers a nonzero constant argument with one
before any Euclid step.

Yun's loop takes every gcd from gcd_monic, so each Q gcd of two nonconstant
polynomials is screened mod a prime exactly once, and it checks its result
by SquarefreeDecomposition.recompose exactly when 0 < p <= deg a, the only
inputs on which a multiplicity can reach p.  Over F_p it hands gcd_monic its
residue lists as they are, with no PrimeField.raw call.
"""

import builtins
import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corrforms import cli, poly
from corrforms.errors import CorrformsError, WildInput
from corrforms.field import GF, QQ
from corrforms.poly import Polynomial, SquarefreeDecomposition, gcd_monic, squarefree_decompose

from conftest import gcd_by_euclid, squarefree_by_polynomials

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIELDS = [QQ] + [GF(p) for p in (2, 3, 5, 7, 101, 2**31 - 1)]
DENS = (1, 1, 2, 3, 7, 12)


def random_coeff(rng, field, nonzero=False):
    if field.characteristic:
        span = min(field.characteristic - 1, 9)
        return rng.randint(1, span) if nonzero else rng.randint(0, span)
    num = rng.randint(1, 9) if nonzero else rng.randint(-9, 9)
    return Fraction(rng.choice((-1, 1)) * num, rng.choice(DENS))


def random_factor(rng, field, degree):
    return Polynomial(field, [random_coeff(rng, field) for _ in range(degree)] + [random_coeff(rng, field, True)])


def products_of_powers(field, seed, n):
    """n seeded unit * prod f_i**k_i, 1..3 factors of degree 1..3, multiplicities 1..6,
    after 0, a constant and three fixed powers (a seventh power vanishes under d/dt in F_7)."""
    rng = random.Random(f"{seed}:{field.characteristic}")
    t = Polynomial.variable(field)
    out = [Polynomial.zero(field), Polynomial.constant(field, 3), t**6, (t + 1) ** 6 * t, (t + 2) ** 7]
    for _ in range(n):
        f = Polynomial.constant(field, random_coeff(rng, field, True))
        for _ in range(rng.randint(1, 3)):
            f = f * random_factor(rng, field, rng.randint(1, 3)) ** rng.choice((1, 1, 1, 2, 3, 4, 5, 6))
        out.append(f)
    return out


def outcome(decompose, f):
    try:
        dec = decompose(f)
    except (ValueError, CorrformsError) as exc:
        return type(exc), str(exc)
    return dec.unit, dec.parts


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.characteristic))
def test_yun_on_lists_matches_polynomial_yun(field):
    p = field.characteristic
    raw_type = int if p else Fraction
    errors, decomposed, repeated = set(), 0, 0
    for f in products_of_powers(field, 23, 120):
        got, expected = outcome(squarefree_decompose, f), outcome(squarefree_by_polynomials, f)
        assert got == expected, f
        if isinstance(got[0], type):
            errors.add((got[0].__name__, got[1].split()[0]))
            continue
        for part, _ in got[1]:
            assert type(part) is Polynomial and part.field == field
            assert all(type(c) is raw_type for c in part.coeffs), part
        decomposed += 1
        repeated += any(k > 1 for _, k in got[1])
    assert decomposed >= 10 and (p == 2 or repeated >= 10)  # over F_2 a square is wild
    wild = {("WildInput", "derivative"), ("WildInput", "squarefree")} if 0 < p <= 7 else set()
    assert errors == {("ValueError", "cannot")} | wild


@pytest.mark.parametrize("field", FIELDS[1:], ids=lambda f: str(f.characteristic))
def test_fp_gcd_matches_the_euclid(field):
    rng = random.Random(f"gcd:{field.characteristic}")
    zero = Polynomial.zero(field)
    pairs = [(zero, random_factor(rng, field, 2)), (Polynomial.constant(field, 2), random_factor(rng, field, 3))]
    for _ in range(300):
        common = random_factor(rng, field, rng.choice((0, 0, 1, 2, 3)))
        pairs.append(tuple(random_factor(rng, field, rng.randint(0, 6)) * common for _ in range(2)))
    nontrivial = 0
    for a, b in pairs:
        expected = gcd_by_euclid(a, b)
        assert gcd_monic(a, b) == expected, (a, b)
        assert gcd_monic(b, a) == expected, (b, a)
        nontrivial += expected.degree > 0
    assert nontrivial >= 100


def test_fp_sweep_divides_by_no_constant(tmp_path, monkeypatch):
    # sweep --pmin 2 --pmax 1000 over the benchmark's four sweep_fp pairs: every F_p
    # division goes through _divmod_raw or is a step of _euclid_in_place, whose
    # divisor y it reads when it inverts y's leading coefficient
    monkeypatch.syspath_prepend(str(PERFBENCH))
    docs = importlib.import_module("gen").sweep_docs()
    divisions, euclid_steps = [], []
    divmod_raw, euclid = poly._divmod_raw, poly._euclid_in_place.__code__

    def recorded_divmod(a, b, p):
        if p:
            divisions.append(len(b))
        return divmod_raw(a, b, p)

    def recorded_pow(*args):
        frame = sys._getframe(1)
        if frame.f_code is euclid:
            euclid_steps.append(len(frame.f_locals["y"]))
        return builtins.pow(*args)

    monkeypatch.setattr(poly, "_divmod_raw", recorded_divmod)
    monkeypatch.setattr(poly, "pow", recorded_pow, raising=False)
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", str(path), "--pmin", "2", "--pmax", "1000"]) == 0
    assert len(divisions) > 1000 and len(euclid_steps) > 1000
    assert [n for n in divisions + euclid_steps if n <= 1] == []


def test_each_qq_gcd_in_yun_is_screened_once(monkeypatch):
    screen, gcd = poly._coprime_mod_prime, poly.gcd_monic
    screens, nonconstant = [], []

    def recorded_screen(a, b):
        screens.append(1)
        return screen(a, b)

    def recorded_gcd(a, b):
        g = gcd(a, b)
        if a.degree > 0 and b.degree > 0:
            nonconstant.append(1)
        return g

    monkeypatch.setattr(poly, "_coprime_mod_prime", recorded_screen)
    monkeypatch.setattr(poly, "gcd_monic", recorded_gcd)
    for f in products_of_powers(QQ, 29, 120)[1:]:
        squarefree_decompose(f)
    assert len(nonconstant) > 100
    assert len(screens) == len(nonconstant)


@pytest.mark.parametrize("field", [GF(p) for p in (2, 5, 101, 2**31 - 1)], ids=lambda f: str(f.characteristic))
def test_recomposition_is_checked_exactly_where_yun_can_be_wrong(field, monkeypatch):
    p = field.characteristic
    recompose, calls = SquarefreeDecomposition.recompose, []

    def recorded(self, field):
        calls.append(1)
        return recompose(self, field)

    monkeypatch.setattr(SquarefreeDecomposition, "recompose", recorded)
    checked = unchecked = 0
    for f in products_of_powers(field, 31, 120)[1:]:
        calls.clear()
        with contextlib.suppress(WildInput):
            squarefree_decompose(f)
        expected = int(p <= f.degree and not f.derivative().is_zero)  # a vanishing derivative ends before
        assert len(calls) == expected, f
        checked += expected
        unchecked += f.degree < p
    assert unchecked >= 5 and (checked >= 50 if p <= 5 else checked == 0)
    t = Polynomial.variable(GF(5))
    with pytest.raises(WildInput, match=r"^squarefree recomposition failed in characteristic 5 \(multiplicity >= 5\?\)$"):
        squarefree_decompose((t + 1) ** 5 * t)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.characteristic))
def test_a_nonzero_constant_ends_gcd_monic_without_a_division(field, monkeypatch):
    def refused(*args):
        raise AssertionError("gcd_monic divided")

    monkeypatch.setattr(Polynomial, "__divmod__", refused)
    monkeypatch.setattr(poly, "_euclid_in_place", refused)
    monkeypatch.setattr(poly, "_coprime_mod_prime", refused)
    rng = random.Random(f"constant:{field.characteristic}")
    one = Polynomial.one(field)
    for _ in range(20):
        c = Polynomial.constant(field, random_coeff(rng, field, True))
        for f in (random_factor(rng, field, rng.randint(1, 6)), Polynomial.constant(field, 2), Polynomial.zero(field)):
            assert gcd_monic(c, f) == one and gcd_monic(f, c) == one


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_fp_yun_takes_no_residue_to_raw(p, monkeypatch):
    # degree 34, multiplicities 1..4 on coprime parts: no gcd is a constant, whose
    # answer Polynomial.one builds through raw, and p > deg a skips the recomposition
    field = GF(p)
    rng = random.Random(f"raw:{p}")
    t = Polynomial.variable(field)
    roots = iter(rng.sample(range(p), 14))
    a = Polynomial.constant(field, 7)
    for k, n in ((1, 4), (2, 3), (3, 4), (4, 3)):
        for _ in range(n):
            a = a * (t - next(roots)) ** k
    assert a.degree == 34
    expected = squarefree_by_polynomials(a)
    calls = []
    raw = type(field).raw

    def counted(self, value):
        calls.append(value)
        return raw(self, value)

    monkeypatch.setattr(type(field), "raw", counted)
    dec = squarefree_decompose(a)
    assert calls == []
    assert (dec.unit, dec.parts) == (expected.unit, expected.parts)
    assert [k for _, k in dec.parts] == [1, 2, 3, 4]
