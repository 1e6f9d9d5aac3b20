"""mobius_conjugate as one Horner pass over phi^{-1}.

For sigma = A/B of degree n and phi = (a t + b)/(c t + d), the conjugate
phi o sigma o phi^{-1} is built from one `_compose_over` call, which composes
A and B over phi^{-1} = (d t - b)/(a - c t), and one combination of its two
polynomials, (a A~ + b B~)/(c A~ + d B~), that takes no gcd.  Parity is with
the body it replaced, two `RationalMap.compose` calls
(`conftest.mobius_conjugate_by_compose`), coefficient for coefficient and
type for type.  Its Horner products by phi^{-1}'s two-term lists go
through `poly._mul_raw`, which multiplies any one- or two-term operand in
with scalar multiply-adds and never packs it; two tests check that against
a schoolbook product.
"""

import random
from fractions import Fraction

import pytest

from corrforms import geometry, poly, ratfunc
from corrforms.field import GF, QQ
from corrforms.geometry import MobiusTransform, RationalMap, mobius_conjugate
from corrforms.poly import Polynomial, _mul_raw
from corrforms.ratfunc import RationalFunction

from conftest import mobius_conjugate_by_compose, random_poly

FIELDS = [QQ, GF(7), GF(2**31 - 1)]
IDS = ["QQ", "GF7", "GF2147483647"]


def _scalar(rng, field):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if field == QQ else rng.randint(-5, 5)


def _mobius(rng, field, affine):
    while True:
        a, b, c, d = (_scalar(rng, field) for _ in range(4))
        if affine:
            c = 0
        elif not field.raw(c):
            continue
        try:
            return MobiusTransform(field, a, b, c, d)
        except ValueError:  # determinant zero
            continue


def _sigma(rng, field, deg_a, deg_b, factor=None):
    """A nonconstant A/B with deg A = deg_a and deg B = deg_b, B divisible by factor when given."""
    while True:
        a, b = random_poly(rng, field, deg_a), random_poly(rng, field, deg_b)
        if factor is not None:
            b = b * factor
        body = RationalFunction(a, b)
        if factor is not None and not (body.den % factor).is_zero:
            continue  # A shared the factor, so the pole cancelled
        if not body.is_constant:
            return RationalMap(body)


SHAPES = {
    "polynomial": (4, 0),
    "deg A > deg B": (5, 2),
    "deg A = deg B": (3, 3),
    "deg A < deg B": (1, 4),
}


def _same(got, want):
    assert got == want
    for x, y in ((got.body.num, want.body.num), (got.body.den, want.body.den)):
        assert x.coeffs == y.coeffs
        assert [type(c) for c in x.coeffs] == [type(c) for c in y.coeffs]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("affine", [True, False], ids=["affine", "non_affine"])
@pytest.mark.parametrize("shape", SHAPES)
def test_one_horner_pass_matches_two_compositions(field, affine, shape):
    rng = random.Random(f"mobius:{field!r}:{affine}:{shape}")
    deg_a, deg_b = SHAPES[shape]
    for _ in range(8):
        sigma, phi = _sigma(rng, field, deg_a, deg_b), _mobius(rng, field, affine)
        got = mobius_conjugate(sigma, phi)
        _same(got, mobius_conjugate_by_compose(sigma, phi))
        assert got.degree == sigma.degree


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("shape", ["deg A > deg B", "deg A = deg B", "deg A < deg B"])
def test_phi_inverse_of_infinity_at_a_pole_of_sigma(field, shape):
    # phi^{-1}(infinity) = -d/c is a root of c t + d; B takes that factor, so
    # sigma o phi^{-1} has a pole at infinity
    rng = random.Random(f"mobius pole:{field!r}:{shape}")
    deg_a, deg_b = SHAPES[shape]
    for _ in range(8):
        phi = _mobius(rng, field, affine=False)
        sigma = _sigma(rng, field, deg_a, max(deg_b - 1, 0), factor=Polynomial(field, [phi.d, phi.c]))
        _same(mobius_conjugate(sigma, phi), mobius_conjugate_by_compose(sigma, phi))


def test_one_conjugation_is_one_horner_pass(monkeypatch):
    calls = []
    original = poly._compose_over

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (poly, geometry):
        monkeypatch.setattr(module, "_compose_over", counted)
    t = Polynomial.variable(QQ)
    sigma = RationalMap(RationalFunction(t**3 + 1, t**2 - 2))
    phi = MobiusTransform(QQ, 2, 1, 1, 1)
    got = mobius_conjugate(sigma, phi)
    assert len(calls) == 1
    monkeypatch.undo()
    _same(got, mobius_conjugate_by_compose(sigma, phi))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("affine", [True, False], ids=["affine", "non_affine"])
def test_a_conjugation_takes_no_gcd(monkeypatch, field, affine):
    # A~ and B~ are coprime and phi's matrix is invertible, so (a A~ + b B~, c A~ + d B~)
    # is coprime as combined; at degree 40 Horner builds forty powers of a - c t
    rng = random.Random(f"mobius gcd:{field!r}:{affine}")
    shapes = [*SHAPES.values(), (40, 0), (40, 37)]
    cases = [(_sigma(rng, field, deg_a, deg_b), _mobius(rng, field, affine)) for deg_a, deg_b in shapes]
    calls = []
    original = poly.gcd_monic

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (poly, ratfunc, geometry):
        monkeypatch.setattr(module, "gcd_monic", counted)
    got = [mobius_conjugate(sigma, phi) for sigma, phi in cases]
    monkeypatch.undo()
    assert calls == []
    assert max(sigma.degree for sigma, _ in cases) >= 40
    for out, (sigma, phi) in zip(got, cases):
        _same(out, mobius_conjugate_by_compose(sigma, phi))


def _schoolbook(a, b, p):
    """a * b for raw coefficient sequences, one product per pair of terms, reduced mod p when p > 0."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


@pytest.mark.parametrize("p", [0, 7, 2**31 - 1], ids=["QQ", "GF7", "GF2147483647"])
def test_two_term_factor_matches_the_packed_product(monkeypatch, p):
    # _mul_raw multiplies by an operand of one or two terms, in either
    # position, with scalar multiply-adds and packs anything longer; both
    # must give the schoolbook product, zero entries and empty operands included
    rng = random.Random(f"times:{p}")

    def entry():
        return rng.choice([0, rng.randrange(p) if p else rng.randint(-10**12, 10**12)])

    packed = []
    original = poly._kronecker_mul

    def counted(*args, **kwargs):
        packed.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(poly, "_kronecker_mul", counted)
    for _ in range(50):
        v = [entry() for _ in range(rng.randint(0, 9))]
        for m in ([entry()], [entry(), entry()], [entry(), rng.randint(1, 9)]):
            assert _mul_raw(v, m, p) == _schoolbook(v, m, p)
            assert _mul_raw(m, v, p) == _schoolbook(m, v, p)
        assert _mul_raw(v, [], p) == _mul_raw([], v, p) == []
    assert packed == []
    # the control: a three-term operand against three or more terms still packs
    for _ in range(20):
        a = [entry(), entry(), rng.randint(1, 9)]
        b = [entry() for _ in range(rng.randint(2, 8))] + [rng.randint(1, 9)]
        assert _mul_raw(a, b, p) == _schoolbook(a, b, p)
        assert _mul_raw(b, a, p) == _schoolbook(b, a, p)
    assert len(packed) == 40


@pytest.mark.parametrize("affine", [True, False], ids=["affine", "non_affine"])
def test_short_operands_never_pack(monkeypatch, affine):
    # a one- or two-term operand never reaches _kronecker_mul: not in _mul_raw,
    # not in a product by a linear factor, and not in a conjugation whose
    # Horner pass multiplies only by phi^{-1}'s two-term lists and pads by at
    # most two terms (deg B in {0, 1, n - 1, n})
    rng = random.Random(f"short operands:{affine}")
    raw = []
    for p in (0, 7, 2**31 - 1):
        for _ in range(10):
            v = [rng.randrange(p) if p else rng.randint(-10**12, 10**12) for _ in range(rng.randint(1, 12))]
            m = [rng.randrange(p) if p else rng.randint(-9, 9) for _ in range(rng.randint(1, 2))]
            raw.append((v, m, p))
    linear = []
    for field in (QQ, GF(7)):
        for _ in range(10):
            f = random_poly(rng, field, rng.randint(0, 12))
            linear.append((f, Polynomial(field, [_scalar(rng, field), rng.randint(1, 6)])))
    maps = [
        (_sigma(rng, field, 40, deg_b), _mobius(rng, field, affine))
        for field in (QQ, GF(7))
        for deg_b in (0, 1, 39, 40)
    ]
    want = [mobius_conjugate_by_compose(sigma, phi) for sigma, phi in maps]

    def refuse(*args, **kwargs):
        raise AssertionError("a one- or two-term operand was packed")

    monkeypatch.setattr(poly, "_kronecker_mul", refuse)
    for v, m, p in raw:
        assert _mul_raw(v, m, p) == _mul_raw(m, v, p) == _schoolbook(v, m, p)
    for f, g in linear:
        want_product = Polynomial(f.field, _schoolbook(f.coeffs, g.coeffs, f.field.characteristic))
        for got in (f * g, g * f):
            assert got.coeffs == want_product.coeffs
            assert [type(c) for c in got.coeffs] == [type(c) for c in want_product.coeffs]
    assert max(sigma.degree for sigma, _ in maps) == 40
    for (sigma, phi), expected in zip(maps, want):
        _same(mobius_conjugate(sigma, phi), expected)
