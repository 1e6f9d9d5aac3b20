"""Shared construction helpers for the test suite.

Everything here is deterministic: random data always comes from a
seeded random.Random instance created inside the test that uses it.
"""

import importlib
from collections import Counter
from fractions import Fraction

import pytest

from corrforms import geometry, invariance
from corrforms.errors import FieldMismatch
from corrforms.field import QQ, GF, FpElement
from corrforms.poly import Polynomial, gcd_monic
from corrforms.ratfunc import RationalFunction


def qp(*coeffs):
    """Rational polynomial from ascending coefficients (ints/Fractions/strings)."""
    return Polynomial(QQ, list(coeffs))


def fp(p, *coeffs):
    """F_p polynomial from ascending integer coefficients."""
    return Polynomial(GF(p), list(coeffs))


def t_over(field):
    """The coordinate t as a Polynomial over the given field."""
    return Polynomial.variable(field)


def rf(num, den=None):
    """Rational function from one or two polynomials."""
    if den is None:
        return RationalFunction.from_polynomial(num)
    return RationalFunction(num, den)


def random_poly(rng, field, degree, nonzero_lead=True, span=6):
    """Random polynomial of exactly the given degree with small coefficients."""
    coeffs = [rng.randint(-span, span) for _ in range(degree)]
    lead = rng.randint(1, span) if nonzero_lead else rng.randint(-span, span)
    coeffs.append(lead)
    return Polynomial(field, coeffs)


def random_separable_poly(rng, field, degree, span=6):
    """Random degree-d polynomial that is a separable map t -> f(t).

    Resamples until the derivative is nonzero and the map degree is not
    divisible by the characteristic (so the behaviour at infinity is tame).
    """
    while True:
        f = random_poly(rng, field, degree, span=span)
        if f.derivative().is_zero:
            continue
        p = field.characteristic
        if p and degree % p == 0:
            continue
        return f


def horner_by_polynomials(poly, num, den, order):
    """den**order * poly(num/den) by Horner's rule on Polynomial objects: the
    composition loop as written before it ran on integer vectors."""
    if poly.is_zero:
        return Polynomial.zero(poly.field)
    n = len(poly.coeffs) - 1
    if order < n:
        raise ValueError("order must be at least deg(poly)")
    acc = Polynomial.constant(poly.field, poly.coeffs[-1])
    dpow = Polynomial.one(poly.field)
    for i in range(n - 1, -1, -1):
        dpow = dpow * den
        acc = acc * num + poly.coeffs[i] * dpow
    for _ in range(order - n):
        acc = acc * den
    return acc


def gcd_by_euclid(a, b):
    """Monic gcd by the Euclidean algorithm alone: gcd_monic as written before
    its coprimality screen mod a word-size prime."""
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def divisor_by_refinement(field, components, at_infinity=0):
    """The Divisor of the components by the two-stage refinement: components
    split into a coprime piece list by gcd, then pieces merged by
    multiplicity; the canonical form as built before it took one pass."""
    pieces = []
    for poly, mult in components:
        if poly.field != field:
            raise FieldMismatch("divisor component over the wrong field")
        if mult == 0 or poly.degree < 1:
            continue
        poly, i = poly.monic(), 0
        while i < len(pieces) and poly.degree > 0:
            g, n = pieces[i]
            common = gcd_monic(poly, g)
            if common.degree > 0:
                repl = []
                rest = g // common
                if rest.degree > 0:
                    repl.append((rest, n))
                repl.append((common, n + mult))
                pieces[i : i + 1] = repl
                i += len(repl)
                poly = poly // common
            else:
                i += 1
        if poly.degree > 0:
            pieces.append((poly, mult))
    by_mult = {}
    for g, m in pieces:
        if m != 0:
            by_mult[m] = by_mult[m] * g if m in by_mult else g
    out = object.__new__(geometry.Divisor)
    out.field = field
    out.affine = tuple((g, m) for m, g in sorted(by_mult.items()))
    out.at_infinity = at_infinity
    return out


def frac(num, den=1):
    return Fraction(num, den)


@pytest.fixture
def count_ramification_places(monkeypatch):
    """Record every call of ramification_places, wherever it was imported by name."""
    calls = []
    original = geometry.ramification_places

    def counted(sigma):
        calls.append(sigma)
        return original(sigma)

    # corrforms.sweep names a function in the package namespace, not the module
    for module in (geometry, importlib.import_module("corrforms.sweep")):
        if getattr(module, "ramification_places", None) is original:
            monkeypatch.setattr(module, "ramification_places", counted)
    return calls


@pytest.fixture
def count_check_quantities(monkeypatch):
    """Count calls of semi_invariance_ratio, divisor_of_form,
    ramification_places and Correspondence.__init__, wherever a function was
    imported by name; a function never called counts 0."""
    calls = Counter(ramification_places=0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    cli = importlib.import_module("corrforms.cli")
    homes = (
        ("semi_invariance_ratio", invariance),
        ("divisor_of_form", geometry),
        ("ramification_places", geometry),
    )
    for name, home in homes:
        original = getattr(home, name)
        wrapper = counted(name, original)
        for module in (geometry, invariance, cli, importlib.import_module("corrforms.sweep")):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    init = invariance.Correspondence.__init__
    monkeypatch.setattr(invariance.Correspondence, "__init__", counted("Correspondence", init))
    return calls


@pytest.fixture
def count_fp_elements(monkeypatch):
    """Record the modulus of every FpElement constructed; len() is the count."""
    made = []
    init = FpElement.__init__

    def counted(self, residue, p):
        made.append(p)
        init(self, residue, p)

    monkeypatch.setattr(FpElement, "__init__", counted)
    return made


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            name = nodeid.rsplit("::", 1)[-1]
            if not name.startswith("test_criterion_"):
                continue
            number = int(name.split("_")[2])
            ok = status == "passed"
            outcomes[number] = outcomes.get(number, True) and ok
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(outcomes):
            word = "PASS" if outcomes[number] else "FAIL"
            terminalreporter.write_line(f"criterion {number}: {word}")
