"""Shared construction helpers for the test suite.

Everything here is deterministic: random data always comes from a
seeded random.Random instance created inside the test that uses it.
"""

import importlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from corrforms import geometry, invariance
from corrforms.cli import main
from corrforms.errors import FieldMismatch, InseparableMap, WildInput
from corrforms.field import QQ, GF, FpElement
from corrforms.poly import Polynomial, SquarefreeDecomposition, _inverse, gcd_monic
from corrforms.ratfunc import RationalFunction
from corrforms.sweep import chebyshev


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


def run_cli(capsys, tmp_path, command, doc):
    """(exit code, stdout, stderr) of `corrforms <command>` on doc written to a file."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def derivative_by_quotient_rule(f):
    """f' = (A'B - AB')/B**2 for a RationalFunction f = A/B, reduced by the
    constructor; written out here so that no oracle reads ratfunc._wronskian."""
    num, den = f.num, f.den
    return RationalFunction(num.derivative() * den - num * den.derivative(), den * den)


def pullback_by_ratfunc(sigma, omega):
    """sigma^* omega through RationalFunction algebra: sigma' by the quotient
    rule, then `compose`, `**` and a cross-cancelling `*`, as pullback was
    written before it reduced the pair of geometry._pulled_back once."""
    ds = derivative_by_quotient_rule(sigma.body)
    if ds.is_zero:
        raise InseparableMap(f"{sigma} is inseparable")
    comp = omega.coeff.compose(sigma.body)
    return geometry.DifferentialForm(comp * ds**omega.weight, omega.weight)


def mobius_conjugate_by_compose(sigma, phi):
    """phi o sigma o phi^{-1} by two RationalMap.compose calls: mobius_conjugate
    as written before it made one Horner pass over phi^{-1}."""
    fwd = phi.as_map()
    back = phi.inverse().as_map()
    out = fwd.compose(sigma).compose(back)
    if out.degree != sigma.degree:
        raise AssertionError("conjugation changed the degree")
    return out


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


def squarefree_by_polynomials(a):
    """Yun's algorithm on Polynomial objects, with gcd_by_euclid for every gcd:
    squarefree_decompose as written before it ran on raw coefficient lists."""
    if a.is_zero:
        raise ValueError("cannot squarefree-decompose the zero polynomial")
    field = a.field
    unit = a.leading
    if a.degree == 0:
        return SquarefreeDecomposition(unit, ())
    f = a.monic()
    fp = f.derivative()
    p = field.characteristic
    if fp.is_zero:
        raise WildInput(f"derivative of {f} vanishes in characteristic {p}")
    g = gcd_by_euclid(f, fp)
    c, d = (f // g, fp // g) if g.degree > 0 else (f, fp)
    d = d - c.derivative()
    parts = []
    k = 1
    while c.degree > 0:
        ak = gcd_by_euclid(c, d) if not d.is_zero else c.monic()
        if ak.degree > 0:
            parts.append((ak, k))
            c, d = c // ak, d // ak
        d = d - c.derivative()
        k += 1
    dec = SquarefreeDecomposition(unit, tuple(parts))
    if p and dec.recompose(field) != a:
        raise WildInput(
            f"squarefree recomposition failed in characteristic {p} "
            f"(multiplicity >= {p}?)"
        )
    return dec


def solve_flat_by_polynomials(corr, nu):
    """invariance._solve_flat as written before it ran fraction-free: the
    columns U_i are Polynomials over the field, and the back-substitution adds
    scaled columns to a Polynomial residue."""
    s1, s2 = invariance._solver_inputs(corr)
    field = corr.field
    lam = field.raw(Fraction(corr.d1, corr.d2) ** nu)
    left, right = s1.derivative() ** nu, lam * s2.derivative() ** nu
    cols = [left - right]
    for _ in range(nu):
        left, right = left * s2, right * s1
        cols.append(left - right)
    residue, coeffs = cols.pop(), []
    for col in reversed(cols):
        r = residue.coeffs[col.degree] if col.degree < len(residue.coeffs) else 0
        coeffs.insert(0, field.raw(-r * _inverse(col.coeffs[-1], field.characteristic)))
        residue = residue + col._scaled(coeffs[0])
    return ([field.wrap(c) for c in coeffs], field.wrap(lam)) if residue.is_zero else None


def random_rational(rng, den_bits):
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 2**den_bits))


def random_qq_poly(rng, degree, den_bits):
    return Polynomial(QQ, [random_rational(rng, den_bits) for _ in range(degree + 1)])


def affine(field, alpha, beta):
    return Polynomial(field, [beta, alpha])


def qq_pairs(rng, den_bits):
    """Seeded Q pairs with denominators below 2**den_bits: weight-1 hits
    (a + k1 u^m, a + k2 u^h), weight-2 hits psi^-1(T_m(u)), psi^-1(T_h(u)) for
    affine psi, each of them plus one small term, random pairs, and four
    pairs whose flat solve meets zero entries."""
    t = Polynomial.variable(QQ)
    pairs = [
        (t**3, t),  # U_1 = 0: the residue starts at zero
        (t**4, t**2),  # weight 1 at 0 and the degenerate weight-2 hit t^2
        (chebyshev(5), chebyshev(3)),  # h = t^2 - 4: the top pivot meets a zero entry
        (chebyshev(7), t),
    ]
    for _ in range(6):
        a, k1, k2 = (random_rational(rng, den_bits) for _ in range(3))
        u = random_qq_poly(rng, rng.randint(1, 3), den_bits)
        m = rng.randint(2, 4)
        h = rng.randint(1, m - 1)
        pairs.append((a + k1 * u**m, a + k2 * u**h))
        alpha, beta = random_rational(rng, den_bits), random_rational(rng, den_bits)
        inv = affine(QQ, 1 / alpha, -beta / alpha)
        u = random_qq_poly(rng, rng.randint(1, 2), den_bits)
        m = rng.randint(3, 6)
        h = rng.randint(1, m - 1)
        pairs.append((inv.compose(chebyshev(m).compose(u)), inv.compose(chebyshev(h).compose(u))))
    for s1, s2 in list(pairs[4:]):
        j = rng.randrange(s1.degree)
        pairs.append((s1 + Polynomial(QQ, [0] * j + [random_rational(rng, den_bits)]), s2))
    for _ in range(8):
        d1 = rng.randint(2, 7)
        pairs.append((random_qq_poly(rng, d1, den_bits), random_qq_poly(rng, rng.randint(1, d1 - 1), den_bits)))
    return pairs


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
def gen(monkeypatch):
    """perfbench/gen.py, the benchmark's document generator."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("gen")


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
