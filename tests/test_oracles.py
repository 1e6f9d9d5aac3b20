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

A sympy reference for detect over Q: for nu = 1, then 2, it expands
sigma1'^nu h(sigma2) - lambda sigma2'^nu h(sigma1) for the monic h of degree nu
with unknown lower coefficients, in sympy's sparse polynomial ring, with
lambda the ratio of the two leading coefficients, and hands every coefficient
equation to linsolve.  It does not use the triangular argument.  It runs on
seeded Q pairs with denominators and on the detect documents of one seed of
the benchmark's cli_qq generator.

A sympy reference for check over Q, in sympy's field of fractions Q(t): it
conjugates each map by the document's Mobius map phi, pulls omega back as
f(sigma)/g(sigma) (sigma')^nu with sigma' by the quotient rule, takes lambda
from the leading coefficients and decides semi-invariance as L - lambda R == 0.
The divisor and the conductor come from sqf_list and the degrees at infinity,
and the bound from Riemann-Hurwitz, deg R_sigma = 2 deg sigma - 2.  Its JSON
must equal `corrforms check` stdout on every document of the benchmark's
cli_qq pool and on seeded documents that pool cannot produce: maps given
as num/den, forms whose order at infinity is positive or negative, and the
semi-invariant pairs (s, c s + e) and (k1 s^m, k2 s^h) of a rational map s.
Theorem 3 is checked on every weight-1 hit of the pool.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.polys.fields import field as fraction_field
from sympy.polys.rings import ring

from corrforms.cli import main
from corrforms.errors import CorrformsError, InputFormatError
from corrforms.field import GF, QQ
from corrforms.invariance import (
    Correspondence,
    find_primitive,
    flat_form_weight1,
    flat_form_weight2,
    semi_invariance_ratio,
)
from corrforms.poly import Polynomial
from corrforms.ratfunc import RationalFunction
from corrforms.serialize import document_from_json, poly_to_json
from corrforms.sweep import decompose_power_pair, multiplicative_pair

from conftest import qq_pairs, random_poly

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



def linsolve_flat_form(s1, s2):
    """(nu, [c_0, ..., c_{nu-1}], lambda) for the first weight with a monic h, or None."""
    for nu in (1, 2):
        R, t, *cs = ring(["t", *(f"c{i}" for i in range(nu))], sympy.QQ)
        f1, f2 = (R({(i,) + (0,) * nu: sympy.QQ(c.numerator, c.denominator) for i, c in enumerate(s.coeffs)})
                  for s in (s1, s2))
        w1, w2 = f1.diff(t) ** nu, f2.diff(t) ** nu
        lam = (w1 * f2**nu).LC / (w2 * f1**nu).LC

        def h(f):
            return f**nu + sum(c * f**i for i, c in enumerate(cs))

        rows = {}  # degree in t -> coefficients of c_0, ..., c_{nu-1} and the constant
        for (k, *e), coeff in (w1 * h(f2) - lam * w2 * h(f1)).terms():
            rows.setdefault(k, [0] * (nu + 1))[e.index(1) if any(e) else nu] += coeff
        unknowns = sympy.symbols(f"c0:{nu}")
        rational = lambda x: sympy.Rational(x.numerator, x.denominator)
        eqs = [sympy.Add(*(rational(x) * y for x, y in zip(row, (*unknowns, 1)) if x)) for row in rows.values()]
        solutions = sympy.linsolve(eqs, unknowns)
        if solutions:
            (values,) = solutions
            assert not any(v.free_symbols for v in values)  # one h, never a family
            lam = Fraction(int(lam.numerator), int(lam.denominator))
            return nu, [Fraction(int(v.p), int(v.q)) for v in values], lam
    return None


def assert_detect_matches_linsolve(corr):
    """find_primitive against linsolve_flat_form; the weight found, 0 if none."""
    s1, s2 = corr.sigma1.polynomial, corr.sigma2.polynomial
    found = linsolve_flat_form(s1, s2)
    if found is None:
        assert find_primitive(corr).status == "trivial", (s1, s2)
        return 0
    nu, cs, lam = found
    if nu == 2 and cs[1] ** 2 == 4 * cs[0]:  # degenerate, which a weight-1 hit would have preceded
        with pytest.raises(RuntimeError):
            find_primitive(corr)
        return nu
    report = find_primitive(corr)
    params = {"a": -cs[0]} if nu == 1 else {"s": -cs[1], "q": cs[0]}
    assert (report.status, report.weight, report.ratio, report.params) == ("cyclic", nu, lam, params), (s1, s2)
    return nu


@pytest.mark.parametrize("den_bits", [0, 6, 40])
def test_detect_matches_linsolve_on_seeded_pairs(den_bits):
    rng = random.Random(7300 + den_bits)
    found = [assert_detect_matches_linsolve(Correspondence(s1, s2)) for s1, s2 in qq_pairs(rng, den_bits)]
    assert found.count(1) >= 6 and found.count(2) >= 6 and found.count(0) >= 6


def test_detect_matches_linsolve_on_benchmark_documents(gen):
    found = [
        assert_detect_matches_linsolve(document_from_json(doc).corr)
        for family, docs in gen.cli_docs(7)
        if "detect" in gen.cli_commands(family)
        for doc in docs
    ]
    assert len(found) == 216 and {0, 1, 2} <= set(found)


QT, T = fraction_field("t", sympy.QQ)


def sympy_scalar(text):
    q = Fraction(text)
    return sympy.QQ(q.numerator, q.denominator)


def sympy_eval(coeffs, x):
    """The polynomial with ascending coefficient strings coeffs, at x in Q(t)."""
    acc = QT(0)
    for c in reversed(coeffs):
        acc = acc * x + sympy_scalar(c)
    return acc


def sympy_map(data, x):
    """A document's map, a coefficient list or {"num": [...], "den": [...]}, at x in Q(t)."""
    if isinstance(data, dict):
        return sympy_eval(data["num"], x) / sympy_eval(data["den"], x)
    return sympy_eval(data, x)


def quotient_rule(x):
    """x' for x = n/d in Q(t), as (n' d - n d')/d^2."""
    n, d = x.numer, x.denom
    t = n.ring.gens[0]
    return QT(n.diff(t) * d - n * d.diff(t)) / QT(d * d)


def leading(x):
    return x.numer.LC / x.denom.LC


def fraction_str(q):
    return str(Fraction(int(q.numerator), int(q.denominator)))


def sympy_check(doc):
    """The stdout of `corrforms check` on a Q document with an embedded form."""
    maps = [sympy_map(doc[key], T) for key in ("sigma1", "sigma2")]
    if "mobius" in doc:  # phi o sigma o phi^{-1} for phi = (a t + b)/(c t + d)
        a, b, c, d = (sympy_scalar(doc["mobius"][k]) for k in "abcd")
        back = (d * T - b) / (a - c * T)
        maps = [(a * s + b) / (c * s + d) for s in (sympy_map(doc[key], back) for key in ("sigma1", "sigma2"))]
    form, nu = doc["omega"], doc["omega"]["weight"]
    left, right = (sympy_eval(form["num"], s) / sympy_eval(form["den"], s) * quotient_rule(s) ** nu for s in maps)
    lam = leading(left) / leading(right)
    semi = left - lam * right == 0
    coeff = QT(sympy_eval(form["num"], T) / sympy_eval(form["den"], T))  # a constant quotient leaves Q(t)
    affine = sorted(
        [(g, k) for g, k in coeff.numer.sqf_list()[1]] + [(g, -k) for g, k in coeff.denom.sqf_list()[1]],
        key=lambda gk: gk[1],
    )
    at_infinity = coeff.denom.degree() - coeff.numer.degree() - 2 * nu
    cond = sum(g.degree() for g, _ in affine) + (at_infinity != 0)
    d1, d2 = (max(s.numer.degree(), s.denom.degree()) for s in maps)
    bound = Fraction(2 * (2 * d1 - 2) + (2 * d2 - 2), d1 - d2) if semi and d1 > d2 else None
    out = {
        "semi_invariant": semi,
        "lambda": fraction_str(lam) if semi else None,
        "weight": nu,
        "divisor": {
            "affine": [
                {"poly": [fraction_str(g.get((i,), sympy.QQ.zero)) for i in range(g.degree() + 1)], "mult": k}
                for g, k in affine
            ],
            "infinity": at_infinity,
        },
        "conductor": cond,
        "bound": None if bound is None else str(bound),
        "holds": None if bound is None else cond <= bound,
    }
    return json.dumps(out) + "\n"


def test_check_matches_sympy_on_the_benchmark_pool(gen, tmp_path, capsys):
    path = tmp_path / "doc.json"
    verdicts = []
    for family, doc in gen.cli_pool():
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, sympy_check(doc), ""), (family, doc)
        verdicts.append(json.loads(out)["semi_invariant"])
    assert len(verdicts) == 288 and {True, False} <= set(verdicts)


def seeded_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def seeded_coeffs(rng, degree):
    """Ascending coefficient strings of a polynomial of exactly the given degree."""
    cs = [seeded_fraction(rng) for _ in range(degree)] + [seeded_fraction(rng) or Fraction(1)]
    return [str(c) for c in cs]


def seeded_check_documents(rng):
    """Q documents with polynomial or num/den maps, an optional Mobius map with c != 0,
    and forms of weight -2..3.  Besides random pairs and forms, two semi-invariant
    families of a rational map s, each form times a scalar: (s, c s + e) with
    (dt)^nu / (t - x)^j for x = e/(1 - c), and (k1 s^m, k2 s^h), whose denominators
    differ, with (dt/t)^nu."""
    t = Polynomial.variable(QQ)
    while True:
        nu, family = rng.choice((-2, -1, 1, 2, 3)), rng.randrange(3)
        if family < 2:
            s = RationalFunction(*(Polynomial(QQ, seeded_coeffs(rng, rng.randint(a, 3))) for a in (1, 0)))
            if s.is_constant:
                continue
            if family == 0:
                c, e = seeded_fraction(rng) or Fraction(2), seeded_fraction(rng)
                if c == 1:
                    continue
                pair = (s, s * c + e)
                x, j = t - e / (1 - c), rng.randint(-3, 3)
                f, g = x ** max(-j, 0), x ** max(j, 0)
            else:
                m = rng.randint(2, 3)
                k1, k2 = (seeded_fraction(rng) or Fraction(1) for _ in "12")
                pair = (s**m * k1, s ** rng.randint(1, m - 1) * k2)
                f, g = t ** max(-nu, 0), t ** max(nu, 0)
            maps = [{"num": poly_to_json(sigma.num), "den": poly_to_json(sigma.den)} for sigma in pair]
            form = {"num": poly_to_json(f * (seeded_fraction(rng) or Fraction(1))), "den": poly_to_json(g)}
        else:
            d1, d2 = rng.randint(1, 5), rng.randint(1, 4)
            maps = [seeded_coeffs(rng, d) for d in (d1, d2)]
            if rng.random() < 0.5:
                maps = [{"num": m, "den": seeded_coeffs(rng, rng.randint(1, 3))} for m in maps]
            form = {"num": seeded_coeffs(rng, rng.randint(0, 4)), "den": seeded_coeffs(rng, rng.randint(0, 4))}
        doc = {"sigma1": maps[0], "sigma2": maps[1], "omega": dict(form, weight=nu)}
        if rng.random() < 0.25:
            doc["mobius"] = {"a": "2", "b": str(seeded_fraction(rng)), "c": str(rng.randint(1, 3)), "d": "1"}
        try:
            document_from_json(doc).corr
        except (CorrformsError, InputFormatError):  # a constant map, or a singular Mobius map
            continue
        yield doc


def test_check_matches_sympy_on_seeded_documents(tmp_path, capsys):
    path = tmp_path / "doc.json"
    docs = seeded_check_documents(random.Random("sympy check beyond the pool"))
    seen = []
    for _ in range(90):
        doc = next(docs)
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, sympy_check(doc), ""), doc
        got = json.loads(out)
        seen.append((got["semi_invariant"], got["divisor"]["infinity"] > 0, isinstance(doc["sigma1"], dict)))
    assert {s for s, _, _ in seen} == {True, False}
    assert {k for _, k, _ in seen} == {True, False}
    assert {r for _, _, r in seen} == {True, False}


def test_theorem3_on_the_benchmark_pool(gen):
    outcomes = [
        theorem3_holds(document_from_json(doc).corr)
        for family, doc in gen.cli_pool()
        if "detect" in gen.cli_commands(family)
    ]
    assert len(outcomes) == 216 and False not in outcomes
    assert outcomes.count(True) == 72
