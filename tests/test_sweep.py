"""Reduction mod p, the prime sweep, and multiplicative-pair decomposition.

Frozen values: for the pair ((t^2+1)^3, t^2+1) every good prime detects a
weight-1 form with a = 0 and ratio 3 mod p; Chebyshev pairs reduce to
weight-2 forms with (s, q) = (0, -4) mod p.  Reduction skip reasons were
derived by hand (p = 3 makes the sextic inseparable, leading coefficients
vanish when p divides them, and so on).
"""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corrforms.cli import main
from corrforms.errors import InputFormatError, UnsupportedCharacteristic
from corrforms.field import GF, QQ, FpElement, is_prime
from corrforms.geometry import RationalMap
from corrforms.invariance import Correspondence, _solver_inputs, find_primitive
from corrforms.poly import Polynomial
from corrforms.sweep import (
    Decomposition,
    SweepEntry,
    chebyshev,
    decompose_power_pair,
    multiplicative_pair,
    primes_in_range,
    reduce_map_mod_p,
    reduce_mod_p,
    sweep,
)

from conftest import fp, qp, random_poly, rf


# the package re-exports the function sweep under the module's name
sweep_module = importlib.import_module("corrforms.sweep")
field_module = importlib.import_module("corrforms.field")


def sextic_pair():
    s2 = qp(1, 0, 1)  # t^2 + 1
    return Correspondence(s2**3, s2)


# -------------------------------------------------------------------- reduction


def test_primes_in_range():
    assert primes_in_range(2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(29, 29) == [29]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(20, 10) == []


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 2), (2, 2), (2, 1000), (999000, 1000000), (2**31 - 10**4, 2**31 - 1), (1000, 999), (-7, 30)],
)
def test_primes_in_range_matches_is_prime(lo, hi):
    assert primes_in_range(lo, hi) == [p for p in range(lo, hi + 1) if is_prime(p)]


def test_reduce_map_mod_p_good():
    t = qp(0, 1)
    got = reduce_map_mod_p(RationalMap(t**2 + 7), GF(5))
    assert isinstance(got, RationalMap)
    assert got.polynomial == fp(5, 2, 0, 1)


def test_reduce_map_skip_reasons():
    t = qp(0, 1)
    # denominator of a coefficient divisible by p
    got = reduce_map_mod_p(RationalMap(t**2 + Fraction(1, 5)), GF(5))
    assert isinstance(got, str) and "denominator" in got
    # degree drops when p divides the leading coefficient
    got = reduce_map_mod_p(RationalMap(5 * t**2 + t), GF(5))
    assert isinstance(got, str) and "degree" in got
    # numerator and denominator share a factor mod p: (t^2 + 5 t)/t ~ t + 5
    got = reduce_map_mod_p(RationalMap(rf(t**2 + 5 * t + 5, t)), GF(5))
    assert isinstance(got, str) and "factor" in got


def test_reduce_mod_p_correspondence():
    c = sextic_pair()
    got = reduce_mod_p(c, 7)
    assert isinstance(got, Correspondence)
    assert got.field == GF(7)
    assert got.d1 == 6 and got.d2 == 2
    # p = 3: the sextic's derivative 6 t (t^2+1)^2 vanishes mod 3
    got = reduce_mod_p(c, 3)
    assert isinstance(got, str) and "insep" in got
    # p = 2: t^2 + 1 = (t+1)^2 is still separable as a composite? no - its
    # derivative is 2t = 0, inseparable as well
    got = reduce_mod_p(c, 2)
    assert isinstance(got, str)


@pytest.mark.parametrize(
    "sigma1, sigma2, reason",
    [
        (qp(1, 0, 1) ** 3, qp(1, 0, 1), "sigma1: inseparable mod 3"),
        (qp(0, 0, 1, 0, 1), qp(0, 1, 0, 1), "sigma2: wild ramification at infinity mod 3"),
        (
            qp(0, 1, 0, 0, 1),
            qp(0, 1, 0, 1),
            "sigma1: derivative of t^3 + 1 vanishes in characteristic 3",
        ),
    ],
)
def test_reduce_mod_p_skip_reason_strings(sigma1, sigma2, reason):
    assert reduce_mod_p(Correspondence(sigma1, sigma2), 3) == reason


def test_reduce_mod_p_ramification_places_once_per_map(count_ramification_places):
    c = sextic_pair()
    got = reduce_mod_p(c, 7)
    assert isinstance(got, Correspondence)
    assert count_ramification_places == [got.sigma1, got.sigma2]


def test_reduce_mod_p_requires_rational_input():
    t5 = fp(5, 0, 1)
    with pytest.raises(UnsupportedCharacteristic):
        reduce_mod_p(Correspondence(t5**2, t5), 7)


# ------------------------------------------------------------------------ sweep


def test_sweep_weight1_frozen():
    rep = sweep(sextic_pair(), 29, 60)
    assert [e.p for e in rep.entries] == [29, 31, 37, 41, 43, 47, 53, 59]
    for e in rep.entries:
        assert e.status == "cyclic"
        assert e.guard  # 2 * 6 * 2 = 24 < 29
        assert e.weight == 1
        assert e.ratio == FpElement(3, e.p)
        assert e.params["a"] == FpElement(0, e.p)
    counts = rep.counts()
    assert counts["primes"] == 8 and counts["good"] == 8
    assert counts["weight1"] == 8 and counts["skipped"] == 0
    assert rep.weight1_evidence


def test_sweep_includes_bad_primes_as_skips():
    rep = sweep(sextic_pair(), 2, 10)
    by_p = {e.p: e for e in rep.entries}
    assert by_p[2].status == "skipped"
    assert by_p[3].status == "skipped"
    assert by_p[5].status == "cyclic"
    assert by_p[7].status == "cyclic"
    # guard: 2 d1 d2 = 24, so no prime below 24 is guarded
    assert not by_p[5].guard and not by_p[7].guard
    assert not rep.weight1_evidence  # unguarded hits do not count as evidence


def test_sweep_weight2_frozen():
    rep = sweep(Correspondence(chebyshev(4), chebyshev(2)), 17, 40)
    assert [e.p for e in rep.entries] == [17, 19, 23, 29, 31, 37]
    for e in rep.entries:
        assert e.status == "cyclic" and e.weight == 2
        assert e.ratio == FpElement(4, e.p)
        assert e.params["s"] == FpElement(0, e.p)
        assert e.params["q"] == FpElement(-4, e.p)
    assert rep.counts()["weight2"] == 6
    assert not rep.weight1_evidence


def test_sweep_trivial_pair():
    t = qp(0, 1)
    rep = sweep(Correspondence(t**3 + t, t), 7, 30)
    for e in rep.entries:
        assert e.status == "trivial"
    assert rep.counts()["trivial"] == len(rep.entries)


def test_sweep_consistency_with_char_zero_random():
    # whatever is detected over Q must be re-detected mod every guarded good
    # prime, with reduced parameters
    rng = random.Random(41)
    t = qp(0, 1)
    from corrforms.field import reduce_mod

    for _ in range(6):
        a = Fraction(rng.randint(-3, 3))
        m, h = rng.choice([(2, 1), (3, 1), (3, 2)])
        c = Correspondence((t - a) ** m + a, (t - a) ** h + a)
        rep0 = find_primitive(c)
        assert rep0.weight == 1
        rep = sweep(c, 2 * m * h + 1, 2 * m * h + 40)
        for e in rep.entries:
            if e.status != "cyclic" or not e.guard:
                continue
            assert e.weight == 1
            assert e.params["a"] == reduce_mod(a, GF(e.p))
            assert e.ratio == reduce_mod(Fraction(m, h), GF(e.p))


def test_sweep_parallel_determinism():
    c = sextic_pair()
    seq = sweep(c, 29, 120, jobs=1)
    par = sweep(c, 29, 120, jobs=4)
    assert seq.entries == par.entries


def test_sweep_rejects_bad_arguments():
    c = sextic_pair()
    with pytest.raises(ValueError):
        sweep(c, 29, 40, jobs=0)
    t5 = fp(5, 0, 1)
    with pytest.raises(UnsupportedCharacteristic):
        sweep(Correspondence(t5**2 + 1, t5), 7, 11)


def test_sweep_checks_its_work_bounds_before_the_field():
    # the bounds are usage errors, and a ValueError as documented
    t5 = fp(5, 0, 1)
    with pytest.raises(InputFormatError, match=r"^pmax 2147483648 must be below 2\*\*31$") as info:
        sweep(Correspondence(t5**2 + 1, t5), 7, 2**31)
    assert isinstance(info.value, ValueError)
    with pytest.raises(InputFormatError, match=r"^pmax - pmin must be at most 1000000$"):
        sweep(Correspondence(t5**2 + 1, t5), 2, 2 + 10**6 + 1)
    for jobs in (0, -3, 1.5, "2", True):
        with pytest.raises(InputFormatError, match=rf"^jobs must be a positive integer \(got {jobs}\)$"):
            sweep(sextic_pair(), 29, 40, jobs=jobs)


def test_sweep_rejects_a_wide_prime_range_before_any_prime(monkeypatch):
    built = []
    # were the cap missing, the stand-ins return at once instead of sieving to 2**31
    monkeypatch.setattr(sweep_module, "primes_in_range", lambda lo, hi: built.append((lo, hi)) or [])
    monkeypatch.setattr(field_module, "is_prime", lambda n: built.append(n) or False)
    with pytest.raises(ValueError, match="at most 1000000"):
        sweep(sextic_pair(), 2, 2**31 - 1)
    with pytest.raises(ValueError):
        sweep(sextic_pair(), 10, 10 + sweep_module._MAX_PRIME_RANGE + 1)
    assert built == []
    sweep(sextic_pair(), 10, 10 + sweep_module._MAX_PRIME_RANGE)
    assert built == [(10, 10 + sweep_module._MAX_PRIME_RANGE)]


def test_sweep_rejects_pmax_above_the_prime_cap_before_any_prime(monkeypatch):
    built = []
    monkeypatch.setattr(sweep_module, "primes_in_range", lambda lo, hi: built.append((lo, hi)) or [])
    monkeypatch.setattr(field_module, "is_prime", lambda n: built.append(n) or False)
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        sweep(sextic_pair(), 2**31 - 200, 2**31 + 50)
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        sweep(sextic_pair(), 2**31 - 200, field_module.MAX_PRIME_MODULUS)
    assert built == []
    sweep(sextic_pair(), 2**31 - 200, field_module.MAX_PRIME_MODULUS - 1)
    assert built == [(2**31 - 200, 2**31 - 1)]


def test_good_reduction_meets_the_solver_preconditions():
    # _sweep_one calls find_primitive unguarded: e_inf = d, so reduce_mod_p must
    # skip every p | d1 d2, and a pair it keeps must pass the solvers' checks
    rng = random.Random(1207)
    degrees = [(2, 1), (3, 2), (4, 3), (5, 2), (6, 4), (7, 5), (9, 6), (10, 7), (12, 5), (14, 10), (15, 7)]
    degrees += [(d1, rng.randint(1, d1 - 1)) for d1 in (rng.randint(2, 15) for _ in range(8))]
    kept = skipped = 0
    for d1, d2 in degrees:
        pair = Correspondence(random_poly(rng, QQ, d1, span=3), random_poly(rng, QQ, d2, span=3))
        for p in primes_in_range(2, 60):
            reduced = reduce_mod_p(pair, p)
            if (d1 * d2) % p == 0:
                assert isinstance(reduced, str), (d1, d2, p)
            if isinstance(reduced, str):
                skipped += 1
                continue
            kept += 1
            _solver_inputs(reduced)
            assert find_primitive(reduced).status in ("trivial", "cyclic")
    assert kept > 100 and skipped > 50


# -------------------------------------------------------------- decomposition


def test_decompose_power_pair_frozen():
    t = qp(0, 1)
    base = t * (t + 1) ** 2
    d = decompose_power_pair(base**2, base)
    assert d.sigma == base.monic()
    assert (d.m, d.h) == (2, 1)
    assert d.lambda1 == 1 and d.lambda2 == 1
    # identical maps decompose with m = h = 1
    d = decompose_power_pair(t, t)
    assert d.sigma == t and (d.m, d.h) == (1, 1)
    # shared support but inconsistent exponent ratios: absent
    assert decompose_power_pair(t**2 * (t + 1), t * (t + 1)) is None
    # different supports: absent
    assert decompose_power_pair(t**2, (t + 1) ** 2) is None


def test_decompose_recovers_scalars():
    t = qp(0, 1)
    base = t**2 + t
    d = decompose_power_pair(3 * base**2, 5 * base)
    assert d is not None
    assert d.sigma == base  # base is monic already
    assert (d.m, d.h) == (2, 1)
    assert d.lambda1 == 3 and d.lambda2 == 5
    # non-monic base: the monic representative absorbs the scale into lambdas
    base = 2 * t**2 + 2 * t
    d = decompose_power_pair(base**3, base)
    assert d is not None
    assert d.sigma == (t**2 + t)
    assert d.lambda1 == 8 and d.lambda2 == 2
    assert d.sigma**3 * d.lambda1 == base**3
    assert d.sigma * d.lambda2 == base


def test_decompose_roundtrip_random():
    rng = random.Random(42)
    for _ in range(20):
        sigma = random_poly(rng, QQ, rng.randint(1, 5))
        if sigma.degree < 1:
            continue
        pairs = [(2, 1), (3, 1), (3, 2), (5, 2), (4, 1)]
        m, h = rng.choice(pairs)
        if m * sigma.degree > 24:
            continue
        c = multiplicative_pair(sigma, m, h)
        d = decompose_power_pair(c.sigma1.polynomial, c.sigma2.polynomial)
        assert d is not None
        assert (d.m, d.h) == (m, h)
        assert d.sigma == sigma.monic()
        lead = sigma.leading
        assert d.lambda1 == lead**m
        assert d.lambda2 == lead**h
        # detection agrees on the same pair
        rep = find_primitive(c)
        assert rep.status == "cyclic" and rep.weight == 1
        assert rep.ratio == Fraction(m, h)


def test_decompose_rejects_char_p():
    t5 = fp(5, 0, 1)
    with pytest.raises(UnsupportedCharacteristic):
        decompose_power_pair(t5**2, t5)


def test_multiplicative_pair_validation():
    t = qp(0, 1)
    with pytest.raises(ValueError):
        multiplicative_pair(t, 2, 2)
    with pytest.raises(ValueError):
        multiplicative_pair(t, 4, 2)  # not coprime
    with pytest.raises(ValueError):
        multiplicative_pair(t, 1, 2)  # m must exceed h
    with pytest.raises(ValueError):
        multiplicative_pair(qp(3), 2, 1)  # constant base


def test_chebyshev_frozen():
    t = qp(0, 1)
    assert chebyshev(0) == qp(2)
    assert chebyshev(1) == t
    assert chebyshev(2) == t**2 - 2
    assert chebyshev(3) == t**3 - 3 * t
    assert chebyshev(4) == t**4 - 4 * t**2 + 2
    assert chebyshev(3, GF(7)) == fp(7, 0, -3, 0, 1)


def test_chebyshev_composition_law():
    # T_{mn} = T_m o T_n, the defining property of the family
    for m, n in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
        assert chebyshev(m * n) == chebyshev(m).compose(chebyshev(n))


def test_chebyshev_sum_of_powers_identity():
    # T_d(u + 1/u) = u^d + 1/u^d as rational functions
    from corrforms.ratfunc import RationalFunction

    u = RationalFunction.variable(QQ)
    for d in range(1, 11):
        arg = u + u**-1
        lhs = RationalFunction.from_polynomial(chebyshev(d)).compose(arg)
        rhs = u**d + u**-d
        assert lhs == rhs


def test_chebyshev_scales_weight_two_flat_form():
    # T_d^* (dt)^2/(t^2-4) = d^2 (dt)^2/(t^2-4): the whole family shares one
    # invariant weight-2 form, scaled by the square of the degree.
    from corrforms.geometry import DifferentialForm, RationalMap, pullback
    from corrforms.ratfunc import RationalFunction

    t = qp(0, 1)
    omega = DifferentialForm(RationalFunction(qp(1), t**2 - 4), 2)
    for d in range(1, 11):
        got = pullback(RationalMap(chebyshev(d)), omega)
        assert got.weight == 2
        assert got.coeff == RationalFunction(qp(d * d), t**2 - 4)


def test_sweep_worker_count_is_bounded():
    # every sweep runs in one process: jobs is validated and has no effect,
    # and a sweep loads no process pool, even when jobs asks for a million
    c = sextic_pair()
    par = sweep(c, 2, 50, jobs=10**6)
    assert par.entries == sweep(c, 2, 50, jobs=1).entries
    code = (
        "import sys\n"
        "from corrforms.field import QQ\n"
        "from corrforms.invariance import Correspondence\n"
        "from corrforms.poly import Polynomial\n"
        "from corrforms.sweep import sweep\n"
        "s2 = Polynomial(QQ, [1, 0, 1])\n"
        "report = sweep(Correspondence(s2**3, s2), 2, 50, jobs=10**6)\n"
        "print(len(report.entries), 'multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sweep_module.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(len(par.entries)), "False"]


def test_decompose_power_pair_exponent_oracle():
    # sigma_i = lambda_i * prod (t - c)^(exponent); the answer follows from the
    # exponent vectors alone: a power pair exactly when the supports agree and
    # the vectors are proportional, with (m, h) their ratio in lowest terms.
    import math

    rng = random.Random(2012)
    t = qp(0, 1)
    kinds = ["proportional", "equal", "random", "support_differs"]
    seen = {kind: 0 for kind in kinds}
    found = 0
    for case in range(200):
        kind = kinds[case % len(kinds)]
        roots = rng.sample(range(-6, 7), rng.randint(1, 3))
        if kind == "random":
            a = [rng.randint(0, 4) for _ in roots]
            b = [rng.randint(0, 4) for _ in roots]
        else:
            base = [rng.randint(1, 2) for _ in roots]
            p, q = (1, 1) if kind == "equal" else (rng.randint(1, 3), rng.randint(1, 3))
            a = [p * s for s in base]
            b = [q * s for s in base]
            if kind == "support_differs":
                i = rng.randrange(len(roots) + 1)
                if i == len(roots):  # an extra point in the second map only
                    roots = roots + [next(c for c in range(-6, 7) if c not in roots)]
                    a, b = a + [0], b + [rng.randint(1, 3)]
                else:
                    b[i] = 0
        if sum(a) == 0 or sum(b) == 0:
            continue
        seen[kind] += 1
        lam1 = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
        lam2 = Fraction(rng.choice([-2, 1, 3, 4]), rng.choice([1, 3]))
        sigma1 = Polynomial.constant(QQ, lam1)
        sigma2 = Polynomial.constant(QQ, lam2)
        for c, ai, bi in zip(roots, a, b):
            sigma1 = sigma1 * (t - c) ** ai
            sigma2 = sigma2 * (t - c) ** bi
        support = [i for i in range(len(roots)) if a[i] or b[i]]
        proportional = all(a[i] and b[i] for i in support) and all(
            a[i] * b[j] == a[j] * b[i] for i in support for j in support
        )
        got = decompose_power_pair(sigma1, sigma2)
        if not proportional:
            assert got is None, (roots, a, b)
            continue
        found += 1
        j = support[0]
        g = math.gcd(a[j], b[j])
        m, h = a[j] // g, b[j] // g
        sigma = Polynomial.one(QQ)
        for c, ai in zip(roots, a):
            sigma = sigma * (t - c) ** (ai // m)
        assert got == Decomposition(sigma, m, h, lam1, lam2), (roots, a, b)
    assert all(seen.values()) and 0 < found < sum(seen.values())


def test_cli_sweep_to_1000_matches_the_benchmark_golden_digests(tmp_path, capsys, gen):
    # the benchmark's whole-range check, at every prime up to 1000 (CI runs the
    # benchmark at pmax 53 only); golden.json and gen.py are read, not changed
    golden = json.loads(Path(gen.__file__).with_name("golden.json").read_text(encoding="utf-8"))["sweep"]
    docs = gen.sweep_docs()
    assert len(docs) == 4
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = main(["sweep", str(path), "--pmin", "2", "--pmax", "1000"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), name
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert digest == golden[gen.doc_key(doc)]["whole"]["1000"], name
