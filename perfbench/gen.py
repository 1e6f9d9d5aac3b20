"""Seeded input generator for the corrforms benchmark.

Every input is a corrforms JSON document (a dict), built here with plain
``fractions.Fraction`` arithmetic so that the program under test sees only
the generated documents and the generator shares no code with it.

``sweep_fp`` sweeps four fixed pairs; the run seed moves the boundaries of the
prime windows.  ``cli_qq`` documents come from a closed pool, from which the
run seed picks; a closed pool is what lets ``golden.json`` hold the outputs of
the seed program for every document a seed can pick.  ``identity_qq`` needs no
stored outputs (the order identity is a theorem), so its coefficients are
drawn straight from the run seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# --- tiny dense polynomial helpers (ascending Fraction lists) ---------------


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return strip(out)


def pscale(a, c):
    return strip([x * c for x in a])


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return strip(out)


def ppow(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = pmul(out, a)
    return out


def strip(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def coeffs(a):
    """Coefficient strings in the CLI's document format."""
    return [str(Fraction(c)) for c in a] or ["0"]


def chebyshev(d):
    """T_0 = 2, T_1 = t, T_d = t T_{d-1} - T_{d-2} (the library's convention)."""
    prev, cur = [Fraction(2)], [Fraction(0), Fraction(1)]
    if d == 0:
        return prev
    for _ in range(d - 1):
        prev, cur = cur, padd(pmul([Fraction(0), Fraction(1)], cur), pscale(prev, -1))
    return cur


def random_poly(rng, degree, span=6, den_choices=(1,)):
    """Exact degree, small coefficients, positive leading integer."""
    cs = [Fraction(rng.randint(-span, span), rng.choice(den_choices)) for _ in range(degree)]
    cs.append(Fraction(rng.randint(1, span)))
    return cs


def doc_key(doc):
    """Stable identity of a document: digest of its canonical JSON."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- sweep_fp ---------------------------------------------------------------

SWEEP_PMAX = 1000  # primes 2..1000: 168 primes, many below every 2*d1*d2 guard
SWEEP_WINDOW = 8  # consecutive primes per timed jobs=1 sweep() call


def sweep_docs():
    """The four fixed pairs, by name."""
    sigma = [Fraction(1, 3), Fraction(2), Fraction(0), Fraction(1)]
    trivial = random.Random("sweep_trivial")  # degrees (12, 5): both solvers run and fail
    fractional = random.Random("sweep_fractional")  # denominators 2..13: skip reasons
    dens = (1, 1, 2, 3, 5, 7, 11, 13)
    return {
        "mult": {"sigma1": coeffs(ppow(sigma, 7)), "sigma2": coeffs(ppow(sigma, 2))},
        "chebyshev": {"sigma1": coeffs(chebyshev(30)), "sigma2": coeffs(chebyshev(7))},
        "trivial": {"sigma1": coeffs(random_poly(trivial, 12)), "sigma2": coeffs(random_poly(trivial, 5))},
        "fractional": {
            "sigma1": coeffs(random_poly(fractional, 9, den_choices=dens)),
            "sigma2": coeffs(random_poly(fractional, 4, den_choices=dens)),
        },
    }


def prime_windows(primes, phase):
    """(lo, hi) of consecutive prime windows; the first one holds `phase` primes
    (none when phase is 0), every later one SWEEP_WINDOW but the last."""
    cuts = sorted({0, *range(phase, len(primes), SWEEP_WINDOW), len(primes)})
    return [(primes[a], primes[b - 1]) for a, b in zip(cuts, cuts[1:])]


def sweep_phase(seed):
    """The run seed shifts where the windows start."""
    return random.Random(f"sweep:{seed}").randrange(SWEEP_WINDOW)


# --- cli_qq -----------------------------------------------------------------

# Each family has CLI_SLOTS slots.  A slot fixes the shape of a document
# (degrees, exponents, form weight); its CLI_VARIANTS variants differ only in
# coefficients.  Every pass of a run takes one variant of each slot, so every
# pass has the same mix of shapes; the variants rotate from pass to pass, so
# every CLI_VARIANTS passes take each variant once, and the variants' costs
# even out within a run whatever the seed.
CLI_SLOTS = 18
CLI_VARIANTS = 4


def _affine(rng):
    a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
    b = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
    return a, b


def _mobius_json(a, b, c, d):
    return {"a": str(a), "b": str(b), "c": str(c), "d": str(d)}


def _coprime_exponents(rng, base_degree, lo=4, hi=40):
    while True:
        m = rng.randint(2, hi // base_degree)
        h = rng.randint(1, m - 1)
        if math.gcd(m, h) == 1 and m * base_degree >= lo:
            return m, h


def _rngs(family, slot, variant):
    return random.Random(f"{family}:slot{slot}"), random.Random(f"{family}:{slot}:{variant}")


def cli_multiplicative_doc(slot, variant):
    """(sigma^m, sigma^h) for a random sigma over Q, with dt/t."""
    shape, rng = _rngs("cli_multiplicative", slot, variant)
    k = shape.choice([1, 2, 2, 3, 3, 4])
    m, h = _coprime_exponents(shape, k)
    sigma = random_poly(rng, k, span=5, den_choices=(1, 1, 2, 3, 4))
    return {
        "sigma1": coeffs(ppow(sigma, m)),
        "sigma2": coeffs(ppow(sigma, h)),
        "omega": {"num": ["1"], "den": ["0", "1"], "weight": 1},
    }


def cli_chebyshev_doc(slot, variant):
    """(T_a, T_b) conjugated by t -> alpha t + beta, with the transported
    primitive (dt)^2 / ((t - beta)^2 - 4 alpha^2)."""
    shape, rng = _rngs("cli_chebyshev", slot, variant)
    a = shape.randint(3, 24)
    b = shape.randint(1, a - 1)
    alpha, beta = _affine(rng)
    return {
        "sigma1": coeffs(chebyshev(a)),
        "sigma2": coeffs(chebyshev(b)),
        "mobius": _mobius_json(alpha, beta, 0, 1),
        "omega": {"num": ["1"], "den": coeffs([beta * beta - 4 * alpha * alpha, -2 * beta, 1]), "weight": 2},
    }


def cli_trivial_doc(slot, variant):
    """Random pair with a random form: detect finds nothing, check says no."""
    shape, rng = _rngs("cli_trivial", slot, variant)
    d1 = shape.randint(4, 16)
    d2 = shape.randint(1, d1 - 1)
    df, dg, weight = shape.randint(0, 2), shape.randint(1, 2), shape.choice([1, 2])
    return {
        "sigma1": coeffs(random_poly(rng, d1)),
        "sigma2": coeffs(random_poly(rng, d2)),
        "omega": {"num": coeffs(random_poly(rng, df)), "den": coeffs(random_poly(rng, dg)), "weight": weight},
    }


def cli_mobius_doc(slot, variant):
    """A multiplicative or Chebyshev pair conjugated by a non-affine Mobius map
    phi = (at+b)/(ct+d), with the primitive transported by phi^{-1}.  The maps
    are then rational, so only `check` applies."""
    shape, rng = _rngs("cli_mobius", slot, variant)
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if c and a * d - b * c:
            break
    det = a * d - b * c
    lin_num = [-b, d]  # d t - b
    lin_den = [a, -c]  # a - c t
    if shape.random() < 0.5:
        k = shape.choice([1, 2])
        m, h = _coprime_exponents(shape, k, lo=3, hi=8)
        sigma = random_poly(rng, k, span=3)
        s1, s2 = ppow(sigma, m), ppow(sigma, h)
        # phi^{-1 *}(dt/t) = det dt / ((d t - b)(a - c t))
        omega = {"num": coeffs([det]), "den": coeffs(pmul(lin_num, lin_den)), "weight": 1}
    else:
        ta = shape.randint(3, 7)
        s1, s2 = chebyshev(ta), chebyshev(shape.randint(1, ta - 1))
        # phi^{-1 *}((dt)^2/(t^2-4)) = det^2 (dt)^2 / (((d t - b)^2 - 4 (a - c t)^2) (a - c t)^2)
        quad = padd(pmul(lin_num, lin_num), pscale(pmul(lin_den, lin_den), -4))
        omega = {
            "num": coeffs([det * det]),
            "den": coeffs(pmul(quad, pmul(lin_den, lin_den))),
            "weight": 2,
        }
    return {
        "sigma1": coeffs(s1),
        "sigma2": coeffs(s2),
        "mobius": _mobius_json(a, b, c, d),
        "omega": omega,
    }


CLI_FAMILIES = {
    "multiplicative": cli_multiplicative_doc,
    "chebyshev": cli_chebyshev_doc,
    "trivial": cli_trivial_doc,
    "mobius": cli_mobius_doc,  # rational maps: check only
}


def cli_commands(family):
    return ("check",) if family == "mobius" else ("detect", "check")


def cli_pool():
    """Every document a seed can pick, as (family, doc)."""
    return [
        (fam, make(slot, v))
        for fam, make in CLI_FAMILIES.items()
        for slot in range(CLI_SLOTS)
        for v in range(CLI_VARIANTS)
    ]


def cli_docs(seed, slots=CLI_SLOTS):
    """The run's documents: per slot of each family, (family, [doc of pass 0,
    doc of pass 1, ...]), every variant once, from a variant the seed picks."""
    rng = random.Random(f"cli:{seed}")
    out = []
    for fam, make in CLI_FAMILIES.items():
        for slot in range(slots):
            first = rng.randrange(CLI_VARIANTS)
            out.append((fam, [make(slot, (first + k) % CLI_VARIANTS) for k in range(CLI_VARIANTS)]))
    return out


# --- identity_qq ------------------------------------------------------------

# One round: (shape, degree of sigma, count).  Polynomial degrees 4..16 carry
# the coefficient growth; the rational maps exercise poles and normalisation.
IDENTITY_ROUND = (
    ("poly", 4, 8),
    ("poly", 8, 6),
    ("poly", 12, 4),
    ("poly", 16, 2),
    ("rational", 3, 5),
)
# (deg f, deg g, weight) of omega = f/g (dt)^weight, taken in turn within each
# row above.  The shape of omega moves the cost more than its coefficients do,
# so it is fixed and only the coefficients come from the seed.
OMEGA_SHAPES = ((2, 2, 1), (1, 2, 2), (2, 1, 3), (2, 2, 2), (0, 2, 3), (1, 1, 1), (2, 2, 3), (1, 2, 1))


def identity_round(rng):
    """One round of pairs as plain data: sigma = (num, den), omega = (f, g, weight)."""
    dens = (1, 1, 2, 3)
    out = []
    for shape, degree, count in IDENTITY_ROUND:
        for j in range(count):
            df, dg, weight = OMEGA_SHAPES[j % len(OMEGA_SHAPES)]
            num = random_poly(rng, degree, den_choices=dens)
            den = [Fraction(1)] if shape == "poly" else random_poly(rng, degree - 1, den_choices=dens)
            omega = (random_poly(rng, df), random_poly(rng, dg), weight)
            out.append({"shape": shape, "sigma": (num, den), "omega": omega})
    return out
