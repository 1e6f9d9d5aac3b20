"""Reduction mod p, the per-prime primitive sweep, and power-pair structure.

Good reduction at p means: no coefficient denominator divisible by p, both
degrees preserved, numerator and denominator still coprime, and the reduced
maps separable and tame.  Skip reasons are values, never exceptions, so a
sweep cannot abort half way; entries are computed by a pure per-prime
function and come back in prime order: the report is independent of --jobs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import partial

from .errors import CorrformsError, InseparableMap, NotPLocalUnit, UnsupportedCharacteristic, WildRamification
from .field import GF, MAX_PRIME_MODULUS, QQ
from .geometry import RationalMap, _tame_places
from .invariance import Correspondence, _solver_inputs, find_primitive
from .poly import Polynomial, squarefree_decompose
from .ratfunc import RationalFunction


def ProcessPoolExecutor(max_workers):
    """concurrent.futures.ProcessPoolExecutor, imported on first use.

    Its import loads multiprocessing, which only a parallel sweep needs.
    """
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


_MAX_PRIME_RANGE = 10**6  # the widest [pmin, pmax] that sweep accepts


def primes_in_range(lo, hi):
    """Primes p with lo <= p <= hi, ascending: [lo, hi] sieved by the primes to isqrt(hi)."""
    lo = max(lo, 2)
    if lo > hi:
        return []
    root = math.isqrt(hi)
    small, window = bytearray([1]) * (root + 1), bytearray([1]) * (hi - lo + 1)
    for q in range(2, root + 1):
        if small[q]:
            small[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
            start = max(q * q, -(-lo // q) * q) - lo
            window[start::q] = bytes(len(range(start, len(window), q)))
    return list(itertools.compress(range(lo, hi + 1), window))


def reduce_map_mod_p(sigma, field):
    """Reduce one map mod p; returns a RationalMap or a skip-reason string."""
    try:
        # the field's raw hook reduces each Fraction straight to a residue
        num = Polynomial(field, sigma.body.num.coeffs)
        den = Polynomial(field, sigma.body.den.coeffs)
    except NotPLocalUnit:
        return f"a coefficient denominator is divisible by {field.p}"
    if num.degree != sigma.body.num.degree or den.degree != sigma.body.den.degree:
        return f"degree drops mod {field.p}"
    body = RationalFunction(num, den)
    if body.den.degree < den.degree:
        return f"numerator and denominator share a factor mod {field.p}"
    return RationalMap(body)


def reduce_mod_p(corr, p):
    """Reduce a correspondence over Q mod p; Correspondence or a skip reason."""
    if corr.field.characteristic != 0:
        raise UnsupportedCharacteristic("reduction starts from a pair over Q")
    field = GF(p)
    reduced = []
    for name, sigma in (("sigma1", corr.sigma1), ("sigma2", corr.sigma2)):
        out = reduce_map_mod_p(sigma, field)
        if isinstance(out, str):
            return f"{name}: {out}"
        try:
            _tame_places(out)
        except InseparableMap:
            return f"{name}: inseparable mod {p}"
        except WildRamification as exc:
            return f"{name}: {exc} mod {p}"
        except CorrformsError as exc:
            return f"{name}: {exc}"
        reduced.append(out)
    return Correspondence(reduced[0], reduced[1])


@dataclass(frozen=True, slots=True)
class SweepEntry:
    """Per-prime outcome; guard records whether 2*d1*d2 < p.

    Slotted: a report keeps one entry per prime of the range."""

    p: int
    guard: bool
    status: str  # "skipped" | "trivial" | "cyclic"
    reason: str | None = None
    weight: int | None = None
    ratio: object = None
    params: dict | None = None


@dataclass(frozen=True)
class SweepReport:
    entries: tuple

    def counts(self):
        out = {"primes": len(self.entries), "skipped": 0, "trivial": 0, "weight1": 0, "weight2": 0}
        for e in self.entries:
            if e.status == "skipped":
                out["skipped"] += 1
            elif e.status == "trivial":
                out["trivial"] += 1
            else:
                out["weight1" if e.weight == 1 else "weight2"] += 1
        out["good"] = out["primes"] - out["skipped"]
        return out

    @property
    def weight1_evidence(self):
        """Every guarded good prime is cyclic of weight 1, and at least one exists."""
        guarded = [e for e in self.entries if e.guard and e.status != "skipped"]
        return bool(guarded) and all(
            e.status == "cyclic" and e.weight == 1 for e in guarded
        )


def _sweep_one(corr, p):
    guard = 2 * corr.d1 * corr.d2 < p
    reduced = reduce_mod_p(corr, p)
    if isinstance(reduced, str):
        return SweepEntry(p=p, guard=guard, status="skipped", reason=reduced)
    # sweep() checked d1 > d2 polynomials; reduce_mod_p skips p | d1 d2 (e_inf = d): no solver raises
    report = find_primitive(reduced)
    return SweepEntry(
        p=p, guard=guard, status=report.status,
        weight=report.weight, ratio=report.ratio, params=report.params,
    )


def sweep(corr, pmin, pmax, jobs=1):
    """Reduce at every prime in [pmin, pmax] and search primitives there."""
    if corr.field.characteristic != 0:
        raise UnsupportedCharacteristic("sweep starts from a pair over Q")
    # surface polynomial/degree precondition failures before looping
    _solver_inputs(corr)
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError("jobs must be a positive integer")
    if pmax - pmin > _MAX_PRIME_RANGE:
        raise ValueError(f"pmax - pmin must be at most {_MAX_PRIME_RANGE}")
    if pmax >= MAX_PRIME_MODULUS:
        raise ValueError(f"pmax {pmax} must be below 2**31")
    primes = primes_in_range(pmin, pmax)
    work = partial(_sweep_one, corr)
    # a fork pool starts every worker at once: never more than cores or primes
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(work, primes))
    else:
        entries = [work(p) for p in primes]
    return SweepReport(tuple(entries))


@dataclass(frozen=True)
class Decomposition:
    """sigma1 = lambda1 sigma^m, sigma2 = lambda2 sigma^h, gcd(m, h) = 1, sigma monic."""

    sigma: Polynomial
    m: int
    h: int
    lambda1: object
    lambda2: object


def decompose_power_pair(sigma1, sigma2):
    """Recognize a common-power pair, or return None.

    With m/h = deg sigma1 / deg sigma2 in lowest terms, the pair is
    (lambda1 sigma^m, lambda2 sigma^h) exactly when the two squarefree
    decompositions agree part by part with multiplicities m k and h k;
    Yun's parts are canonical (monic, coprime, ascending multiplicity), so
    they are compared as lists, and sigma = prod part^(k/m).
    """
    for name, s in (("sigma1", sigma1), ("sigma2", sigma2)):
        if not isinstance(s, Polynomial):
            raise TypeError(f"{name} must be a Polynomial")
        if s.degree < 1:
            raise ValueError(f"{name} must be nonconstant")
    sigma1._check(sigma2)
    if sigma1.field.characteristic != 0:
        raise UnsupportedCharacteristic("power-pair decomposition works over Q only")
    g = math.gcd(sigma1.degree, sigma2.degree)
    m, h = sigma1.degree // g, sigma2.degree // g
    parts1 = squarefree_decompose(sigma1).parts
    parts2 = squarefree_decompose(sigma2).parts
    if [(a, h * k) for a, k in parts1] != [(b, m * l) for b, l in parts2]:
        return None
    base = Polynomial.one(sigma1.field)
    for a, k in parts1:
        base = base * a ** (k // m)
    lam1, lam2 = sigma1.leading, sigma2.leading
    if base**m * lam1 != sigma1 or base**h * lam2 != sigma2:
        return None
    return Decomposition(base, m, h, lam1, lam2)


def multiplicative_pair(sigma, m, h):
    """(sigma^m, sigma^h); admits dt/t with ratio m/h. Needs m > h >= 1 coprime."""
    if not isinstance(sigma, Polynomial) or sigma.degree < 1:
        raise ValueError("sigma must be a nonconstant Polynomial")
    if not (isinstance(m, int) and isinstance(h, int) and m > h >= 1):
        raise ValueError("need integers m > h >= 1")
    if math.gcd(m, h) != 1:
        raise ValueError("m and h must be coprime")
    return Correspondence(sigma**m, sigma**h)


def chebyshev(d, field=QQ):
    """Monic Chebyshev-like polynomial: T_0 = 2, T_1 = t, T_d = t T_{d-1} - T_{d-2}."""
    if not isinstance(d, int) or d < 0:
        raise ValueError("d must be a nonnegative integer")
    prev = Polynomial.constant(field, 2)
    if d == 0:
        return prev
    cur = Polynomial.variable(field)
    t = Polynomial.variable(field)
    for _ in range(d - 1):
        prev, cur = cur, t * cur - prev
    return cur
