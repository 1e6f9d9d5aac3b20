"""Exact scalar arithmetic: Q via fractions.Fraction, and prime fields F_p.

A "field tag" is an object (the QQ singleton or a PrimeField instance) that
every polynomial, rational function, form and divisor carries.  Scalars of
different tags never combine: F_p elements of different moduli, or an F_p
element with a Fraction, raise FieldMismatch.

Storage contract.  Inside polynomials a coefficient is stored in its raw
form: a Fraction over Q, a plain int residue in [0, p) over F_p.  The tag's
``raw`` hook turns any accepted scalar into that form and ``wrap`` turns a
raw value back into the public scalar.  FpElement is that public scalar for
F_p and appears only at the API boundary (leading coefficients, evaluation,
solver results); over Q the raw form already is the public one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import FieldMismatch, NotPLocalUnit

MAX_PRIME_MODULUS = 1 << 31

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10**24,
# far beyond the 2**31 modulus cap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin primality test."""
    if not isinstance(n, int) or n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_rational(text):
    """Parse a rational literal: optional sign, integer, optional /positive-integer."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"invalid rational literal {text!r}")
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator in literal {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


class FpElement:
    """Residue in F_p, stored reduced to [0, p)."""

    __slots__ = ("residue", "p")

    def __init__(self, residue, p):
        self.residue = residue % p
        self.p = p

    def _coerce(self, other):
        """Return other as an FpElement, None if foreign (defer to reflected op),
        or raise FieldMismatch on genuine scalar mixing."""
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatch(f"cannot mix F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            raise FieldMismatch(
                f"cannot combine an F_{self.p} element with a rational"
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.residue + other.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.residue - other.residue, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.residue * other.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        try:
            return FpElement(pow(self.residue, n, self.p), self.p)
        except ValueError:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}") from None

    def __neg__(self):
        return FpElement(-self.residue, self.p)

    def inverse(self):
        if self.residue == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return FpElement(pow(self.residue, -1, self.p), self.p)

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.residue == other.residue
        if isinstance(other, int):
            return self.residue == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.residue))

    def __str__(self):
        return str(self.residue)

    def __repr__(self):
        return f"FpElement({self.residue}, p={self.p})"


class RationalField:
    """Tag for Q; scalars are fractions.Fraction."""

    characteristic = 0

    def scalar(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return parse_rational(value)
        raise FieldMismatch(f"cannot interpret {type(value).__name__} as a rational")

    # a Fraction is both the raw and the public form: raw leaves it unchanged
    raw = scalar

    @staticmethod
    def wrap(r):
        return r

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """Tag for F_p, p prime and below 2**31."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= MAX_PRIME_MODULUS:
            raise ValueError(f"modulus {p} exceeds the 2**31 cap")
        self.p = self.characteristic = p

    def raw(self, value):
        """The residue in [0, p) of an int, rational literal, Fraction or FpElement."""
        p = self.p
        if isinstance(value, int):
            return value % p
        if isinstance(value, FpElement):
            if value.p != p:
                raise FieldMismatch(f"cannot mix F_{p} and F_{value.p}")
            return value.residue
        if isinstance(value, str):
            value = parse_rational(value)
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise NotPLocalUnit(f"denominator of {value} is divisible by {p}")
            return value.numerator * pow(value.denominator, -1, p) % p
        raise FieldMismatch(
            f"cannot interpret {type(value).__name__} as an F_{p} element"
        )

    def wrap(self, r):
        return FpElement(r, self.p)

    def scalar(self, value):
        return self.wrap(self.raw(value))

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))

    def __repr__(self):
        return f"GF({self.p})"


@lru_cache(maxsize=None)
def GF(p):
    """Cached PrimeField constructor."""
    return PrimeField(p)


def reduce_mod(x, field):
    """Reduce a rational m/n into F_p; requires p to not divide n."""
    return field.scalar(Fraction(x))


def reduce_unit_mod_p(x, p):
    """Multiplicative reduction of a p-local unit m/n into F_p^x.

    Errors (NotPLocalUnit) unless p divides neither m nor n; on the units it
    is a group homomorphism with kernel { m/n : m = n mod p }.
    """
    field = GF(p)
    x = Fraction(x)
    if x.numerator % p == 0:
        raise NotPLocalUnit(f"numerator of {x} is divisible by {p}")
    return reduce_mod(x, field)
