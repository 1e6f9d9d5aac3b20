"""Rational functions in one variable: reduced fractions with monic denominator.

Only the constructor (user input) and ``+`` reduce by a full gcd, and
neither when the numerator or the denominator is constant.
Other operations take no gcd where no common factor can arise: powers and
compositions of coprime pairs are coprime, and reduced a/b times c/d is
reduced once gcd(a, d) and gcd(c, b) are cancelled.
"""

from __future__ import annotations

from .poly import Polynomial, _compose_over, _inverse, gcd_monic


def _wronskian(body):
    """A'B - AB' for body = A/B: the numerator of body' before reduction."""
    num, den = body.num, body.den
    return num.derivative() * den - num * den.derivative()


def _monic_den(num, den):
    """num/den rescaled so that den is monic; 0/den becomes 0/1."""
    if num.is_zero:
        return num, Polynomial.one(num.field)
    inv = _inverse(den.coeffs[-1], num.field.characteristic)
    return (num, den) if inv == 1 else (num._scaled(inv), den._scaled(inv))


def _coprime(num, den):
    """The RationalFunction num/den for coprime num and nonzero den; takes no gcd."""
    out = object.__new__(RationalFunction)
    out.num, out.den = _monic_den(num, den)
    return out


def _cancel(x, y):
    """x and y divided by their gcd; a constant or zero shares no factor."""
    if x.degree <= 0 or y.degree <= 0:
        return x, y
    g = gcd_monic(x, y)
    return (x // g, y // g) if g.degree > 0 else (x, y)


def _product(a, b, c, d):
    """(a c)/(b d) for coprime pairs a, b and c, d: only a, d and c, b can share a factor."""
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _coprime(a * c, b * d)


class RationalFunction:
    """num/den in lowest terms, den monic; num == 0 is represented as 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            raise TypeError("num must be a Polynomial")
        if den is None:
            den = Polynomial.one(num.field)
        num._check(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = _cancel(num, den)
        self.num, self.den = _monic_den(num, den)

    @classmethod
    def from_polynomial(cls, p):
        return cls(p)

    @classmethod
    def constant(cls, field, c):
        return cls(Polynomial.constant(field, c))

    @classmethod
    def variable(cls, field):
        return cls(Polynomial.variable(field))

    @property
    def field(self):
        return self.num.field

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_constant(self):
        return self.den.degree == 0 and self.num.degree <= 0

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    def constant_value(self):
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.num.coefficient(0)

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return _coprime(-self.num, self.den)

    def _lift(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction.constant(self.field, other)

    def __add__(self, other):
        other = self._lift(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("exponent must be an int")
        num, den = self.num, self.den
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("0 has no negative powers")
            num, den, n = den, num, -n
        # powers of coprime polynomials are coprime: no gcd to take
        return _coprime(num**n, den**n)

    def compose(self, inner):
        """self(inner(t)) for a RationalFunction inner.

        num and den are composed by one _compose_over call at the one order
        max(deg num, deg den), so the powers of inner.den are built once and
        cancel in their quotient; _coprime then makes the denominator monic.
        """
        if not isinstance(inner, RationalFunction):
            inner = RationalFunction(inner)
        order = max(self.num.degree, self.den.degree)
        n, d = _compose_over(inner.num, inner.den, [(self.num, order), (self.den, order)])
        if d.is_zero:
            raise ZeroDivisionError("composition denominator vanished")
        # n, d coprime: mod a factor of inner.den one is c * inner.num**order, c != 0,
        # and any other common factor gives self.num and self.den a common root inner(x)
        return _coprime(n, d)

    def __call__(self, x):
        dv = self.den(x)
        if not dv:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / dv

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<{self.field!r}: {self}>"
