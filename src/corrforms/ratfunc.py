"""Rational functions in one variable: reduced fractions with monic denominator."""

from __future__ import annotations

from .poly import Polynomial, _inverse, compose_with_quotient, gcd_monic


def _wronskian(body):
    """A'B - AB' for body = A/B: the numerator of body' before reduction."""
    num, den = body.num, body.den
    return num.derivative() * den - num * den.derivative()


def _monic_den(num, den):
    """num/den rescaled so that den is monic."""
    inv = _inverse(den.coeffs[-1], num.field.characteristic)
    return (num, den) if inv == 1 else (num._scaled(inv), den._scaled(inv))


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
        if num.is_zero:
            den = Polynomial.one(num.field)
        else:
            g = gcd_monic(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
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
        return RationalFunction(-self.num, self.den)

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
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

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
        out = object.__new__(RationalFunction)
        out.num, out.den = _monic_den(num**n, den**n)
        return out

    def derivative(self):
        return RationalFunction(_wronskian(self), self.den * self.den)

    def compose(self, inner):
        """self(inner(t)) for a RationalFunction inner."""
        if not isinstance(inner, RationalFunction):
            inner = RationalFunction(inner)
        if self.is_zero:
            return RationalFunction(Polynomial.zero(self.field))
        order = max(len(self.num.coeffs), len(self.den.coeffs)) - 1
        n = compose_with_quotient(self.num, inner.num, inner.den, order)
        d = compose_with_quotient(self.den, inner.num, inner.den, order)
        if d.is_zero:
            raise ZeroDivisionError("composition denominator vanished")
        return RationalFunction(n, d)

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
