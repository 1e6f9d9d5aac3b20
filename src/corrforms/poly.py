"""Exact dense univariate polynomials over Q or F_p.

Coefficients are stored ascending with trailing zeros stripped; the zero
polynomial has degree NEG_INFINITY.  No irreducible factorization exists
anywhere in this package: closed points are represented by monic squarefree
polynomials, and Yun's algorithm supplies the squarefree decomposition.

Storage contract: ``coeffs`` holds the field's raw values (see field.py),
Fractions over Q and plain int residues in [0, p) over F_p.  One function
clears them to an integer vector over one denominator, ``_integer_parts``
(residues are their own vector, over 1), and one builds them back,
``_stored``.  Both fields multiply through the one integer product
``_mul_raw``, which alone chooses how to multiply.  Every composition, of
polynomials, rational functions or a Mobius conjugation, is one Horner's
rule on those integer lists, ``_compose_over``, which builds the powers of
the inner denominator once for all outer polynomials and converts each
result once, at the end.  Division is one schoolbook loop for both fields,
which also divides integer vectors exactly; ``monic`` and ratfunc.py invert
raw scalars through ``_inverse``.  The public scalar FpElement appears only
where a value leaves a polynomial: ``leading``, ``coefficient`` and
evaluation.  Every Euclid mod a prime is one loop on residue lists reduced
in place (``_euclid_in_place``): ``gcd_monic`` over F_p, and over Q its
screen, which first tries to prove coprimality mod 2**31 - 1.  Yun's
algorithm runs on monic residue lists over F_p and on primitive integer
vectors over Q, takes every gcd from ``gcd_monic`` and checks its
characteristic-p result with ``SquarefreeDecomposition.recompose``.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

from .errors import FieldMismatch, WildInput

NEG_INFINITY = float("-inf")


# array typecode of each machine integer width in bytes (1, 2, 4 and 8)
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _repeat(c, n, width):
    """The packed integer whose n slots all hold c."""
    return int.from_bytes(c.to_bytes(width, sys.byteorder) * n, sys.byteorder)


def _pack(cs, width, code, half=0):
    """The integer sum of cs[i] * 2**(8*width*i); each slot stores cs[i] + half >= 0."""
    if half:
        cs = [c + half for c in cs]
    if code:
        data = array(code, cs).tobytes()
    else:
        data = b"".join(c.to_bytes(width, sys.byteorder) for c in cs)
    return int.from_bytes(data, sys.byteorder) - _repeat(half, len(cs), width)


def _slots(x, n, width, code, half=0):
    """The n values c of x as packed by _pack, each with -half <= c < 2**(8*width) - half."""
    data = (x + _repeat(half, n, width)).to_bytes(n * width, sys.byteorder)
    if code:
        slots = memoryview(data).cast(code)
    else:
        slots = (int.from_bytes(data[i : i + width], sys.byteorder) for i in range(0, len(data), width))
    return [c - half for c in slots] if half else slots


def _kronecker_mul(a, b, bound, signed=False):
    """Product coefficients of integer sequences a and b by one integer multiplication (see _mul_raw).

    Each operand becomes an integer with one byte-aligned slot per coefficient.
    bound caps the absolute value of every product coefficient, a sum of at
    most min(len(a), len(b)) terms, so slots wide enough for it never carry
    into each other (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).
    Slots are a power of two bytes wide, so up to 8 bytes they are machine
    integers that array and memoryview convert without a Python loop.  A
    signed slot stores its value plus half the slot range, so packing and
    unpacking stay unsigned; the sign takes one bit of the width.
    """
    width = 1
    while 8 * width < bound.bit_length() + signed:
        width *= 2
    code = _TYPECODES.get(width)
    half = 1 << (8 * width - 1) if signed else 0
    x = _pack(a, width, code, half)
    y = x if b is a else _pack(b, width, code, half)
    return _slots(x * y, len(a) + len(b) - 1, width, code, half)


def _integer_parts(cs):
    """Integers ns and d > 0 with cs[i] == ns[i] / d: d is the lcm of the denominators (1 for residues)."""
    d = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _mul_raw(a, b, p):
    """a * b for integer coefficient lists: residues in [0, p), reduced mod p, when p > 0; signed when p = 0.

    The one product routine.  An operand of one or two terms, in either
    position, multiplies in by scalar multiply-adds; longer ones are packed.
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (m0,) = a
        out = [m0 * c for c in b]
    elif len(a) == 2:
        m0, m1 = a
        out = [m0 * x + m1 * y for x, y in zip_longest(b, [0, *b], fillvalue=0)]
    elif p:
        out = _kronecker_mul(a, b, len(a) * (p - 1) ** 2)
    else:
        bound = len(a) * max(map(abs, a)) * max(map(abs, b))
        # a zero bound means a zero operand; slots sized by it could not hold the other one
        return _kronecker_mul(a, b, bound, signed=True) if bound else [0] * (len(a) + len(b) - 1)
    return [c % p for c in out] if p else out


def _stored(cs, d, p):
    """Stored coefficients of the integer vector cs over d: the residues themselves when p > 0, else Fraction(c, d)."""
    return cs if p else [Fraction(c, d) for c in cs]


def _inverse(r, p):
    """The inverse of a nonzero raw scalar: a residue mod p, or a Fraction when p = 0."""
    return pow(r, -1, p) if p else 1 / r


def _divmod_raw(a, b, p):
    """Schoolbook division of raw coefficient sequences, tuples or lists.

    One loop serves both fields: Fractions over Q (p = 0) and residues over
    F_p, where the quotient is reduced mod p and the caller reduces the
    remainder.  Over Q it also takes integer sequences whose quotient the
    caller knows to be integral, as for a primitive divisor (Gauss's lemma);
    each quotient coefficient is then an exact floor division by the lead.
    """
    dv = len(b) - 1
    n = len(a) - dv
    lead = b[-1]
    if p:
        inv = pow(lead, -1, p)

        def top(x):
            return x * inv % p
    elif type(lead) is int:

        def top(x):
            return x // lead
    else:
        inv = 1 / lead

        def top(x):
            return x * inv
    quot, rem = [0] * n, list(a)
    for k in range(n - 1, -1, -1):
        c = quot[k] = top(rem[k + dv])
        if c:
            rem[k : k + dv] = [r - c * bj for r, bj in zip(rem[k : k + dv], b)]
    return quot, rem[:dv]


def _is_function(x):
    """True for a RationalFunction, whose reflected operator gives the mixed result."""
    from .ratfunc import RationalFunction  # ratfunc imports this module

    return isinstance(x, RationalFunction)


class Polynomial:
    """Univariate polynomial with exact coefficients, ascending order."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        raw = field.raw
        cs = [raw(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field, coeffs):
        # trusted raw values, only strips
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self = object.__new__(cls)
        self.field = field
        self.coeffs = tuple(coeffs)
        return self

    @classmethod
    def zero(cls, field):
        return cls._make(field, [])

    @classmethod
    def one(cls, field):
        return cls._make(field, [field.raw(1)])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def variable(cls, field):
        return cls._make(field, [field.raw(0), field.raw(1)])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.field.wrap(self.coeffs[-1])

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.field.wrap(self.coeffs[i])
        return self.field.zero()

    def _reduced(self, coeffs):
        """A polynomial over self.field from integer combinations of raw values."""
        p = self.field.characteristic
        return Polynomial._make(self.field, [c % p for c in coeffs] if p else coeffs)

    def _scaled(self, c):
        """self times the raw scalar c."""
        return self._reduced([a * c for a in self.coeffs])

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"cannot mix {self.field!r} and {other.field!r}")

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __neg__(self):
        return self._reduced([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if _is_function(other):
                return NotImplemented
            other = Polynomial.constant(self.field, other)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._reduced(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Polynomial) and not _is_function(other):
            other = Polynomial.constant(self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if _is_function(other):
                return NotImplemented
            return self._scaled(self.field.raw(other))
        self._check(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.field)
        a, b = self.coeffs, other.coeffs
        if a == (1,):  # the power loop and running products start from one
            return other
        if b == (1,):
            return self
        p = self.field.characteristic
        na, da = _integer_parts(a)
        nb, db = (na, da) if b is a else _integer_parts(b)
        return Polynomial._make(self.field, _stored(_mul_raw(na, nb, p), da * db, p))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        result = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.field, other)
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod_raw(self.coeffs, other.coeffs, self.field.characteristic)
        return Polynomial._make(self.field, quot), self._reduced(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        field = self.field
        x = field.raw(x)
        acc = field.raw(0)
        p = field.characteristic
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if p:
                acc %= p
        return field.wrap(acc)

    def compose(self, inner):
        """self(inner) for a polynomial inner."""
        return _compose_over(inner, Polynomial.one(self.field), [(self, max(self.degree, 0))])[0]

    def derivative(self):
        # in characteristic p the i*c factor reduces mod p, so t^p |-> 0
        return self._reduced([i * c for i, c in enumerate(self.coeffs)][1:])

    def hasse_derivative(self, j):
        """j-th Hasse derivative: coefficient of (t-x)^j in the Taylor expansion."""
        if j < 0:
            raise ValueError("Hasse derivative order must be nonnegative")
        return self._reduced(
            [math.comb(i, j) * self.coeffs[i] for i in range(j, len(self.coeffs))]
        )

    def monic(self):
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        if self.coeffs[-1] == 1:
            return self
        return Polynomial._make(self.field, _monic_raw(self.coeffs, self.field.characteristic))

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if i == 0:
                term = cs
            else:
                var = "t" if i == 1 else f"t^{i}"
                term = var if cs == "1" else f"{cs}*{var}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self.field!r}: {self}>"


def _compose_over(num, den, pairs):
    """[den**order * poly(num/den) for poly, order in pairs], by the one Horner loop; needs order >= deg(poly).

    Each poly = F/d_F and the inner map are cleared to integers: over Q, for
    num = N/d_N and den = D/d_D, the loop runs at (N d_D)/(D d_N) on integer
    vectors L, and the result is _stored(L, d_F (d_N d_D)**order); over F_p
    L holds the residues.  The powers of D are built once, for every pair.
    Every product is one _mul_raw call.
    """
    field = num.field
    p = field.characteristic
    (ns, dn), (ds, dd) = _integer_parts(num.coeffs), _integer_parts(den.coeffs)
    ns, ds = [c * dd for c in ns], [c * dn for c in ds]
    dpows = [[1]]  # the powers of D that the loops and the final paddings use
    out = []
    for poly, order in pairs:
        poly._check(num)  # every caller passes num and den over one field
        cs, df = _integer_parts(poly.coeffs)
        if len(cs) > order + 1:
            raise ValueError("order must be at least deg(poly)")
        while len(dpows) <= max(len(cs) - 1, order + 1 - len(cs)):
            dpows.append(_mul_raw(dpows[-1], ds, p))
        acc = []
        for k, c in enumerate(reversed(cs)):
            acc = [x + c * y for x, y in zip_longest(_mul_raw(acc, ns, p), dpows[k], fillvalue=0)]
            if p:
                acc = [x % p for x in acc]
        acc = _mul_raw(acc, dpows[order + 1 - len(cs)], p)
        out.append(Polynomial._make(field, _stored(acc, df * (dn * dd) ** order, p)))
    return out


_SCREEN_PRIME = 2**31 - 1  # the largest prime below GF's cap


def _monic_raw(cs, p):
    """Raw coefficients cs over their leading one, as a new list; cs itself when that is one."""
    lead = cs[-1]
    if lead == 1:
        return cs
    inv = _inverse(lead, p)
    return [c * inv % p for c in cs] if p else [c * inv for c in cs]


def _normalized(v, p):
    """Integer vector v over its content with a positive leading entry when p = 0; v made monic mod p otherwise."""
    if p:
        return _monic_raw(v, p)
    g = math.gcd(*v) if v[-1] > 0 else -math.gcd(*v)
    return [c // g for c in v]


def _euclid_in_place(x, y, p):
    """A gcd of residue lists x and y mod p, up to a unit: the Euclid on x and y in place.

    x and y hold residues without trailing zeros and are consumed.  The answer
    is the first nonzero constant remainder, since the next step would only
    divide by it, or else the last nonzero remainder.  No step builds a tuple,
    a quotient or a Polynomial: a tuple per step costs peak RSS.
    """
    while len(y) > 1:
        dv, inv = len(y) - 1, pow(y[-1], -1, p)
        for k in range(len(x) - len(y), -1, -1):
            c = x[k + dv] * inv % p
            if c:
                x[k : k + dv] = [(r - c * yj) % p for r, yj in zip(x[k : k + dv], y)]
        del x[dv:]
        while x and not x[-1]:
            x.pop()
        x, y = y, x
    return y or x


def _coprime_mod_prime(a, b):
    """True when vectors a, b of Fractions or integers, cleared, keep their leads and have gcd 1 mod q."""
    q = _SCREEN_PRIME
    x, y = ([c % q for c in _integer_parts(cs)[0]] for cs in (a, b))
    return bool(x[-1] and y[-1]) and len(_euclid_in_place(x, y, q)) == 1


def gcd_monic(a, b):
    """Monic gcd by the Euclidean algorithm; one at once for a nonzero constant argument.

    Over F_p the Euclid runs on residue lists in place (_euclid_in_place) and
    its answer is made monic once.  Over Q, a and b, cleared to integers, are
    first reduced mod q = _SCREEN_PRIME, the one place this screen runs.  If q
    divides neither lead, their primitive integer gcd keeps its degree mod q,
    so a constant gcd mod q proves gcd(a, b) = 1 (Brown, J. ACM 18, 1971).
    Otherwise the Euclid runs on a and b with monic remainders, and the answer
    never depends on q.
    """
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    field = a.field
    if a.degree == 0 or b.degree == 0:
        return Polynomial.one(field)
    p = field.characteristic
    if p:
        return Polynomial._make(field, _monic_raw(_euclid_in_place(list(a.coeffs), list(b.coeffs), p), p))
    if min(a.degree, b.degree) > 0 and _coprime_mod_prime(a.coeffs, b.coeffs):
        return Polynomial.one(field)
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


class SquarefreeDecomposition(NamedTuple):
    """a = unit * prod(part^multiplicity) with monic, pairwise-coprime parts."""

    unit: object
    parts: tuple

    def recompose(self, field):
        acc = Polynomial.constant(field, self.unit)
        for part, mult in self.parts:
            acc = acc * part**mult
        return acc

    def radical(self, field):
        acc = Polynomial.one(field)
        for part, _ in self.parts:
            acc = acc * part
        return acc


def squarefree_decompose(a):
    """Yun's algorithm (Yun, SYMSAC 1976), on raw coefficient lists.

    One loop serves both fields: monic residue lists over F_p, and over Q
    primitive integer vectors (content removed, positive leading entry).
    Derivatives, differences and the exact divisions (_divmod_raw) run on
    these lists.  Over Q, c and d are always divided by the same gcd, so they
    keep one common scale against the monic loop, and a primitive divisor of
    an integer vector leaves an integral quotient (Gauss's lemma).  Each gcd
    is one gcd_monic call on the lists as raw values: the residue lists as
    they are, the integer vectors as Fractions, whose monic answer cleared to
    integers is primitive.  A gcd of degree 0 is one, and dividing by it is
    skipped.

    In characteristic p an input with vanishing derivative (after removing
    the unit) is rejected with WildInput instead of extracting p-th roots.
    Only when p <= deg a can a multiplicity reach p, where Yun's loop is
    silently wrong; there the recomposition is checked.
    """
    if a.is_zero:
        raise ValueError("cannot squarefree-decompose the zero polynomial")
    field = a.field
    unit = a.leading
    if a.degree == 0:
        return SquarefreeDecomposition(unit, ())
    p = field.characteristic

    def gcd(x, y):
        g = gcd_monic(*(Polynomial._make(field, _stored(cs, 1, p)) for cs in (x, y)))
        return g.coeffs if p else _integer_parts(g.coeffs)[0]

    def reduced(cs):
        cs = [c % p for c in cs] if p else cs
        while cs and not cs[-1]:
            cs.pop()
        return cs

    def derivative(cs):
        return reduced([i * c for i, c in enumerate(cs)][1:])

    f = _normalized(list(a.coeffs) if p else _integer_parts(a.coeffs)[0], p)
    fp = derivative(f)
    if not fp:
        # only possible in characteristic p, for p-th powers
        raise WildInput(f"derivative of {Polynomial._make(field, f)} vanishes in characteristic {p}")
    g = gcd(f, fp)
    c, d = (_divmod_raw(f, g, p)[0], _divmod_raw(fp, g, p)[0]) if len(g) > 1 else (f, fp)
    parts = []
    k = 1
    while len(c) > 1:
        d = reduced([x - y for x, y in zip_longest(d, derivative(c), fillvalue=0)])
        ak = gcd(c, d) if d else c  # c is normalized
        if len(ak) > 1:
            parts.append((_stored(ak, ak[-1], p), k))
            c, d = _divmod_raw(c, ak, p)[0], _divmod_raw(d, ak, p)[0]
        k += 1
    dec = SquarefreeDecomposition(unit, tuple((Polynomial._make(field, part), k) for part, k in parts))
    if 0 < p <= a.degree and dec.recompose(field) != a:
        raise WildInput(f"squarefree recomposition failed in characteristic {p} (multiplicity >= {p}?)")
    return dec


def radical(a):
    """Product of the squarefree parts of a (monic)."""
    return squarefree_decompose(a).radical(a.field)
