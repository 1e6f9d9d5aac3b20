"""Maps, differential forms, divisors and ramification on the projective line.

Closed points never require factorization: an affine closed-point cluster is
a monic squarefree polynomial, a divisor is a coprime list of such clusters
with integer multiplicities plus an integer multiplicity at infinity, and
ramification indices are read off the Wronskian's squarefree decomposition.
`Divisor` is the one place where overlapping clusters are split by gcd;
everything else compares or adds divisors, so the local order identity is
checked as the divisor equation
div(sigma^* omega) = sigma^* div(omega) + nu R_sigma.

Ramification is computed in two charts:
  * affine places, poles included: zeros of the Wronskian W = A'B - AB' of
    A/B.  A place of index e with p not dividing e is a zero of W of order
    exactly e - 1 (at a pole of order e, -A B' has order e - 1 and A'B order
    >= e), and a wild place of index e has ord W >= e >= p.  In
    characteristic p squarefree decomposition raises WildInput unless every
    multiplicity of W is below p, so in every characteristic a Yun part of
    multiplicity k is a cluster of index k + 1;
  * the point at infinity: read off the degrees and leading coefficients.
So the affine part of R_sigma has degree deg W, and in every characteristic
deg R_sigma = deg W + e_inf - 1 needs no squarefree decomposition.  Whether
p divides an index is tested in one place, `_tame_places`; every tameness
verdict, skip reason and WildRamification comes from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FieldMismatch,
    InseparableMap,
    WildRamification,
)
from .poly import Polynomial, _inverse, compose_with_quotient, gcd_monic, squarefree_decompose
from .ratfunc import RationalFunction, _wronskian


class RationalMap:
    """Nonconstant self-map of the projective line, given on the affine chart."""

    __slots__ = ("body",)

    def __init__(self, body):
        if isinstance(body, Polynomial):
            body = RationalFunction(body)
        if not isinstance(body, RationalFunction):
            raise TypeError("a RationalMap wraps a RationalFunction or Polynomial")
        if body.is_constant:
            raise ValueError("a map of the line must be nonconstant")
        self.body = body

    @property
    def field(self):
        return self.body.field

    @property
    def degree(self):
        return max(self.body.num.degree, self.body.den.degree)

    @property
    def is_polynomial(self):
        return self.body.is_polynomial

    @property
    def polynomial(self):
        if not self.is_polynomial:
            raise ValueError(f"{self} is not a polynomial map")
        return self.body.num

    @property
    def is_separable(self):
        # A/B is coprime, so A'B = AB' forces A | A' and B | B', i.e. A' = B' = 0
        return not (self.body.num.derivative().is_zero and self.body.den.derivative().is_zero)

    def compose(self, other):
        """self after other."""
        return RationalMap(self.body.compose(other.body))

    def __call__(self, x):
        return self.body(x)

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.body == other.body

    def __hash__(self):
        return hash(("RationalMap", self.body))

    def __str__(self):
        return str(self.body)

    def __repr__(self):
        return f"RationalMap({self.body!r})"


class MobiusTransform:
    """(a t + b) / (c t + d) with nonzero determinant."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        a, b, c, d = (field.scalar(x) for x in (a, b, c, d))
        if not (a * d - b * c):
            raise ValueError("Mobius transform must have nonzero determinant")
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    def as_map(self):
        field = self.field
        num = Polynomial(field, [self.b, self.a])
        den = Polynomial(field, [self.d, self.c])
        return RationalMap(RationalFunction(num, den))

    def inverse(self):
        return MobiusTransform(self.field, self.d, -self.b, -self.c, self.a)

    def __repr__(self):
        return f"MobiusTransform({self.a}, {self.b}, {self.c}, {self.d})"


class DifferentialForm:
    """f(t) (dt)^nu with f a nonzero rational function and nu a nonzero integer."""

    __slots__ = ("coeff", "weight")

    def __init__(self, coeff, weight):
        if isinstance(coeff, Polynomial):
            coeff = RationalFunction(coeff)
        if coeff.is_zero:
            raise ValueError("differential form coefficient must be nonzero")
        if not isinstance(weight, int) or weight == 0:
            raise ValueError("weight must be a nonzero integer")
        self.coeff = coeff
        self.weight = weight

    @property
    def field(self):
        return self.coeff.field

    def scale(self, c):
        return DifferentialForm(self.coeff * c, self.weight)

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self.weight == other.weight and self.coeff == other.coeff

    def __hash__(self):
        return hash((self.coeff, self.weight))

    def __str__(self):
        return f"({self.coeff}) (dt)^{self.weight}"

    def __repr__(self):
        return f"DifferentialForm({self.coeff!r}, {self.weight})"


class Divisor:
    """Affine closed-point clusters with multiplicities, plus one at infinity.

    Components are monic, squarefree and pairwise coprime; overlapping input
    components are refined by gcd splitting so multiplicities add correctly.
    """

    __slots__ = ("field", "affine", "at_infinity")

    def __init__(self, field, components=(), at_infinity=0):
        pieces = []
        for poly, mult in components:
            if poly.field != field:
                raise FieldMismatch("divisor component over the wrong field")
            if mult == 0 or poly.degree < 1:
                continue
            _add_component(pieces, poly.monic(), mult)
        # canonical form: one squarefree cluster per multiplicity
        by_mult = {}
        for g, m in pieces:
            if m != 0:
                by_mult[m] = by_mult[m] * g if m in by_mult else g
        merged = sorted(by_mult.items())
        self.field = field
        self.affine = tuple((g, m) for m, g in merged)
        self.at_infinity = at_infinity

    def degree(self):
        return sum(m * g.degree for g, m in self.affine) + self.at_infinity

    def support_size(self):
        """Number of geometric points in the support."""
        n = sum(g.degree for g, _ in self.affine)
        return n + (1 if self.at_infinity else 0)

    def affine_support_size(self):
        return sum(g.degree for g, _ in self.affine)

    def affine_multiplicity_sum(self):
        """Sum of multiplicities over geometric affine points."""
        return sum(m * g.degree for g, m in self.affine)

    def multiplicity_at(self, x):
        """Multiplicity at a point (field element) or at a cluster dividing
        one component (Polynomial)."""
        if isinstance(x, Polynomial):
            for g, m in self.affine:
                if x.degree >= 1 and (g % x).is_zero:
                    return m
            return 0
        for g, m in self.affine:
            if not g(x):
                return m
        return 0

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return (
            self.field == other.field
            and self.affine == other.affine
            and self.at_infinity == other.at_infinity
        )

    def __hash__(self):
        return hash((self.field, self.affine, self.at_infinity))

    def __add__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch("cannot add divisors over different fields")
        return Divisor(
            self.field,
            list(self.affine) + list(other.affine),
            self.at_infinity + other.at_infinity,
        )

    def __neg__(self):
        return Divisor(
            self.field, [(g, -m) for g, m in self.affine], -self.at_infinity
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Divisor(self.field, [(g, n * m) for g, m in self.affine], n * self.at_infinity)

    __rmul__ = __mul__

    @property
    def is_zero(self):
        return not self.affine and self.at_infinity == 0

    def __str__(self):
        parts = [f"{m}*({g})" for g, m in self.affine]
        if self.at_infinity:
            parts.append(f"{self.at_infinity}*(inf)")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<Divisor {self}>"


def _add_component(pieces, poly, mult):
    """Fold (poly, mult) into a coprime squarefree piece list, splitting by gcd."""
    i = 0
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


def pullback(sigma, omega):
    """sigma^* omega = (coeff o sigma) * (sigma')^weight (dt)^weight."""
    ds = sigma.body.derivative()
    if ds.is_zero:
        raise InseparableMap(f"{sigma} is inseparable")
    comp = omega.coeff.compose(sigma.body)
    return DifferentialForm(comp * ds**omega.weight, omega.weight)


def divisor_of_form(omega):
    """div(omega); the multiplicity at infinity is deg(den)-deg(num)-2*weight."""
    num, den = omega.coeff.num, omega.coeff.den
    comps = []
    if num.degree > 0:
        comps.extend(squarefree_decompose(num).parts)
    for part, k in squarefree_decompose(den).parts if den.degree > 0 else ():
        comps.append((part, -k))
    at_inf = den.degree - num.degree - 2 * omega.weight
    return Divisor(omega.field, comps, at_inf)


def conductor(omega):
    """Number of geometric points in the support of div(omega)."""
    return divisor_of_form(omega).support_size()


@dataclass(frozen=True)
class RamificationPlaces:
    """Exact ramification data of a separable map.

    affine: coprime squarefree clusters with their index e >= 2 (poles included);
    infinity: the index at t = infinity; image_infinite / image_value describe
    sigma(infinity).
    """

    affine: tuple
    infinity: int
    image_infinite: bool
    image_value: object


def _infinity_chart(a_poly, b_poly):
    """(e_inf, image_infinite, image_value) of A/B at t = infinity.

    e_inf is the order at infinity of A/B - sigma(infinity), or of A/B when sigma(infinity) is infinity.
    """
    field = a_poly.field
    deg_a, deg_b = a_poly.degree, b_poly.degree
    if deg_a > deg_b:
        return deg_a - deg_b, True, None
    if deg_a < deg_b:
        return deg_b - deg_a, False, field.zero()
    # equal degrees, leading coefficients a, b: A/B - a/b = (b A - a B)/(b B)
    a, b = a_poly.coeffs[-1], b_poly.coeffs[-1]
    e_inf = deg_b - (a_poly._scaled(b) - b_poly._scaled(a)).degree
    return e_inf, False, field.wrap(field.raw(a * _inverse(b, field.characteristic)))


def ramification_places(sigma):
    """Ramification data of sigma; raises InseparableMap on a zero Wronskian.

    A Wronskian zero of order k is a place of index k + 1, in every
    characteristic: squarefree_decompose raises WildInput unless every
    multiplicity of W is below p, and a wild place of index e has ord W >= e.
    """
    body = sigma.body
    a_poly, b_poly = body.num, body.den
    wronskian = _wronskian(body)
    if wronskian.is_zero:
        raise InseparableMap(f"{sigma} is inseparable")

    # chart 1: affine places, poles included = zeros of the Wronskian
    entries = []
    if wronskian.degree > 0:
        parts = squarefree_decompose(wronskian).parts
        if parts[-1][1] + 1 > sigma.degree:
            raise AssertionError("ramification index exceeded map degree")
        entries = [(cluster, k + 1) for cluster, k in parts]

    e_inf, image_infinite, image_value = _infinity_chart(a_poly, b_poly)
    entries.sort(key=lambda ge: ge[0].sort_key())
    return RamificationPlaces(tuple(entries), e_inf, image_infinite, image_value)


class Tameness:
    """Boolean verdict with a witness for the wild place, if any."""

    __slots__ = ("tame", "witness")

    def __init__(self, tame, witness=None):
        self.tame = tame
        self.witness = witness

    def __bool__(self):
        return self.tame

    def __repr__(self):
        return f"Tameness({self.tame}, witness={self.witness!r})"


def is_tame(sigma):
    """Tameness verdict: every ramification index coprime to the characteristic."""
    if sigma.field.characteristic == 0:
        # a nonconstant map is separable, and every index is tame, in characteristic 0
        return Tameness(True)
    try:
        _tame_places(sigma)
    except InseparableMap:
        return Tameness(False, "inseparable")
    except WildRamification as exc:
        return Tameness(False, exc.place)
    return Tameness(True)


def _tame_places(sigma):
    """ramification_places(sigma); raises WildRamification at the first place whose index p divides."""
    places = ramification_places(sigma)
    p = sigma.field.characteristic
    if p:
        for cluster, e in places.affine:
            if e % p == 0:
                raise WildRamification(cluster)
        if places.infinity % p == 0:
            raise WildRamification("infinity")
    return places


def ramification_divisor(sigma):
    """R_sigma = sum (e_x - 1) x over ramified places; requires a tame map."""
    return _ramification_divisor(sigma, _tame_places(sigma))


def _ramification_degree(sigma):
    """deg R_sigma = deg W + e_inf - 1 in every characteristic; requires a tame map.

    Every affine index is e = k + 1 for a zero of order k of the Wronskian W,
    so the affine part of R_sigma has degree deg W, with no gcd.  An index
    can be divisible by p only when 0 < p <= deg sigma; only then is
    `_tame_places` called first, which raises on a wild or inseparable map.
    """
    body = sigma.body
    if 0 < body.field.characteristic <= sigma.degree:
        _tame_places(sigma)
    return _wronskian(body).degree + _infinity_chart(body.num, body.den)[0] - 1


def _ramification_divisor(sigma, places):
    comps = [(cluster, e - 1) for cluster, e in places.affine]
    return Divisor(sigma.field, comps, places.infinity - 1)


def mobius_conjugate(sigma, phi):
    """phi o sigma o phi^{-1}; degree is preserved."""
    fwd = phi.as_map()
    back = phi.inverse().as_map()
    out = fwd.compose(sigma).compose(back)
    if out.degree != sigma.degree:
        raise AssertionError("conjugation changed the degree")
    return out


def pullback_divisor(sigma, div):
    """sigma^*(div): multiplicities pick up ramification indices."""
    return _pullback_divisor(sigma, ramification_places(sigma), div)


def _pullback_divisor(sigma, places, div):
    a_poly, b_poly = sigma.body.num, sigma.body.den
    comps = []
    inf_mult = 0
    for h_poly, n in div.affine:
        pre = compose_with_quotient(h_poly, a_poly, b_poly, h_poly.degree)
        for cluster, k in squarefree_decompose(pre).parts:
            comps.append((cluster, n * k))
        if not places.image_infinite and not h_poly(places.image_value):
            inf_mult += n * places.infinity
    if div.at_infinity:
        n = div.at_infinity
        if b_poly.degree > 0:
            for cluster, k in squarefree_decompose(b_poly).parts:
                comps.append((cluster, n * k))
        if places.image_infinite:
            inf_mult += n * places.infinity
    return Divisor(sigma.field, comps, inf_mult)


def check_order_identity(sigma, omega):
    """Verify ord_x(sigma^* omega) + nu = e_x (ord_{sigma(x)} omega + nu) everywhere.

    At every place this is the divisor equation
    div(sigma^* omega) = sigma^* div(omega) + nu R_sigma.  The left side is
    the divisor of the computed pullback; the right side pulls div(omega)
    back along preimages and adds the ramification divisor.  `Divisor` is
    canonical, so the two sides are compared with `==`.
    """
    places = _tame_places(sigma)
    lhs = divisor_of_form(pullback(sigma, omega))
    rhs = _pullback_divisor(sigma, places, divisor_of_form(omega))
    return lhs == rhs + omega.weight * _ramification_divisor(sigma, places)
