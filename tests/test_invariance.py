"""Semi-invariant flat forms: solvers, detection, and conductor bounds.

Frozen values: multiplicative pairs admit dt/(t-a) with ratio d1/d2;
Chebyshev-style pairs admit (dt)^2/(t^2 - s t + q) with (s, q) = (0, -4)
and ratio (d1/d2)^2; the cubic pair (t^3 + t, t) admits neither.  Bound
values were evaluated by hand from the closed formulas.
"""

import itertools
import random
from fractions import Fraction

import pytest

from corrforms import invariance
from corrforms.errors import (
    HypothesisNotMet,
    InseparableMap,
    NormalizationRequired,
    NotSemiInvariant,
    UnsupportedEqualDegrees,
    WildRamification,
)
from corrforms.field import GF, QQ, FpElement
from corrforms.geometry import DifferentialForm, MobiusTransform, RationalMap, is_tame, mobius_conjugate
from corrforms.poly import Polynomial
from corrforms.invariance import (
    Correspondence,
    affine_conductor_guard,
    affine_multiplicity_sum,
    find_primitive,
    flat_form_weight1,
    flat_form_weight2,
    genus_conductor_bound,
    ramification_conductor_bound,
    ramification_conductor_check,
    semi_invariance_ratio,
    solve_weight1_flat,
    solve_weight2_flat,
)
from corrforms.sweep import chebyshev, multiplicative_pair

from conftest import fp, qp, random_poly, random_separable_poly, rf


def corr(f, g):
    return Correspondence(f, g)


def test_correspondence_over_q_takes_no_derivative(monkeypatch):
    # over Q a nonconstant A/B is separable: A'B = AB' would force A' = B' = 0
    fields = []
    derivative = Polynomial.derivative

    def counted(self):
        fields.append(self.field)
        return derivative(self)

    monkeypatch.setattr(Polynomial, "derivative", counted)
    t = qp(0, 1)
    for sigma1, sigma2 in ((t**3 + t, t), (rf(t**2 + 1, t - 3), t**5), (rf(qp(1), t), rf(t**4, t**3 + 2))):
        Correspondence(sigma1, sigma2)
    assert fields == []
    u = fp(5, 0, 1)
    with pytest.raises(InseparableMap, match=r"^sigma1 = t\^5 is inseparable$"):
        Correspondence(u**5, u**2)
    assert fields and all(f == GF(5) for f in fields)


def t_pair(m, h):
    t = qp(0, 1)
    return corr(t**m, t**h)


# ------------------------------------------------------------------ construction


def test_correspondence_basics():
    t = qp(0, 1)
    c = corr(t**3, t**2)
    assert c.d1 == 3 and c.d2 == 2
    assert c.is_polynomial_pair
    assert c.field == QQ
    with pytest.raises(Exception):
        corr(t**2, fp(5, 0, 0, 1))  # mixed fields


def test_flat_form_constructors():
    omega = flat_form_weight1(QQ, Fraction(2))
    assert omega.weight == 1
    assert omega.coeff == rf(qp(1), qp(-2, 1))
    eta = flat_form_weight2(QQ, Fraction(0), Fraction(-4))
    assert eta.weight == 2
    assert eta.coeff == rf(qp(1), qp(-4, 0, 1))


# ------------------------------------------------------------- semi-invariance


def test_semi_invariance_ratio_frozen():
    t = qp(0, 1)
    omega = flat_form_weight1(QQ, 0)
    assert semi_invariance_ratio(t_pair(3, 1), omega) == Fraction(3)
    assert semi_invariance_ratio(t_pair(5, 2), omega) == Fraction(5, 2)
    # same map on both sides: ratio 1 regardless of degrees
    assert semi_invariance_ratio(corr(t**2, t**2), omega) == 1
    # non-invariant form: None
    assert semi_invariance_ratio(t_pair(3, 1), flat_form_weight1(QQ, 1)) is None
    eta = flat_form_weight2(QQ, 0, -4)
    assert semi_invariance_ratio(corr(chebyshev(4), chebyshev(2)), eta) == Fraction(4)


def test_semi_invariance_scaling_invariance():
    # scaling omega by a nonzero constant leaves the ratio unchanged
    omega = flat_form_weight1(QQ, 0).scale(Fraction(7, 3))
    assert semi_invariance_ratio(t_pair(4, 1), omega) == Fraction(4)


# ------------------------------------------------------------------- weight one


def test_solve_weight1_frozen():
    t = qp(0, 1)
    s2 = t**2 + 1
    sol = solve_weight1_flat(corr(s2**2, s2))
    assert sol.a == 0 and sol.ratio == 2
    sol = solve_weight1_flat(corr(s2**3, s2))
    assert sol.a == 0 and sol.ratio == 3
    sol = solve_weight1_flat(t_pair(7, 3))
    assert sol.a == 0 and sol.ratio == Fraction(7, 3)
    assert solve_weight1_flat(corr(t**3 + t, t)) is None


def test_solve_weight1_shifted_coordinate():
    # conjugating by t -> t + 1 moves the flat coordinate to a = 1
    t = qp(0, 1)
    phi = MobiusTransform(QQ, 1, 1, 0, 1)
    s1 = mobius_conjugate(RationalMap(t**3), phi)
    s2 = mobius_conjugate(RationalMap(t), phi)
    sol = solve_weight1_flat(corr(s1.polynomial, s2.polynomial))
    assert sol.a == 1 and sol.ratio == 3
    # the detected form really is semi-invariant
    omega = flat_form_weight1(QQ, sol.a)
    assert semi_invariance_ratio(corr(s1.polynomial, s2.polynomial), omega) == 3


def test_solve_weight1_soundness_random():
    rng = random.Random(31)
    t = qp(0, 1)
    for _ in range(20):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        m, h = rng.choice([(2, 1), (3, 1), (3, 2), (5, 2), (4, 3)])
        # sigma = (t - a)^d + a fixes t = a and is a power map around it
        c = corr((t - a) ** m + a, (t - a) ** h + a)
        sol = solve_weight1_flat(c)
        assert sol is not None
        assert sol.a == a
        assert sol.ratio == Fraction(m, h)
        omega = flat_form_weight1(QQ, sol.a)
        assert semi_invariance_ratio(c, omega) == sol.ratio


def test_solver_preconditions():
    t = qp(0, 1)
    with pytest.raises(UnsupportedEqualDegrees):
        solve_weight1_flat(corr(t**2, t**2 + 1))
    with pytest.raises(UnsupportedEqualDegrees):
        solve_weight1_flat(corr(t**2, t**3))
    from corrforms.ratfunc import RationalFunction

    with pytest.raises(NormalizationRequired):
        solve_weight1_flat(Correspondence(rf(qp(1), t), t**2))
    # characteristic dividing a degree: wild at infinity
    with pytest.raises(WildRamification):
        solve_weight1_flat(Correspondence(fp(5, 0, 1) ** 5 + fp(5, 0, 1), fp(5, 0, 1)))


# ------------------------------------------------------------------- weight two


def test_solve_weight2_frozen():
    T2, T4, T6, T8 = chebyshev(2), chebyshev(4), chebyshev(6), chebyshev(8)
    sol = solve_weight2_flat(corr(T4, T2))
    assert (sol.s, sol.q) == (0, -4)
    assert sol.ratio == 4
    assert not sol.degenerate
    sol = solve_weight2_flat(corr(T6, T2))
    assert (sol.s, sol.q) == (0, -4) and sol.ratio == 9
    sol = solve_weight2_flat(corr(T8, T2))
    assert (sol.s, sol.q) == (0, -4) and sol.ratio == 16
    # squares of a weight-1 solution are degenerate weight-2 solutions
    t = qp(0, 1)
    sol = solve_weight2_flat(corr(t**4, t**2))
    assert (sol.s, sol.q) == (0, 0)
    assert sol.ratio == 4 and sol.degenerate
    assert solve_weight2_flat(corr(t**3 + t, t)) is None


def test_solve_weight2_verifies_across_all_coefficients():
    # the pair (t^3 + t, t) satisfies the two pivot equations of the linear
    # system but fails lower-degree ones; the solver must return None, not a
    # bogus (s, q).
    t = qp(0, 1)
    assert solve_weight2_flat(corr(t**3 + t, t)) is None


def test_solve_weight2_shifted():
    # conjugate the Chebyshev pair by t -> t + 5: the quadratic shifts too
    phi = MobiusTransform(QQ, 1, 5, 0, 1)
    s1 = mobius_conjugate(RationalMap(chebyshev(4)), phi)
    s2 = mobius_conjugate(RationalMap(chebyshev(2)), phi)
    c = corr(s1.polynomial, s2.polynomial)
    sol = solve_weight2_flat(c)
    # t^2 - 4 becomes (t-5)^2 - 4 = t^2 - 10 t + 21
    assert (sol.s, sol.q) == (10, 21)
    assert sol.ratio == 4 and not sol.degenerate
    eta = flat_form_weight2(QQ, sol.s, sol.q)
    assert semi_invariance_ratio(c, eta) == 4


def test_flat_solvers_match_brute_force_over_f7():
    # over F_7 every monic h of degree 1 or 2 can be tried: (dt)^nu / h is
    # semi-invariant exactly for the h the solvers return, if any
    p = 7
    field = GF(p)
    rng = random.Random(47)
    t = fp(p, 0, 1)
    pairs = [
        (chebyshev(4, field), chebyshev(2, field)),
        (chebyshev(5, field), chebyshev(3, field)),
        (chebyshev(4, field).compose(t + 3) - 3, chebyshev(3, field).compose(t + 3) - 3),
        ((t - 2) ** 3 + 2, (t - 2) ** 2 + 2),
        ((t**2 + 1) ** 3, t**2 + 1),
    ]
    while len(pairs) < 14:
        d1 = rng.choice([3, 4, 5])
        d2 = rng.randint(1, d1 - 1)
        pairs.append((random_separable_poly(rng, field, d1), random_separable_poly(rng, field, d2)))
    hits = {1: 0, 2: 0}
    for s1, s2 in pairs:
        c = corr(s1, s2)
        w1, w2 = solve_weight1_flat(c), solve_weight2_flat(c)
        for nu, found in ((1, w1 and [-w1.a]), (2, w2 and [w2.q, -w2.s])):
            brute = [
                list(h)
                for h in itertools.product(range(p), repeat=nu)
                if semi_invariance_ratio(c, DifferentialForm(rf(fp(p, 1), fp(p, *h, 1)), nu)) is not None
            ]
            assert brute == ([[x.residue for x in found]] if found else []), (s1, s2, nu)
            hits[nu] += bool(found)
    assert hits[1] >= 2 and hits[2] >= 3


# ------------------------------------------------------------------- detection


@pytest.mark.parametrize(
    "sigma1, sigma2, made",
    [
        ([0, 0, 0, 1], [0, 0, 1], (3, 7)),  # (t^3, t^2): dt/t, and degenerate (dt)^2/t^2
        ([0, -3, 0, 1], [-2, 0, 1], (0, 7)),  # Chebyshev (T3, T2): (dt)^2/(t^2 - 4)
        ([1, 2, 0, 1], [0, 0, 1], (0, 0)),  # no flat form
    ],
)
def test_flat_solvers_box_only_their_results(count_fp_elements, sigma1, sigma2, made):
    # weight 1 boxes c0, lambda and a = -c0; weight 2 boxes q, c1, lambda and s = -c1,
    # and s * s == 4 * q makes three more; a miss makes none
    corr = Correspondence(fp(101, *sigma1), fp(101, *sigma2))
    for solve, expected in zip((solve_weight1_flat, solve_weight2_flat), made):
        del count_fp_elements[:]
        found = solve(corr)
        assert len(count_fp_elements) == expected
        assert (found is None) == (expected == 0)


def test_find_primitive_weight1():
    rep = find_primitive(t_pair(3, 1))
    assert rep.status == "cyclic" and rep.weight == 1
    assert rep.ratio == 3
    assert rep.params == {"a": Fraction(0)}
    assert rep.flatness == "weight1"
    assert not rep.complete  # 3 < 14 * 1
    rep = find_primitive(t_pair(14, 1))
    assert rep.complete  # 14 >= 14 * 1


def test_find_primitive_weight2():
    rep = find_primitive(corr(chebyshev(4), chebyshev(2)))
    assert rep.status == "cyclic" and rep.weight == 2
    assert rep.ratio == 4
    assert rep.params == {"s": Fraction(0), "q": Fraction(-4)}
    assert rep.primitive.weight == 2
    rep = find_primitive(corr(chebyshev(28), chebyshev(2)))
    assert rep.complete and rep.weight == 2 and rep.ratio == 196


def test_find_primitive_prefers_weight1():
    # (t^4, t^2) admits both; weight 1 wins the search order
    t = qp(0, 1)
    rep = find_primitive(corr(t**4, t**2))
    assert rep.weight == 1 and rep.params == {"a": Fraction(0)}


def test_find_primitive_trivial():
    t = qp(0, 1)
    rep = find_primitive(corr(t**3 + t, t))
    assert rep.status == "trivial"
    assert rep.weight is None and rep.ratio is None and rep.primitive is None


def test_find_primitive_over_fp():
    p = 31
    t = fp(p, 0, 1)
    s2 = t**2 + 1
    rep = find_primitive(Correspondence(s2**3, s2))
    assert rep.status == "cyclic" and rep.weight == 1
    assert rep.ratio == FpElement(3, p)
    assert rep.params["a"] == FpElement(0, p)


# ----------------------------------------------------------------------- bounds


def test_genus_conductor_bound_frozen():
    assert genus_conductor_bound(0, 0, 6, 2) == Fraction(11, 2)
    assert genus_conductor_bound(0, 0, 4, 1) == Fraction(4)
    assert genus_conductor_bound(1, 1, 6, 2) == 0
    assert genus_conductor_bound(0, 0, 14, 1) == Fraction(52, 13)  # = 4


def test_genus_conductor_bound_validation():
    with pytest.raises(UnsupportedEqualDegrees):
        genus_conductor_bound(0, 0, 3, 3)
    with pytest.raises(UnsupportedEqualDegrees):
        genus_conductor_bound(0, 0, 2, 3)
    with pytest.raises(ValueError):
        genus_conductor_bound(-1, 0, 3, 1)
    with pytest.raises(ValueError):
        genus_conductor_bound(0, 0, 3, 0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, False, 3, True), "g_x must be a nonnegative integer"),
        ((0, True, 3, 1), "g_y must be a nonnegative integer"),
        ((0, 0, 3, True), "degrees must be positive integers"),
        ((0, 0, True, 1), "degrees must be positive integers"),
    ],
)
def test_genus_conductor_bound_refuses_bools(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        genus_conductor_bound(*args)


def test_genus_zero_bound_identity():
    # over the projective line the closed formula matches the ramification
    # version (4 d1 + 2 d2 - 6) / (d1 - d2) for every degree pair
    for d1 in range(2, 12):
        for d2 in range(1, d1):
            lhs = genus_conductor_bound(0, 0, d1, d2)
            rhs = Fraction(4 * d1 + 2 * d2 - 6, d1 - d2)
            assert lhs == rhs


def test_ramification_conductor_check_frozen():
    t = qp(0, 1)
    omega = flat_form_weight1(QQ, 0)
    chk = ramification_conductor_check(corr(t**6, t**2), omega)
    assert chk.conductor == 2
    assert chk.bound == Fraction(11, 2)
    assert chk.holds
    chk = ramification_conductor_check(corr(t**4, t), omega)
    assert chk.conductor == 2 and chk.bound == 4 and chk.holds
    eta = flat_form_weight2(QQ, 0, -4)
    chk = ramification_conductor_check(corr(chebyshev(4), chebyshev(2)), eta)
    assert chk.conductor == 3 and chk.bound == 7 and chk.holds


def test_ramification_conductor_check_rejects_non_invariant():
    t = qp(0, 1)
    with pytest.raises(NotSemiInvariant):
        ramification_conductor_check(corr(t**6, t**2), flat_form_weight1(QQ, 5))


def test_ramification_conductor_check_leaves_d1_above_d2_to_the_bound(monkeypatch):
    # ramification_conductor_bound owns d1 > d2; the check only calls it
    checked, ratios = [], []
    require, ratio = invariance._require_d1_above_d2, invariance.semi_invariance_ratio

    def recording_require(d1, d2):
        checked.append((d1, d2))
        return require(d1, d2)

    monkeypatch.setattr(invariance, "_require_d1_above_d2", recording_require)
    monkeypatch.setattr(invariance, "semi_invariance_ratio", lambda c, w: ratios.append(w) or ratio(c, w))
    t = qp(0, 1)
    omega = flat_form_weight1(QQ, 0)
    assert ramification_conductor_check(corr(t**6, t**2), omega).holds
    assert checked == [(6, 2)] and len(ratios) == 1
    checked.clear()
    ratios.clear()
    for low, high in ((t**2, t**6), (t**3, t**3 + t)):
        with pytest.raises(UnsupportedEqualDegrees):
            ramification_conductor_check(corr(low, high), omega)
    assert checked == [(2, 6), (3, 3)] and ratios == []


def test_bound_agreement_random():
    # the two bound computations agree on multiplicative pairs of any shape
    rng = random.Random(32)
    t = qp(0, 1)
    omega = flat_form_weight1(QQ, 0)
    for _ in range(15):
        m = rng.randint(2, 9)
        h = rng.choice([k for k in range(1, m) if __import__("math").gcd(m, k) == 1])
        c = t_pair(m, h)
        chk = ramification_conductor_check(c, omega)
        assert chk.bound == genus_conductor_bound(0, 0, m, h)
        assert chk.holds


def _random_degree_pair(rng):
    d1 = rng.randint(2, 6)
    return d1, rng.randint(1, d1 - 1)


def test_ramification_conductor_bound_is_riemann_hurwitz_polynomial_pairs():
    # on the line a tame degree-d map has deg R = 2d - 2, so the bound is the genus-0 one
    rng = random.Random(41)
    for field in (QQ, GF(53)):
        for _ in range(12):
            d1, d2 = _random_degree_pair(rng)
            c = corr(random_separable_poly(rng, field, d1), random_separable_poly(rng, field, d2))
            assert is_tame(c.sigma1) and is_tame(c.sigma2)
            assert ramification_conductor_bound(c) == genus_conductor_bound(0, 0, d1, d2)


def test_ramification_conductor_bound_is_riemann_hurwitz_rational_pairs():
    rng = random.Random(42)
    done = 0
    while done < 12:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if c == 0 or a * d - b * c == 0:
            continue  # c != 0 makes the conjugated maps rational, not polynomial
        phi = MobiusTransform(QQ, a, b, c, d)
        d1, d2 = _random_degree_pair(rng)
        s1 = mobius_conjugate(RationalMap(random_separable_poly(rng, QQ, d1)), phi)
        s2 = mobius_conjugate(RationalMap(random_separable_poly(rng, QQ, d2)), phi)
        pair = corr(s1, s2)
        assert not pair.is_polynomial_pair
        assert ramification_conductor_bound(pair) == genus_conductor_bound(0, 0, d1, d2)
        done += 1


def test_ramification_conductor_bound_preconditions():
    t = qp(0, 1)
    for pair in (corr(t, t**2), corr(t**2, t**2 + 1)):
        with pytest.raises(UnsupportedEqualDegrees):
            ramification_conductor_bound(pair)
    s = fp(3, 0, 1)
    with pytest.raises(WildRamification):
        ramification_conductor_bound(corr(s**3 + s, s))  # degree 3 is wild at infinity


def test_ramification_conductor_check_takes_the_bound():
    t = qp(0, 1)
    omega = flat_form_weight1(QQ, 0)
    for c, form in (
        (corr(t**6, t**2), omega),
        (corr(t**4, t), omega),
        (corr(chebyshev(4), chebyshev(2)), flat_form_weight2(QQ, 0, -4)),
    ):
        assert ramification_conductor_check(c, form).bound == ramification_conductor_bound(c)
    assert ramification_conductor_bound(corr(chebyshev(4), chebyshev(2))) == 7


# ------------------------------------------------------- affine support lemmas


def test_affine_multiplicity_sum():
    omega = flat_form_weight1(QQ, 3)
    res = affine_multiplicity_sum(omega)
    assert res.total == -1 and res.expected == -1 and res.holds
    eta = flat_form_weight2(QQ, 1, -6)  # t^2 - t - 6 = (t-3)(t+2), squarefree
    res = affine_multiplicity_sum(eta)
    assert res.total == -2 and res.expected == -2 and res.holds
    t = qp(0, 1)
    from corrforms.geometry import DifferentialForm

    res = affine_multiplicity_sum(DifferentialForm(rf(t, (t - 1) ** 3), 1))
    assert res.total == -2  # +1 at t=0, -3 at t=1
    assert res.expected == -1
    assert not res.holds


def test_affine_conductor_guard():
    t = qp(0, 1)
    omega = flat_form_weight1(QQ, 0)
    assert affine_conductor_guard(corr(t**8, t**2), omega)
    assert affine_conductor_guard(t_pair(4, 1), omega)
    with pytest.raises(HypothesisNotMet):
        affine_conductor_guard(corr(t**6, t**2), omega)
    with pytest.raises(NotSemiInvariant):
        affine_conductor_guard(t_pair(4, 1), flat_form_weight1(QQ, 2))
    eta = flat_form_weight2(QQ, 0, -4)
    assert affine_conductor_guard(corr(chebyshev(8), chebyshev(2)), eta)


# -------------------------------------------------- conjugation-covariant search


def test_detection_is_conjugation_covariant_random():
    # conjugating a multiplicative pair by an affine substitution t -> u t + v
    # must keep detection successful with the same ratio
    rng = random.Random(33)
    t = qp(0, 1)
    for _ in range(15):
        m, h = rng.choice([(2, 1), (3, 1), (3, 2), (5, 3)])
        while True:
            u = Fraction(rng.randint(-4, 4))
            if u != 0:
                break
        v = Fraction(rng.randint(-4, 4))
        phi = MobiusTransform(QQ, u, v, 0, 1)
        s1 = mobius_conjugate(RationalMap(t**m), phi)
        s2 = mobius_conjugate(RationalMap(t**h), phi)
        rep = find_primitive(Correspondence(s1.polynomial, s2.polynomial))
        assert rep.status == "cyclic" and rep.weight == 1
        assert rep.ratio == Fraction(m, h)
        assert rep.params == {"a": v}  # flat point t = 0 moves to v
