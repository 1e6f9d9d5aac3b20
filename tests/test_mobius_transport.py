"""Answers move with a change of coordinates phi on the line.

If sigma1^* omega = lambda sigma2^* omega, then the conjugated pair
phi sigma_i phi^{-1} has the form (phi^{-1})^* omega, with the same lambda,
weight and conductor.  `detect` on a document with an affine `mobius`
(phi(t) = alpha t + beta) solves the given pair and moves the parameters by
phi; it must print, byte for byte, what `find_primitive` prints on the pair
conjugated by `mobius_conjugate`.  `check` on a document with any `mobius`
phi decides the given pair against phi^* omega and conjugates nothing; it
must print, byte for byte and refusals included, what `check` prints on the
conjugated pair with omega as given.
"""

import json
import random
from fractions import Fraction

import pytest

from corrforms.cli import main
from corrforms.errors import CorrformsError
from corrforms.field import GF, QQ
from corrforms.geometry import DifferentialForm, MobiusTransform, RationalMap, mobius_conjugate, pullback
from corrforms.invariance import Correspondence, find_primitive
from corrforms.poly import Polynomial
from corrforms.ratfunc import RationalFunction
from corrforms.serialize import (
    field_from_json,
    form_from_json,
    form_to_json,
    group_report_to_json,
    map_from_json,
    map_to_json,
    mobius_from_json,
    poly_to_json,
)
from corrforms.sweep import chebyshev

FIELDS = {"QQ": QQ, "GF7": GF(7), "GF101": GF(101), "GF2147483647": GF(2**31 - 1)}


def run_cli(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def detect_by_conjugation(doc):
    """(exit code, stdout, stderr) of detect the conjugate-first way: find_primitive on phi sigma_i phi^{-1}."""
    field = field_from_json(doc.get("field"), "field")
    phi = mobius_from_json(field, doc["mobius"], "mobius")
    maps = [mobius_conjugate(map_from_json(field, doc[k], k), phi) for k in ("sigma1", "sigma2")]
    try:
        report = find_primitive(Correspondence(*maps))
    except CorrformsError as exc:
        return 3, "", f"error: {exc}\n"
    return 0, json.dumps(group_report_to_json(report)) + "\n", ""


def _field_json(field):
    return "Q" if field == QQ else {"Fp": field.characteristic}


def _scalar(rng, field, nonzero=False):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if field == QQ else rng.randint(-9, 9)
        if not nonzero or field.raw(x):
            return field.scalar(x)


def _affine(rng, field):
    """phi(t) = (a t + b)/d with a, d nonzero: alpha = a/d != 0 and a random beta."""
    return MobiusTransform(field, _scalar(rng, field, True), _scalar(rng, field), 0, _scalar(rng, field, True))


def _mobius_json(phi):
    return {k: str(getattr(phi, k)) for k in "abcd"}


def _document(field, sigma1, sigma2, phi):
    return {
        "sigma1": map_to_json(RationalMap(sigma1)),
        "sigma2": map_to_json(RationalMap(sigma2)),
        "field": _field_json(field),
        "mobius": _mobius_json(phi),
    }


def _pair(rng, field, kind):
    """A polynomial pair with a weight-1 form, a weight-2 form or (almost surely) none.

    The degrees stay below 7, so that no characteristic here divides them.
    """
    t = Polynomial.variable(field)
    m = rng.randint(2, 6)
    h = rng.randint(1, m - 1)
    if kind == "weight1":  # c_i (t - e)^{d_i} + e carry dt/(t - e)
        e = _scalar(rng, field)
        return [_scalar(rng, field, True) * (t - e) ** d + e for d in (m, h)]
    if kind == "weight2":  # Chebyshev, moved by a random affine psi
        psi = _affine(rng, field)
        pair = [chebyshev(d) for d in (m, h)]
        if field != QQ:
            pair = [Polynomial(field, [field.scalar(c) for c in s.coeffs]) for s in pair]
        return [mobius_conjugate(RationalMap(s), psi).polynomial for s in pair]
    return [Polynomial(field, [_scalar(rng, field) for _ in range(d)] + [field.one()]) for d in (m, h)]


def test_detect_matches_conjugation_on_every_chebyshev_pool_document(tmp_path, capsys, gen):
    docs = [doc for family, doc in gen.cli_pool() if family == "chebyshev"]
    assert len(docs) == 72
    for doc in docs:
        want = detect_by_conjugation(doc)
        assert want[0] == 0 and json.loads(want[1])["weight"] == 2
        assert run_cli(capsys, tmp_path, "detect", doc) == want


@pytest.mark.parametrize("name", FIELDS)
def test_detect_matches_conjugation_on_seeded_affine_documents(tmp_path, capsys, name):
    field = FIELDS[name]
    rng = random.Random(f"affine detect:{name}")
    seen = set()
    for kind in ("weight1", "weight2", "trivial") * 8:
        doc = _document(field, *_pair(rng, field, kind), _affine(rng, field))
        got = run_cli(capsys, tmp_path, "detect", doc)
        assert got == detect_by_conjugation(doc)
        report = json.loads(got[1])
        seen.add(report.get("weight", report["status"]))
    assert seen == {1, 2, "trivial"}


@pytest.mark.parametrize(
    "p, sigma1, sigma2",
    [
        # over F_5: t^5 + 1 has derivative 0, and so does t^10 + 2 t^5
        (5, lambda t: t**7 + t, lambda t: t**5 + 1),
        (5, lambda t: t**10 + 2 * t**5, lambda t: t**2 + t),
        # d1 <= d2
        (0, lambda t: t**2 + 1, lambda t: t**3),
        (101, lambda t: t**2, lambda t: t**2 + t),
        # p divides d1, then d2
        (7, lambda t: t**7 + t, lambda t: t**2),
        (5, lambda t: t**7 + t, lambda t: t**5 + t),
    ],
    ids=["inseparable_sigma2_gf5", "inseparable_sigma1_gf5", "d1_below_d2", "d1_equals_d2_gf101", "p_divides_d1_gf7",
         "p_divides_d2_gf5"],
)
def test_detect_matches_conjugation_on_refused_documents(tmp_path, capsys, p, sigma1, sigma2):
    field = GF(p) if p else QQ
    t = Polynomial.variable(field)
    rng = random.Random(f"affine refusal:{p}")
    for _ in range(3):
        doc = _document(field, sigma1(t), sigma2(t), _affine(rng, field))
        got = run_cli(capsys, tmp_path, "detect", doc)
        assert got[0] == 3 and got == detect_by_conjugation(doc)


@pytest.mark.parametrize("name", ["QQ", "GF7"])
def test_detect_matches_conjugation_on_rational_maps(tmp_path, capsys, name):
    # an affine phi keeps a rational map rational: the solvers' refusal, word for word
    field = FIELDS[name]
    t = Polynomial.variable(field)
    rng = random.Random(f"affine rational:{name}")
    for _ in range(3):
        doc = _document(field, RationalFunction(t**3, t + 2), t, _affine(rng, field))
        got = run_cli(capsys, tmp_path, "detect", doc)
        assert got[0] == 3 and got == detect_by_conjugation(doc)


# --- check under conjugation by a non-affine phi ---------------------------------

CHECK_KEYS = ("semi_invariant", "lambda", "weight", "conductor", "bound")


def _non_affine(rng, field):
    while True:
        a, b, c, d = (_scalar(rng, field) for _ in range(4))
        if field.raw(c) and field.raw(a * d - b * c):
            return MobiusTransform(field, a, b, c, d)


def _form(rng, field, kind, pair):
    """The pair's own flat form for the cyclic kinds, and a random weight-1 or -2 form otherwise."""
    if kind != "trivial":
        return find_primitive(Correspondence(*pair)).primitive
    num = Polynomial(field, [_scalar(rng, field, True)])
    den = Polynomial(field, [_scalar(rng, field) for _ in range(2)] + [field.one()])
    doc = {"num": poly_to_json(num), "den": poly_to_json(den), "weight": rng.choice([1, 2])}
    return form_from_json(field, doc, "omega")


@pytest.mark.parametrize("name", ["QQ", "GF101"])
def test_check_does_not_see_a_change_of_coordinates(tmp_path, capsys, name):
    # check on (phi sigma_i phi^{-1}, (phi^{-1})^* omega) equals check on (sigma_i, omega)
    field = FIELDS[name]
    rng = random.Random(f"check conjugation:{name}")
    seen = set()
    for kind in ("weight1", "weight2", "trivial") * 4:
        pair = _pair(rng, field, kind)
        omega = _form(rng, field, kind, pair)
        phi = _non_affine(rng, field)
        base = {**_document(field, *pair, phi), "omega": form_to_json(omega)}
        del base["mobius"]
        moved = {**base, "mobius": _mobius_json(phi), "omega": form_to_json(pullback(phi.inverse().as_map(), omega))}
        want, got = (run_cli(capsys, tmp_path, "check", doc) for doc in (base, moved))
        assert want[0] == got[0] == 0
        want, got = (json.loads(out) for _, out, _ in (want, got))
        assert {k: got[k] for k in CHECK_KEYS} == {k: want[k] for k in CHECK_KEYS}
        seen.add(want["semi_invariant"])
    assert seen == {True, False}


# --- check against the conjugate-first path -------------------------------------


def run_check(capsys, tmp_path, doc, omega=None):
    """check on doc, with omega (a JSON text) as an --omega file when given."""
    argv = ["check", str(tmp_path / "doc.json")]
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    if omega is not None:
        (tmp_path / "omega.json").write_text(omega)
        argv += ["--omega", str(tmp_path / "omega.json")]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_by_conjugation(capsys, tmp_path, doc, omega=None):
    """(exit code, stdout, stderr) of check the conjugate-first way.

    The maps are conjugated by mobius_conjugate and written as a document
    without "mobius", which check reads as given: omega untransported, and a
    refused pair refused at load, before any --omega file is read.
    """
    field = field_from_json(doc.get("field"), "field")
    phi = mobius_from_json(field, doc["mobius"], "mobius")
    conjugated = {k: map_to_json(mobius_conjugate(map_from_json(field, doc[k], k), phi)) for k in ("sigma1", "sigma2")}
    plain = {key: value for key, value in doc.items() if key != "mobius"}
    return run_check(capsys, tmp_path, {**plain, **conjugated}, omega)


def _power_form(field, nu):
    """(dt/t)^nu."""
    t, one = Polynomial.variable(field), Polynomial.one(field)
    return DifferentialForm(RationalFunction(one, t**nu) if nu > 0 else RationalFunction(t**-nu), nu)


def _chebyshev_form(field, nu):
    """((dt)^2/(t^2 - 4))^(nu/2) for nu = 2 or -2."""
    quadric, one = Polynomial(field, [field.scalar(-4), 0, 1]), Polynomial.one(field)
    return DifferentialForm(RationalFunction(one, quadric) if nu > 0 else RationalFunction(quadric), nu)


def _random_poly(rng, field, degree):
    return Polynomial(field, [_scalar(rng, field) for _ in range(degree)] + [_scalar(rng, field, True)])


def _random_map(rng, field, degree, rational):
    while True:
        den = _random_poly(rng, field, rng.randint(1, degree)) if rational else Polynomial.one(field)
        body = RationalFunction(_random_poly(rng, field, degree), den)
        if not body.is_constant and max(body.num.degree, body.den.degree) == degree:
            return body


def _check_case(rng, field, kind):
    """(sigma1, sigma2, omega0, phi) with omega0 in the given pair's own chart.

    power: (t^m, t^h) or (t^m, 1/t^h) with (dt/t)^nu, semi-invariant at every weight;
    chebyshev: (T_m, T_h) with ((dt)^2/(t^2 - 4))^(+-1); random: random maps and form;
    work_cap, form_cap: refused before any pullback; wild: (t^8, t^h) over F_7, whose
    bound meets W = t^7 of sigma1.  Over F_7, m = 7 makes sigma1 inseparable.
    """
    t = Polynomial.variable(field)
    phi = _non_affine(rng, field) if rng.random() < 0.6 else _affine(rng, field)
    weight = rng.choice([-2, -1, 1, 2, 3])
    if kind in ("power", "wild"):
        m = 8 if kind == "wild" else rng.randint(1, 9)
        h = rng.randint(1, 9) if kind == "power" else rng.randint(1, 3)
        sigma2 = RationalFunction(Polynomial.one(field), t**h) if rng.random() < 0.4 else t**h
        return t**m, sigma2, _power_form(field, weight), phi
    if kind == "chebyshev":
        m = rng.randint(2, 8)
        omega0 = _chebyshev_form(field, rng.choice([-2, 2]))
        return chebyshev(m, field), chebyshev(rng.randint(1, m), field), omega0, phi
    rational = rng.random() < 0.5
    if kind == "work_cap":  # 70 * (120 + 2) > 8192
        sigma1, sigma2, degree = _random_map(rng, field, 70, False), _random_map(rng, field, 3, rational), 120
    elif kind == "form_cap":  # n = 129 > 128, with D = 3 * (129 + 2) far below the cap
        sigma1, sigma2, degree = _random_map(rng, field, 3, rational), _random_map(rng, field, 2, False), 129
    else:
        sigma1, sigma2 = (_random_map(rng, field, rng.randint(1, 6), rational) for _ in range(2))
        return sigma1, sigma2, _random_form(rng, field, rng.randint(0, 3), weight), phi
    return sigma1, sigma2, _random_form(rng, field, degree, 1), phi


def _random_form(rng, field, degree, nu):
    num, den = _random_poly(rng, field, degree), _random_poly(rng, field, rng.randint(0, 3))
    if rng.random() < 0.5:
        num, den = den, num
    return DifferentialForm(RationalFunction(num, den), nu)


CHECK_KINDS = ("power",) * 5 + ("chebyshev",) * 3 + ("random",) * 8 + ("work_cap", "form_cap")
REFUSALS = {
    "check: max(d1, d2)": "work cap",
    "check: n = ": "form cap",
    "is inseparable": "inseparable",
    "vanishes in characteristic": "wild",
}


@pytest.mark.parametrize("name", ["QQ", "GF7", "GF101"])
def test_check_matches_conjugation_on_seeded_mobius_documents(tmp_path, capsys, name):
    # 54 documents per field, 58 over F_7; exit code, stdout and stderr must be equal
    field = FIELDS[name]
    rng = random.Random(f"mobius check:{name}")
    seen = set()
    for kind in CHECK_KINDS * 3 + (("wild",) * 4 if name == "GF7" else ()):
        sigma1, sigma2, omega0, phi = _check_case(rng, field, kind)
        doc = _document(field, sigma1, sigma2, phi)
        if kind in ("power", "chebyshev", "wild"):
            omega0 = pullback(phi.inverse().as_map(), omega0)
        omega = form_to_json(omega0)
        omega_file = json.dumps(omega) if rng.random() < 0.3 else None
        if omega_file is None:
            doc["omega"] = omega
        got = run_check(capsys, tmp_path, doc, omega_file)
        assert got == check_by_conjugation(capsys, tmp_path, doc, omega_file), doc
        k = len(omega["den"]) - len(omega["num"]) - 2 * omega["weight"]
        rational = any(isinstance(doc[key], dict) for key in ("sigma1", "sigma2"))
        seen |= {("c", phi.c == 0), ("rational", rational), ("weight", omega["weight"]), ("k", k > 0, k < 0)}
        if got[0] == 0:
            seen.add(("semi_invariant", json.loads(got[1])["semi_invariant"]))
        seen |= {("refused", why) for text, why in REFUSALS.items() if text in got[2]}
    assert {("c", True), ("c", False), ("rational", True), ("rational", False)} <= seen
    assert {("weight", nu) for nu in (-2, -1, 1, 2, 3)} <= seen
    assert {("k", True, False), ("k", False, True), ("semi_invariant", True), ("semi_invariant", False)} <= seen
    assert {("refused", "work cap"), ("refused", "form cap")} <= seen
    if name == "GF7":
        assert {("refused", "inseparable"), ("refused", "wild")} <= seen


def test_check_refuses_an_inseparable_pair_before_reading_omega(tmp_path, capsys):
    # over F_5, sigma1 = t^5 is inseparable; the refusal names the conjugated map and
    # comes before the --omega file, which is not JSON, is read
    field = GF(5)
    t = Polynomial.variable(field)
    phi = MobiusTransform(field, 2, 1, 1, 1)
    doc = _document(field, t**5, t**2 + t, phi)
    got = run_check(capsys, tmp_path, doc, "not JSON")
    conjugated = mobius_conjugate(RationalMap(t**5), phi)
    assert got == (3, "", f"error: sigma1 = {conjugated} is inseparable\n")
    assert got == check_by_conjugation(capsys, tmp_path, doc, "not JSON")
