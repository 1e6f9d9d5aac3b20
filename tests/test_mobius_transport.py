"""Answers move with a change of coordinates phi on the line.

If sigma1^* omega = lambda sigma2^* omega, then the conjugated pair
phi sigma_i phi^{-1} has the form (phi^{-1})^* omega, with the same lambda,
weight and conductor.  `detect` on a document with an affine `mobius`
(phi(t) = alpha t + beta) solves the given pair and moves the parameters by
phi; it must print, byte for byte, what `find_primitive` prints on the pair
conjugated by `mobius_conjugate`.  `check` must not see phi at all.
"""

import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from corrforms.cli import main
from corrforms.errors import CorrformsError
from corrforms.field import GF, QQ
from corrforms.geometry import MobiusTransform, RationalMap, mobius_conjugate, pullback
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


@pytest.fixture
def gen(monkeypatch):
    """perfbench/gen.py, the benchmark's document generator."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("gen")


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
