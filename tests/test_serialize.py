"""JSON document parsing and rendering round-trips."""

import json
from fractions import Fraction

import pytest

from corrforms.errors import InputFormatError
from corrforms.field import GF, QQ, FpElement
from corrforms.geometry import DifferentialForm, MobiusTransform
from corrforms.poly import Polynomial
from corrforms import serialize

from conftest import fp, qp, rf


def test_scalar_round_trip():
    assert serialize.scalar_str(Fraction(-7, 3)) == "-7/3"
    assert serialize.scalar_str(Fraction(4)) == "4"
    assert serialize.scalar_str(FpElement(3, 7)) == "3"
    assert serialize.parse_scalar(QQ, "-7/3", "x") == Fraction(-7, 3)
    assert serialize.parse_scalar(GF(7), "10", "x") == FpElement(3, 7)
    with pytest.raises(InputFormatError):
        serialize.parse_scalar(QQ, "1.5", "x")
    with pytest.raises(InputFormatError):
        serialize.parse_scalar(QQ, True, "x")
    with pytest.raises(InputFormatError):
        serialize.parse_scalar(QQ, None, "x")


def test_poly_round_trip():
    f = qp(Fraction(1, 2), 0, 3)
    data = serialize.poly_to_json(f)
    assert data == ["1/2", "0", "3"]
    assert serialize.poly_from_json(QQ, data, "f") == f
    assert serialize.poly_from_json(QQ, [], "f").is_zero
    with pytest.raises(InputFormatError):
        serialize.poly_from_json(QQ, "nope", "f")
    with pytest.raises(InputFormatError):
        serialize.poly_from_json(QQ, [1.5], "f")


def test_map_round_trip():
    data = {"num": ["0", "0", "1"], "den": ["1", "1"]}
    m = serialize.map_from_json(QQ, data, "sigma")
    assert not m.is_polynomial and m.degree == 2
    assert serialize.map_to_json(m) == data
    flat = serialize.map_from_json(QQ, ["0", "1", "2"], "sigma")
    assert flat.is_polynomial
    assert serialize.map_to_json(flat) == ["0", "1", "2"]
    with pytest.raises(InputFormatError):
        serialize.map_from_json(QQ, ["5"], "sigma")  # constant map
    with pytest.raises(InputFormatError):
        serialize.map_from_json(QQ, {"num": ["0", "1"]}, "sigma")  # missing den
    with pytest.raises(InputFormatError):
        serialize.map_from_json(QQ, {"num": ["0", "1"], "den": ["1"], "x": 1}, "s")


def test_form_round_trip():
    data = {"num": ["1"], "den": ["0", "1"], "weight": 1}
    omega = serialize.form_from_json(QQ, data, "omega")
    assert omega.weight == 1 and omega.coeff == rf(qp(1), qp(0, 1))
    assert serialize.form_to_json(omega) == data
    with pytest.raises(InputFormatError):
        serialize.form_from_json(QQ, {"num": ["1"], "den": ["1"], "weight": 0}, "w")
    with pytest.raises(InputFormatError):
        serialize.form_from_json(QQ, {"num": ["0"], "den": ["1"], "weight": 1}, "w")


def test_form_weight_is_capped_at_64():
    # each unit of weight is one more power of sigma' in a pullback
    for weight in (64, -64):
        data = {"num": ["1"], "den": ["0", "1"], "weight": weight}
        assert serialize.form_from_json(QQ, data, "omega").weight == weight
    for weight in (65, -65):
        data = {"num": ["1"], "den": ["0", "1"], "weight": weight}
        with pytest.raises(InputFormatError, match=r"^omega\.weight: "):
            serialize.form_from_json(QQ, data, "omega")


def test_field_from_json():
    assert serialize.field_from_json(None, "field") == QQ
    assert serialize.field_from_json("Q", "field") == QQ
    assert serialize.field_from_json({"Fp": 7}, "field") == GF(7)
    with pytest.raises(InputFormatError):
        serialize.field_from_json({"Fp": 6}, "field")
    with pytest.raises(InputFormatError):
        serialize.field_from_json("R", "field")


def test_document_parsing():
    doc = serialize.document_from_json(
        {
            "sigma1": ["0", "0", "0", "1"],
            "sigma2": ["0", "1"],
            "omega": {"num": ["1"], "den": ["0", "1"], "weight": 1},
        }
    )
    assert doc.field == QQ
    assert doc.corr.d1 == 3 and doc.corr.d2 == 1
    assert doc.omega.weight == 1
    assert doc.mobius is None

    doc = serialize.document_from_json(
        {
            "sigma1": ["0", "0", "1"],
            "sigma2": ["0", "1"],
            "field": {"Fp": 11},
            "mobius": {"a": "1", "b": "2", "c": "0", "d": "1"},
        }
    )
    assert doc.field == GF(11)
    assert isinstance(doc.mobius, MobiusTransform)
    assert doc.omega is None

    with pytest.raises(InputFormatError):
        serialize.document_from_json({"sigma1": ["0", "1"]})
    with pytest.raises(InputFormatError):
        serialize.document_from_json(
            {"sigma1": ["0", "1"], "sigma2": ["0", "1"], "extra": 1}
        )
    with pytest.raises(InputFormatError):
        serialize.document_from_json([])


def test_divisor_rendering():
    from corrforms.geometry import divisor_of_form

    omega = DifferentialForm(rf(qp(1), qp(0, 1)), 1)
    data = serialize.divisor_to_json(divisor_of_form(omega))
    assert data == {"affine": [{"poly": ["0", "1"], "mult": -1}], "infinity": -1}
