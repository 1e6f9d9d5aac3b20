"""JSON (de)serialization for the CLI.

Conventions: every scalar is a string ("5/6", "-3", residues as "4");
polynomials are ascending coefficient-string arrays; maps are either a bare
coefficient array (polynomial) or {"num": [...], "den": [...]}; forms are
{"num": [...], "den": [...], "weight": nu}.  Parse errors carry the JSON
path of the offending value.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import InputFormatError, NotPLocalUnit
from .field import GF, QQ, FpElement
from .geometry import DifferentialForm, MobiusTransform, RationalMap, mobius_conjugate
from .invariance import Correspondence
from .poly import Polynomial
from .ratfunc import RationalFunction

_MAX_FORM_WEIGHT = 64  # the largest |weight| a document's form may carry
_MAX_DEGREE = 1024  # the largest degree of a parsed polynomial, and of the sigma1 that gen writes
_MAX_CHECK_DEGREE = 8192  # the largest max(d1, d2) * (n + 2|nu|), which bounds deg P, deg Q in check
_MAX_CHECK_FORM_DEGREE = 128  # the largest n = max(deg num, deg den) of the form that check decomposes


def scalar_str(x):
    if not isinstance(x, (Fraction, FpElement, int)):
        raise TypeError(f"not a scalar: {x!r}")
    try:
        return str(x)  # FpElement prints its residue
    except ValueError:  # only Python's int-to-string digit limit makes str raise
        limit = sys.get_int_max_str_digits()
        raise InputFormatError(f"a result has more than {limit} digits, Python's int-to-string limit") from None


def parse_scalar(field, value, where):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputFormatError(f"{where}: expected a coefficient string, got {value!r}")
    try:
        return field.scalar(value if isinstance(value, int) else value.strip())
    except (ValueError, ArithmeticError, NotPLocalUnit) as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def poly_to_json(poly):
    return [scalar_str(c) for c in poly.coeffs]


def poly_from_json(field, data, where):
    if not isinstance(data, list):
        raise InputFormatError(f"{where}: expected a coefficient array")
    poly = Polynomial(field, [parse_scalar(field, c, f"{where}[{i}]") for i, c in enumerate(data)])
    if poly.degree > _MAX_DEGREE:
        raise InputFormatError(f"{where}: degree {poly.degree} must be at most {_MAX_DEGREE}")
    return poly


def map_from_json(field, data, where):
    if isinstance(data, list):
        body = RationalFunction(poly_from_json(field, data, where))
    elif isinstance(data, dict):
        extra = set(data) - {"num", "den"}
        if extra or "num" not in data or "den" not in data:
            raise InputFormatError(f'{where}: expected {{"num": [...], "den": [...]}}')
        num = poly_from_json(field, data["num"], f"{where}.num")
        den = poly_from_json(field, data["den"], f"{where}.den")
        if den.is_zero:
            raise InputFormatError(f"{where}.den: denominator is zero")
        body = RationalFunction(num, den)
    else:
        raise InputFormatError(f"{where}: expected an array or a num/den object")
    try:
        return RationalMap(body)
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def map_to_json(sigma):
    if sigma.is_polynomial:
        return poly_to_json(sigma.body.num)
    return {"num": poly_to_json(sigma.body.num), "den": poly_to_json(sigma.body.den)}


def form_from_json(field, data, where):
    if not isinstance(data, dict) or set(data) != {"num", "den", "weight"}:
        raise InputFormatError(
            f'{where}: expected {{"num": [...], "den": [...], "weight": nu}}'
        )
    num = poly_from_json(field, data["num"], f"{where}.num")
    den = poly_from_json(field, data["den"], f"{where}.den")
    weight = data["weight"]
    if isinstance(weight, bool) or not isinstance(weight, int) or weight == 0:
        raise InputFormatError(f"{where}.weight: must be a nonzero integer")
    if abs(weight) > _MAX_FORM_WEIGHT:
        raise InputFormatError(f"{where}.weight: |weight| must be at most {_MAX_FORM_WEIGHT}")
    if num.is_zero:
        raise InputFormatError(f"{where}.num: form coefficient must be nonzero")
    if den.is_zero:
        raise InputFormatError(f"{where}.den: denominator is zero")
    return DifferentialForm(RationalFunction(num, den), weight)


def form_to_json(omega):
    return {
        "num": poly_to_json(omega.coeff.num),
        "den": poly_to_json(omega.coeff.den),
        "weight": omega.weight,
    }


def divisor_to_json(div):
    return {
        "affine": [{"poly": poly_to_json(g), "mult": m} for g, m in div.affine],
        "infinity": div.at_infinity,
    }


def mobius_from_json(field, data, where):
    if not isinstance(data, dict) or set(data) != {"a", "b", "c", "d"}:
        raise InputFormatError(f'{where}: expected {{"a","b","c","d"}} entries')
    vals = {k: parse_scalar(field, data[k], f"{where}.{k}") for k in "abcd"}
    try:
        return MobiusTransform(field, vals["a"], vals["b"], vals["c"], vals["d"])
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def field_from_json(data, where):
    if data is None or data == "Q":
        return QQ
    if isinstance(data, dict) and set(data) == {"Fp"}:
        p = data["Fp"]
        if isinstance(p, bool) or not isinstance(p, int):
            raise InputFormatError(f"{where}.Fp: modulus must be an integer")
        try:
            return GF(p)
        except ValueError as exc:
            raise InputFormatError(f"{where}.Fp: {exc}") from None
    raise InputFormatError(f'{where}: expected "Q" or {{"Fp": p}}')


class ParsedDocument:
    """A parsed document: given_maps is the (sigma1, sigma2) the document gives.

    corr is the Correspondence of the maps after the Mobius change,
    phi o sigma o phi^{-1}.  Without a mobius it is built at load, so an
    inseparable map fails there; with one it is built on first use.  So a
    caller that works on the given pair and moves the form or the answer by
    phi, as `check` does for any phi and `detect` for an affine one,
    conjugates only when the given pair is refused, to name the conjugated
    maps in the message.
    """

    __slots__ = ("field", "omega", "mobius", "given_maps", "_corr")

    def __init__(self, field, omega, mobius, given_maps):
        self.field, self.omega, self.mobius, self.given_maps = field, omega, mobius, given_maps
        self._corr = Correspondence(*given_maps) if mobius is None else None  # inseparability is a math failure

    @property
    def corr(self):
        if self._corr is None:
            self._corr = Correspondence(*(mobius_conjugate(s, self.mobius) for s in self.given_maps))
        return self._corr


def document_from_json(obj):
    """Parse an input document: sigma1, sigma2, optional omega / field / mobius.

    mobius records a change phi; ParsedDocument.corr applies it.
    """
    if not isinstance(obj, dict):
        raise InputFormatError("document: expected a JSON object")
    unknown = set(obj) - {"sigma1", "sigma2", "omega", "field", "mobius"}
    if unknown:
        raise InputFormatError(f"document: unknown keys {sorted(unknown)}")
    for key in ("sigma1", "sigma2"):
        if key not in obj:
            raise InputFormatError(f"document: missing {key}")
    field = field_from_json(obj.get("field"), "field")
    sigma1 = map_from_json(field, obj["sigma1"], "sigma1")
    sigma2 = map_from_json(field, obj["sigma2"], "sigma2")
    omega = form_from_json(field, obj["omega"], "omega") if "omega" in obj else None
    mobius = mobius_from_json(field, obj["mobius"], "mobius") if "mobius" in obj else None
    return ParsedDocument(field, omega, mobius, (sigma1, sigma2))


def group_report_to_json(report):
    out = {"status": report.status}
    if report.status == "cyclic":
        out["weight"] = report.weight
        out["lambda"] = scalar_str(report.ratio)
        out["form"] = {k: scalar_str(v) for k, v in report.params.items()}
        out["flatness"] = report.flatness
    out["complete"] = report.complete
    return out


def sweep_entry_to_json(entry):
    out = {"p": entry.p, "status": entry.status, "guard": entry.guard}
    if entry.status == "skipped":
        out["reason"] = entry.reason
    elif entry.status == "cyclic":
        out["weight"] = entry.weight
        out["lambda"] = scalar_str(entry.ratio)
        out["form"] = {k: scalar_str(v) for k, v in entry.params.items()}
    return out


def sweep_summary_to_json(report):
    counts = report.counts()
    summary = {k: counts[k] for k in ("primes", "good", "skipped", "trivial", "weight1", "weight2")}
    summary["weight1_evidence"] = report.weight1_evidence
    return {"summary": summary}


def decomposition_to_json(dec):
    return {
        "sigma": poly_to_json(dec.sigma),
        "m": dec.m,
        "h": dec.h,
        "lambda1": scalar_str(dec.lambda1),
        "lambda2": scalar_str(dec.lambda2),
    }
