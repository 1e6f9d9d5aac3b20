"""Command-line front end.

The CLI is a thin adapter: each subcommand parses JSON, calls one library
entry point and renders its result; no mathematics happens here.  Exit
codes: 0 on success (a trivial group or an absent form is still success),
2 on usage/parse errors, 3 on violated mathematical preconditions, 4 on a bug.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import CorrformsError, InputFormatError, NormalizationRequired, UnsupportedEqualDegrees
from .field import QQ
from .geometry import divisor_of_form, pullback
from .invariance import (
    Correspondence,
    _moved_by_affine,
    find_primitive,
    genus_conductor_bound,
    ramification_conductor_bound,
    semi_invariance_ratio,
)
from .serialize import (
    _MAX_CHECK_DEGREE,
    _MAX_CHECK_FORM_DEGREE,
    _MAX_DEGREE,
    decomposition_to_json,
    divisor_to_json,
    document_from_json,
    form_from_json,
    group_report_to_json,
    map_to_json,
    poly_from_json,
    scalar_str,
    sweep_entry_to_json,
    sweep_summary_to_json,
)
from .sweep import chebyshev, decompose_power_pair, multiplicative_pair, sweep


def _emit(obj):
    print(json.dumps(obj))


def _parse_json(data, where):
    """JSON from UTF-8 bytes or text; undecodable or too deeply nested input is an InputFormatError."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"{where}: invalid JSON ({exc})") from None


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    return _parse_json(data, path)


def _load_document(path):
    return document_from_json(_read_json(path))


def cmd_check(args):
    """Decide sigma1^* omega = lambda sigma2^* omega and compare the conductor with the bound.

    With a mobius phi the document's pair is phi sigma_i phi^{-1}, and
    (phi sigma_i phi^{-1})^* omega = (phi^{-1})^* sigma_i^* (phi^* omega), so
    the given pair decides it against phi^* omega, with the same lambda.  It
    gives the same bound too: conjugation keeps both degrees, and
    Riemann-Hurwitz fixes deg R_sigma = 2 deg sigma - 2.  The caps are checked
    on omega as given, and the divisor and conductor are omega's.  Only a
    refusal conjugates (_given_pair_first).
    """
    doc = _load_document(args.file)
    _emit(_given_pair_first(doc, lambda corr, phi: _check(doc, corr, phi, args.omega)))


def _check(doc, corr, phi, omega_path):
    """check's output for corr, deciding semi-invariance against phi^* omega when phi is not None."""
    omega = doc.omega
    if omega_path:
        omega = form_from_json(doc.field, _read_json(omega_path), "omega")
    if omega is None:
        raise InputFormatError("check needs a form: embed \"omega\" or pass --omega FILE")
    n = max(omega.coeff.num.degree, omega.coeff.den.degree)
    work = max(corr.d1, corr.d2) * (n + 2 * abs(omega.weight))
    if work > _MAX_CHECK_DEGREE:
        raise InputFormatError(
            f"check: max(d1, d2) * (n + 2|weight|) = {work} must be at most {_MAX_CHECK_DEGREE},"
            " where n is the larger degree of omega's num and den"
        )
    if n > _MAX_CHECK_FORM_DEGREE:
        raise InputFormatError(
            f"check: n = {n} must be at most {_MAX_CHECK_FORM_DEGREE},"
            " where n is the larger degree of omega's num and den"
        )
    ratio = semi_invariance_ratio(corr, omega if phi is None else pullback(phi.as_map(), omega))
    div = divisor_of_form(omega)
    out = {
        "semi_invariant": ratio is not None,
        "lambda": scalar_str(ratio) if ratio is not None else None,
        "weight": omega.weight,
        "divisor": divisor_to_json(div),
        "conductor": div.support_size(),
    }
    out["bound"] = out["holds"] = None
    if ratio is not None:
        try:
            bound = ramification_conductor_bound(corr)
        except UnsupportedEqualDegrees:  # the bound needs d1 > d2
            pass
        else:
            out["bound"] = scalar_str(bound)
            out["holds"] = out["conductor"] <= bound
    return out


def _given_pair_first(doc, job):
    """job(given pair, phi) for a document with a mobius phi; job(doc.corr, None) without one, or on a refusal.

    Pullback is functorial, so the given pair answers for phi sigma_i phi^{-1}
    once job moves the form or the answer by phi.  Any CorrformsError on the
    given pair is dropped and job runs again on doc.corr, the conjugated
    pair, so that every message names the conjugated maps, in the order the
    conjugate-first path meets them: a refused pair before any --omega read.
    """
    phi = doc.mobius
    if phi is not None:
        try:
            return job(Correspondence(*doc.given_maps), phi)
        except CorrformsError:
            pass
    return job(doc.corr, None)


def _solve(doc, solver, *args, needs=("flat-form solvers need", "solve")):
    """solver(doc.corr, *args); a refusal of rational maps that the document's mobius made names it.

    needs is (who needs polynomial maps, what to do with the pair), as the message says them.
    """
    try:
        return solver(doc.corr, *args)
    except NormalizationRequired:
        if doc.mobius is None or not all(s.is_polynomial for s in doc.given_maps):
            raise
        raise NormalizationRequired(
            f"mobius: c != 0 makes the maps rational, and {needs[0]} polynomial maps;"
            f' {needs[1]} the pair without "mobius"'
        ) from None


def cmd_detect(args):
    """find_primitive on doc.corr; with an affine mobius phi, on the given pair, moved by phi.

    Conjugation by phi(t) = alpha t + beta keeps polynomial maps polynomial and
    moves the unique flat answer by phi, so the given pair is solved on its own
    coefficients and only the parameters move.  With c != 0 doc.corr is solved,
    and _solve names the mobius when it refuses rational conjugated maps.
    """
    _emit(group_report_to_json(_detect(_load_document(args.file))))


def _detect(doc):
    if doc.mobius is not None and doc.mobius.c:
        return _solve(doc, find_primitive)
    return _given_pair_first(doc, lambda corr, phi: _moved_by_affine(find_primitive(corr), phi))


def cmd_sweep(args):
    if args.pmin > args.pmax:
        raise InputFormatError(f"--pmin {args.pmin} exceeds --pmax {args.pmax}")
    doc = _load_document(args.file)
    try:
        report = _solve(doc, sweep, args.pmin, args.pmax, args.jobs)
    except InputFormatError as exc:  # sweep() owns its bounds; name them as flags
        raise InputFormatError(f"--{exc}") from None
    for entry in report.entries:
        _emit(sweep_entry_to_json(entry))
    _emit(sweep_summary_to_json(report))


def _decompose(corr):
    if not corr.is_polynomial_pair:
        raise NormalizationRequired("decompose needs polynomial maps")
    return decompose_power_pair(corr.sigma1.polynomial, corr.sigma2.polynomial)


def cmd_decompose(args):
    dec = _solve(_load_document(args.file), _decompose, needs=("decompose needs", "decompose"))
    if dec is None:
        _emit({"result": "none"})
    else:
        _emit(decomposition_to_json(dec))


def cmd_bound(args):
    try:
        value = genus_conductor_bound(args.gx, args.gy, args.d1, args.d2)
    except ValueError as exc:
        raise InputFormatError(f"bound: {exc}") from exc
    _emit({"bound": scalar_str(value)})


def cmd_gen(args):
    if args.family == "multiplicative":
        sigma_coeffs = _parse_json(args.sigma, "--sigma") if args.sigma else ["0", "1"]
        sigma = poly_from_json(QQ, sigma_coeffs, "--sigma")
        _check_gen_degree(args.m * max(sigma.degree, 0))
        try:
            corr = multiplicative_pair(sigma, args.m, args.h)
        except ValueError as exc:
            raise InputFormatError(f"gen multiplicative: {exc}") from exc
        omega = {"num": ["1"], "den": ["0", "1"], "weight": 1}  # dt/t
    else:  # chebyshev
        if not args.d1 > args.d2 >= 1:
            raise InputFormatError("gen chebyshev needs --d1 > --d2 >= 1")
        _check_gen_degree(args.d1)
        corr = Correspondence(chebyshev(args.d1), chebyshev(args.d2))
        omega = {"num": ["1"], "den": ["-4", "0", "1"], "weight": 2}  # (dt)^2/(t^2-4)
    _emit(
        {
            "sigma1": map_to_json(corr.sigma1),
            "sigma2": map_to_json(corr.sigma2),
            "omega": omega,
            "field": "Q",
        }
    )


def _check_gen_degree(degree):
    if degree > _MAX_DEGREE:
        raise InputFormatError(f"gen: deg sigma1 = {degree} must be at most {_MAX_DEGREE}")


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="corrforms",
        description="Semi-invariant differential forms of correspondences of the line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify semi-invariance of a given form")
    p_check.add_argument("file", help="input document (JSON)")
    p_check.add_argument("--omega", help="read the form from a separate JSON file")
    p_check.set_defaults(func=cmd_check)

    p_detect = sub.add_parser("detect", help="search for a flat primitive form")
    p_detect.add_argument("file")
    p_detect.set_defaults(func=cmd_detect)

    p_sweep = sub.add_parser("sweep", help="reduce mod p over a prime range and detect")
    p_sweep.add_argument("file")
    p_sweep.add_argument("--pmin", type=int, required=True)
    p_sweep.add_argument("--pmax", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1, help="validated; has no effect")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dec = sub.add_parser("decompose", help="recognize a common-power pair")
    p_dec.add_argument("file")
    p_dec.set_defaults(func=cmd_decompose)

    p_bound = sub.add_parser("bound", help="exact conductor bound from genera and degrees")
    p_bound.add_argument("--gx", type=int, required=True)
    p_bound.add_argument("--gy", type=int, required=True)
    p_bound.add_argument("--d1", type=int, required=True)
    p_bound.add_argument("--d2", type=int, required=True)
    p_bound.set_defaults(func=cmd_bound)

    p_gen = sub.add_parser("gen", help="emit example input documents")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_mult = gen_sub.add_parser("multiplicative", help="(sigma^m, sigma^h) with dt/t")
    g_mult.add_argument("--sigma", help='coefficient array, e.g. \'["0","1"]\' (default t)')
    g_mult.add_argument("--m", type=int, required=True)
    g_mult.add_argument("--h", type=int, required=True)
    g_mult.set_defaults(func=cmd_gen)
    g_cheb = gen_sub.add_parser("chebyshev", help="(T_d1, T_d2) with (dt)^2/(t^2-4)")
    g_cheb.add_argument("--d1", type=int, required=True)
    g_cheb.add_argument("--d2", type=int, required=True)
    g_cheb.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CorrformsError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
