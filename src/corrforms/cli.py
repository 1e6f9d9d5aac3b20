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
import os
import sys

from .errors import CorrformsError, InputFormatError, NormalizationRequired
from .field import MAX_PRIME_MODULUS, QQ
from .geometry import divisor_of_form
from .invariance import (
    Correspondence,
    find_primitive,
    genus_conductor_bound,
    ramification_conductor_bound,
    semi_invariance_ratio,
)
from .serialize import (
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
from .sweep import _MAX_PRIME_RANGE, chebyshev, decompose_power_pair, multiplicative_pair, sweep


_MAX_GEN_DEGREE = 1024  # the largest degree of the sigma1 that gen writes


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
    doc = _load_document(args.file)
    omega = doc.omega
    if args.omega:
        omega = form_from_json(doc.field, _read_json(args.omega), "omega")
    if omega is None:
        raise InputFormatError("check needs a form: embed \"omega\" or pass --omega FILE")
    ratio = semi_invariance_ratio(doc.corr, omega)
    div = divisor_of_form(omega)
    out = {
        "semi_invariant": ratio is not None,
        "lambda": scalar_str(ratio) if ratio is not None else None,
        "weight": omega.weight,
        "divisor": divisor_to_json(div),
        "conductor": div.support_size(),
    }
    if ratio is not None and doc.corr.d1 > doc.corr.d2:
        bound = ramification_conductor_bound(doc.corr)
        out["bound"] = scalar_str(bound)
        out["holds"] = out["conductor"] <= bound
    else:
        out["bound"] = None
        out["holds"] = None
    _emit(out)


def cmd_detect(args):
    doc = _load_document(args.file)
    report = find_primitive(doc.corr)
    _emit(group_report_to_json(report))


def cmd_sweep(args):
    if args.pmin > args.pmax:
        raise InputFormatError(f"--pmin {args.pmin} exceeds --pmax {args.pmax}")
    if args.pmax >= MAX_PRIME_MODULUS:
        raise InputFormatError(f"--pmax {args.pmax} must be below 2**31")
    if args.pmax - args.pmin > _MAX_PRIME_RANGE:
        raise InputFormatError(f"--pmax - --pmin must be at most {_MAX_PRIME_RANGE}")
    # read per call, not when the cached parser was built
    jobs = _default_jobs() if args.jobs is None else args.jobs
    if jobs < 1:
        raise InputFormatError(f"--jobs must be a positive integer (got {jobs})")
    doc = _load_document(args.file)
    report = sweep(doc.corr, args.pmin, args.pmax, jobs=jobs)
    for entry in report.entries:
        _emit(sweep_entry_to_json(entry))
    _emit(sweep_summary_to_json(report))


def cmd_decompose(args):
    doc = _load_document(args.file)
    corr = doc.corr
    if not corr.is_polynomial_pair:
        raise NormalizationRequired("decompose needs polynomial maps")
    dec = decompose_power_pair(corr.sigma1.polynomial, corr.sigma2.polynomial)
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
        _check_gen_degree(args.m * sigma.degree)
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
    if degree > _MAX_GEN_DEGREE:
        raise InputFormatError(f"gen: deg sigma1 = {degree} must be at most {_MAX_GEN_DEGREE}")


def _default_jobs():
    raw = os.environ.get("CORRFORMS_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(jobs, 1)


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
    p_sweep.add_argument("--jobs", type=int)
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
