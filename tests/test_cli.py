"""Command-line interface: output schemas, exit codes, and consistency with
the library calls it wraps."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corrforms import geometry, serialize
from corrforms.cli import main
from corrforms.field import QQ
from corrforms.invariance import Correspondence, find_primitive
from corrforms.poly import Polynomial, SquarefreeDecomposition
from corrforms.ratfunc import _wronskian
from corrforms.serialize import poly_from_json
from corrforms.sweep import sweep

from conftest import qp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CUBIC_PAIR = {
    "sigma1": ["0", "0", "0", "1"],
    "sigma2": ["0", "1"],
    "omega": {"num": ["1"], "den": ["0", "1"], "weight": 1},
}

CHEB_PAIR = {
    "sigma1": ["2", "0", "-4", "0", "1"],
    "sigma2": ["-2", "0", "1"],
}


def test_check_reports_invariance(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", CUBIC_PAIR)
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0 and err == ""
    got = json.loads(out)
    assert got == {
        "semi_invariant": True,
        "lambda": "3",
        "weight": 1,
        "divisor": {"affine": [{"poly": ["0", "1"], "mult": -1}], "infinity": -1},
        "conductor": 2,
        "bound": "4",
        "holds": True,
    }


def test_check_rejects_missing_form(tmp_path, capsys):
    doc = {k: v for k, v in CUBIC_PAIR.items() if k != "omega"}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "check", path)
    assert code == 2
    assert "omega" in err


def test_check_reads_the_form_from_omega_file(tmp_path, capsys):
    embedded = write_doc(tmp_path, "embedded.json", CUBIC_PAIR)
    bare = write_doc(tmp_path, "bare.json", {k: v for k, v in CUBIC_PAIR.items() if k != "omega"})
    omega = write_doc(tmp_path, "omega.json", CUBIC_PAIR["omega"])
    code, out, err = run_cli(capsys, "check", bare, "--omega", omega)
    assert code == 0 and err == ""
    assert json.loads(out)["lambda"] == "3" and json.loads(out)["bound"] == "4"
    assert run_cli(capsys, "check", embedded) == (0, out, "")


def test_check_rejects_bad_omega_file(tmp_path, capsys):
    bare = write_doc(tmp_path, "bare.json", {k: v for k, v in CUBIC_PAIR.items() if k != "omega"})
    heavy = write_doc(tmp_path, "omega.json", {**CUBIC_PAIR["omega"], "weight": 65})
    assert run_cli(capsys, "check", bare, "--omega", heavy) == (
        2, "", "error: omega.weight: |weight| must be at most 64\n"
    )
    code, out, err = run_cli(capsys, "check", bare, "--omega", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ") and len(err.splitlines()) == 1


def test_check_accepts_equal_degrees_without_bound(tmp_path, capsys):
    # no bound unless d1 > d2: (t^2, t^2) with lambda 1, and (t^2, t^3) with lambda 2/3
    omega = {"num": ["1"], "den": ["0", "1"], "weight": 1}
    for sigma2, lam in ((["0", "0", "1"], "1"), (["0", "0", "0", "1"], "2/3")):
        doc = {"sigma1": ["0", "0", "1"], "sigma2": sigma2, "omega": omega}
        path = write_doc(tmp_path, "doc.json", doc)
        code, out, err = run_cli(capsys, "check", path)
        assert code == 0
        got = json.loads(out)
        assert got["semi_invariant"] is True
        assert got["lambda"] == lam
        assert got["bound"] is None and got["holds"] is None


def test_detect_weight1(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", CUBIC_PAIR)
    code, out, err = run_cli(capsys, "detect", path)
    assert code == 0
    assert json.loads(out) == {
        "status": "cyclic",
        "weight": 1,
        "lambda": "3",
        "form": {"a": "0"},
        "flatness": "weight1",
        "complete": False,
    }


def test_detect_weight2(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", CHEB_PAIR)
    code, out, err = run_cli(capsys, "detect", path)
    assert code == 0
    got = json.loads(out)
    assert got["weight"] == 2
    assert got["lambda"] == "4"
    assert got["form"] == {"s": "0", "q": "-4"}


def test_detect_trivial_is_exit_zero(tmp_path, capsys):
    doc = {"sigma1": ["0", "1", "0", "1"], "sigma2": ["0", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "detect", path)
    assert code == 0
    got = json.loads(out)
    assert got["status"] == "trivial"


def test_detect_equal_degrees_is_math_error(tmp_path, capsys):
    doc = {"sigma1": ["0", "0", "1"], "sigma2": ["1", "0", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "detect", path)
    assert code == 3
    assert "deg" in err


def test_bad_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    code, out, err = run_cli(capsys, "detect", str(path))
    assert code == 2
    code, out, err = run_cli(capsys, "detect", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["detect"], b"[" * 100000),
        (["detect"], b'{"field": {"Fp": 1' + b"0" * 5000 + b"}}"),
        (["detect"], b"\xff\xfe"),
        (["gen", "multiplicative", "--m", "3", "--h", "1", "--sigma", "[" * 100000], None),
        (["gen", "multiplicative", "--m", "3", "--h", "1", "--sigma", "[1" + "0" * 5000 + "]"], None),
    ],
    ids=["deep_document", "long_integer", "not_utf8", "deep_sigma", "long_integer_sigma"],
)
def test_undecodable_json_is_usage_error(tmp_path, capsys, argv, payload):
    if payload is not None:
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        argv = [*argv, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "invalid JSON" in err and len(err.splitlines()) == 1, err


MALFORMED_DOCUMENTS = {
    "sigma1.den: denominator is zero": {"sigma1": {"num": ["0", "1"], "den": ["0"]}, "sigma2": ["0", "1"]},
    "sigma1: expected an array or a num/den object": {"sigma1": "t^3", "sigma2": ["0", "1"]},
    'omega: expected {"num": [...], "den": [...], "weight": nu}': {**CUBIC_PAIR, "omega": ["1"]},
    "omega.den: denominator is zero": {**CUBIC_PAIR, "omega": {"num": ["1"], "den": ["0"], "weight": 1}},
    'mobius: expected {"a","b","c","d"} entries': {**CUBIC_PAIR, "mobius": {"a": "1", "d": "1"}},
    "field.Fp: modulus must be an integer": {**CUBIC_PAIR, "field": {"Fp": "7"}},
}


@pytest.mark.parametrize("message", MALFORMED_DOCUMENTS)
def test_malformed_document_is_usage_error(tmp_path, capsys, message):
    path = write_doc(tmp_path, "doc.json", MALFORMED_DOCUMENTS[message])
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


GF5_CUBIC_PAIR = {**CUBIC_PAIR, "field": {"Fp": 5}}


@pytest.mark.parametrize(
    "where, doc, omega",
    [
        ("sigma1[3]", {**GF5_CUBIC_PAIR, "sigma1": ["0", "0", "0", "1/5"]}, None),
        ("omega.num[0]", {**GF5_CUBIC_PAIR, "omega": {"num": ["1/5"], "den": ["0", "1"], "weight": 1}}, None),
        ("omega.num[0]", GF5_CUBIC_PAIR, {"num": ["1/5"], "den": ["0", "1"], "weight": 1}),
        ("mobius.a", {**GF5_CUBIC_PAIR, "mobius": {"a": "1/5", "b": "0", "c": "0", "d": "1"}}, None),
    ],
    ids=["sigma1", "omega", "omega_file", "mobius"],
)
def test_a_coefficient_with_no_residue_mod_p_is_usage_error(tmp_path, capsys, where, doc, omega):
    # 1/5 has no residue mod 5: like 1/0, an input error that names its JSON path
    argv = ["check", write_doc(tmp_path, "doc.json", doc)]
    if omega is not None:
        argv += ["--omega", write_doc(tmp_path, "omega.json", omega)]
    assert run_cli(capsys, *argv) == (2, "", f"error: {where}: denominator of 1/5 is divisible by 5\n")


def test_sweep_output_matches_library(tmp_path, capsys):
    doc = {"sigma1": ["1", "0", "3", "0", "3", "0", "1"], "sigma2": ["1", "0", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "sweep", path, "--pmin", "29", "--pmax", "60")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    entries, summary = lines[:-1], lines[-1]
    assert [e["p"] for e in entries] == [29, 31, 37, 41, 43, 47, 53, 59]
    for e in entries:
        assert e["status"] == "cyclic" and e["guard"] is True
        assert e["lambda"] == "3" and e["form"] == {"a": "0"}
    assert summary == {
        "summary": {
            "primes": 8,
            "good": 8,
            "skipped": 0,
            "trivial": 0,
            "weight1": 8,
            "weight2": 0,
            "weight1_evidence": True,
        }
    }
    # the library agrees
    s2 = qp(1, 0, 1)
    rep = sweep(Correspondence(s2**3, s2), 29, 60)
    assert rep.counts()["weight1"] == 8


def test_sweep_jobs_flag_is_deterministic(tmp_path, capsys):
    doc = {"sigma1": ["1", "0", "3", "0", "3", "0", "1"], "sigma2": ["1", "0", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code1, out1, _ = run_cli(capsys, "sweep", path, "--pmin", "29", "--pmax", "80")
    code2, out2, _ = run_cli(
        capsys, "sweep", path, "--pmin", "29", "--pmax", "80", "--jobs", "4"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_reads_corrforms_jobs_on_every_call(tmp_path, capsys, monkeypatch):
    # CORRFORMS_JOBS is ignored: --jobs reaches sweep() as given, else as 1,
    # and the parser is built once per process.
    import importlib

    cli = importlib.import_module("corrforms.cli")
    widths = []

    def recording_sweep(corr, pmin, pmax, jobs):
        widths.append(jobs)
        return sweep(corr, pmin, pmax, jobs=1)

    monkeypatch.setattr(cli, "sweep", recording_sweep)
    path = write_doc(tmp_path, "doc.json", CUBIC_PAIR)
    argv = ("sweep", path, "--pmin", "29", "--pmax", "60")
    outs = []
    for value in ("3", "1", "junk", "-2"):
        monkeypatch.setenv("CORRFORMS_JOBS", value)
        outs.append(run_cli(capsys, *argv))
    outs.append(run_cli(capsys, *argv, "--jobs", "2"))
    monkeypatch.delenv("CORRFORMS_JOBS")
    outs.append(run_cli(capsys, *argv))
    assert widths == [1, 1, 1, 1, 2, 1]
    assert len(set(outs)) == 1 and outs[0][0] == 0
    assert cli.build_parser() is cli.build_parser()


def test_sweep_bad_range(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", CUBIC_PAIR)
    code, out, err = run_cli(capsys, "sweep", path, "--pmin", "50", "--pmax", "20")
    assert code == 2


@pytest.mark.parametrize(
    "bad",
    [
        ("--pmin", "2", "--pmax", "10", "--jobs", "0"),
        ("--pmin", "2", "--pmax", "10", "--jobs", "-3"),
        ("--pmin", "2147483640", "--pmax", "2147483700"),
        ("--pmin", "2", "--pmax", "2147483647"),  # a valid modulus, but 2**31 integers to test
    ],
)
def test_sweep_rejects_bad_jobs_and_prime_cap(tmp_path, capsys, bad):
    path = write_doc(tmp_path, "doc.json", CUBIC_PAIR)
    code, out, err = run_cli(capsys, "sweep", path, *bad)
    assert code == 2 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bad, message",
    [
        (("--pmin", "2", "--pmax", "10", "--jobs", "0"), "--jobs must be a positive integer (got 0)"),
        (("--pmin", "2147483640", "--pmax", "2147483700"), "--pmax 2147483700 must be below 2**31"),
        (("--pmin", "2", "--pmax", "2147483647"), "--pmax - pmin must be at most 1000000"),
    ],
)
def test_sweep_bounds_are_checked_by_the_library(tmp_path, capsys, monkeypatch, bad, message):
    # the CLI restates none of sweep()'s bounds: it reaches sweep() and names the flag
    import importlib

    cli = importlib.import_module("corrforms.cli")
    calls = []

    def recording_sweep(corr, pmin, pmax, jobs):
        calls.append((pmin, pmax, jobs))
        return sweep(corr, pmin, pmax, jobs=jobs)

    monkeypatch.setattr(cli, "sweep", recording_sweep)
    path = write_doc(tmp_path, "doc.json", CUBIC_PAIR)
    code, out, err = run_cli(capsys, "sweep", path, *bad)
    assert len(calls) == 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


INSEPARABLE_FP_DOC = {"sigma1": ["1", "0", "0", "0", "0", "1"], "sigma2": ["0", "1", "1"], "field": {"Fp": 5}}


@pytest.mark.parametrize("command", ["detect", "check", "decompose"])
def test_inseparable_fp_document_is_a_precondition_error(tmp_path, capsys, command):
    path = write_doc(tmp_path, "doc.json", INSEPARABLE_FP_DOC)
    code, out, err = run_cli(capsys, command, path)
    assert (code, out, err) == (3, "", "error: sigma1 = t^5 + 1 is inseparable\n")


def test_sweep_all_trivial_is_exit_zero(tmp_path, capsys):
    # absence of forms at every prime is a valid answer, not an error
    doc = {"sigma1": ["0", "1", "0", "1"], "sigma2": ["0", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "sweep", path, "--pmin", "7", "--pmax", "30")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    entries, summary = lines[:-1], lines[-1]
    assert all(e["status"] in ("trivial", "skipped") for e in entries)
    assert summary["summary"]["weight1"] == 0
    assert summary["summary"]["trivial"] > 0


def test_decompose(tmp_path, capsys):
    doc = {"sigma1": ["0", "0", "0", "0", "0", "0", "1"], "sigma2": ["0", "0", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "decompose", path)
    assert code == 0
    assert json.loads(out) == {
        "sigma": ["0", "0", "1"],
        "m": 3,
        "h": 1,
        "lambda1": "1",
        "lambda2": "1",
    }


def test_decompose_absent(tmp_path, capsys):
    doc = {"sigma1": ["0", "0", "1", "1"], "sigma2": ["0", "1", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "decompose", path)
    assert code == 0
    assert json.loads(out) == {"result": "none"}


def test_decompose_finite_field_rejected(tmp_path, capsys):
    doc = {
        "sigma1": ["0", "0", "0", "0", "0", "0", "1"],
        "sigma2": ["0", "0", "1"],
        "field": {"Fp": 7},
    }
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "decompose", path)
    assert code == 3


def test_cli_sweep_weight_two_entries(tmp_path, capsys):
    # (T4, T2): entries carry the weight-2 form parameters (s, q) = (0, -4 mod p)
    doc = {"sigma1": ["2", "0", "-4", "0", "1"], "sigma2": ["-2", "0", "1"]}
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "sweep", path, "--pmin", "17", "--pmax", "40")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    entries, summary = lines[:-1], lines[-1]
    good = [e for e in entries if e["status"] == "cyclic"]
    assert good and all(e["weight"] == 2 for e in good)
    for e in good:
        assert e["form"]["s"] == "0"
        assert int(e["form"]["q"]) % e["p"] == (-4) % e["p"]
    assert summary["summary"]["weight2"] == len(good)


def test_bound(capsys):
    code, out, err = run_cli(capsys, "bound", "--gx", "0", "--gy", "0", "--d1", "6", "--d2", "2")
    assert code == 0
    assert json.loads(out) == {"bound": "11/2"}
    code, out, err = run_cli(capsys, "bound", "--gx", "1", "--gy", "1", "--d1", "5", "--d2", "2")
    assert code == 0
    assert json.loads(out) == {"bound": "0"}


def test_bound_equal_degrees_rejected(capsys):
    code, out, err = run_cli(capsys, "bound", "--gx", "0", "--gy", "0", "--d1", "2", "--d2", "2")
    assert code == 3
    assert "d1" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--gx", "-1"), ("--d1", "0"), ("--d2", "-1")],
)
def test_bound_rejects_bad_genus_or_degree(capsys, flag, value):
    flags = {"--gx": "0", "--gy": "0", "--d1": "5", "--d2": "2", flag: value}
    code, out, err = run_cli(capsys, "bound", *[x for pair in flags.items() for x in pair])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_gen_multiplicative_feeds_detect(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen", "multiplicative", "--m", "5", "--h", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma1"] == ["0", "0", "0", "0", "0", "1"]
    assert doc["sigma2"] == ["0", "0", "1"]
    path = write_doc(tmp_path, "gen.json", doc)
    code, out, err = run_cli(capsys, "detect", path)
    assert code == 0
    got = json.loads(out)
    assert got["weight"] == 1 and got["lambda"] == "5/2"


def test_gen_chebyshev_feeds_check(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen", "chebyshev", "--d1", "6", "--d2", "2")
    assert code == 0
    doc = json.loads(out)
    path = write_doc(tmp_path, "gen.json", doc)
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0
    got = json.loads(out)
    assert got["semi_invariant"] is True
    assert got["lambda"] == "9"


def test_sweep_of_gen_chebyshev_prints_its_pinned_output(tmp_path, capsys):
    # the skip reason at p = 2 embeds squarefree_decompose's WildInput message;
    # the CI packaging step compares the installed entry point with the same file
    code, out, err = run_cli(capsys, "gen", "chebyshev", "--d1", "7", "--d2", "2")
    assert code == 0
    path = tmp_path / "cheb.json"
    path.write_text(out)
    expected = (Path(__file__).resolve().parent / "cli_output" / "sweep_chebyshev_7_2.txt").read_text(encoding="utf-8")
    assert run_cli(capsys, "sweep", str(path), "--pmin", "2", "--pmax", "100") == (0, expected, "")
    assert len(expected.splitlines()) == 26
    assert "sigma1: derivative of t^6 + t^4 + 1 vanishes in characteristic 2" in expected


def test_gen_rejects_bad_parameters(capsys):
    code, out, err = run_cli(capsys, "gen", "multiplicative", "--m", "4", "--h", "2")
    assert code == 2
    code, out, err = run_cli(capsys, "gen", "chebyshev", "--d1", "2", "--d2", "4")
    assert code == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["multiplicative", "--m", "3", "--h", "2"],
         '{"sigma1": ["0", "0", "0", "1"], "sigma2": ["0", "0", "1"], '
         '"omega": {"num": ["1"], "den": ["0", "1"], "weight": 1}, "field": "Q"}'),
        (["chebyshev", "--d1", "3", "--d2", "1"],
         '{"sigma1": ["0", "-3", "0", "1"], "sigma2": ["0", "1"], '
         '"omega": {"num": ["1"], "den": ["-4", "0", "1"], "weight": 2}, "field": "Q"}'),
    ],
    ids=["multiplicative", "chebyshev"],
)
def test_gen_prints_the_frozen_document(capsys, argv, expected):
    assert run_cli(capsys, "gen", *argv) == (0, expected + "\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["multiplicative", "--m", "1025", "--h", "1"],
        ["multiplicative", "--m", "205", "--h", "2", "--sigma", '["0", "1", "0", "0", "0", "1"]'],
        ["chebyshev", "--d1", "1025", "--d2", "1"],
    ],
    ids=["multiplicative", "multiplicative_sigma", "chebyshev"],
)
def test_gen_caps_the_degree_before_computing(capsys, monkeypatch, argv):
    def unreachable(*args):
        raise AssertionError("gen computed a pair above the degree cap")

    monkeypatch.setattr("corrforms.cli.multiplicative_pair", unreachable)
    monkeypatch.setattr("corrforms.cli.chebyshev", unreachable)
    assert run_cli(capsys, "gen", *argv) == (2, "", "error: gen: deg sigma1 = 1025 must be at most 1024\n")


@pytest.mark.parametrize("sigma", ["[]", '["0"]'], ids=["empty", "zero"])
def test_gen_names_a_zero_sigma_under_a_negative_m(capsys, sigma):
    # deg 0 = -inf, so m = -1 once made the capped degree +inf; the cap reads
    # deg sigma as at least 0 and multiplicative_pair names the real fault
    argv = ["gen", "multiplicative", "--m", "-1", "--h", "1", "--sigma", sigma]
    assert run_cli(capsys, *argv) == (2, "", "error: gen multiplicative: sigma must be a nonconstant Polynomial\n")


def test_gen_caps_the_default_sigma(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("gen computed a pair above the degree cap")

    monkeypatch.setattr("corrforms.cli.multiplicative_pair", unreachable)
    argv = ["gen", "multiplicative", "--m", "2000", "--h", "1"]
    assert run_cli(capsys, *argv) == (2, "", "error: gen: deg sigma1 = 2000 must be at most 1024\n")


TOO_HIGH = ["0"] * 1025 + ["1"]  # t^1025, one degree above the cap


@pytest.mark.parametrize(
    "command, doc, omega, where",
    [
        ("check", {**CUBIC_PAIR, "sigma1": TOO_HIGH}, None, "sigma1"),
        ("check", {**CUBIC_PAIR, "omega": {**CUBIC_PAIR["omega"], "den": TOO_HIGH}}, None, "omega.den"),
        ("check", {"sigma1": ["0", "1", "1"], "sigma2": ["0", "1"]}, {**CUBIC_PAIR["omega"], "num": TOO_HIGH}, "omega.num"),
        ("detect", {**CUBIC_PAIR, "sigma2": {"num": TOO_HIGH, "den": ["1", "1"]}}, None, "sigma2.num"),
    ],
    ids=["check_sigma1", "check_omega_den", "check_omega_file", "detect_sigma2_num"],
)
def test_documents_cap_polynomial_degrees_before_computing(tmp_path, capsys, monkeypatch, command, doc, omega, where):
    def unreachable(*args):
        raise AssertionError("a polynomial above the degree cap reached the library")

    monkeypatch.setattr("corrforms.cli.semi_invariance_ratio", unreachable)
    monkeypatch.setattr("corrforms.cli.find_primitive", unreachable)
    argv = [command, write_doc(tmp_path, "doc.json", doc)]
    if omega is not None:
        argv += ["--omega", write_doc(tmp_path, "omega.json", omega)]
    assert run_cli(capsys, *argv) == (2, "", f"error: {where}: degree 1025 must be at most 1024\n")


def test_degree_cap_counts_the_degree_not_the_array(tmp_path, capsys):
    # trailing zeros are stripped first, and degree 1024 itself is accepted
    assert poly_from_json(QQ, ["0"] * 1024 + ["1"], "x").degree == 1024
    doc = {**CUBIC_PAIR, "sigma1": CUBIC_PAIR["sigma1"] + ["0"] * 2000}
    assert run_cli(capsys, "check", write_doc(tmp_path, "doc.json", doc)) == run_cli(
        capsys, "check", write_doc(tmp_path, "cubic.json", CUBIC_PAIR)
    )


def _power(d):
    return ["0"] * d + ["1"]  # t^d


def _reaches_ratio(monkeypatch):
    """Replace the semi-invariance test by a stand-in; the list records its calls."""
    calls = []
    monkeypatch.setattr("corrforms.cli.semi_invariance_ratio", lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize(
    "doc, omega, work",
    [
        ({"sigma1": _power(91), "sigma2": _power(2), "omega": {"num": _power(90), "den": ["1"], "weight": 1}}, None, 8372),
        ({"sigma1": _power(1024), "sigma2": _power(1)}, {"num": ["1"], "den": _power(5), "weight": 2}, 9216),
        ({"sigma1": _power(1), "sigma2": _power(1024)}, {"num": ["1"], "den": ["0", "1"], "weight": -4}, 9216),
    ],
    ids=["embedded", "omega_file", "negative_weight_larger_d2"],
)
def test_check_bounds_the_pullback_degree_before_computing(tmp_path, capsys, monkeypatch, doc, omega, work):
    calls = _reaches_ratio(monkeypatch)
    argv = ["check", write_doc(tmp_path, "doc.json", doc)]
    if omega is not None:
        argv += ["--omega", write_doc(tmp_path, "omega.json", omega)]
    message = (
        f"error: check: max(d1, d2) * (n + 2|weight|) = {work} must be at most 8192,"
        " where n is the larger degree of omega's num and den\n"
    )
    assert run_cli(capsys, *argv) == (2, "", message)
    assert calls == []


def test_check_accepts_the_pullback_degree_bound_itself(tmp_path, capsys, monkeypatch):
    calls = _reaches_ratio(monkeypatch)
    doc = {"sigma1": _power(1024), "sigma2": _power(1), "omega": {"num": ["1"], "den": _power(4), "weight": 2}}
    code, out, err = run_cli(capsys, "check", write_doc(tmp_path, "doc.json", doc))  # 1024 * (4 + 2 * 2) = 8192
    assert (code, err, len(calls)) == (0, "", 1)
    assert json.loads(out)["semi_invariant"] is False


def _form_of_degree(n, side):
    """(dt) t^n or (dt) / t^n: the form's num or den has degree n."""
    return {"num": _power(n), "den": ["1"], "weight": 1} if side == "num" else {"num": ["1"], "den": _power(n), "weight": 1}


def _check_argv(tmp_path, omega, embedded):
    maps = {"sigma1": _power(3), "sigma2": _power(1)}  # D = 3 * (n + 2) stays far below 8192
    if embedded:
        return ["check", write_doc(tmp_path, "doc.json", {**maps, "omega": omega})]
    return ["check", write_doc(tmp_path, "maps.json", maps), "--omega", write_doc(tmp_path, "omega.json", omega)]


@pytest.mark.parametrize("side", ["num", "den"])
@pytest.mark.parametrize("embedded", [True, False], ids=["embedded", "omega_file"])
def test_check_caps_the_form_degree_before_computing(tmp_path, capsys, monkeypatch, side, embedded):
    def unreachable(*args):
        raise AssertionError("a form above the degree cap reached the library")

    monkeypatch.setattr("corrforms.cli.semi_invariance_ratio", unreachable)
    monkeypatch.setattr("corrforms.cli.divisor_of_form", unreachable)
    message = "error: check: n = 129 must be at most 128, where n is the larger degree of omega's num and den\n"
    assert run_cli(capsys, *_check_argv(tmp_path, _form_of_degree(129, side), embedded)) == (2, "", message)


@pytest.mark.parametrize("side", ["num", "den"])
@pytest.mark.parametrize("embedded", [True, False], ids=["embedded", "omega_file"])
def test_check_accepts_the_form_degree_cap_itself(tmp_path, capsys, side, embedded):
    code, out, err = run_cli(capsys, *_check_argv(tmp_path, _form_of_degree(128, side), embedded))
    assert (code, err) == (0, "")
    assert json.loads(out)["semi_invariant"] is False


def test_form_with_an_unknown_key_is_refused(tmp_path, capsys):
    omega = {**CUBIC_PAIR["omega"], "typo": 3}
    refusal = (2, "", 'error: omega: expected {"num": [...], "den": [...], "weight": nu}\n')
    maps = {"sigma1": CUBIC_PAIR["sigma1"], "sigma2": CUBIC_PAIR["sigma2"]}
    assert run_cli(capsys, "check", write_doc(tmp_path, "doc.json", {**maps, "omega": omega})) == refusal
    argv = ["check", write_doc(tmp_path, "maps.json", maps), "--omega", write_doc(tmp_path, "omega.json", omega)]
    assert run_cli(capsys, *argv) == refusal


def test_mobius_document_is_applied(tmp_path, capsys):
    doc = {
        "sigma1": ["0", "0", "0", "1"],
        "sigma2": ["0", "1"],
        "mobius": {"a": "1", "b": "1", "c": "0", "d": "1"},
    }
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "detect", path)
    assert code == 0
    got = json.loads(out)
    assert got["form"] == {"a": "1"}  # flat point moved to t = 1


CHEB_SHIFTED = {
    **CHEB_PAIR,
    "omega": {"num": ["1"], "den": ["-3", "-2", "1"], "weight": 2},  # (dt)^2/((t-1)^2 - 4)
    "mobius": {"a": "1", "b": "1", "c": "0", "d": "1"},
}

# (T_5, T_2) over F_101 conjugated by phi = (3t + 5)/7, with (dt)^2/(t^2 - 4) moved by phi
CHEB_SHIFTED_GF101 = {
    "sigma1": ["0", "5", "0", "-5", "0", "1"],
    "sigma2": ["-2", "0", "1"],
    "omega": {"num": ["1"], "den": ["41", "13", "1"], "weight": 2},
    "field": {"Fp": 101},
    "mobius": {"a": "3", "b": "5", "c": "0", "d": "7"},
}
# over F_7, T_4 and T_2 are separable and 7 divides neither degree
CHEB_SHIFTED_GF7 = {**CHEB_SHIFTED, "field": {"Fp": 7}}


@pytest.mark.parametrize("doc", [CUBIC_PAIR, CHEB_SHIFTED], ids=["cubic", "chebyshev_mobius"])
def test_check_computes_each_quantity_once(tmp_path, capsys, count_check_quantities, doc):
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0 and err == ""
    got = json.loads(out)
    assert got["bound"] is not None and got["holds"] is True
    assert count_check_quantities == {
        "semi_invariance_ratio": 1,
        "divisor_of_form": 1,
        "Correspondence": 1,
        "ramification_places": 0,
    }


@pytest.mark.parametrize(
    "doc", [CUBIC_PAIR, {**CUBIC_PAIR, "field": {"Fp": 7}}, CHEB_SHIFTED], ids=["cubic", "cubic_gf7", "chebyshev_mobius"]
)
def test_check_builds_one_wronskian_per_map(tmp_path, capsys, monkeypatch, doc):
    # the pullback, the separability test over F_p and deg R_sigma all read the map's one W;
    # with a mobius phi, check pulls omega back along phi too, so phi is a third map
    bodies = []

    def counted(body):
        bodies.append(body)
        return _wronskian(body)

    monkeypatch.setattr("corrforms.geometry._wronskian", counted)
    code, out, err = run_cli(capsys, "check", write_doc(tmp_path, "doc.json", doc))
    assert code == 0 and err == "" and json.loads(out)["holds"] is True
    assert len(bodies) == len(set(bodies)) == (3 if "mobius" in doc else 2)


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corrforms", "bound", "--gx", "0", "--gy", "0", "--d1", "4", "--d2", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"bound": "4"}


CHEB_PAIR_MOD_3 = {
    **CHEB_PAIR,
    "field": {"Fp": 3},
    "omega": {"num": ["1"], "den": ["-4", "0", "1"], "weight": 2},
}


@pytest.mark.parametrize(
    "command, doc, patch, message",
    [
        # p = 3 <= deg T_4, so the conductor bound reads the ramification places;
        # a Wronskian zero of order 5 would be a place of index 6 > deg T_4
        ("check", CHEB_PAIR_MOD_3,
         ("corrforms.geometry.squarefree_decompose",
          lambda a: SquarefreeDecomposition(a.leading, ((a.monic(), 5),))),
         "ramification index exceeded map degree"),
        # a Horner pass that returns t/1 makes the conjugate phi itself, of degree 1;
        # detect and check solve the given pair and never conjugate, decompose still does
        ("decompose", CHEB_SHIFTED,
         ("corrforms.geometry._compose_over",
          lambda num, den, pairs: [Polynomial.variable(num.field), Polynomial.one(num.field)]),
         "conjugation changed the degree"),
        # (t^3, t^2) has the degenerate weight-2 form (dt)^2/t^2 once dt/t is hidden
        ("detect", {"sigma1": ["0", "0", "0", "1"], "sigma2": ["0", "0", "1"]},
         ("corrforms.invariance.solve_weight1_flat", lambda corr: None),
         "degenerate weight-2 solution without a weight-1 one"),
        # a Wronskian one degree too high gives deg R_sigma1 = 5 for sigma1 = t^3
        ("check", CUBIC_PAIR,
         ("corrforms.geometry._wronskian", lambda body: _wronskian(body) * Polynomial.variable(body.field)),
         "Riemann-Hurwitz failed: deg R_sigma1 = 5, not 2*3 - 2"),
    ],
    ids=["ramification_places", "mobius_conjugate", "find_primitive", "riemann_hurwitz"],
)
def test_internal_errors_exit_4(tmp_path, capsys, monkeypatch, command, doc, patch, message):
    monkeypatch.setattr(*patch)
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, command, path)
    assert (code, out, err) == (4, "", f"internal error: {message}\n")


# (t^3, t) conjugated by phi = (2t + 1)/(t + 1): rational maps, and dt/t moved by phi
RATIONAL_MOBIUS_PAIR = {
    **CUBIC_PAIR,
    "omega": {"num": ["-1"], "den": ["2", "-3", "1"], "weight": 1},
    "mobius": {"a": "2", "b": "1", "c": "1", "d": "1"},
}


CLI_OUTPUT = Path(__file__).resolve().parent / "cli_output"


@pytest.mark.parametrize(
    "command, doc, name",
    [
        ("detect", CHEB_SHIFTED, "detect_cheb_shifted.txt"),
        ("check", CHEB_SHIFTED, "check_cheb_shifted.txt"),
        ("check", RATIONAL_MOBIUS_PAIR, "check_rational_mobius_pair.txt"),
        ("check", {**RATIONAL_MOBIUS_PAIR, "field": {"Fp": 7}}, "check_rational_mobius_pair_gf7.txt"),
        # weight -2: the pullback swaps the Wronskian and B^2
        ("check",
         {**RATIONAL_MOBIUS_PAIR, "omega": {"num": ["4", "-12", "13", "-6", "1"], "den": ["1"], "weight": -2}},
         "check_rational_mobius_pair_weight_minus2.txt"),
        # k = deg den - deg num - 2 nu > 0 and < 0: the pullback puts B^|k| on one side
        ("check",
         {**RATIONAL_MOBIUS_PAIR, "omega": {"num": ["1"], "den": ["-2", "0", "0", "1"], "weight": 1}},
         "check_rational_mobius_pair_k_positive.txt"),
        ("check",
         {**RATIONAL_MOBIUS_PAIR, "omega": {"num": ["0", "1"], "den": ["1"], "weight": 1}},
         "check_rational_mobius_pair_k_negative.txt"),
        # the affine document over F_101, pinned before detect stopped conjugating
        ("detect", CHEB_SHIFTED_GF101, "detect_cheb_shifted_gf101.txt"),
        ("check", CHEB_SHIFTED_GF101, "check_cheb_shifted_gf101.txt"),
    ],
)
def test_mobius_documents_print_their_pinned_output(tmp_path, capsys, command, doc, name):
    # the Moebius normal form composes rational maps; its output is pinned byte for byte
    expected = (CLI_OUTPUT / name).read_text(encoding="utf-8")
    assert run_cli(capsys, command, write_doc(tmp_path, "doc.json", doc)) == (0, expected, "")


PIN_COMMANDS = ("check", "detect")


def test_every_pinned_document_has_a_pin_and_every_pin_its_document(capsys):
    # the CI packaging step loops over each <stem>.json here and runs every
    # <cmd>_<stem>.txt beside it; a pin without its document, or a document
    # without a pin, would drop out of that loop without a failure
    stems = {path.stem for path in CLI_OUTPUT.glob("*.json")}
    pins = {path.stem for path in CLI_OUTPUT.glob("*.txt") if path.stem.split("_", 1)[0] in PIN_COMMANDS}
    orphans = sorted(pin for pin in pins if pin.split("_", 1)[1] not in stems)
    unpinned = sorted(stem for stem in stems if not any(f"{c}_{stem}" in pins for c in PIN_COMMANDS))
    assert (orphans, unpinned) == ([], [])
    assert len(stems) == 8 and len(pins) == 10
    for pin in sorted(pins):
        command, stem = pin.split("_", 1)
        expected = (CLI_OUTPUT / f"{pin}.txt").read_text(encoding="utf-8")
        assert run_cli(capsys, command, str(CLI_OUTPUT / f"{stem}.json")) == (0, expected, ""), pin


def test_pinned_mobius_document_is_the_one_ci_checks():
    # the CI packaging step runs the installed entry point on this file
    assert json.loads((CLI_OUTPUT / "rational_mobius_pair.json").read_text(encoding="utf-8")) == RATIONAL_MOBIUS_PAIR


def test_pinned_affine_mobius_document_is_the_one_ci_checks():
    # the CI packaging step runs the installed detect and check on this file
    assert json.loads((CLI_OUTPUT / "cheb_shifted.json").read_text(encoding="utf-8")) == CHEB_SHIFTED


def test_pinned_affine_gf101_document_is_the_one_ci_checks():
    # and on this one, over F_101 with d != 1
    assert json.loads((CLI_OUTPUT / "cheb_shifted_gf101.json").read_text(encoding="utf-8")) == CHEB_SHIFTED_GF101


def test_pinned_sweep_trivial_document_is_the_benchmark_pair(gen):
    # the sweep_fp pair (12, 5) that no flat form fits: the solvers' evaluation
    # screen refuses nearly every system it meets, and CI runs the installed sweep on it
    assert json.loads((CLI_OUTPUT / "sweep_trivial_12_5.json").read_text(encoding="utf-8")) == gen.sweep_docs()["trivial"]


def test_sweep_of_the_trivial_benchmark_pair_prints_its_pinned_output(capsys):
    # pinned before the screen, over 2..1000 as the CI packaging step runs it
    expected = (CLI_OUTPUT / "sweep_sweep_trivial_12_5.txt").read_text(encoding="utf-8")
    doc = str(CLI_OUTPUT / "sweep_trivial_12_5.json")
    assert run_cli(capsys, "sweep", doc, "--pmin", "2", "--pmax", "1000") == (0, expected, "")
    assert len(expected.splitlines()) == 169


# sweep and decompose still conjugate a Moebius document's maps; these outputs
# were pinned before mobius_conjugate became one _compose_over call
SWEEP_CHEB_SHIFTED_2_60 = (
    '{"p": 2, "status": "skipped", "guard": false, "reason": "sigma1: inseparable mod 2"}\n'
    '{"p": 3, "status": "cyclic", "guard": false, "weight": 2, "lambda": "1", "form": {"s": "2", "q": "0"}}\n'
    '{"p": 5, "status": "cyclic", "guard": false, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "2"}}\n'
    '{"p": 7, "status": "cyclic", "guard": false, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "4"}}\n'
    '{"p": 11, "status": "cyclic", "guard": false, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "8"}}\n'
    '{"p": 13, "status": "cyclic", "guard": false, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "10"}}\n'
    '{"p": 17, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "14"}}\n'
    '{"p": 19, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "16"}}\n'
    '{"p": 23, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "20"}}\n'
    '{"p": 29, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "26"}}\n'
    '{"p": 31, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "28"}}\n'
    '{"p": 37, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "34"}}\n'
    '{"p": 41, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "38"}}\n'
    '{"p": 43, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "40"}}\n'
    '{"p": 47, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "44"}}\n'
    '{"p": 53, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "50"}}\n'
    '{"p": 59, "status": "cyclic", "guard": true, "weight": 2, "lambda": "4", "form": {"s": "2", "q": "56"}}\n'
    '{"summary": {"primes": 17, "good": 16, "skipped": 1, "trivial": 0, "weight1": 0, "weight2": 16, "weight1_evidence": false}}\n'
)


def test_sweep_of_the_affine_mobius_document_prints_its_pinned_output(capsys):
    argv = ("sweep", str(CLI_OUTPUT / "cheb_shifted.json"), "--pmin", "2", "--pmax", "60")
    assert run_cli(capsys, *argv) == (0, SWEEP_CHEB_SHIFTED_2_60, "")
    assert len(SWEEP_CHEB_SHIFTED_2_60.splitlines()) == 18


def test_decompose_of_a_mobius_document_prints_its_pinned_output(tmp_path, capsys):
    # (t^3, t^2) conjugated by phi = 2t: sigma = t, m = 3, h = 2
    doc = {"sigma1": ["0", "0", "0", "1"], "sigma2": ["0", "0", "1"], "mobius": {"a": "2", "b": "0", "c": "0", "d": "1"}}
    expected = '{"sigma": ["0", "1"], "m": 3, "h": 2, "lambda1": "1/4", "lambda2": "1/2"}\n'
    assert run_cli(capsys, "decompose", write_doc(tmp_path, "doc.json", doc)) == (0, expected, "")


# phi = 1/t has c != 0, yet phi t^n phi^{-1} = t^n: the conjugate of a polynomial
# sigma of degree n stays polynomial exactly when sigma - e = lambda (t - e)^n at
# e = phi^{-1}(infinity) = -d/c, here 0
INVERSION_PAIR = {"sigma1": ["0", "0", "0", "1"], "sigma2": ["0", "0", "1"], "mobius": {"a": "0", "b": "1", "c": "1", "d": "0"}}


@pytest.mark.parametrize(
    "command, doc, expected",
    [
        ("detect", INVERSION_PAIR,
         '{"status": "cyclic", "weight": 1, "lambda": "3/2", "form": {"a": "0"}, "flatness": "weight1", "complete": false}\n'),
        ("detect", {**INVERSION_PAIR, "field": {"Fp": 7}},
         '{"status": "cyclic", "weight": 1, "lambda": "5", "form": {"a": "0"}, "flatness": "weight1", "complete": false}\n'),
        ("decompose", INVERSION_PAIR, '{"sigma": ["0", "1"], "m": 3, "h": 2, "lambda1": "1", "lambda2": "1"}\n'),
    ],
    ids=["detect_QQ", "detect_GF7", "decompose"],
)
def test_a_c_nonzero_mobius_that_keeps_the_maps_polynomial_is_solved(tmp_path, capsys, command, doc, expected):
    assert run_cli(capsys, command, write_doc(tmp_path, "doc.json", doc)) == (0, expected, "")


def test_a_c_nonzero_mobius_that_makes_a_map_rational_is_refused(tmp_path, capsys):
    # phi (t^3 + 1) phi^{-1} = t^3 / (t^3 + 1), since t^3 + 1 - 0 is no multiple of t^3
    doc = {**INVERSION_PAIR, "sigma1": ["1", "0", "0", "1"]}
    message = (
        'error: mobius: c != 0 makes the maps rational, and flat-form solvers need polynomial maps;'
        ' solve the pair without "mobius"\n'
    )
    assert run_cli(capsys, "detect", write_doc(tmp_path, "doc.json", doc)) == (3, "", message)


@pytest.mark.parametrize("doc", [CHEB_SHIFTED, CHEB_SHIFTED_GF7], ids=["QQ", "GF7"])
def test_detect_on_an_affine_mobius_document_conjugates_nothing(tmp_path, capsys, monkeypatch, doc):
    # the given pair is solved and its answer moved by phi; check decides it against phi^* omega
    calls = []
    original = geometry.mobius_conjugate

    def counted(sigma, phi):
        calls.append(sigma)
        return original(sigma, phi)

    for module in (geometry, serialize):
        monkeypatch.setattr(module, "mobius_conjugate", counted)
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "detect", path)
    assert (code, err) == (0, "") and json.loads(out)["status"] == "cyclic"
    assert calls == []
    assert run_cli(capsys, "check", path)[0] == 0
    assert calls == []


@pytest.mark.parametrize(
    "doc",
    [CHEB_SHIFTED, CHEB_SHIFTED_GF7, RATIONAL_MOBIUS_PAIR, {**RATIONAL_MOBIUS_PAIR, "field": {"Fp": 7}}],
    ids=["QQ", "GF7", "rational_QQ", "rational_GF7"],
)
def test_check_on_a_mobius_document_conjugates_nothing(tmp_path, capsys, monkeypatch, doc):
    # any phi, c = 0 or not: the given pair decides semi-invariance against phi^* omega
    calls = []
    original = geometry.mobius_conjugate

    def counted(sigma, phi):
        calls.append(sigma)
        return original(sigma, phi)

    for module in (geometry, serialize):
        monkeypatch.setattr(module, "mobius_conjugate", counted)
    code, out, err = run_cli(capsys, "check", write_doc(tmp_path, "doc.json", doc))
    assert (code, err) == (0, "") and json.loads(out)["holds"] is True
    assert calls == []


MOBIUS_REFUSAL = (
    'error: mobius: c != 0 makes the maps rational, and flat-form solvers need polynomial maps;'
    ' solve the pair without "mobius"\n'
)
RATIONAL_REFUSAL = "error: flat-form solvers need polynomial maps; conjugate with mobius_conjugate first\n"
DECOMPOSE_MOBIUS_REFUSAL = (
    'error: mobius: c != 0 makes the maps rational, and decompose needs polynomial maps;'
    ' decompose the pair without "mobius"\n'
)


RATIONAL_SIGMA1 = {"num": ["1"], "den": ["0", "0", "0", "1"]}
SWEEP = ("sweep", "--pmin", "2", "--pmax", "30")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # polynomial maps made rational by the document's mobius: the refusal names it
        (("detect",), RATIONAL_MOBIUS_PAIR, MOBIUS_REFUSAL),
        (("detect",), {**RATIONAL_MOBIUS_PAIR, "field": {"Fp": 7}}, MOBIUS_REFUSAL),
        (SWEEP, RATIONAL_MOBIUS_PAIR, MOBIUS_REFUSAL),
        # maps that are rational before any conjugation keep the solvers' own refusal
        (("detect",), {**RATIONAL_MOBIUS_PAIR, "sigma1": RATIONAL_SIGMA1}, RATIONAL_REFUSAL),
        (SWEEP, {**RATIONAL_MOBIUS_PAIR, "sigma1": RATIONAL_SIGMA1}, RATIONAL_REFUSAL),
        (("detect",), {**CUBIC_PAIR, "sigma1": RATIONAL_SIGMA1}, RATIONAL_REFUSAL),
        (("decompose",), RATIONAL_MOBIUS_PAIR, DECOMPOSE_MOBIUS_REFUSAL),
        (("decompose",), {**RATIONAL_MOBIUS_PAIR, "sigma1": RATIONAL_SIGMA1}, "error: decompose needs polynomial maps\n"),
    ],
    ids=[
        "detect",
        "detect_gf7",
        "sweep",
        "detect_rational_with_mobius",
        "sweep_rational_with_mobius",
        "detect_rational",
        "decompose",
        "decompose_rational_with_mobius",
    ],
)
def test_solvers_name_the_mobius_that_made_the_maps_rational(tmp_path, capsys, command, doc, message):
    path = write_doc(tmp_path, "doc.json", doc)
    assert run_cli(capsys, command[0], path, *command[1:]) == (3, "", message)


def test_no_taylor_coefficient_in_any_characteristic(
    tmp_path, capsys, monkeypatch, count_ramification_places
):
    # a Wronskian zero of order k has index k + 1 in every characteristic, so
    # no Hasse derivative is taken, not even at p = 3 <= deg T_4
    characteristics = []
    hasse = Polynomial.hasse_derivative

    def counted(self, j):
        characteristics.append(self.field.characteristic)
        return hasse(self, j)

    monkeypatch.setattr(Polynomial, "hasse_derivative", counted)
    for doc in (CUBIC_PAIR, CHEB_SHIFTED, RATIONAL_MOBIUS_PAIR):
        path = write_doc(tmp_path, "doc.json", doc)
        if doc is not RATIONAL_MOBIUS_PAIR:  # detect needs polynomial maps
            assert run_cli(capsys, "detect", path)[0] == 0
        code, out, err = run_cli(capsys, "check", path)
        assert code == 0 and json.loads(out)["holds"] is True
    assert count_ramification_places == [] and characteristics == []
    # sweep primes above deg T_4 = 4, then 2 and 3: T_4 is inseparable mod 2
    path = write_doc(tmp_path, "cheb.json", CHEB_PAIR)
    before = len(count_ramification_places)
    assert run_cli(capsys, "sweep", path, "--pmin", "5", "--pmax", "60", "--jobs", "1")[0] == 0
    assert len(count_ramification_places) == before + 2 * 15 and characteristics == []
    assert run_cli(capsys, "sweep", path, "--pmin", "2", "--pmax", "3", "--jobs", "1")[0] == 0
    assert 3 in {sigma.field.characteristic for sigma in count_ramification_places[before:]}
    assert characteristics == []


BIG = "7" * 3000  # its square has 6000 digits, past Python's default int-to-string limit of 4300


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="this Python has no int-to-string limit"
)
@pytest.mark.parametrize("command", ["check", "gen"])
def test_a_result_past_the_int_string_limit_exits_2(tmp_path, capsys, command):
    # lambda = BIG**2 for check; BIG**2 is the constant term of sigma1 = (BIG + t)**2 for gen
    if command == "check":
        doc = {"sigma1": ["0", "0", "0", BIG], "sigma2": ["0", "0", "0", "1"],
               "omega": {"num": ["0", "1"], "den": ["1"], "weight": 1}}
        argv = ["check", write_doc(tmp_path, "big.json", doc)]
    else:
        argv = ["gen", "multiplicative", "--m", "2", "--h", "1", "--sigma", json.dumps([BIG, "1"])]
    limit = sys.get_int_max_str_digits()
    expected = f"error: a result has more than {limit} digits, Python's int-to-string limit\n"
    assert run_cli(capsys, *argv) == (2, "", expected)
