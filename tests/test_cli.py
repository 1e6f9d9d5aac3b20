"""Command-line interface: output schemas, exit codes, and consistency with
the library calls it wraps."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from corrforms.cli import main
from corrforms.field import QQ
from corrforms.invariance import Correspondence, find_primitive
from corrforms.poly import Polynomial, SquarefreeDecomposition
from corrforms.ratfunc import _wronskian
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
    doc = {
        "sigma1": ["0", "0", "1"],
        "sigma2": ["0", "0", "1"],
        "omega": {"num": ["1"], "den": ["0", "1"], "weight": 1},
    }
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0
    got = json.loads(out)
    assert got["semi_invariant"] is True
    assert got["lambda"] == "1"
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
    # the parser is built once per process, so --jobs must not take its
    # default from the environment at build time.  A recording sweep stands
    # in for the real one, so no process is started.
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
    assert widths == [3, 1, 1, 1, 2, 1]
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
        ("detect", CHEB_SHIFTED, ("corrforms.geometry.RationalMap.compose", lambda self, other: other),
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
