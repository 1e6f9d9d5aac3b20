"""Fuzzing the command line: every document maps to exit code 0, 2 or 3.

Documents are built from small coefficient literals, polynomial or num/den
maps, an optional form, field and Mobius change, and pushed through
`check`, `detect`, `decompose` and `sweep`; `bound` gets small integers,
negative ones included.  A successful run must print only JSON lines; no
input may escape with a traceback.  The draws are weighted toward
documents that pass parsing and the preconditions, so that most runs
reach the mathematics: more than half of the documents exit 0 under every
command.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from corrforms.cli import main


def literals(numerators):
    return st.one_of(
        numerators.map(str),
        st.builds(lambda n, d: f"{n}/{d}", numerators, st.integers(1, 4)),
    )


# Derandomized hypothesis favours zero literals and one-literal arrays, so
# unweighted documents mostly stop at parsing (constant maps, zero
# denominators) or at a precondition.  Each strategy below draws from a
# well-formed case before the general one, so their union still covers every
# document, zeros and constants included.
nonzero = literals(st.integers(-4, 4).filter(bool))
coefficient = st.one_of(nonzero, literals(st.integers(-4, 4)))
coeff_arrays = st.one_of(
    st.lists(coefficient, min_size=2, max_size=6), st.lists(coefficient, min_size=1, max_size=6)
)


def nonzero_top(min_size, max_size):
    """Coefficient arrays whose last, leading literal is nonzero."""
    rest = st.lists(coefficient, min_size=min_size - 1, max_size=max_size - 1)
    return st.builds(list.__add__, rest, nonzero.map(lambda c: [c]))


maps = st.one_of(coeff_arrays, st.fixed_dictionaries({"num": coeff_arrays, "den": coeff_arrays}))
forms = st.fixed_dictionaries(
    {"num": coeff_arrays, "den": coeff_arrays, "weight": st.sampled_from([-1, 1, 2, 3])}
)
fields = st.sampled_from(["Q", {"Fp": 2}, {"Fp": 3}, {"Fp": 7}, {"Fp": 11}, {"Fp": 4}])
mobius = st.fixed_dictionaries({k: st.integers(-3, 3).map(str) for k in "abcd"})
# polynomial pairs over Q with deg sigma1 > deg sigma2 >= 1 and a form pass
# every command's preconditions
well_formed = st.fixed_dictionaries(
    {
        "sigma1": nonzero_top(4, 6),
        "sigma2": nonzero_top(2, 3),
        "omega": st.fixed_dictionaries(
            {"num": nonzero_top(1, 3), "den": nonzero_top(1, 3), "weight": st.sampled_from([1, 2])}
        ),
    }
)
any_document = st.fixed_dictionaries(
    {"sigma1": maps, "sigma2": maps},
    optional={"omega": forms, "field": fields, "mobius": mobius},
)
# two draws in three are well formed
documents = st.sampled_from([well_formed, well_formed, any_document]).flatmap(lambda s: s)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=documents, pmin=st.integers(-5, 40), span=st.integers(-5, 30))
def test_cli_exit_codes_and_json_output(tmp_path_factory, doc, pmin, span):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    sweep_args = ["--pmin", str(pmin), "--pmax", str(pmin + span), "--jobs", "1"]
    for argv in (["check"], ["detect"], ["decompose"], ["sweep", *sweep_args]):
        argv.insert(1, str(path))
        code, out = run(argv)
        assert code in (0, 2, 3), (argv, doc)
        if code == 0:
            for line in out.splitlines():
                json.loads(line)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(values=st.lists(st.integers(-3, 20), min_size=4, max_size=4))
def test_cli_bound_exit_codes(values):
    argv = ["bound"]
    for flag, value in zip(("--gx", "--gy", "--d1", "--d2"), values):
        argv += [flag, str(value)]
    code, out = run(argv)
    assert code in (0, 2, 3), argv
    if code == 0:
        json.loads(out)
