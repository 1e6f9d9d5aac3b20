"""Fuzzing the command line: every document maps to exit code 0, 2 or 3.

Documents are built from small coefficient literals, polynomial or num/den
maps, an optional form, field and Mobius change, and pushed through
`check`, `detect`, `decompose` and `sweep`.  A successful run must print
only JSON lines; no input may escape with a traceback.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from corrforms.cli import main

literals = st.one_of(
    st.integers(-4, 4).map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-4, 4), st.integers(1, 4)),
)
coeff_arrays = st.lists(literals, min_size=1, max_size=6)
maps = st.one_of(coeff_arrays, st.fixed_dictionaries({"num": coeff_arrays, "den": coeff_arrays}))
forms = st.fixed_dictionaries(
    {"num": coeff_arrays, "den": coeff_arrays, "weight": st.sampled_from([-1, 1, 2, 3])}
)
fields = st.sampled_from(["Q", {"Fp": 2}, {"Fp": 3}, {"Fp": 7}, {"Fp": 11}, {"Fp": 4}])
mobius = st.fixed_dictionaries({k: st.integers(-3, 3).map(str) for k in "abcd"})
documents = st.fixed_dictionaries(
    {"sigma1": maps, "sigma2": maps},
    optional={"omega": forms, "field": fields, "mobius": mobius},
)


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
