"""Write golden.json: the outputs of the current program for every pooled input.

golden.json holds the outputs of the seed program, and every later version
must reproduce them byte for byte.  Regenerate it only if the workloads'
inputs change, and then from the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

Stored per sweep pair (keyed by the digest of its document): the digest of
the serialized entries of each jobs=1 window, and the digest of the CLI's
jobs=1 stdout over the whole range.  Stored per CLI document: the full stdout
of each subcommand.
"""

from __future__ import annotations

import json

import gen
import run
from workloads import TINY_PMAX, digest, primes_upto, run_cli


def sweep_golden(cf, doc, path):
    corr = cf.serialize.document_from_json(doc).corr
    windows = {}
    for pmax in (gen.SWEEP_PMAX, TINY_PMAX):
        for phase in range(gen.SWEEP_WINDOW):
            for lo, hi in gen.prime_windows(primes_upto(pmax), phase):
                if f"{lo}-{hi}" not in windows:
                    report = cf.sweep(corr, lo, hi, jobs=1)
                    lines = [json.dumps(cf.serialize.sweep_entry_to_json(e)) for e in report.entries]
                    windows[f"{lo}-{hi}"] = digest("\n".join(lines))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    whole = {}
    for pmax in (gen.SWEEP_PMAX, TINY_PMAX):
        rc, out = run_cli(cf, ["sweep", path, "--pmin", "2", "--pmax", str(pmax), "--jobs", "1"])
        if rc != 0:
            raise RuntimeError(f"sweep exited {rc} on {doc}")
        whole[str(pmax)] = digest(out)
    return {"windows": windows, "whole": whole}


def main():
    cf = run.load_program()
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    path = str(work / "golden_doc.json")
    golden = {"sweep": {}, "cli": {}}
    for doc in gen.sweep_docs().values():
        golden["sweep"][gen.doc_key(doc)] = sweep_golden(cf, doc, path)
    for family, doc in gen.cli_pool():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        outs = {}
        for cmd in gen.cli_commands(family):
            rc, out = run_cli(cf, [cmd, path])
            if rc != 0:
                raise RuntimeError(f"{cmd} exited {rc} on {doc}")
            outs[cmd] = out
        golden["cli"][gen.doc_key(doc)] = outs
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    (work / "golden_doc.json").unlink()


if __name__ == "__main__":
    main()
