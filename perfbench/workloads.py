"""The three benchmark workloads: inputs, timed calls, output checks, metrics.

Each workload runs as a closed loop with one caller: the next call starts
when the previous one returned.  Calls come in passes, and a run stops only
between passes, so every run measures whole copies of the same mix of inputs
and its medians and p90s do not depend on where the clock ran out.  Only the
timed call itself sits inside the timer: parsing a document into objects,
checking the output and comparing it with ``golden.json`` happen outside it.
A wrong output, an unexpected exit code or an exception counts as a failed
call; the run goes on.

In a timed run every call's wall time is also expressed at the reference
speed of ``calibrate.py``, and the metrics are computed from those times.

Program objects are rebuilt from plain data before every call, so a cache
attached to one cannot carry over from one call to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
from time import perf_counter

import gen

FULL = "full"
TINY = "tiny"  # a few calls per kind, for the benchmark's own tests
TINY_PMAX = 53


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, v in enumerate(sieve) if v]


def jobs():
    """Parallel sweep width: min(2, nproc)."""
    return min(2, len(os.sched_getaffinity(0)))


def run_cli(corrforms, argv):
    """cli.main(argv) with stdout and stderr captured; returns (rc, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = corrforms.cli.main(argv)
    return rc, out.getvalue()


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def closed_loop(make_pass, execute, deadline):
    """Whole passes of calls, until `deadline` has passed; at least one."""
    records = []
    n = 0
    while n == 0 or perf_counter() < deadline:
        for op in make_pass(n):
            records.append(execute(op))
        n += 1
    return records


class Record:
    """One timed call: its input, its kind, its start and wall time, its result,
    and its time at the reference speed (`ref`, the wall time until set)."""

    __slots__ = ("op", "kind", "start", "seconds", "ref", "result", "ok")

    def __init__(self, op, kind, start, seconds, result):
        self.op, self.kind, self.start, self.seconds, self.result = op, kind, start, seconds, result
        self.ref = seconds
        self.ok = None


class Workload:
    name = None
    tracer = None
    calibration = None  # a calibrate.Calibration in timed runs

    def __init__(self, corrforms, seed, golden, workdir, size=FULL):
        self.cf = corrforms
        self.seed = seed
        self.golden = golden
        self.workdir = workdir
        self.size = size

    def timed(self, kind, op, call):
        """Time one call; with a tracer set, trace exactly the timed region."""
        if self.tracer is not None:
            self.tracer.install()
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed call, never aborts the run
            result = exc
        seconds = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.uninstall()
        if self.calibration is not None:
            self.calibration.tick()
        return Record(op, kind, t0, seconds, result)

    def shuffled(self, items, n):
        """Pass n of the run in its own seeded order."""
        items = list(items)
        random.Random(f"{self.name}:{self.seed}:{n}").shuffle(items)
        return items

    def write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def at_reference_speed(self, records):
        """Set every record's `ref` from the calibration samples of the run."""
        self.calibration.sample()  # the last call needs a sample after it
        for r in records:
            r.ref = self.calibration.reference_seconds(r.start, r.seconds)

    def failed(self, records):
        """Check every record (outside the timed region); the number that failed."""
        self.verify(records)
        return sum(1 for r in records if not r.ok)


# --- sweep_fp ---------------------------------------------------------------


class SweepFp(Workload):
    """sweep() over primes from 2: jobs=1 windows, then whole-range parallel sweeps."""

    name = "sweep_fp"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pmax = gen.SWEEP_PMAX if self.size == FULL else TINY_PMAX
        self.docs = gen.sweep_docs()
        self.paths = {pair: self.write(f"sweep_{pair}.json", doc) for pair, doc in self.docs.items()}
        self.expected = {pair: self.golden["sweep"][gen.doc_key(doc)] for pair, doc in self.docs.items()}
        self.primes = primes_upto(self.pmax)
        self.windows = gen.prime_windows(self.primes, gen.sweep_phase(self.seed))
        self.jobs = jobs()
        self._lambda_ok = {}

    def window_pass(self, n):
        return self.shuffled([(pair, lo, hi) for pair in self.docs for lo, hi in self.windows], n)

    def run_window(self, op):
        pair, lo, hi = op
        corr = self.cf.serialize.document_from_json(self.docs[pair]).corr
        return self.timed("window", op, lambda: self.cf.sweep(corr, lo, hi, jobs=1))

    def parallel_pass(self, n):
        return list(self.docs)

    def run_parallel(self, pair):
        argv = ["sweep", self.paths[pair], "--pmin", "2", "--pmax", str(self.pmax), "--jobs", str(self.jobs)]
        return self.timed("parallel", pair, lambda: run_cli(self.cf, argv))

    def warm_up(self):
        lo, hi = self.primes[0], self.primes[gen.SWEEP_WINDOW - 1]
        for pair in self.docs:
            self.run_window((pair, lo, hi))

    def measure(self, seconds):
        # a pass of jobs=1 windows, then a round of parallel sweeps, in turn: both
        # kinds sample the whole run, so a slow spell of the machine hits both alike
        return closed_loop(
            lambda n: [(self.run_window, op) for op in self.window_pass(n)]
            + [(self.run_parallel, pair) for pair in self.parallel_pass(n)],
            lambda call: call[0](call[1]),
            perf_counter() + seconds,
        )

    def trace_pass(self):
        return [self.run_window(op) for op in self.window_pass(0)]

    def parallel_efficiency(self, window_records):
        """primes_per_s_parallel / (jobs * primes_per_s), both untraced; and the
        parallel records."""
        par = [self.run_parallel(pair) for pair in self.parallel_pass(0)]
        own, _, _ = self.metrics(window_records + par)
        return own["primes_per_s_parallel"][0] / (self.jobs * own["primes_per_s"][0]), par

    # checks

    def _lambda_holds(self, pair, entry):
        """The reported flat form on reduce_mod_p(corr, p) gives the reported lambda."""
        key = (pair, entry.p)
        if key not in self._lambda_ok:
            cf = self.cf
            corr = cf.serialize.document_from_json(self.docs[pair]).corr
            field = cf.GF(entry.p)
            if entry.weight == 1:
                omega = cf.flat_form_weight1(field, entry.params["a"])
            else:
                omega = cf.flat_form_weight2(field, entry.params["s"], entry.params["q"])
            ratio = cf.semi_invariance_ratio(cf.reduce_mod_p(corr, entry.p), omega)
            self._lambda_ok[key] = ratio is not None and ratio == entry.ratio
        return self._lambda_ok[key]

    def verify(self, records):
        to_json = self.cf.serialize.sweep_entry_to_json
        window_out = {}
        for r in (r for r in records if r.kind == "window"):
            pair, lo, hi = r.op
            if isinstance(r.result, Exception):
                r.ok = False
                continue
            lines = [json.dumps(to_json(e)) for e in r.result.entries]
            r.ok = digest("\n".join(lines)) == self.expected[pair]["windows"].get(f"{lo}-{hi}") and all(
                self._lambda_holds(pair, e) for e in r.result.entries if e.status == "cyclic"
            )
            if r.ok:
                window_out[(pair, lo)] = (r.result.entries, lines)
        for r in (r for r in records if r.kind == "parallel"):
            pair = r.op
            if isinstance(r.result, Exception):
                r.ok = False
                continue
            rc, out = r.result
            r.ok = rc == 0 and digest(out) == self.expected[pair]["whole"].get(str(self.pmax))
            parts = [window_out.get((pair, lo)) for lo, _ in self.windows]
            if r.ok and all(parts):
                # the jobs=1 stdout, rebuilt from the window calls, is byte-identical
                entries = tuple(e for es, _ in parts for e in es)
                summary = self.cf.serialize.sweep_summary_to_json(self.cf.SweepReport(entries))
                j1_out = "".join(line + "\n" for _, lines in parts for line in lines) + json.dumps(summary) + "\n"
                r.ok = j1_out == out

    def metrics(self, records):
        win = [r for r in records if r.kind == "window"]
        par = [r for r in records if r.kind == "parallel"]
        index = {p: i for i, p in enumerate(self.primes)}
        win_primes = sum(index[hi] - index[lo] + 1 for _, lo, hi in (r.op for r in win))
        win_ms = [r.ref * 1e3 for r in win]
        primes_per_s = win_primes / sum(r.ref for r in win)
        par_per_s = len(par) * len(self.primes) / sum(r.ref for r in par)
        own = {
            "primes_per_s": (primes_per_s, "1/s"),
            "primes_per_s_parallel": (par_per_s, "1/s"),
            "sweep_ms_p50": (p50(win_ms), "ms"),
            "sweep_ms_p90": (p90(win_ms), "ms"),
        }
        generic = {"ops_per_s": primes_per_s, "op_ms_p50": p50(win_ms), "op_ms_p90": p90(win_ms)}
        samples = {"window_calls": len(win), "parallel_calls": len(par), "jobs": self.jobs}
        return own, generic, samples


# --- cli_qq -----------------------------------------------------------------


class CliQq(Workload):
    """cli.main(["detect"|"check", doc]) on seeded documents over Q."""

    name = "cli_qq"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        slots = gen.CLI_SLOTS if self.size == FULL else 2
        self.slots = [
            [
                (family, self.write(f"doc_{i:03d}_{k}.json", doc), self.golden["cli"].get(gen.doc_key(doc), {}))
                for k, doc in enumerate(variants)
            ]
            for i, (family, variants) in enumerate(gen.cli_docs(self.seed, slots))
        ]
        # warm-up inputs do not depend on the seed, so neither does setup_s
        self.warm_docs = [
            (family, self.write(f"warm_{family}.json", make(0, 0)), None)
            for family, make in gen.CLI_FAMILIES.items()
        ]

    def doc_pass(self, n):
        return self.shuffled([variants[n % len(variants)] for variants in self.slots], n)

    def run_doc(self, op):
        family, path, _ = op
        return [self.timed(cmd, op, lambda: run_cli(self.cf, [cmd, path])) for cmd in gen.cli_commands(family)]

    def warm_up(self):
        for op in self.warm_docs:
            self.run_doc(op)

    def measure(self, seconds):
        docs = closed_loop(self.doc_pass, self.run_doc, perf_counter() + seconds)
        return [r for calls in docs for r in calls]

    def trace_pass(self):
        return [r for op in self.doc_pass(0) for r in self.run_doc(op)]

    def verify(self, records):
        for r in records:
            expected = r.op[2].get(r.kind)
            r.ok = not isinstance(r.result, Exception) and r.result == (0, expected)

    def metrics(self, records):
        detect = [r.ref * 1e3 for r in records if r.kind == "detect"]
        check = [r.ref * 1e3 for r in records if r.kind == "check"]
        docs = len(check)  # every document runs check once
        docs_per_s = docs / sum(r.ref for r in records)
        own = {
            "docs_per_s": (docs_per_s, "1/s"),
            "detect_ms_p50": (p50(detect), "ms"),
            "detect_ms_p90": (p90(detect), "ms"),
            "check_ms_p50": (p50(check), "ms"),
            "check_ms_p90": (p90(check), "ms"),
        }
        generic = {"ops_per_s": docs_per_s, "op_ms_p50": p50(detect), "op_ms_p90": p90(detect)}
        samples = {"documents": len({r.op[1] for r in records}), "detect_calls": len(detect), "check_calls": len(check)}
        return own, generic, samples


# --- identity_qq ------------------------------------------------------------


class IdentityQq(Workload):
    """check_order_identity(sigma, omega) on seeded pairs over Q."""

    name = "identity_qq"
    trace_rounds = 4

    def pair_pass(self, n):
        """Pass n is one round of fresh pairs drawn from the seed."""
        pairs = gen.identity_round(random.Random(f"identity:{self.seed}:{n}"))
        if self.size == TINY:
            pairs = [p for p in pairs if len(p["sigma"][0]) <= 5]  # degree 4 and the rational maps
        return self.shuffled(pairs, n)

    def run_pair(self, pair):
        cf = self.cf
        qq = cf.QQ
        num, den = pair["sigma"]
        f, g, weight = pair["omega"]
        sigma = cf.RationalMap(cf.RationalFunction(cf.Polynomial(qq, num), cf.Polynomial(qq, den)))
        omega = cf.DifferentialForm(cf.RationalFunction(cf.Polynomial(qq, f), cf.Polynomial(qq, g)), weight)
        return self.timed(pair["shape"], pair, lambda: cf.check_order_identity(sigma, omega))

    def warm_up(self):
        # one pair of each shape from a fixed draw: setup_s does not depend on the seed
        pairs = gen.identity_round(random.Random("identity:warm-up"))
        for shape in ("poly", "rational"):
            self.run_pair(next(p for p in pairs if p["shape"] == shape))

    def measure(self, seconds):
        return closed_loop(self.pair_pass, self.run_pair, perf_counter() + seconds)

    def trace_pass(self):
        return [self.run_pair(p) for n in range(self.trace_rounds) for p in self.pair_pass(n)]

    def verify(self, records):
        for r in records:
            r.ok = r.result is True  # the identity is a theorem

    def metrics(self, records):
        ms = [r.ref * 1e3 for r in records]
        pairs_per_s = len(records) / (sum(ms) / 1e3)
        own = {
            "pairs_per_s": (pairs_per_s, "1/s"),
            "identity_ms_p50": (p50(ms), "ms"),
            "identity_ms_p90": (p90(ms), "ms"),
        }
        generic = {"ops_per_s": pairs_per_s, "op_ms_p50": p50(ms), "op_ms_p90": p90(ms)}
        samples = {"pairs": len(records), "rational_pairs": sum(1 for r in records if r.kind == "rational")}
        return own, generic, samples


WORKLOADS = {w.name: w for w in (SweepFp, CliQq, IdentityQq)}
