"""Outside-in tracer: spans and counters around corrforms' public functions.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` rebinds each
traced function at every place it is reachable: the defining module and every
other ``corrforms`` module that imported it by name (``gcd_monic`` lives in
``poly`` but is also a global of ``geometry``, ``ratfunc`` and ``sweep``), and
class members on the class itself.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent).  Spans are kept in memory and written
out by ``write_spans``.  Self time is a span's duration minus the part covered
by its direct child spans.  Scalar-level functions that run millions of times
(``FpElement.__init__``, ``reduce_mod``, ``is_prime``, ``is_separable``) are
only counted: a span each would cost more than the work it measures.

Only single-process work can be traced: forked sweep workers would lose their
spans, so traced runs use ``jobs=1``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

_TO_JSON = (
    "scalar_str",
    "poly_to_json",
    "map_to_json",
    "form_to_json",
    "divisor_to_json",
    "group_report_to_json",
    "sweep_entry_to_json",
    "sweep_summary_to_json",
    "decomposition_to_json",
)


def _tag(field):
    return "qq" if field.characteristic == 0 else "fp"


def _coeff_bits(poly):
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """Spans and counters; recording happens only between install and uninstall."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self._stack = []  # [span index, time covered by child spans]
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()  # outcome counters: hits, good primes, ...
        self.max_coeff_bits = 0
        self._maps = set()
        self._patches = []
        self.missing = []  # traced names the program no longer has; their metrics read 0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name):
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(perf_counter())

    def _exit(self, name):
        end = perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - covered

    def spanned(self, fn, name, on_call=None, on_result=None):
        """fn wrapped in a span; `name` is a string or a function of the args."""
        tracer = self

        def wrapper(*args, **kwargs):
            n = name(*args) if callable(name) else name
            if on_call is not None:
                on_call(*args)
            tracer._enter(n)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(n)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace(self, owners, original, wrap, label):
        """Record a patch of every name bound to `original` in `owners`."""
        if original is None:
            self.missing.append(label)
            return
        wrapper = wrap(original)
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, name, original, wrapper))

    def _function(self, module, attr, wrap):
        """module.attr, wherever a corrforms module imported it by name."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and n.split(".")[0] == "corrforms"]
        self._replace(modules, getattr(module, attr, None), wrap, f"{module.__name__}.{attr}")

    def _method(self, cls, attr, wrap):
        """cls.attr and its aliases in the class (``__rmul__ = __mul__``)."""
        self._replace([cls], cls.__dict__.get(attr), wrap, f"{cls.__name__}.{attr}")

    def install(self):
        """Rebind every traced function to its wrapper (wrappers are built once)."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self):
        # the package rebinds some submodule names (corrforms.sweep is the function)
        field, geometry, invariance, poly, ratfunc, serialize, sweep, cli = (
            importlib.import_module(f"corrforms.{m}")
            for m in ("field", "geometry", "invariance", "poly", "ratfunc", "serialize", "sweep", "cli")
        )
        span, count = self.spanned, self.counted

        # field: counts only
        self._method(field.FpElement, "__init__", lambda f: count(f, "field.fp_new"))
        self._function(field, "reduce_mod", lambda f: count(f, "field.reduce_mod"))
        self._function(field, "is_prime", lambda f: count(f, "field.is_prime"))

        # poly, split by field tag
        self._method(poly.Polynomial, "__mul__", lambda f: span(f, lambda a, *_: f"poly.mul.{_tag(a.field)}"))
        self._method(poly.Polynomial, "__divmod__", lambda f: span(f, lambda a, *_: f"poly.divmod.{_tag(a.field)}"))
        self._function(
            poly, "gcd_monic", lambda f: span(f, lambda a, *_: f"poly.gcd_monic.{_tag(a.field)}", on_call=self._gcd_bits)
        )
        self._function(
            poly, "squarefree_decompose", lambda f: span(f, lambda a, *_: f"poly.squarefree_decompose.{_tag(a.field)}")
        )

        # ratfunc
        self._method(ratfunc.RationalFunction, "__init__", lambda f: span(f, "ratfunc.init"))
        self._method(ratfunc.RationalFunction, "compose", lambda f: span(f, "ratfunc.compose"))

        # geometry
        self._function(
            geometry,
            "ramification_places",
            lambda f: span(f, "geometry.ramification_places", on_call=lambda sigma, *_: self._maps.add(sigma)),
        )
        for attr in ("is_tame", "divisor_of_form", "pullback"):
            self._function(geometry, attr, lambda f, attr=attr: span(f, f"geometry.{attr}"))
        self._method(geometry.RationalMap, "is_separable", lambda p: property(count(p.fget, "geometry.is_separable")))

        # invariance
        for attr in ("solve_weight1_flat", "semi_invariance_ratio", "ramification_conductor_check"):
            self._function(invariance, attr, lambda f, attr=attr: span(f, f"invariance.{attr}"))
        self._function(
            invariance,
            "solve_weight2_flat",
            lambda f: span(f, "invariance.solve_weight2_flat", on_result=lambda r: self._count_if(r is not None, "weight2_hits")),
        )

        # sweep
        self._function(
            sweep,
            "reduce_mod_p",
            lambda f: span(f, "sweep.reduce_mod_p", on_result=lambda r: self._count_if(not isinstance(r, str), "good_primes")),
        )

        # serialize and cli
        self._function(serialize, "document_from_json", lambda f: span(f, "serialize.document_from_json"))
        for attr in _TO_JSON:
            self._function(serialize, attr, lambda f: span(f, "serialize.to_json"))
        self._function(cli, "main", lambda f: span(f, "cli.main"))

    def _gcd_bits(self, a, b):
        if a.field.characteristic == 0:
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(a), _coeff_bits(b))

    def _count_if(self, cond, key):
        if cond:
            self.counts[key] += 1

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer numbers named <module>.<function>[.qq|.fp].<stat>."""
        out = {}
        for name in ("field.fp_new", "field.reduce_mod", "field.is_prime"):
            out[f"{name}.calls"] = (self.calls[name], "count")
        for fn in ("mul", "divmod", "gcd_monic", "squarefree_decompose"):
            for tag in ("qq", "fp"):
                name = f"poly.{fn}.{tag}"
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.self_s"] = (self.self_time[name], "s")
        out["poly.gcd_monic.qq.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        for name in ("ratfunc.init", "ratfunc.compose"):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        rp = "geometry.ramification_places"
        out[f"{rp}.calls"] = (self.calls[rp], "count")
        out[f"{rp}.self_s"] = (self.self_time[rp], "s")
        out[f"{rp}.reuse_ratio"] = (_ratio(self.calls[rp], len(self._maps)), "ratio")
        out["geometry.is_tame.calls"] = (self.calls["geometry.is_tame"], "count")
        out["geometry.is_tame.busy_s"] = (self.busy["geometry.is_tame"], "s")
        out["geometry.is_separable.calls"] = (self.calls["geometry.is_separable"], "count")
        for name in ("geometry.divisor_of_form", "geometry.pullback"):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in ("invariance.solve_weight1_flat", "invariance.solve_weight2_flat"):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        out["invariance.weight2_hit_ratio"] = (
            _ratio(self.counts["weight2_hits"], self.calls["invariance.solve_weight2_flat"]),
            "ratio",
        )
        out["invariance.semi_invariance_ratio.busy_s"] = (self.busy["invariance.semi_invariance_ratio"], "s")
        out["invariance.ramification_conductor_check.busy_s"] = (
            self.busy["invariance.ramification_conductor_check"],
            "s",
        )
        out["sweep.reduce_mod_p.calls"] = (self.calls["sweep.reduce_mod_p"], "count")
        out["sweep.reduce_mod_p.busy_s"] = (self.busy["sweep.reduce_mod_p"], "s")
        out["sweep.good_ratio"] = (_ratio(self.counts["good_primes"], self.calls["sweep.reduce_mod_p"]), "ratio")
        out["serialize.document_from_json.calls"] = (self.calls["serialize.document_from_json"], "count")
        out["serialize.document_from_json.self_s"] = (self.self_time["serialize.document_from_json"], "s")
        out["serialize.to_json.self_s"] = (self.self_time["serialize.to_json"], "s")
        out["cli.main.self_s"] = (self.self_time["cli.main"], "s")
        return out

    def call_counts(self):
        """Every counter that must repeat exactly between runs of one seed."""
        out = {k: v for k, v in self.calls.items()}
        out.update({f"count.{k}": v for k, v in self.counts.items()})
        out["distinct_maps"] = len(self._maps)
        out["max_coeff_bits"] = self.max_coeff_bits
        return dict(sorted(out.items()))

    def write_spans(self, path):
        """All spans as gzipped JSON: a name table and four parallel arrays."""
        data = {
            "names": self.names,
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)


def _ratio(num, den):
    return num / den if den else 0.0
