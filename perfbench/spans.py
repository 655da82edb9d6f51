"""Spans around the calls into each mto1 module, for the traced run.

While a Tracer is installed, the public functions listed in SPANS are
replaced, at every name under which an `mto1` module binds them (for example
both `mto1.cyclotomic.predict_from` and `mto1.harness.predict_from`), by a
wrapper that records a span; `uninstall` puts every original back.  Nothing
in `src/mto1` is edited.

A span has a name, a parent (the span that was open when it started) and a
duration.  Hot functions are called millions of times, so spans are not kept
one by one: they are aggregated per (query, name, parent) into a call count,
a count of calls that raised, the total time and the self time.  A span's
self time is its duration minus the durations of its child spans, so the self
times of one query add up to the duration of its `cli.main` span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ROOT_SPAN = "bench"

# span name -> (module, attribute); "Class.method" patches the class, a bare
# name patches the function at every mto1 module binding it
SPANS = {
    "galois.FieldSpec.__init__": ("mto1.galois", "FieldSpec.__init__"),
    "galois.FieldSpec.elements": ("mto1.galois", "FieldSpec.elements"),
    "galois.FieldSpec.star_elements": ("mto1.galois",
                                       "FieldSpec.star_elements"),
    "galois.Poly.eval_index": ("mto1.galois", "Poly.eval_index"),
    "cyclotomic.CycloForm.__init__": ("mto1.cyclotomic", "CycloForm.__init__"),
    "cyclotomic.decompose": ("mto1.cyclotomic", "decompose"),
    "cyclotomic.predict_from": ("mto1.cyclotomic", "predict_from"),
    "cyclotomic.star_fibers": ("mto1.cyclotomic", "star_fibers"),
    "cyclotomic.brute_verdict_star": ("mto1.cyclotomic", "brute_verdict_star"),
    "cyclotomic.random_rootless_poly": ("mto1.cyclotomic",
                                        "random_rootless_poly"),
    "multiplicity.verdict_from_histogram": ("mto1.multiplicity",
                                            "verdict_from_histogram"),
    "multiplicity.check_m_to_1": ("mto1.multiplicity", "check_m_to_1"),
    "multiplicity.admissible_m_set": ("mto1.multiplicity",
                                      "admissible_m_set"),
    "multiplicity.fiber_histogram": ("mto1.multiplicity", "fiber_histogram"),
    "multiplicity.FiniteMapping.__init__": ("mto1.multiplicity",
                                            "FiniteMapping.__init__"),
    "multiplicity.FiniteMapping.from_function": ("mto1.multiplicity",
                                                 "FiniteMapping.from_function"),
    "multiplicity.FiniteMapping.from_table": ("mto1.multiplicity",
                                              "FiniteMapping.from_table"),
    "search.search_forms": ("mto1.search", "search_forms"),
    "harness.build_instances": ("mto1.harness", "build_instances"),
}
FAMILY_PREDICTORS = ("small_m_predict", "small_ell_predict", "monomial_predict",
                     "hd_family_predict", "hd_rootless_gcd", "hd_rootless_scan",
                     "permutes_field", "lift_from_permutation",
                     "transfer_equivalence")
CRITERIA = ("local_criterion_check", "construction1_verdict",
            "construction2_verdict", "construction3_verdict")
TOWERS = ("tower_unit_predict", "tower_line_predict", "tower_gbar_predict")
UNITLINE_FAMILIES = ("g3_family", "g5_family", "halfplane_split",
                     "quartic_rootless_lemma", "g_permutation_lemma",
                     "transfer_families")
MODEL_GENERATORS = ("random_local_instance", "random_construction1_square",
                    "random_construction2_square", "random_construction3_model")
for _mod, _names in (("cyclotomic", FAMILY_PREDICTORS), ("criteria", CRITERIA),
                     ("unitline", TOWERS + UNITLINE_FAMILIES),
                     ("harness", MODEL_GENERATORS)):
    for _name in _names:
        SPANS[f"{_mod}.{_name}"] = (f"mto1.{_mod}", _name)

# the verify evaluators are looked up in this dict, so its entries are wrapped
ITEM_SPAN = "harness.item"
CLI_SPAN = "cli.main"


def mto1_modules():
    """Every mto1 module, imported through the CLI entry point."""
    importlib.import_module("mto1.cli")
    return [m for k, m in sorted(sys.modules.items())
            if (k == "mto1" or k.startswith("mto1.")) and m is not None]


class Tracer:
    """Aggregated spans for one traced run; see the module docstring."""

    def __init__(self):
        self.table = {}              # (query, name, parent) -> [n, raised, total, self]
        self.stack = [[ROOT_SPAN, 0.0]]
        self.query = "setup"
        self.field_elements = 0
        self._undo = []              # (owner, attribute, original value)

    # -- recording --

    def _wrap(self, name, fn):
        table, stack = self.table, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            raised = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                key = (self.query, name, parent[0])
                agg = table.get(key)
                if agg is None:
                    agg = table[key] = [0, 0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += raised
                agg[2] += dur
                agg[3] += dur - frame[1]
        return span

    def call(self, fn, cli_args):
        """Run fn(cli_args) inside a `cli.main` span (the benchmark's own);
        the spans it opens are filed under this query."""
        self.query = " ".join(cli_args)
        return self._wrap(CLI_SPAN, fn)(cli_args)

    # -- patching --

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = mto1_modules()
        for name, (modname, attr) in SPANS.items():
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, orig.__func__))
                else:
                    new = self._wrap(name, orig)
                self._set(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, new)
        harness = importlib.import_module("mto1.harness")
        for key, fn in list(harness.EVALUATORS.items()):
            self._undo.append((harness.EVALUATORS, key, fn))
            harness.EVALUATORS[key] = self._wrap(ITEM_SPAN, fn)
        self._count_field_elements()

    def _count_field_elements(self):
        galois = importlib.import_module("mto1.galois")
        cls = galois.FieldElement
        orig = cls.__dict__["__init__"]

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            self.field_elements += 1
            orig(obj, *args, **kwargs)
        self._set(cls, "__init__", init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading --

    def rows(self):
        """The aggregated spans as JSON-ready dicts, slowest first."""
        out = [{"query": q, "name": n, "parent": p, "calls": a[0],
                "raised": a[1], "total_s": a[2], "self_s": a[3]}
               for (q, n, p), a in self.table.items()]
        return sorted(out, key=lambda r: -r["total_s"])


# -- per-layer metrics -----------------------------------------------------------

def _names(mod, names):
    return {f"{mod}.{n}" for n in names}


class SpanTotals:
    """Sums over a Tracer's table, across queries."""

    def __init__(self, table):
        self.table = table

    def calls(self, names, returned=False):
        """Calls of the named spans not nested in another of them; with
        returned=True, only those that did not raise."""
        names = set(names)
        return sum(a[0] - (a[1] if returned else 0)
                   for (_, n, p), a in self.table.items()
                   if n in names and p not in names)

    def self_s(self, names):
        names = set(names)
        return sum(a[3] for (_, n, _), a in self.table.items() if n in names)

    def total_s(self, names, parent=None):
        """Inclusive time of the named spans, outermost only, optionally
        restricted to one parent span."""
        names = set(names)
        return sum(a[2] for (_, n, p), a in self.table.items()
                   if n in names and p not in names
                   and (parent is None or p == parent))


# name -> unit, in the order printed; BENCHMARK.json lists the same
LAYER_METRICS = {
    "galois.field_build_s": "s",
    "galois.poly_eval_calls": "count",
    "galois.poly_eval_s": "s",
    "galois.field_elements": "count",
    "cyclotomic.forms": "count",
    "cyclotomic.form_build_s": "s",
    "cyclotomic.decompose_s": "s",
    "cyclotomic.predict_calls": "count",
    "cyclotomic.predict_s": "s",
    "cyclotomic.oracle_calls": "count",
    "cyclotomic.oracle_s": "s",
    "cyclotomic.family_predict_s": "s",
    "multiplicity.verdict_calls": "count",
    "multiplicity.verdict_s": "s",
    "multiplicity.check_calls": "count",
    "multiplicity.check_s": "s",
    "multiplicity.admissible_s": "s",
    "multiplicity.mapping_build_s": "s",
    "criteria.models": "count",
    "criteria.check_s": "s",
    "unitline.tower_calls": "count",
    "unitline.tower_s": "s",
    "unitline.family_s": "s",
    "search.candidates": "count",
    "search.hits": "count",
    "search.kernel_s": "s",
    "search.candidates_per_s": "1/s",
    "search.reverify_s": "s",
    "harness.items": "count",
    "harness.checks": "count",
    "harness.build_instances_s": "s",
    "harness.worker_busy_s": "s",
    "harness.pool_efficiency": "ratio",
    "harness.item_max_s": "s",
    "harness.model_yield": "ratio",
    "harness.hypothesis_skip_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.wrapped_calls": "count",
}

ORACLE = {"cyclotomic.star_fibers", "cyclotomic.brute_verdict_star"}
MAPPING = {"multiplicity.FiniteMapping.__init__",
           "multiplicity.FiniteMapping.from_function",
           "multiplicity.FiniteMapping.from_table"}
REVERIFY = {"cyclotomic.CycloForm.__init__", "cyclotomic.brute_verdict_star"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced, untraced, pooled, jobs):
    """Per-layer metrics of a traced run.

    traced / untraced: the serial (--jobs 1) passes with and without spans;
    pooled: the untraced --jobs N pass whose reports give the pool figures,
    or None when the workload has no verify query.
    """
    t = SpanTotals(tracer.table)
    res = traced.results
    kernel_total = t.total_s({"search.search_forms"})
    reverify = t.total_s(REVERIFY, parent="search.search_forms")
    kernel = kernel_total - reverify
    cands = sum(r.work for r in res if r.argv[0] == "search")
    checks = sum(r.checks for r in res)
    skips = sum(r.skips for r in res)
    pool_busy = sum(r.busy_s for r in pooled.results) if pooled else 0.0
    pool_wall = sum(r.pool_s for r in pooled.results) if pooled else 0.0
    values = {
        "galois.field_build_s": t.self_s({"galois.FieldSpec.__init__"}),
        "galois.poly_eval_calls": t.calls({"galois.Poly.eval_index"}),
        "galois.poly_eval_s": t.self_s({"galois.Poly.eval_index"}),
        "galois.field_elements": tracer.field_elements,
        "cyclotomic.forms": t.calls({"cyclotomic.CycloForm.__init__"},
                                    returned=True),
        "cyclotomic.form_build_s": t.self_s({"cyclotomic.CycloForm.__init__"}),
        "cyclotomic.decompose_s": t.self_s({"cyclotomic.decompose"}),
        "cyclotomic.predict_calls": t.calls({"cyclotomic.predict_from"}),
        "cyclotomic.predict_s": t.self_s({"cyclotomic.predict_from"}),
        "cyclotomic.oracle_calls": t.calls(ORACLE),
        "cyclotomic.oracle_s": t.self_s(ORACLE),
        "cyclotomic.family_predict_s": t.self_s(
            _names("cyclotomic", FAMILY_PREDICTORS)),
        "multiplicity.verdict_calls": t.calls(
            {"multiplicity.verdict_from_histogram"}),
        "multiplicity.verdict_s": t.self_s(
            {"multiplicity.verdict_from_histogram"}),
        "multiplicity.check_calls": t.calls({"multiplicity.check_m_to_1"}),
        "multiplicity.check_s": t.self_s({"multiplicity.check_m_to_1"}),
        "multiplicity.admissible_s": t.self_s(
            {"multiplicity.admissible_m_set"}),
        "multiplicity.mapping_build_s": t.self_s(MAPPING),
        "criteria.models": t.calls(_names("criteria", CRITERIA),
                                   returned=True),
        "criteria.check_s": t.self_s(_names("criteria", CRITERIA)),
        "unitline.tower_calls": t.calls(_names("unitline", TOWERS)),
        "unitline.tower_s": t.self_s(_names("unitline", TOWERS)),
        "unitline.family_s": t.self_s(_names("unitline", UNITLINE_FAMILIES)),
        "search.candidates": cands,
        "search.hits": sum(r.hits for r in res),
        "search.kernel_s": kernel,
        "search.candidates_per_s": _ratio(cands, kernel),
        "search.reverify_s": reverify,
        "harness.items": t.calls({ITEM_SPAN}),
        "harness.checks": checks,
        "harness.build_instances_s": t.total_s({"harness.build_instances"}),
        "harness.worker_busy_s": pool_busy,
        "harness.pool_efficiency": _ratio(pool_busy, jobs * pool_wall),
        "harness.item_max_s": max((r.item_max_s for r in pooled.results),
                                  default=0.0) if pooled else 0.0,
        "harness.model_yield": _ratio(
            sum(r.models_kept for r in res),
            t.calls(_names("harness", MODEL_GENERATORS))),
        "harness.hypothesis_skip_ratio": _ratio(skips, skips + checks),
        "cli.self_s": t.self_s({CLI_SPAN}),
        "cli.output_bytes": sum(r.output_bytes for r in res),
        "trace.traced_wall_s": traced.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_ratio": _ratio(traced.wall_s, untraced.wall_s),
        "trace.wrapped_calls": sum(a[0] for a in tracer.table.values()),
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
