"""Spans and counters around tsrforge's public functions, from outside.

The modules import each other with `from .x import y`, so a function is
replaced in every tsrforge module namespace that holds it, not only where
it is defined.  Methods and dunders are replaced on their class.  Spans
(id, name, start, end, parent id, request id) stay in memory until the run
writes them; field arithmetic is only counted, because it runs millions of
times.  uninstall() restores every original object.

Spans opened in fan-out worker threads hang under the fan-out span.  Those
threads interleave under the GIL, so with --threads 2 the self times of
concurrent spans can add up to more than the wall time.
"""

import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for module-level functions
FUNCTIONS = [
    ("primitivity", "is_irreducible", "primitivity.irreducible"),
    ("primitivity", "is_primitive_poly", "primitivity.primitive"),
    ("primitivity", "is_primitive_element", "primitivity.element"),
    ("polys", "poly_modpow", "polys.modpow"),
    ("polys", "poly_gcd", "polys.gcd"),
    ("matrices", "matrix_charpoly", "matrices.charpoly"),
    ("matrices", "matrix_is_invertible", "matrices.invertible"),
    ("tsr", "tsr_charpoly_formula", "tsr.charpoly_formula"),
    ("tsr", "tsr_step", "tsr.step"),
    ("tsr", "tsr_period", "tsr.period"),
    ("factorint", "factor_integer", "factorint.factor"),
    ("counting", "enumerate_tsrp_bruteforce", "counting.tsrp"),
    ("counting", "enumerate_special_primitives", "counting.special"),
    ("search", "search_primitive_tsr", "search"),
    ("parallel", "first_hit", "parallel.first_hit"),
    ("parallel", "deterministic_map", "parallel.map"),
    ("cosets", "count_trace_one_classes", "cosets.count"),
    ("tables", "fiber_census", "tables.fiber_census"),
    ("cli", "main", "cli"),
]
# (module, class, attribute, span name) for methods that get spans
METHODS = [
    ("polys", "Polynomial", "compose", "polys.compose"),
    ("matrices", "Matrix", "power", "matrices.power"),
]
# (module, class, attribute, counter) for counting-only wrappers
COUNTED = [
    ("fields", "FieldElement", "__mul__", "fields.mul"),
    ("fields", "FieldElement", "__add__", "fields.addsub"),
    ("fields", "FieldElement", "__sub__", "fields.addsub"),
    ("fields", "FieldElement", "inverse", "fields.inverse"),
    ("fields", "FieldElement", "__post_init__", "fields.elements_built"),
    ("tsr", "TsrSpec", "__post_init__", "tsr.spec_built"),
]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, request)
        self.request = None      # id of the request being served
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._counters = []      # one Counter per thread, merged at the end
        self._lock = threading.Lock()
        self._restore = []
        self.fanout_cpu = 0.0
        self.fanout_wall = 0.0
        self.charpoly_inputs = set()

    # --- per-thread state -------------------------------------------------

    def _local(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.counts = Counter()
            tls.last_irreducible = None
            with self._lock:
                self._counters.append(tls.counts)
        return tls

    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    # --- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tls = tracer._local()
            stack = tls.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            if before is not None:
                args = before(tls, sid, args)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.request))
            if after is not None:
                after(tls, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._local().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _adopt(self, fn, parent, counter):
        """fn run by a fan-out worker: its spans hang under the fan-out span."""
        tracer = self

        def task(*args):
            tls = tracer._local()
            tls.counts[counter] += 1
            if tls.stack:
                return fn(*args)
            tls.stack.append(parent)
            try:
                return fn(*args)
            finally:
                tls.stack.pop()

        return task

    # --- layer-specific accounting -----------------------------------------

    def _hooks(self, name):
        """(before, after) callbacks that derive a layer's counts from arguments and results."""
        if name == "primitivity.irreducible":
            def after(tls, args, ok):
                tls.last_irreducible = ok
                tls.counts["primitivity.irreducible.rejects"] += not ok
            return None, after
        if name == "primitivity.primitive":
            def before(tls, sid, args):
                tls.last_irreducible = None
                return args

            def after(tls, args, result):
                tls.counts["primitivity.primitive.accepts"] += bool(result[0])
                if not result[0] and tls.last_irreducible:
                    tls.counts["primitivity.primitive.order_rejects"] += 1
            return before, after
        if name == "polys.modpow":
            def after(tls, args, result):
                _, e, mod = args[:3]
                tls.counts["polys.modpow.ops"] += max(e, 1).bit_length() * mod.degree ** 2
            return None, after
        if name == "matrices.charpoly":
            def after(tls, args, result):
                M = args[0]
                self.charpoly_inputs.add(
                    (M.field.order, M.rows, tuple(e.int_value for e in M.entries)))
            return None, after
        if name == "counting.tsrp":
            def after(tls, args, result):
                q, m, n = args[:3]
                gl = math.prod(q ** m - q ** i for i in range(m))
                tls.counts["counting.tsrp.candidates"] += q ** (n - 1) * gl
                tls.counts["counting.tsrp.hits"] += len(result)
            return None, after
        if name in ("parallel.first_hit", "parallel.map"):
            counter = name + (".probes" if name == "parallel.first_hit" else ".items")

            def before(tls, sid, args):
                tls.fanout_start = (time.perf_counter(), time.process_time())
                return (self._adopt(args[0], sid, counter),) + tuple(args[1:])

            def after(tls, args, result):
                wall0, cpu0 = tls.fanout_start
                with self._lock:
                    self.fanout_wall += time.perf_counter() - wall0
                    self.fanout_cpu += time.process_time() - cpu0
                if name == "parallel.first_hit":
                    useful = args[1] if result is None else result[0] + 1
                    tls.counts["parallel.first_hit.useful"] += useful
            return before, after
        return None, None

    # --- install / uninstall -----------------------------------------------

    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if k == "tsrforge" or k.startswith("tsrforge.")}
        for modname, attr, name in FUNCTIONS:
            orig = getattr(mods[f"tsrforge.{modname}"], attr)
            before, after = self._hooks(name)
            wrapped = self._span(name, orig, after=after, before=before)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for modname, cls, attr, name in METHODS:
            klass = getattr(mods[f"tsrforge.{modname}"], cls)
            orig = klass.__dict__[attr]
            self._restore.append((klass, attr, orig))
            setattr(klass, attr, self._span(name, orig))
        for modname, cls, attr, name in COUNTED:
            klass = getattr(mods[f"tsrforge.{modname}"], cls)
            orig = klass.__dict__[attr]
            self._restore.append((klass, attr, orig))
            setattr(klass, attr, self._count(name, orig))
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict:
    """name -> (calls, self seconds): span time minus the union of its children's."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, name, t0, t1, _, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (t1 - t0) - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_report(tracer: Tracer, cache_before, cache_after) -> dict:
    """Every per-layer figure: name -> (value, unit, base) where base names a ratio's denominator."""
    counts = tracer.counts()
    selfs = self_times(tracer.spans)
    calls = {name: c for name, (c, _) in selfs.items()}
    rep = {}
    for name, (c, s) in sorted(selfs.items()):
        rep[f"{name}.calls"] = (c, "count", None)
        rep[f"{name}.self_s"] = (s, "s", None)
    irr = calls.get("primitivity.irreducible", 0)
    prim = calls.get("primitivity.primitive", 0)
    rep["primitivity.irreducible.reject_ratio"] = (
        _ratio(counts["primitivity.irreducible.rejects"], irr), "ratio",
        "primitivity.irreducible.calls")
    rep["primitivity.primitive.accept_ratio"] = (
        _ratio(counts["primitivity.primitive.accepts"], prim), "ratio",
        "primitivity.primitive.calls")
    rep["primitivity.primitive.order_rejects"] = (
        counts["primitivity.primitive.order_rejects"], "count", None)
    rep["polys.modpow.ops"] = (counts["polys.modpow.ops"], "count", None)
    for key in ("fields.mul", "fields.addsub", "fields.inverse"):
        rep[f"{key}.calls"] = (counts[key], "count", None)
    rep["fields.elements_built"] = (counts["fields.elements_built"], "count", None)
    rep["tsr.spec_built"] = (counts["tsr.spec_built"], "count", None)
    rep["matrices.charpoly.distinct_ratio"] = (
        _ratio(len(tracer.charpoly_inputs), calls.get("matrices.charpoly", 0)), "ratio",
        "matrices.charpoly.calls")
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    rep["factorint.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio",
                                        "factorint.factor.calls")
    rep["counting.tsrp.candidates"] = (counts["counting.tsrp.candidates"], "count", None)
    rep["counting.tsrp.hit_ratio"] = (
        _ratio(counts["counting.tsrp.hits"], counts["counting.tsrp.candidates"]), "ratio",
        "counting.tsrp.candidates")
    probes = counts["parallel.first_hit.probes"]
    rep["parallel.first_hit.probes"] = (probes, "count", None)
    rep["parallel.first_hit.useful_ratio"] = (
        _ratio(counts["parallel.first_hit.useful"], probes), "ratio", "parallel.first_hit.probes")
    rep["parallel.map.items"] = (counts["parallel.map.items"], "count", None)
    rep["parallel.overhead_s"] = (
        selfs.get("parallel.first_hit", (0, 0.0))[1] + selfs.get("parallel.map", (0, 0.0))[1],
        "s", None)
    rep["parallel.wall_s"] = (tracer.fanout_wall, "s", None)
    rep["parallel.cpu_per_wall"] = (_ratio(tracer.fanout_cpu, tracer.fanout_wall), "ratio",
                                    "parallel.wall_s")
    rep["trace.spans"] = (len(tracer.spans), "count", None)
    return rep
