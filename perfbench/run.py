"""tsrforge benchmark: one closed-loop client per workload, every answer checked.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (the program is imported from
./src).  The run sends the rounds of perfbench/workloads.py one request at
a time, each after the previous one returned, and stops at the round
boundary nearest to --seconds; then it checks the known-defect requests.

Times are given in units of the host's speed.  Before each request the
run times a fixed pure-Python kernel (reference_s), and the latencies and
the request rate are reported in multiples of its median over the run
(unit `ref`).  On a shared host whose speed drifts by a third over minutes,
this is what lets two sets of runs of the same code agree; a slower or
faster program still moves every figure by its full amount, because the
kernel belongs to the benchmark.  The raw milliseconds are in the meta line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first
TRACE_ROUNDS rounds with spans around each layer, so that the per-layer
counts describe the same work whatever the speed of the host or of the
program; it replays them untraced, requires the two outputs to be
byte-identical, prints the per-layer metrics with the tracing
overhead and writes the spans to .perfbench/.  The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_ROUND = 4  # setup samples taken at the start of every round
# With three rounds each slot's latencies form clusters of at least three
# around the median and the 80th percentile (see workloads).
MIN_ROUNDS = 3
TRACE_ROUNDS = 2

# end-to-end metrics reported by --trace 0: name -> unit (ref: see above)
END_TO_END = {
    "requests_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics reported by --trace 1: name -> unit.  Times are kept
# only for layers that run on every workload, so that none reads a constant
# 0; every layer's self time, and each ratio's base, is in the spans file.
PER_LAYER = {
    "primitivity.irreducible.calls": "count",
    "primitivity.irreducible.self_s": "s",
    "primitivity.irreducible.reject_ratio": "ratio",
    "primitivity.primitive.calls": "count",
    "primitivity.primitive.self_s": "s",
    "primitivity.primitive.accept_ratio": "ratio",
    "primitivity.primitive.order_rejects": "count",
    "primitivity.element.calls": "count",
    "polys.modpow.calls": "count",
    "polys.modpow.self_s": "s",
    "polys.modpow.ops": "count",
    "polys.gcd.calls": "count",
    "polys.gcd.self_s": "s",
    "polys.compose.calls": "count",
    "fields.mul.calls": "count",
    "fields.addsub.calls": "count",
    "fields.inverse.calls": "count",
    "fields.elements_built": "count",
    "matrices.charpoly.calls": "count",
    "matrices.charpoly.self_s": "s",
    "matrices.charpoly.distinct_ratio": "ratio",
    "matrices.invertible.calls": "count",
    "matrices.power.calls": "count",
    "tsr.charpoly_formula.calls": "count",
    "tsr.charpoly_formula.self_s": "s",
    "tsr.step.calls": "count",
    "tsr.period.calls": "count",
    "tsr.spec_built": "count",
    "factorint.factor.calls": "count",
    "factorint.factor.self_s": "s",
    "factorint.cache_hit_ratio": "ratio",
    "counting.tsrp.candidates": "count",
    "counting.tsrp.hit_ratio": "ratio",
    "counting.special.calls": "count",
    "search.calls": "count",
    "parallel.first_hit.probes": "count",
    "parallel.first_hit.useful_ratio": "ratio",
    "parallel.map.items": "count",
    "parallel.overhead_s": "s",
    "parallel.cpu_per_wall": "ratio",
    "cosets.count.calls": "count",
    "tables.fiber_census.calls": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "tsrforge" / "__init__.py").is_file():
        raise BenchError(f"no tsrforge sources under {src}")
    sys.path.insert(0, str(src))
    import tsrforge.cli
    return tsrforge


def thread_count() -> int:
    return min(workloads.THREADS_WANTED, len(os.sched_getaffinity(0)))


def measure_setup() -> float:
    """Seconds to `import tsrforge` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tsrforge; print(time.perf_counter() - t)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def reference_s() -> float:
    """Seconds for one pass of a fixed kernel: the product of two degree-39
    integer polynomials mod 65521, in the list-and-int style of tsrforge's
    own arithmetic, so that it slows down with the host as the program does."""
    a, b = list(range(1, 41)), list(range(7, 47))
    t0 = time.perf_counter()
    for _ in range(12):
        c = [0] * 79
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % 65521
    return time.perf_counter() - t0


def execute(tsrforge, req) -> dict:
    """Serve one request; the result holds everything the checks look at."""
    out, err = io.StringIO(), io.StringIO()
    code, tb = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in req:
                code = tsrforge.cli.main(req["argv"])
            else:
                code = walk(tsrforge, req["walk"], out)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        tb = traceback.format_exc()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "traceback": tb}


def walk(tsrforge, doc, out) -> int:
    """Library session: period, then one orbit from the given state."""
    spec = tsrforge.TsrSpec.from_json(doc)
    period = tsrforge.tsr_period(spec)
    s0 = tsrforge.TsrState.from_ints(spec, doc["state"])
    limit = spec.q ** (spec.m * spec.n)
    s, orbit = tsrforge.tsr_step(spec, s0), 1
    while s.blocks != s0.blocks and orbit < limit:
        s, orbit = tsrforge.tsr_step(spec, s), orbit + 1
    out.write(json.dumps({"orbit": orbit, "period": period}, sort_keys=True) + "\n")
    return 0


def more_rounds(elapsed, round_s, seconds, rounds):
    """Whether to start another round: a fixed count, or else at least
    MIN_ROUNDS and then stop at the round boundary nearest to `seconds`."""
    if rounds is not None:
        return len(round_s) < rounds
    if len(round_s) < MIN_ROUNDS:
        return True
    return elapsed + elapsed / len(round_s) / 2 < seconds


def run_rounds(tsrforge, args, expected, threads, tracer=None, rounds=None, host=None):
    """Closed loop over whole rounds: one request at a time, each checked.

    With `host` (a dict of lists), every round starts with SETUP_PER_ROUND
    setup samples and every request is preceded by one reference sample,
    so that both are spread over the whole run."""
    records, round_s = [], []
    start = time.perf_counter()
    while more_rounds(time.perf_counter() - start, round_s, args.seconds, rounds):
        r0 = time.perf_counter()
        if host is not None:
            host["setup"] += [measure_setup() for _ in range(SETUP_PER_ROUND)]
        for req in workloads.plan_round(args.workload, args.seed, len(round_s), expected, threads):
            if tracer is not None:
                tracer.request = req["id"]
            if host is not None:
                host["reference"].append(reference_s())
            t0 = time.perf_counter()
            res = execute(tsrforge, req)
            latency = time.perf_counter() - t0
            records.append((req, res, latency, workloads.check(req, res)))
        round_s.append(round(time.perf_counter() - r0, 3))
    return records, time.perf_counter() - start, round_s


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics.  It uses every sample near the quantile instead of one,
    so host jitter on a single request moves it less than a nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def known_defects(tsrforge, expected):
    """Check the known-defect requests once; they stay outside the timed metrics."""
    items = []
    for req in workloads.known_defect_requests(expected):
        res = execute(tsrforge, req)
        items.append({"id": req["id"], "reason": workloads.check(req, res)})
    return {"attempted": len(items), "failed": sum(i["reason"] is not None for i in items),
            "items": items}


def env_clean() -> bool:
    return workloads.GUARD_ENV not in os.environ


def main(argv=None) -> int:
    args = parse_args(argv)
    if not env_clean():
        raise BenchError(f"{workloads.GUARD_ENV} is set; the run needs the default guards")
    tsrforge = import_program()
    expected = workloads.load_expected(args.workload)
    threads = thread_count()
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "threads": threads, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": git_sha(),
            "why": workloads.WHY[args.workload]}

    if args.trace:
        tracer = tracing.Tracer()
        cache0 = tsrforge.factor_integer.cache_info()
        with tracer:
            records, traced_s, round_s = run_rounds(tsrforge, args, expected, threads, tracer,
                                                    rounds=TRACE_ROUNDS)
        cache1 = tsrforge.factor_integer.cache_info()
        replay, untraced_s, _ = run_rounds(tsrforge, args, expected, threads, rounds=len(round_s))
        identical = all(a[1] == b[1] for a, b in zip(records, replay))
        identical = identical and len(records) == len(replay)
        report = tracing.layer_report(tracer, cache0, cache1)
        for name in PER_LAYER:
            report.setdefault(name, (0, PER_LAYER[name], None))
        report["trace.traced_s"] = (traced_s, "s", None)
        report["trace.untraced_s"] = (untraced_s, "s", None)
        report["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio",
                                          "trace.untraced_s")
        write_spans(args, tracer, report)
        meta.update(round_s=round_s, requests=len(records), outputs_identical=identical)
        metrics = {name: {"value": report[name][0], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        failed = sum(rec[3] is not None for rec in records)
        correct = identical
    else:
        host = {"setup": [], "reference": []}
        records, _, round_s = run_rounds(tsrforge, args, expected, threads, host=host)
        latencies = [rec[2] for rec in records]
        failed = sum(rec[3] is not None for rec in records)
        pct = workloads.TAIL_PERCENTILE
        p50 = hd_quantile(latencies, 0.5)
        tail = hd_quantile(latencies, pct / 100)
        # closed loop, one client: the program is busy for the sum of the latencies
        rate = (len(records) - failed) / sum(latencies)
        ref = statistics.median(host["reference"])
        meta.update(round_s=round_s, requests=len(records), tail_percentile=pct,
                    tail_samples_beyond=sum(v > tail for v in latencies),
                    quantile_estimator="harrell-davis", reference_ms=ref * 1e3,
                    requests_per_s=rate, latency_p50_ms=p50 * 1e3, latency_tail_ms=tail * 1e3,
                    setup_samples=len(host["setup"]))
        values = {
            "requests_per_kref": rate * ref * 1e3,
            "latency_p50_ref": p50 / ref,
            "latency_tail_ref": tail / ref,
            "setup_s": statistics.median(host["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        correct = True

    meta["known_defects"] = known_defects(tsrforge, expected)
    meta["failures"] = [{"id": rec[0]["id"], "reason": rec[3]} for rec in records
                        if rec[3] is not None][:20]
    clean = env_clean()
    meta["guard_env_clean"] = clean
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": correct and clean and failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def write_spans(args, tracer, report):
    """All spans and the full per-layer table, written once the run is over."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"layers": {k: {"value": v, "unit": u, "base": b}
                                        for k, (v, u, b) in sorted(report.items())}}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    layers = {k: round(v, 6) if isinstance(v, float) else v
              for k, (v, u, b) in sorted(report.items()) if k.endswith("_s")}
    print(json.dumps({"layer_seconds": layers, "spans_file": str(path.relative_to(ROOT))},
                     sort_keys=True))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
