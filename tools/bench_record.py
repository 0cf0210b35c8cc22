"""Record layer timings and benchmark medians of one or more checkouts in a BENCH_*.json.

    python3 tools/bench_record.py --side parent=../parent --side change=. --out BENCH_15.json

Each --side LABEL=PATH names the root of a tsrforge source checkout.  For
every side the recorder writes:

- layer rows: microseconds per call of `poly_modpow` (X^e mod f with
  e = q^n - 2), `is_irreducible` and `is_primitive_poly`, each on the same
  seeded sample of monic polynomials with f(0) != 0, at degrees 20, 40 and 64
  over F_2, 10, 20 and 40 over F_3 and 8 over F_9; microseconds per
  `matrix_is_invertible` call on SAMPLE seeded m x m matrices over F_2 at
  m = 2, 3 and 5 and over F_5 at m = 2, each call on a new `Matrix` built
  from the stored entries, so it times one Hessenberg pass; microseconds per
  `is_primitive_poly` call on primitive inputs, where every stage runs:
  x^63 + x + 1 over F_2 and the pools of perfbench/expected/certify.json
  (F_3 degree 20, F_4 degree 12, F_9 degree 8), each call on an emptied
  ring cache as a caller with a new f finds it; microseconds per
  `is_primitive_poly` call on SAMPLE seeded fiber candidates g(X) + lam of
  the census shapes, g monic over F_q with g(0) = 0 and lam a primitive
  element of F_{q^m}, at F_16 degree 3, F_121 degree 3 and F_1024
  degree 2, each a new f to the ring cache as in a census; milliseconds
  per call of the element tally `primitive_trace_one_count` at m = 8 and
  10 and of the class count `count_trace_one_classes` at m = 10; and
  milliseconds per repeated `subfield_maps` call (`build`: a cache lookup
  where the tables are cached), to build the tables uncached
  (`_subfield_tables.__wrapped__`) and to run 500 `descend(embed(x))`
  round trips, at F_{3^6} over F_9 and F_{2^20} over F_{2^10}; microseconds
  per `search._alpha_field` call, the search's root of its first primitive
  f, at (q, m) = (16, 3), (4, 5), (64, 2) and (9, 3); microseconds
  per `tsr_step` over one whole orbit, from (1, 0, ..., 0), of the first
  register of each 4095-step walk stratum of perfbench/expected/walk.json,
  and microseconds per `tsr_period` call on those four registers; and
  milliseconds per call of the candidate scans: `search_primitive_tsr` at
  (2, 3, 9), (4, 3, 3) and (13, 3, 3), the P_mnq and P_qmn censuses at
  (4, 2, 3), the register census `enumerate_tsrp_bruteforce` at (3, 2, 3),
  (5, 2, 1) and (4, 2, 1), `generate_table("t3")`, `fiber_census` on the rows t4 key 4
  (F_81), t2 key 6 (F_64) and t5 key 13 (F_169), `primitive_elements` of
  F_{2^10} and F_121, and `verify_conjecture` in the composition form at
  (2, 2, 7) and the direct form at (5, 2, 3); microseconds per
  `Polynomial.compose` f(g(X)) on the first (f, g) hit of
  `search_primitive_tsr` at (4, 2, 3) and (3, 3, 3); microseconds per
  `minimal_polynomial` call on a seeded sample of elements of F_4096 over
  F_2 and of F_729 over F_9, and per `conjugate_product` call on the
  search's step-5 polynomial at (q, m, n) = (16, 3, 3) and (9, 2, 3); and
  microseconds per ring product a*b mod f in the field kernel's ring
  F_q[X]/(f) (`ring.mul` on reduced residues) for a seeded monic f and
  SAMPLE seeded pairs, at F_4 degree 12, F_16 degree 4, F_9 degree 8, F_81
  degree 2 and F_1024 degree 2; microseconds per element product
  (`field_mul`, `Field.ops.mul`) and per inverse (`field_inv`,
  `Field.ops.inv`) on FIELD_OP_SAMPLE seeded nonzero canonical ints of
  F_{2^17}, F_{2^24}, F_{3^11} and F_{5^8}, fields above the exp/log table
  bound whose elements multiply as one block of the field's packed
  kernel (`PackedKernel.element_ops`); milliseconds per cold pass of
  `factor_integer.__wrapped__` (the function without its cache) over the 45
  distinct q^n - 1 that a `construct` request names (the ladder's q^(mn)
  and the (q, degree) of every certify pool), and microseconds per cold
  call on FACTOR_SAMPLE seeded integers below 2^64; and microseconds per
  `tsr._homogenize` call g^m h(X^n / g) on SAMPLE seeded (h, g) pairs,
  h monic of degree m with h(0) != 0 and g(0) = 1 of degree <= n - 1, at
  each `tsrp` shape (q, m, n) of perfbench/expected/census.json; microseconds
  per `format_poly` and per `parse_poly` of its text at the certify shapes,
  as `test-primitive` formats them: x^63 + x + 1 over F_2 with the witnesses
  of its certificate, and the pools of F_3 degree 20 and F_9 degree 8; and
  microseconds per `search._assemble` call, the register built from the
  first hit of `_composition_scan`, at the `search_primitive_tsr` shapes,
  each on an emptied ring cache;
- end-to-end rows: every end-to-end metric that `perfbench/run.py --trace 0`
  prints, for both workloads, per seed of SEEDS and as the median over them,
  each run as long as `run_seconds` of BENCHMARK.json.

Every layer row keeps SIGNIFICANT figures, so a small row moves in fine steps.
Layer rows are timed in a fresh interpreter that imports that side's src/,
LAYER_ROUNDS short rounds per side; a round keeps the fastest of REPEATS
passes, `layers` keeps each row's fastest round, as a busy shared host
can slow a pass but not speed it up, and `layers_median` its median of
rounds, which one lucky round cannot move.  The file keeps every round
under `layer_rounds`, so a row that moved can be told apart from a host
whose whole round moved.  Each side records its git sha and a sha256 of
its src/ files (`src_sha256`), which names the code even where the side is
not a git work tree.  Layer rounds and
benchmark runs alternate between the sides, which run first in turn, so
host drift falls on both.  Stdlib only and offline; nothing is installed.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

LAYER_CASES = [(2, 20), (2, 40), (2, 64), (3, 10), (3, 20), (3, 40), (9, 8)]
SAMPLE = 8  # polynomials per (q, degree), matrices per (q, m)
INVERTIBLE_CASES = [(2, 2), (2, 3), (2, 5), (5, 2)]  # (q, m) of matrix_is_invertible
REPEATS = 9  # timed passes over each sample; the fastest pass is kept
LAYER_ROUNDS = 16  # fresh interpreters per side, alternating; every round and each row's fastest are kept
TALLY_M = (8, 10)  # element tally sizes, one call per pass
CLASS_COUNT_M = (10,)  # count_trace_one_classes sizes, one call per pass
SUBFIELD_CASES = [(729, 9), (1 << 20, 1 << 10)]  # (field, base) orders
ALPHA_POINTS = [(16, 3), (4, 5), (64, 2), (9, 3)]  # (q, m) of _alpha_field
ROUND_TRIPS = 500
WALK_STRATA = ("prim_2_4_3", "prim_4_2_3", "prim_2_2_6", "prim_8_2_2")  # q^(mn) = 4096
SEARCH_POINTS = [(2, 3, 9), (4, 3, 3), (13, 3, 3)]  # also the shapes of the _assemble rows
CODEC_CASES = ("F3.deg20", "F9.deg8")  # certify pools of the format_poly / parse_poly rows
TSRP_POINTS = [(3, 2, 3), (5, 2, 1), (4, 2, 1)]  # (q, m, n) of enumerate_tsrp_bruteforce
FIBER_CANDIDATES = [(2, 4, 3), (11, 2, 3), (2, 10, 2)]  # (q, m, degree): g(X) + lam over F_{q^m}
COMPOSE_POINTS = [(4, 2, 3), (3, 3, 3)]  # compose f(g(X)) on the search's first hit
FIBER_ROWS = [("t4", 4), ("t2", 6), ("t5", 13)]  # (table, key): F_81, F_64, F_169
PRIMITIVE_ELEMENT_ORDERS = (1 << 10, 121)
MINPOLY_CASES = [(1 << 12, 2), (729, 9)]  # (field, base) orders of minimal_polynomial
CONJUGATE_POINTS = [(16, 3, 3), (9, 2, 3)]  # conjugate_product on the search's step-5 polynomial
RING_CASES = [(4, 12), (16, 4), (9, 8), (81, 2), (1024, 2)]  # (q, deg f) of ring products
FACTOR_SAMPLE = 16  # seeded integers below 2^64, factored cold
FIELD_OP_ORDERS = (1 << 17, 1 << 24, 3 ** 11, 5 ** 8)  # above the 2^16 table bound
FIELD_OP_SAMPLE = 400  # element products and inverses per pass
SIGNIFICANT = 4
SEEDS = range(101, 111)  # perfbench seeds, one run per workload each
WORKLOADS = ("construct", "count")
RUN_SECONDS = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["run_seconds"]


def sig(x: float) -> float:
    """x rounded to SIGNIFICANT figures."""
    return float(f"{x:.{SIGNIFICANT}g}")


def per_call(call, count: int) -> float:
    """Fastest of REPEATS passes, in seconds per call of call(0) .. call(count - 1)."""
    passes = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for i in range(count):
            call(i)
        passes.append((time.perf_counter() - t0) / count)
    return min(passes)


def layer_rows(src: str) -> dict:
    """Per-call times of the layer functions, timed in this interpreter on src/."""
    sys.path.insert(0, str(Path(src) / "src"))
    import random

    from tsrforge.cosets import count_trace_one_classes, primitive_trace_one_count
    from tsrforge.counting import enumerate_special_primitives, enumerate_tsrp_bruteforce
    from tsrforge.fields import base_digits, make_field, subfield_maps
    from tsrforge.matrices import Matrix, matrix_is_invertible
    from tsrforge.polys import Polynomial, format_poly, parse_poly, poly_modpow
    from tsrforge.primitivity import (conjugate_product, is_irreducible, is_primitive_poly,
                                      minimal_polynomial, primitive_elements)
    from tsrforge import fields, primitivity
    from tsrforge.search import (_alpha_field, _assemble, _composition_scan, _iter_primitive,
                                 search_primitive_tsr, verify_conjecture)
    from tsrforge.tables import TABLES, fiber_census, generate_table
    from tsrforge.factorint import factor_integer
    from tsrforge.tsr import TsrSpec, TsrState, _homogenize, tsr_period, tsr_step

    rows = {}
    for q, n in LAYER_CASES:
        field, rng = make_field(q), random.Random(q * 1000 + n)
        polys = [Polynomial.make(field, [rng.randrange(1, q)]
                                 + base_digits(rng.randrange(q ** (n - 1)), q, n - 1) + [1])
                 for _ in range(SAMPLE)]
        x, e = Polynomial.x(field), q ** n - 2
        calls = {
            "poly_modpow": lambda i: poly_modpow(x, e, polys[i]),
            "is_irreducible": lambda i: is_irreducible(polys[i]),
            "is_primitive_poly": lambda i: is_primitive_poly(polys[i]),
        }
        for name, call in calls.items():
            rows[f"{name}.F{q}.deg{n}_us"] = sig(per_call(call, SAMPLE) * 1e6)
    for q, m in INVERTIBLE_CASES:
        field, rng = make_field(q), random.Random(q * 100 + m)
        # a Matrix keeps its charpoly, so each call gets a new one and runs one Hessenberg pass
        ints = [tuple(rng.randrange(q) for _ in range(m * m)) for _ in range(SAMPLE)]
        rows[f"matrix_is_invertible.F{q}.m{m}_us"] = sig(
            per_call(lambda i: matrix_is_invertible(Matrix(field, m, m, ints[i])), SAMPLE) * 1e6)
    certify = json.loads((Path(src) / "perfbench" / "expected" / "certify.json").read_text())["primitive"]
    pools = {"F2.deg63": [Polynomial.make(make_field(2), [1, 1] + [0] * 61 + [1])]}
    for key, pool in certify.items():
        q, n = map(int, key[1:].split("_deg"))
        pools[f"F{q}.deg{n}"] = [Polynomial.make(make_field(q), c) for c in pool]
    uncache = getattr(getattr(primitivity, "_ring", None), "cache_clear", lambda: None)
    for case, pool in pools.items():
        rows[f"is_primitive_poly.primitive.{case}_us"] = sig(
            per_call(lambda i: uncache() or is_primitive_poly(pool[i]), len(pool)) * 1e6)
    for q, m, n in FIBER_CANDIDATES:
        big, rng = make_field(q ** m), random.Random(q * 100 + m * 10 + n)
        base, embed, _ = subfield_maps(big, q)
        lams = primitive_elements(big)
        cands = [Polynomial.make(big, [rng.choice(lams)] + [embed(base.element(rng.randrange(q)))
                                                            for _ in range(n - 1)] + [1])
                 for _ in range(SAMPLE)]
        rows[f"is_primitive_poly.fiber.F{q ** m}.deg{n}_us"] = sig(
            per_call(lambda i: is_primitive_poly(cands[i]), SAMPLE) * 1e6)
    for m in TALLY_M:
        rows[f"primitive_trace_one_count.m{m}_ms"] = sig(per_call(lambda _: primitive_trace_one_count(m), 1) * 1e3)
    for m in CLASS_COUNT_M:
        rows[f"count_trace_one_classes.m{m}_ms"] = sig(per_call(lambda _: count_trace_one_classes(m), 1) * 1e3)
    for order, base_order in SUBFIELD_CASES:
        big = make_field(order)
        base, embed, descend = subfield_maps(big, base_order)  # also builds big.ops, untimed
        xs = [base.element(i % base.order) for i in range(ROUND_TRIPS)]
        case = f"F{order}.F{base_order}_ms"
        rows[f"subfield_maps.build.{case}"] = sig(per_call(lambda _: subfield_maps(big, base_order), 1) * 1e3)
        rows[f"subfield_tables.uncached.{case}"] = sig(
            per_call(lambda _: fields._subfield_tables.__wrapped__(big, base), 1) * 1e3)
        rows[f"subfield_maps.roundtrip{ROUND_TRIPS}.{case}"] = sig(
            per_call(lambda i: descend(embed(xs[i])), ROUND_TRIPS) * ROUND_TRIPS * 1e3)
    for q, m in ALPHA_POINTS:
        f = next(_iter_primitive(make_field(q), m))
        _alpha_field(q, m, f)  # builds the fields and the subfield tables, untimed
        rows[f"_alpha_field.q{q}m{m}_us"] = sig(per_call(lambda _: _alpha_field(q, m, f), 1) * 1e6)
    walk = json.loads((Path(src) / "perfbench" / "expected" / "walk.json").read_text())["strata"]
    specs = [TsrSpec.from_json(walk[name][0]) for name in WALK_STRATA]
    for name, spec in zip(WALK_STRATA, specs):
        s0 = TsrState.from_ints(spec, [1] + [0] * (spec.m * spec.n - 1))

        def orbit(_):
            s, steps = tsr_step(spec, s0), 1
            while s.blocks != s0.blocks:
                s, steps = tsr_step(spec, s), steps + 1
            return steps

        steps = orbit(0)  # also fills the step's caches, untimed
        rows[f"tsr_step.{name}_us"] = sig(per_call(orbit, 1) / steps * 1e6)
    rows["tsr_period.walk4_us"] = sig(per_call(lambda i: tsr_period(specs[i]), len(specs)) * 1e6)
    scans = {f"search_primitive_tsr.q{q}m{m}n{n}_ms": lambda _, q=q, m=m, n=n: search_primitive_tsr(q, m, n)
             for q, m, n in SEARCH_POINTS}
    for form in ("P_mnq", "P_qmn"):
        scans[f"enumerate_special_primitives.{form}.q4m2n3_ms"] = \
            lambda _, form=form: enumerate_special_primitives(4, 2, 3, form)
    for q, m, n in TSRP_POINTS:
        scans[f"enumerate_tsrp_bruteforce.q{q}m{m}n{n}_ms"] = \
            lambda _, q=q, m=m, n=n: enumerate_tsrp_bruteforce(q, m, n)
    for table, key in FIBER_ROWS:
        _, q, ext, (shape,), _ = next(row for row in TABLES[table] if row[0] == key)
        scans[f"fiber_census.F{q ** ext}.{table}k{key}_ms"] = \
            lambda _, q=q, ext=ext, shape=shape: fiber_census(q, ext, shape)
    for order in PRIMITIVE_ELEMENT_ORDERS:
        scans[f"primitive_elements.F{order}_ms"] = lambda _, order=order: primitive_elements(make_field(order))
    scans["generate_table.t3_ms"] = lambda _: generate_table("t3")
    scans["verify_conjecture.composition.q2m2n7_ms"] = lambda _: verify_conjecture(2, 2, 7, "composition")
    scans["verify_conjecture.direct.q5m2n3_ms"] = lambda _: verify_conjecture(5, 2, 3, "direct")
    for name, call in scans.items():
        call(0)  # builds the fields and their tables, untimed
        rows[name] = sig(per_call(call, 1) * 1e3)
    for q, m, n in COMPOSE_POINTS:
        prov = search_primitive_tsr(q, m, n).provenance
        rows[f"compose.q{q}m{m}n{n}_us"] = sig(per_call(lambda _: prov.f.compose(prov.g), 1) * 1e6)
    for order, base_order in MINPOLY_CASES:
        field, rng = make_field(order), random.Random(order)
        xs = [field.element(rng.randrange(1, order)) for _ in range(SAMPLE)]
        minimal_polynomial(xs[0], base_order)  # builds the subfield tables, untimed
        rows[f"minimal_polynomial.F{order}.F{base_order}_us"] = sig(
            per_call(lambda i: minimal_polynomial(xs[i], base_order), SAMPLE) * 1e6)
    for q, m, n in CONJUGATE_POINTS:
        step5 = search_primitive_tsr(q, m, n).provenance.step5
        rows[f"conjugate_product.q{q}m{m}n{n}_us"] = sig(per_call(lambda _: conjugate_product(step5, q), 1) * 1e6)
    for q, n in RING_CASES:
        rng = random.Random(q * 1000 + n)
        ring = make_field(q).ops.kernel.ring([rng.randrange(q) for _ in range(n)] + [1])
        xs = [ring.reduce([rng.randrange(q) for _ in range(n)]) for _ in range(SAMPLE + 1)]
        rows[f"ring_mul.F{q}.deg{n}_us"] = sig(per_call(lambda i: ring.mul(xs[i], xs[i + 1]), SAMPLE) * 1e6)
    for order in FIELD_OP_ORDERS:
        ops, rng = make_field(order).ops, random.Random(order)
        xs = [rng.randrange(1, order) for _ in range(FIELD_OP_SAMPLE + 1)]
        rows[f"field_mul.F{order}_us"] = sig(per_call(lambda i: ops.mul(xs[i], xs[i + 1]), FIELD_OP_SAMPLE) * 1e6)
        rows[f"field_inv.F{order}_us"] = sig(per_call(lambda i: ops.inv(xs[i]), FIELD_OP_SAMPLE) * 1e6)
    sys.path.insert(0, str(Path(src) / "perfbench"))
    import workloads

    scan = json.loads((Path(src) / "perfbench" / "expected" / "scan.json").read_text())["ladder"]
    named = {(q, m * n) for q, m, n in (map(int, key.split(",")) for key in scan)}
    named |= {(2, shape[0]) for pools in (workloads.F2_TRINOMIALS, workloads.F2_PENTANOMIALS)
              for pool in pools.values() for shape in pool}
    named |= {(q, p - 1) for q, primes in workloads.PHI_PRIMES.items() for p in primes}
    named |= set(workloads.REDUCIBLE_SMALL.items()) | {(2, 64)}
    named |= {(int(q), int(n)) for q, n in (key[1:].split("_deg") for key in certify)}
    group_orders = sorted({q ** n - 1 for q, n in named})
    rows[f"factor_integer.cold.construct{len(group_orders)}_ms"] = sig(
        per_call(lambda _: [factor_integer.__wrapped__(v) for v in group_orders], 1) * 1e3)
    rng = random.Random(64)
    values = [rng.randrange(2, 1 << 64) for _ in range(FACTOR_SAMPLE)]
    rows["factor_integer.cold.random64_us"] = sig(
        per_call(lambda i: factor_integer.__wrapped__(values[i]), FACTOR_SAMPLE) * 1e6)
    census = json.loads((Path(src) / "perfbench" / "expected" / "census.json").read_text())["tsrp"]
    for q, m, n in (map(int, key.split(",")) for key in census):
        field, rng = make_field(q), random.Random(q * 100 + m * 10 + n)
        pairs = [(Polynomial.make(field, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(m - 1)] + [1]),
                  Polynomial.make(field, [1] + [rng.randrange(q) for _ in range(n - 1)])) for _ in range(SAMPLE)]
        rows[f"_homogenize.q{q}m{m}n{n}_us"] = sig(
            per_call(lambda i: _homogenize(pairs[i][0], pairs[i][1], m, n), SAMPLE) * 1e6)
    trinomial = pools["F2.deg63"][0]
    texts = {"F2.deg63w": [trinomial] + [w for _, w in is_primitive_poly(trinomial)[1].witnesses]}
    texts.update((case, pools[case]) for case in CODEC_CASES)
    for case, polys in texts.items():
        field, strings = polys[0].field, [format_poly(p) for p in polys]
        rows[f"format_poly.{case}_us"] = sig(per_call(lambda i: format_poly(polys[i]), len(polys)) * 1e6)
        rows[f"parse_poly.{case}_us"] = sig(per_call(lambda i: parse_poly(strings[i], field), len(polys)) * 1e6)
    for q, m, n in SEARCH_POINTS:
        base = make_field(q)
        hit = _composition_scan(base, m, n, None)[0]
        rows[f"_assemble.q{q}m{m}n{n}_us"] = sig(
            per_call(lambda _: uncache() or _assemble(q, m, n, base, *hit), 1) * 1e6)
    return rows


def run_layers(src: str) -> dict:
    """layer_rows of the checkout at src, in a fresh interpreter."""
    child = "import json, sys, bench_record; print(json.dumps(bench_record.layer_rows(sys.argv[1])))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent))
    out = subprocess.run([sys.executable, "-c", child, src],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_bench(src: str, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one perfbench run from the checkout at src."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
                         cwd=src, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics


def git_sha(src: str) -> dict:
    def git(*args):
        res = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src")
    digest = hashlib.sha256()
    for path in sorted((Path(src) / "src").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return {"sha": git("rev-parse", "HEAD"), "src_dirty": bool(status) if status is not None else None,
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--side", action="append", default=[], metavar="LABEL=PATH")
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    sides = dict(s.split("=", 1) for s in args.side)
    if not sides:
        ap.error("give at least one --side LABEL=PATH")
    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "seeds": list(SEEDS), "seconds": RUN_SECONDS,
           "sides": {}}
    order = list(sides.items())
    layers = {label: [] for label in sides}
    for i in range(LAYER_ROUNDS):
        for label, src in order[::-1] if i % 2 else order:
            layers[label].append(run_layers(src))
    runs = {(label, w): [] for label in sides for w in WORKLOADS}
    for i, seed in enumerate(SEEDS):
        for label, src in order[::-1] if i % 2 else order:
            for w in WORKLOADS:
                runs[label, w].append(run_bench(src, w, seed))
    for label, src in order:
        rounds = layers[label]
        doc["sides"][label] = dict(git_sha(src), e2e={}, layer_rounds=rounds,
                                   layers={row: min(r[row] for r in rounds) for row in rounds[0]},
                                   layers_median={row: statistics.median(r[row] for r in rounds) for row in rounds[0]})
    for (label, w), results in runs.items():
        doc["sides"][label]["e2e"][w] = {
            "median": {name: statistics.median(r[name] for r in results) for name in results[0]},
            "runs": results}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
