"""Regenerate the committed answers in perfbench/expected/.

    PYTHONPATH=src python3 perfbench/make_expected.py

Run it only when a pool changes.  Answers produced by tsrforge are kept
only after an independent check: scan results by the determinant route of
the characteristic polynomial and the oracle's primitivity test, censuses
by the fibration theorem and the equal sizes of P_mnq and P_qmn, walk
periods by stepping every state, certify pools by the oracle.
"""

import json
import math
import random
import re
import sys

import oracle
import run
import tsrforge.cli
import workloads
from tsrforge import (Matrix, TsrSpec, TsrState, format_poly, is_primitive_tsr, make_field,
                      parse_poly, tsr_charpoly_direct, tsr_period, tsr_step)

# One request per slot and round: 27 slots here, 23 for census, 17 for
# certify and 13 for walk, so a round of the workload `construct` (scan and
# certify) holds 44 requests and one of `count` (census and walk) 36.
SCAN_LADDER = [
    (2, 2, 7), (2, 2, 9), (2, 2, 11), (2, 2, 13), (2, 3, 5), (2, 3, 7),
    (2, 3, 9), (2, 4, 5), (2, 5, 5), (3, 2, 5), (3, 2, 7), (3, 3, 3), (3, 5, 3),
    (3, 3, 5), (3, 4, 3), (4, 2, 3), (4, 2, 5), (4, 3, 3), (5, 2, 3), (5, 2, 5), (5, 3, 3),
    (7, 2, 3), (8, 2, 3), (9, 2, 3), (11, 2, 3), (13, 2, 3), (13, 3, 3),
]
CENSUS_TSRP = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 2, 1), (3, 2, 3), (4, 2, 1),
               (5, 2, 1)]
CENSUS_SPECIAL = [(2, 2, 3), (2, 3, 3), (2, 2, 5), (3, 2, 3), (2, 4, 3), (2, 3, 4), (2, 2, 4),
                  (2, 5, 3), (4, 2, 3)]
CENSUS_TABLES = ["t1", "t2", "t3", "t4", "t5", "r_table"]
# certify pools checked by the oracle: (q, degree, alternatives wanted)
CERTIFY_PRIMITIVE = [(3, 20, 6), (4, 12, 6), (9, 8, 6)]
OVER_BOUND = [(89, 38), (65, 18)]  # both past the 2^64 factorization bound
# walk strata: (name, q, m, n, kind) with kind primitive / squarefree / repeated
WALK_STRATA = [
    ("prim_2_2_3", 2, 2, 3, "primitive"), ("prim_2_3_3", 2, 3, 3, "primitive"),
    ("prim_3_2_3", 3, 2, 3, "primitive"), ("prim_2_5_2", 2, 5, 2, "primitive"),
    ("prim_2_2_6", 2, 2, 6, "primitive"), ("prim_4_2_3", 4, 2, 3, "primitive"),
    ("prim_2_4_3", 2, 4, 3, "primitive"), ("prim_8_2_2", 8, 2, 2, "primitive"),
    ("sqfree_2_3_4", 2, 3, 4, "squarefree"), ("sqfree_3_2_3", 3, 2, 3, "squarefree"),
    ("sqfree_2_2_5", 2, 2, 5, "squarefree"), ("repeated_2_3_3", 2, 3, 3, "repeated"),
    ("repeated_2_2_4", 2, 2, 4, "repeated"),
]
WALK_PER_STRATUM = 5
# extension-field registers with a repeated charpoly factor (see known defects)
WALK_DEFECTS = [(4, 2, 2), (8, 2, 2), (9, 2, 2)]


def run_cli(argv):
    res = run.execute(tsrforge, {"argv": argv})
    assert res["traceback"] is None, res["traceback"]
    return res["code"], res["stdout"], res["stderr"]


def ints(poly):
    return [c.int_value for c in poly.coeffs]


def scan_expected():
    ladder = {}
    for q, m, n in SCAN_LADDER:
        code, out, _ = run_cli(["search-tsr", str(q), str(m), str(n)])
        assert code == 0, (q, m, n)
        doc = json.loads(out)
        F = make_field(q)
        elem = lambda t: parse_poly(t, F).coeff(0)
        spec = TsrSpec(F, m, n, tuple(elem(t) for t in doc["taps"]),
                       Matrix.from_rows(F, [[elem(t) for t in row] for row in doc["block"]]))
        assert format_poly(tsr_charpoly_direct(spec)) == doc["charpoly"], (q, m, n)
        assert doc["group_order"] == q ** (m * n) - 1
        assert oracle.is_primitive(oracle.GF(q), ints(parse_poly(doc["charpoly"], F)))
        ladder[f"{q},{m},{n}"] = out.rstrip("\n")
    return {"ladder": ladder}


def census_count(kind, q, m, n):
    code, out, _ = run_cli(["enumerate", kind, str(q), str(m), str(n)])
    assert code == 0
    return json.loads(out)["count"]


def census_expected():
    special = {}
    for q, m, n in sorted(set(CENSUS_TSRP) | set(CENSUS_SPECIAL)):
        p_mnq, p_qmn = census_count("P_mnq", q, m, n), census_count("P_qmn", q, m, n)
        assert p_mnq == p_qmn, (q, m, n)
        special[f"{q},{m},{n}"] = p_mnq
    for q, m, n in CENSUS_TSRP:
        brute = census_count("tsrp", q, m, n)
        assert brute == workloads.fibration_count(q, m, special[f"{q},{m},{n}"]), (q, m, n)
    tables = {}
    for t in CENSUS_TABLES:
        code, out, _ = run_cli(["count-r"] if t == "r_table" else ["tables", t])
        assert code == 0
        tables[t] = out
    return {"special": special, "tsrp": [f"{q},{m},{n}" for q, m, n in CENSUS_TSRP],
            "special_requests": [f"{q},{m},{n}" for q, m, n in CENSUS_SPECIAL],
            "tables": tables}


def certify_expected():
    rng = random.Random("certify-pools")
    F2 = oracle.GF(2)
    for pool in list(workloads.F2_TRINOMIALS.values()) + list(workloads.F2_PENTANOMIALS.values()):
        for spec in pool:
            assert oracle.is_primitive(F2, workloads._sparse(*spec)), spec
    for q, primes in workloads.PHI_PRIMES.items():
        for p in primes:
            F = oracle.GF(q)
            assert oracle.is_irreducible(F, [1] * p) and not oracle.is_primitive(F, [1] * p)
    primitive = {}
    for q, degree, want in CERTIFY_PRIMITIVE:
        F = oracle.GF(q)
        found = []
        while len(found) < want:
            f = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(degree - 1)] + [1]
            if f not in found and oracle.is_primitive(F, f):
                found.append(f)
        primitive[f"q{q}_deg{degree}"] = found
    over = []
    for n, k in OVER_BOUND:
        f = workloads._sparse(n, k)
        assert oracle.is_irreducible(F2, f)
        # 2^89 - 1 is the Mersenne prime M89, so irreducible means primitive
        assert n == 89 or oracle.is_primitive(F2, f)
        over.append([n, k])
    return {"primitive": primitive, "over_bound": over}


def orbit_period(spec):
    """lcm of the orbit lengths of all states, by stepping (q^(mn) steps in total)."""
    q, size = spec.q, spec.m * spec.n
    seen = set()
    period = 1
    for code in range(1, q ** size):
        vals = [(code // q ** i) % q for i in range(size)]
        if tuple(vals) in seen:
            continue
        s0 = TsrState.from_ints(spec, vals)
        s, length = s0, 0
        while True:
            seen.add(tuple(c.int_value for c in s.flatten()))
            s = tsr_step(spec, s)
            length += 1
            if s.blocks == s0.blocks:
                break
        period = period * length // math.gcd(period, length)
    return period


def random_register(rng, q, m, n, kind):
    F = make_field(q)
    while True:
        c = [rng.randrange(q) for _ in range(n - 1)]
        if kind == "repeated":
            B = [[int(i == j) for j in range(m)] for i in range(m)]
            B[0][m - 1] = rng.randrange(q)  # unipotent: charpoly (x - 1)^m
        else:
            B = [[rng.randrange(q) for _ in range(m)] for _ in range(m)]
        doc = {"q": q, "m": m, "n": n, "c": c, "B": B}
        try:
            spec = TsrSpec.from_json(doc)
        except Exception:  # singular B: draw again
            continue
        if is_primitive_tsr(spec):
            if kind == "primitive":
                return doc, spec
            continue
        if kind == "primitive":
            continue
        psi = parse_poly(format_poly(tsr_charpoly_direct(spec)), F)
        if (kind == "repeated") != oracle_squarefree(q, ints(psi)):
            return doc, spec


def oracle_squarefree(q, f):
    """gcd(f, f') == 1 over the prime field F_q."""
    F = oracle.GF(q)
    d = oracle.trim([i * c % q for i, c in enumerate(f)][1:])
    return bool(d) and len(oracle.poly_gcd(F, f, d)) == 1


def walk_expected():
    rng = random.Random("walk-pools")
    strata = {}
    for name, q, m, n, kind in WALK_STRATA:
        regs = []
        for _ in range(50):  # small strata hold fewer distinct registers
            if len(regs) == WALK_PER_STRATUM:
                break
            doc, spec = random_register(rng, q, m, n, kind)
            if any(r["c"] == doc["c"] and r["B"] == doc["B"] for r in regs):
                continue
            full = q ** (m * n) - 1
            period = full if kind == "primitive" else orbit_period(spec)
            if kind == "primitive":
                s0 = TsrState.from_ints(spec, [1] + [0] * (m * n - 1))
                s, length = tsr_step(spec, s0), 1
                while s.blocks != s0.blocks:
                    s, length = tsr_step(spec, s), length + 1
                assert length == full, name
            assert tsr_period(spec) == period, name
            regs.append(dict(doc, period=period, stratum=name))
        strata[name] = regs
    defects = []
    for q, m, n in WALK_DEFECTS:
        F = make_field(q)
        spec = TsrSpec(F, m, n, tuple(F.one() for _ in range(n - 1)), Matrix.identity(F, m))
        doc = spec.to_json()
        try:
            tsr_period(spec)
        except Exception:  # the defect shows as a traceback today
            pass
        else:
            raise AssertionError(f"{(q, m, n)} no longer shows the defect")
        state = [1] + [0] * (m * n - 1)
        defects.append(dict(doc, period=orbit_period(spec), stratum=f"defect_{q}_{m}_{n}",
                            state=state))
    return {"strata": strata, "defects": defects}


def main():
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, fn in (("scan", scan_expected), ("census", census_expected),
                     ("certify", certify_expected), ("walk", walk_expected)):
        if len(sys.argv) > 1 and name not in sys.argv[1:]:
            continue
        data = fn()
        path = workloads.EXPECTED_DIR / f"{name}.json"
        text = json.dumps(data, indent=1, sort_keys=True)
        # one line per innermost list of numbers
        text = re.sub(r"\[[-\d,\s]*\]", lambda m: json.dumps(json.loads(m.group(0))), text)
        path.write_text(text + "\n")
        print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main()
