"""The two workloads: request pools, seeded plans and answer checks.

Each workload joins two request mixes.  `construct` runs the mixes `scan`
(search-tsr) and `certify` (test-primitive): high-degree primitivity tests,
as when a user constructs a register or certifies a polynomial.  `count`
runs `census` (enumerate, tables, count-r) and `walk` (library tsr_period
and tsr_step): thousands of small registers counted and stepped.

A run is a sequence of rounds.  Every round holds one request per slot of
each mix, drawn from that slot's pool with random.Random keyed on
(workload, seed, round), in a seeded order.  Slots group requests of
similar cost, so the mix, and with it every end-to-end metric, does not
depend on the seed.  Each request carries the answer it must produce; the
answers come from committed files (expected/*.json, one per mix) or from
families whose verdict is known by construction, never from the code under
test at run time.
"""

import json
import math
import random
from pathlib import Path

import oracle

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
GUARD_ENV = "TSRFORGE_GUARD_BITS"
THREADS_WANTED = 2  # scan and census pass --threads 2; capped at the CPUs available

# workload -> the mixes it runs, each round holding one full round of each
WORKLOADS = {"construct": ("scan", "certify"), "count": ("census", "walk")}

WHY = {
    "construct": "search-tsr --threads 2 up to mn=27 and test-primitive at high degree over F_2, "
                 "F_3, F_4, F_9: primitivity, poly_modpow, factor_integer, first_hit; x^89+x^38+1 "
                 "fails by design",
    "count": "enumerate tsrp/P_mnq/P_qmn, tables, count-r and library tsr_period plus one orbit "
             "by tsr_step: small-degree tests, charpoly per tap vector, cosets, matrix power",
}

# The tail percentile is fixed, so that a faster program (more requests per
# run) reports the same statistic.  A run holds three or more rounds of 36
# or 44 requests, so more than 20 samples lie beyond it.
TAIL_PERCENTILE = 80


def load_expected(workload: str) -> dict:
    """mix -> that mix's committed answers."""
    out = {}
    for mix in WORKLOADS[workload]:
        with open(EXPECTED_DIR / f"{mix}.json") as fh:
            out[mix] = json.load(fh)
    return out


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def plan_round(workload: str, seed: int, round_index: int, expected: dict, threads: int) -> list:
    """The requests of one round, in run order."""
    rng = _rng(workload, seed, round_index)
    reqs = []
    for mix in WORKLOADS[workload]:
        reqs += [dict(req, mix=mix) for req in _PLANNERS[mix](rng, expected[mix], threads)]
    rng.shuffle(reqs)
    return reqs


def known_defect_requests(expected: dict) -> list:
    """Requests that fail today because of a documented defect.

    They run after the timed rounds and are reported on their own line; a
    fix makes them pass without any change to the benchmark.
    """
    out = []
    if "certify" in expected:
        out += [dict(_certify_request(2, _sparse(n, k), "over_bound", primitive=True),
                     mix="certify") for n, k in expected["certify"]["over_bound"]]
    if "walk" in expected:
        out += [dict(_walk_request(reg, reg["state"]), mix="walk")
                for reg in expected["walk"]["defects"]]
    return out


# --- scan -----------------------------------------------------------------

def _plan_scan(rng, expected, threads):
    out = []
    for key, line in expected["ladder"].items():
        q, m, n = key.split(",")
        out.append({"id": f"scan {key}", "slot": key,
                    "argv": ["search-tsr", q, m, n, "--threads", str(threads)],
                    "expect": {"stdout": line + "\n"}})
    return out


def _check_scan(req, res):
    if res["code"] != 0:
        return f"exit {res['code']}"
    if res["stdout"] != req["expect"]["stdout"]:
        return "search result differs from the committed line"
    return None


# --- census ---------------------------------------------------------------

def gl_order(q: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= q ** m - q ** i
    return out


def fibration_count(q: int, m: int, p_count: int) -> int:
    """Registers implied by a special-primitive census: (P/m) * |GL_m| / (q^m - 1)."""
    return p_count // m * gl_order(q, m) // (q ** m - 1)


def _plan_census(rng, expected, threads):
    t = ["--threads", str(threads)]
    out = []
    for key in expected["tsrp"]:
        q, m, n = (int(v) for v in key.split(","))
        p_count = expected["special"][key]
        out.append({"id": f"census tsrp {key}", "slot": f"tsrp {key}",
                    "argv": ["enumerate", "tsrp", str(q), str(m), str(n)] + t,
                    "expect": {"kind": "tsrp", "q": q, "m": m, "n": n,
                               "count": fibration_count(q, m, p_count)}})
    for key in expected["special_requests"]:
        q, m, n = (int(v) for v in key.split(","))
        kind = rng.choice(("P_mnq", "P_qmn"))
        out.append({"id": f"census {kind} {key}", "slot": f"special {key}",
                    "argv": ["enumerate", kind, str(q), str(m), str(n)] + t,
                    "expect": {"kind": kind, "q": q, "m": m, "n": n,
                               "count": expected["special"][key]}})
    for table, csv in expected["tables"].items():
        argv = ["count-r"] if table == "r_table" else ["tables", table] + t
        out.append({"id": f"census {table}", "slot": table, "argv": argv,
                    "expect": {"stdout": csv}})
    return out


def _check_census(req, res):
    if res["code"] != 0:
        return f"exit {res['code']}"
    exp = req["expect"]
    if "stdout" in exp:
        return None if res["stdout"] == exp["stdout"] else "CSV differs from the committed table"
    try:
        got = json.loads(res["stdout"])
    except ValueError:
        return "output is not one JSON line"
    if got != exp:
        return f"census {got} != expected {exp}"
    return None


# --- certify --------------------------------------------------------------

# Published primitive trinomials x^n + x^k + 1 over F_2, as (n, k), in
# slots of similar cost.  Degrees 47 and 57 and x^63 + x^5 + 1 cost 2x to 6x
# the rest of their degree range and are left out.
F2_TRINOMIALS = {
    "tri_21_25": [(21, 2), (22, 1), (23, 5), (23, 9), (25, 3), (25, 7)],
    "tri_28_41": [(28, 3), (28, 9), (33, 13), (35, 2), (41, 3), (41, 20)],
    "tri_31": [(31, 3), (31, 6), (31, 7), (31, 13)],
    "tri_39_49": [(39, 4), (39, 8), (39, 14), (49, 9), (49, 12), (49, 15), (49, 22)],
    "tri_63": [(63, 1), (63, 31)],
}
# Published primitive pentanomials x^n + x^a + x^b + x^c + 1 over F_2.
F2_PENTANOMIALS = {
    "pent_26_27": [(26, 6, 2, 1), (27, 5, 2, 1)],
    "pent_32_38": [(32, 22, 2, 1), (34, 27, 2, 1), (38, 6, 5, 1)],
}
# Phi_p = 1 + x + ... + x^(p-1) is irreducible over F_q exactly when q is a
# primitive root mod p; its roots have order p, so it is never primitive.
PHI_PRIMES = {2: [19, 29, 37, 53, 59, 61], 3: [17, 19, 29, 31]}
# Reducible by construction (a factor of degree 1 or 2): product degree per field.
REDUCIBLE_SMALL = {2: 64, 3: 30, 4: 16, 9: 10}
# Products of two published trinomials of degrees summing to 64.
F2_LARGE_PAIRS = [((25, 3), (39, 4)), ((23, 5), (41, 3))]


def _sparse(n, *ks):
    """x^n + sum of x^k + 1 as a coefficient list."""
    f = [0] * (n + 1)
    for k in (0, n) + ks:
        f[k] = 1
    return f


def _certify_request(q, f, slot, primitive):
    text = oracle.poly_text(q, f)
    return {"id": f"certify {slot} q={q} deg={len(f) - 1}", "slot": slot,
            "argv": ["test-primitive", str(q), text],
            "expect": {"q": q, "degree": len(f) - 1, "poly": text, "primitive": primitive,
                       "over_bound": slot == "over_bound"}}


def _random_poly(rng, q, degree):
    """Monic, of the given degree, with a nonzero constant term."""
    return [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(degree - 1)] + [1]


def _reducible(rng, q, degree):
    """A monic product with a factor of degree 1 or 2, so it is reducible."""
    F = oracle.GF(q)
    small = rng.randint(1, 2)
    return oracle.poly_mul(F, _random_poly(rng, q, small), _random_poly(rng, q, degree - small))


def _plan_certify(rng, expected, threads):
    out = []
    for slot, pool in list(F2_TRINOMIALS.items()) + list(F2_PENTANOMIALS.items()):
        out.append(_certify_request(2, _sparse(*rng.choice(pool)), slot, True))
    for q, primes in PHI_PRIMES.items():
        out.append(_certify_request(q, [1] * rng.choice(primes), f"phi_q{q}", False))
    for q, degree in REDUCIBLE_SMALL.items():
        out.append(_certify_request(q, _reducible(rng, q, degree), f"reducible_q{q}", False))
    a, b = rng.choice(F2_LARGE_PAIRS)
    prod = oracle.poly_mul(oracle.GF(2), _sparse(*a), _sparse(*b))
    out.append(_certify_request(2, prod, "reducible_large", False))
    for slot, pool in expected["primitive"].items():
        q = int(slot.split("_")[0][1:])
        out.append(_certify_request(q, rng.choice(pool), slot, True))
    return out


def _check_certify(req, res):
    exp = req["expect"]
    if exp["over_bound"] and res["code"] == 2:
        # a named scale refusal is an honest answer past the factorization bound
        return None if "bound" in res["stderr"] and not res["stdout"] else "unnamed refusal"
    want_code = 0 if exp["primitive"] else 1
    if res["code"] != want_code:
        return f"exit {res['code']}, expected {want_code}"
    try:
        got = json.loads(res["stdout"])
    except ValueError:
        return "output is not one JSON line"
    if got.get("poly") != exp["poly"] or got.get("field_order") != exp["q"]:
        return "echoed polynomial or field differs"
    if got.get("primitive") is not exp["primitive"]:
        return f"verdict {got.get('primitive')}, known answer {exp['primitive']}"
    cert = got.get("certificate")
    if not exp["primitive"]:
        return None if cert is None else "certificate on a non-primitive input"
    if not isinstance(cert, dict):
        return "primitive verdict without a certificate"
    order = exp["q"] ** exp["degree"] - 1
    factors = cert.get("factors", [])
    if cert.get("group_order") != order or math.prod(p ** e for p, e in factors) != order:
        return "certificate does not factor q^n - 1"
    if set(cert.get("witnesses", {})) != {str(p) for p, _ in factors}:
        return "certificate lacks a witness per prime"
    return None


# --- walk -----------------------------------------------------------------

def _walk_request(reg, state):
    return {"id": f"walk {reg['stratum']}", "slot": reg["stratum"],
            "walk": {"q": reg["q"], "m": reg["m"], "n": reg["n"], "c": reg["c"], "B": reg["B"],
                     "state": state},
            "expect": {"period": reg["period"], "full": reg["q"] ** (reg["m"] * reg["n"]) - 1}}


def _plan_walk(rng, expected, threads):
    out = []
    for stratum, regs in expected["strata"].items():
        reg = rng.choice(regs)
        q, size = reg["q"], reg["m"] * reg["n"]
        state = [0] * size
        while not any(state):
            state = [rng.randrange(q) for _ in range(size)]
        out.append(_walk_request(reg, state))
    return out


def _check_walk(req, res):
    if res["code"] != 0:
        return f"exit {res['code']}"
    got = json.loads(res["stdout"])
    exp = req["expect"]
    if got["period"] != exp["period"]:
        return f"tsr_period {got['period']} != known period {exp['period']}"
    if exp["period"] % got["orbit"]:
        return f"orbit {got['orbit']} does not divide the period {exp['period']}"
    if (got["orbit"] == exp["full"]) != (exp["period"] == exp["full"]):
        # every nonzero state of a primitive register has the full orbit
        return f"orbit {got['orbit']} contradicts the known period {exp['period']}"
    return None


_PLANNERS = {"scan": _plan_scan, "census": _plan_census, "certify": _plan_certify,
             "walk": _plan_walk}
_CHECKS = {"scan": _check_scan, "census": _check_census, "certify": _check_certify,
           "walk": _check_walk}


def check(req: dict, res: dict):
    """None when the result is the known answer, else the reason it is not."""
    if res["traceback"]:
        return "traceback: " + res["traceback"].strip().splitlines()[-1]
    return _CHECKS[req["mix"]](req, res)
