"""Self-check registry: named build invariants at two depths.

quick runs the fast checks (well under a minute); full adds the deep
r-counts, base-3 enumerations, and the cross-form witness grid.  Every check
is independent; the first failure names the broken invariant.
"""

from dataclasses import dataclass

from .cosets import count_trace_one_classes, primitive_trace_one_count, trace_one_class_summaries
from .counting import (closed_form_count, count_matrices_with_charpoly,
                       enumerate_special_primitives, enumerate_tsrp_bruteforce,
                       gl_matrices, tsrp_count_theorem)
from .errors import ScaleExceeded
from .factorint import euler_phi
from .fields import make_field, subfield_maps
from .guards import check_enumeration
from .polys import Polynomial, format_poly, parse_poly
from .primitivity import conjugate_product, is_primitive_poly, minimal_polynomial
from .search import reciprocal, search_primitive_tsr, verify_conjecture
from .tables import membership_report, row_counts
from .tsr import TsrSpec, tsr_charpoly_direct, tsr_charpoly_formula, tsr_period


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _require(cond, detail="") -> None:
    """A check that still runs under python -O, reported like a failed assert."""
    if not cond:
        raise AssertionError(detail)


def _check_field_arithmetic():
    for q in (8, 9, 25):
        f = make_field(q)
        g = f.gen()
        _require(g ** (q - 1) == f.one(), f"gen order defect in F_{q}")
        xs = list(f.elements())
        a, b, c = xs[1], xs[q // 2], xs[q - 1]
        _require(a * (b + c) == a * b + a * c, f"distributivity defect in F_{q}")
        _require((a * b) * c == a * (b * c), f"associativity defect in F_{q}")
    return "F_8, F_9, F_25 arithmetic laws hold"


def _check_subfield_maps():
    big = make_field(64)
    base, embed, descend = subfield_maps(big, 4)
    xs = list(base.elements())
    for a in xs:
        for b in xs:
            _require(embed(a) * embed(b) == embed(a * b), "embedding breaks products")
            _require(embed(a) + embed(b) == embed(a + b), "embedding breaks sums")
            got = descend(embed(a))
            _require(got == a, "descend does not invert embed")
    return "F_4 -> F_64 embedding is a field homomorphism with exact descent"


def _check_primitivity_known():
    f2 = make_field(2)
    notp = parse_poly("x^4 + x^3 + x^2 + x + 1", f2)
    ok, _ = is_primitive_poly(notp)
    _require(not ok, "order-5 quartic accepted as primitive")
    isp = parse_poly("x^4 + x + 1", f2)
    ok, cert = is_primitive_poly(isp)
    _require(ok and cert.group_order == 15, "known primitive quartic rejected")
    return "classic degree-4 primitive / non-primitive pair classified correctly"


def _check_minimal_polynomial():
    big = make_field(16)
    g = big.gen()
    mp = minimal_polynomial(g, 2)
    _require(mp.degree == 4, "generator minimal polynomial has wrong degree")
    ok, _ = is_primitive_poly(mp)
    _require(ok, "generator minimal polynomial not primitive")
    lifted = Polynomial.make(big, mp.ints)  # a prime-field scalar is an encoding below p in big
    val = sum((lifted.coeff(i) * g ** i for i in range(1, 5)), lifted.coeff(0) * big.one())
    _require(val.is_zero(), "generator does not satisfy its minimal polynomial")
    return "F_16 generator minimal polynomial: degree 4, primitive, annihilating"


def _check_conjugate_product():
    big = make_field(9)
    p = parse_poly("x^2 + x + a", big)
    down = conjugate_product(p, 3)
    _require(down.field.order == 3 and down.degree == 4, "conjugate product shape defect")
    _, embed, _ = subfield_maps(big, 3)
    lifted = Polynomial.make(big, [embed(c) for c in down.coeffs])
    from .polys import poly_divrem
    _, rem = poly_divrem(lifted, p)
    _require(rem.is_zero(), "original does not divide its conjugate product")
    return "conjugate product over F_9 lands in F_3[x] and is divisible by the input"


def _check_closed_form_counts():
    _require(closed_form_count("lfsr_prim", 2, n=4) == 2)
    _require(closed_form_count("lfsr_irr", 2, n=4) == 3)
    _require(closed_form_count("lfsr_prim", 3, n=2) == euler_phi(8) // 2)
    _require(closed_form_count("gl_order", 2, m=2) == 6)
    return "closed-form polynomial and GL counts match hand values"


def _check_matrix_census():
    f2 = make_field(2)
    p2 = parse_poly("x^2 + x + 1", f2)
    _require(count_matrices_with_charpoly(p2, 2) == 2)
    f3 = make_field(3)
    p3 = parse_poly("x^2 + x + 2", f3)
    _require(count_matrices_with_charpoly(p3, 2) == 6)
    return "matrix censuses for the two reference characteristic polynomials"


def _check_special_enumerations():
    got = enumerate_special_primitives(2, 2, 3, "P_mnq")
    texts = sorted(format_poly(p) for p in got)
    _require(texts == ["x^3 + x^2 + x + (a+1)", "x^3 + x^2 + x + a"], texts)
    other = enumerate_special_primitives(2, 2, 3, "P_qmn")
    _require(len(other) == len(got), "reciprocal families differ in size")
    recips = {format_poly(reciprocal(p, p.degree)) for p in got}
    _require(recips == {format_poly(p) for p in other}, "reciprocal bijection defect")
    return "P(2,2,3) census and its reciprocal bijection"


def _check_tsr_charpoly():
    import random
    rng = random.Random(20260815)
    for _ in range(6):
        q, m, n = rng.choice([(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
        f = make_field(q)
        Bs = list(gl_matrices(f, m))
        B = Bs[rng.randrange(len(Bs))]
        c = tuple(f.element(rng.randrange(q)) for _ in range(n - 1))
        spec = TsrSpec(f, m, n, c, B)
        _require(tsr_charpoly_formula(spec) == tsr_charpoly_direct(spec), "formula/direct mismatch")
    return "resultant formula equals direct block-matrix characteristic polynomial"


def _check_search_small():
    res = search_primitive_tsr(2, 2, 3)
    _require(tsr_period(res.spec) == 2 ** 6 - 1, "search result is not full-period")
    res2 = search_primitive_tsr(3, 2, 3)
    _require(tsr_period(res2.spec) == 3 ** 6 - 1, "base-3 search result is not full-period")
    return "searched TSRs at (2,2,3) and (3,2,3) reach full period"


def _check_conjecture_smoke():
    w = verify_conjecture(2, 2, 2, "direct")
    _require(w.found and w.conversion_ok, "direct witness at (2,2,2) missing or unconvertible")
    w2 = verify_conjecture(2, 2, 2, "composition")
    _require(w2.found and w2.conversion_ok, "composition witness at (2,2,2) missing or unconvertible")
    return "both witness forms exist and cross-convert at (2,2,2)"


def _check_r_small():
    want = {2: (1, 2), 3: (1, 3), 4: (1, 4), 5: (2, 10), 6: (3, 18), 7: (6, 42)}
    for m, pair in want.items():
        got = count_trace_one_classes(m)
        _require(got == pair, f"m={m}: {got} != {pair}")
    return "class counts r and class-size products for m = 2..7"


def _check_element_tally():
    for m in range(2, 7):
        r, _ = count_trace_one_classes(m)
        _require(primitive_trace_one_count(m) == 2 * r * m, f"element tally defect at m={m}")
    return "element-level tally equals 2rm for m = 2..6"


def _check_quadratic_census():
    summaries = trace_one_class_summaries(2)
    quads = {format_poly(qd) for s in summaries for qd in s.quadratics}
    _require(quads == {"x^2 + x + a", "x^2 + x + (a+1)"}, quads)
    return "m=2 trace-one quadratics equal the degree-2 census over F_4"


def _check_r_bound():
    for m in range(2, 9):
        r, _ = count_trace_one_classes(m)
        _require(r * m <= euler_phi(2 ** m - 1), f"class bound violated at m={m}")
    return "r <= phi(2^m - 1)/m for m = 2..8"


def _check_tables_quick():
    _require(row_counts("t1")[2] == 2)
    _require(row_counts("t3") == {4: 2, 5: 2, 6: 2, 7: 28})
    rep = membership_report("t2")
    _require(all(ok for _, _, ok, _ in rep), "a bundled degree-3 entry failed re-validation")
    return "base-2 table rows regenerate with every bundled entry re-validated"


def _check_guards():
    try:
        check_enumeration(1 << 40)
    except ScaleExceeded:
        return "enumeration guard rejects 2^40 states"
    raise AssertionError("enumeration guard accepted 2^40 states")


def _check_bruteforce_theorem():
    for q, m, n in ((2, 2, 2), (3, 2, 1)):
        brute = len(enumerate_tsrp_bruteforce(q, m, n))
        p_count = len(enumerate_special_primitives(q, m, n, "P_mnq"))
        theo = tsrp_count_theorem(q, m, n, p_count)
        _require(brute == theo, f"({q},{m},{n}): brute {brute} != theorem {theo}")
    return "brute-force census equals fibration count at (2,2,2) and (3,2,1)"


def _check_r_deep():
    _require(count_trace_one_classes(11) == (57, 627))
    _require(count_trace_one_classes(12) == (68, 816))
    return "deep class counts at m = 11, 12"


def _check_base3_enumerations():
    brute = enumerate_tsrp_bruteforce(3, 2, 1)
    _require(len(brute) == 12)
    p_count = len(enumerate_special_primitives(3, 2, 3, "P_mnq"))
    theo = tsrp_count_theorem(3, 2, 3, p_count)
    brute33 = len(enumerate_tsrp_bruteforce(3, 2, 3))
    _require(brute33 == theo, f"(3,2,3): brute {brute33} != theorem {theo}")
    _require(closed_form_count("tsr_order1", 3, m=2) == 12)
    return "base-3 brute-force enumerations match the fibration counts"


def _check_conjecture_grid():
    bad = []
    for q in (2, 3, 5):
        for m in (2, 3):
            for n in (2, 3):
                if (q, m, n) == (3, 3, 2):
                    continue
                for form in ("direct", "composition"):
                    w = verify_conjecture(q, m, n, form)
                    if not (w.found and w.conversion_ok):
                        bad.append((q, m, n, form))
    _require(not bad, f"witness or conversion missing at {bad}")
    return "11-point grid: witnesses found in both forms, all cross-convert"


def _check_composition_gap():
    w = verify_conjecture(3, 3, 2, "composition")
    _require(not w.found, "composition witness unexpectedly exists at (3,3,2)")
    d = verify_conjecture(3, 3, 2, "direct")
    _require(d.found and not d.conversion_ok, "(3,3,2) direct behavior changed")
    return "(3,3,2): direct witness exists, composition family provably empty"


def _check_tables_full():
    sizes = {tid: len(membership_report(tid)) for tid in ("t1", "t4", "t5")}
    _require(sizes == {"t1": 16, "t4": 45, "t5": 34}, sizes)
    counts = {"t1": row_counts("t1"), "t4": row_counts("t4"), "t5": row_counts("t5")}
    _require(counts["t1"] == {2: 2, 3: 0, 5: 4, 7: 2, 11: 6}, counts["t1"])
    _require(counts["t4"] == {3: 0, 4: 24}, counts["t4"])
    _require(counts["t5"] == {2: 2, 3: 0, 5: 4, 7: 2, 11: 14, 13: 10}, counts["t5"])
    return "regenerated row counts stable for the odd-characteristic tables"


QUICK_CHECKS = (
    ("field_arithmetic", _check_field_arithmetic),
    ("subfield_maps", _check_subfield_maps),
    ("primitivity_known", _check_primitivity_known),
    ("minimal_polynomial", _check_minimal_polynomial),
    ("conjugate_product", _check_conjugate_product),
    ("closed_form_counts", _check_closed_form_counts),
    ("matrix_census", _check_matrix_census),
    ("special_enumerations", _check_special_enumerations),
    ("tsr_charpoly", _check_tsr_charpoly),
    ("search_small", _check_search_small),
    ("conjecture_smoke", _check_conjecture_smoke),
    ("r_small", _check_r_small),
    ("element_tally", _check_element_tally),
    ("quadratic_census", _check_quadratic_census),
    ("r_bound", _check_r_bound),
    ("tables_quick", _check_tables_quick),
    ("guards", _check_guards),
    ("bruteforce_theorem", _check_bruteforce_theorem),
)

FULL_CHECKS = (
    ("r_deep", _check_r_deep),
    ("base3_enumerations", _check_base3_enumerations),
    ("conjecture_grid", _check_conjecture_grid),
    ("composition_gap", _check_composition_gap),
    ("tables_full", _check_tables_full),
)


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Execute the named checks for the level; never raises on check failure."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verify level {level!r}")
    checks = QUICK_CHECKS if level == "quick" else QUICK_CHECKS + FULL_CHECKS
    out = []
    for name, fn in checks:
        try:
            detail = fn()
            out.append(CheckResult(name, True, detail or ""))
        except AssertionError as exc:
            out.append(CheckResult(name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # a crash is a failed invariant, not a crash of the runner
            out.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return out


def first_failure(results: list[CheckResult]):
    for res in results:
        if not res.ok:
            return res
    return None
