"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 bad arguments, a guard
violation or the 2^64 factorization bound (the offending bound is printed),
3 budget exhausted.  All JSON output is one object per line; CSV and JSON
output are byte-identical across runs and across --threads values.
"""

import argparse
import json
import os
import sys
from functools import lru_cache

from .counting import (_KIND_ARGS, closed_form_count, enumerate_special_primitives,
                       enumerate_tsrp_bruteforce, tsrp_upper_bound)
from .errors import (BadDegree, BaseNotSubfield, BudgetExhausted,
                     CompositeCharacteristic, DimensionMismatch,
                     FactorizationOverflow, InvalidParity, NonSquareMatrix,
                     ReducibleModulus, ScaleExceeded, TsrforgeError,
                     UnknownKind, ZeroConstantTerm, ZeroElement)
from .factorint import euler_phi
from .fields import format_element, make_field, make_prime_field
from .guards import ENV_VAR, guard_bits
from .polys import Polynomial, format_poly, parse_poly
from .primitivity import is_primitive_element, is_primitive_poly
from .search import search_primitive_tsr
from .tables import TABLE_IDS, generate_table, membership_report
from .verify import first_failure, run_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_ARGS = 2
EXIT_BUDGET = 3

_BAD_INPUT = (BadDegree, ZeroConstantTerm, UnknownKind, InvalidParity,
              NonSquareMatrix, DimensionMismatch, BaseNotSubfield,
              CompositeCharacteristic, ReducibleModulus, ZeroElement,
              ValueError)

_COUNT_KINDS = tuple(_KIND_ARGS)
_ENUM_KINDS = _COUNT_KINDS + ("P_qmn", "P_mnq", "tsrp")
_THREADS_HELP = "accepted for compatibility; work runs serially and output never changes"


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _matrix_rows(mat) -> list:
    return [[format_element(e) for e in mat.row(i)] for i in range(mat.rows)]


def cmd_field(args) -> int:
    field = make_field(args.q)
    info = {
        "order": field.order,
        "characteristic": field.characteristic,
        "degree": field.extension_degree,
        "modulus": None,
        "generator": None,
        "generator_primitive": None,
    }
    if field.extension_degree > 1:
        prime = make_prime_field(field.characteristic)
        modulus = Polynomial.make(prime, [prime.element(c) for c in field.modulus_coeffs])
        gen = field.gen()
        info["modulus"] = format_poly(modulus)
        info["generator"] = format_element(gen)
        info["generator_primitive"] = is_primitive_element(gen)
    _emit(info)
    return EXIT_OK


def cmd_test_primitive(args) -> int:
    field = make_field(args.q)
    poly = parse_poly(args.poly, field)
    ok, cert = is_primitive_poly(poly)
    _emit({
        "poly": format_poly(poly),
        "field_order": field.order,
        "primitive": ok,
        "certificate": cert.to_json() if ok else None,
    })
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_search_tsr(args) -> int:
    res = search_primitive_tsr(args.q, args.m, args.n, budget=args.budget,
                               allow_even_n=args.allow_even_n)
    spec = res.spec
    _emit({
        "q": args.q,
        "m": args.m,
        "n": args.n,
        "taps": [format_element(c) for c in spec.c],
        "block": _matrix_rows(spec.B),
        "charpoly": format_poly(res.charpoly),
        "group_order": res.certificate.group_order,
    })
    if args.emit == "provenance":
        prov = res.provenance
        _emit({
            "f": format_poly(prov.f),
            "g": format_poly(prov.g),
            "alpha": format_element(prov.alpha),
            "lam": format_element(prov.lam),
            "step5": format_poly(prov.step5),
            "h": format_poly(prov.h),
            "step8": format_poly(prov.step8),
        })
    return EXIT_OK


def cmd_enumerate(args) -> int:
    kind, q, m, n = args.kind, args.q, args.m, args.n
    if kind in _COUNT_KINDS:
        count = closed_form_count(kind, q, m=m, n=n)
        _emit({"kind": kind, "q": q, "m": m, "n": n, "count": count})
        return EXIT_OK
    if m is None or n is None:
        raise ValueError(f"kind {kind!r} requires both m and n")
    if kind in ("P_qmn", "P_mnq"):
        polys = enumerate_special_primitives(q, m, n, kind)
        _emit({"kind": kind, "q": q, "m": m, "n": n, "count": len(polys)})
        if args.list:
            for p in polys:
                _emit({"poly": format_poly(p)})
        return EXIT_OK
    specs = enumerate_tsrp_bruteforce(q, m, n)
    _emit({"kind": "tsrp", "q": q, "m": m, "n": n, "count": len(specs)})
    if args.list:
        for spec in specs:
            _emit({"taps": [format_element(c) for c in spec.c],
                   "block": _matrix_rows(spec.B)})
    return EXIT_OK


def cmd_count_r(args) -> int:
    sys.stdout.write(generate_table("r_table", deep=args.deep))
    return EXIT_OK


def cmd_tables(args) -> int:
    text = generate_table(args.table, deep=args.deep)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.report and args.table != "r_table":
        for key, entry, ok, note in membership_report(args.table):
            _emit({"key": key, "entry": entry, "accepted": ok, "note": note})
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(args.level)
    for res in results:
        mark = "ok  " if res.ok else "FAIL"
        print(f"{mark} {res.name} - {res.detail}")
    bad = first_failure(results)
    if bad is not None:
        print(f"first broken invariant: {bad.name}")
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_bound(args) -> int:
    out = {"q": args.q, "m": args.m, "n": args.n,
           "tsrp_upper_bound": tsrp_upper_bound(args.q, args.m, args.n)}
    if args.q == 2:
        out["class_count_upper_bound"] = euler_phi(2 ** args.m - 1) // args.m
    _emit(out)
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call (about a millisecond) and shared after."""
    parser = argparse.ArgumentParser(
        prog="tsrforge",
        description="Primitive transformation shift registers over finite fields.")
    parser.add_argument("--guard-bits", type=int, default=None,
                        help="override both brute-force guards with 2^BITS")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("field", help="describe a finite field")
    p.add_argument("q", type=int, help="field order, a prime power")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("test-primitive", help="test a polynomial for primitivity")
    p.add_argument("q", type=int, help="coefficient field order")
    p.add_argument("poly", help="polynomial text, e.g. 'x^3 + x^2 + x + a'")
    p.set_defaults(fn=cmd_test_primitive)

    p = sub.add_parser("search-tsr", help="search for a primitive TSR")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=int, default=None,
                   help="candidate ceiling; exit 3 when exhausted")
    p.add_argument("--allow-even-n", action="store_true",
                   help="permit even n for odd q (the search may be hopeless)")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--emit", choices=("result", "provenance"), default="result",
                   help="also emit the construction trace")
    p.set_defaults(fn=cmd_search_tsr)

    p = sub.add_parser("enumerate", help="closed-form counts and exhaustive censuses")
    p.add_argument("kind", choices=_ENUM_KINDS)
    p.add_argument("q", type=int)
    p.add_argument("m", type=int, nargs="?", default=None)
    p.add_argument("n", type=int, nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="emit each member, one per line")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("count-r", help="trace-one conjugacy class counts over F_{2^m}")
    p.add_argument("--deep", action="store_true", help="extend to m = 11, 12")
    p.set_defaults(fn=cmd_count_r)

    p = sub.add_parser("tables", help="regenerate a bundled reference table as CSV")
    p.add_argument("table", choices=TABLE_IDS)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.add_argument("--deep", action="store_true", help="r_table only: extend to m = 12")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--report", action="store_true",
                   help="also re-validate each bundled entry, one JSON line each")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("verify", help="run the named build invariants")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bound", help="upper bounds on the primitive TSR census")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.guard_bits is not None and args.guard_bits < 0:
        print(f"bad arguments: --guard-bits {args.guard_bits} must be an integer >= 0", file=sys.stderr)
        return EXIT_ARGS
    saved = os.environ.get(ENV_VAR)
    if args.guard_bits is not None:
        os.environ[ENV_VAR] = str(args.guard_bits)
    try:
        guard_bits("field")  # a bad TSRFORGE_GUARD_BITS is refused before the command runs
        return args.fn(args)
    except ScaleExceeded as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except FactorizationOverflow as exc:
        print(f"scale limit: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _BAD_INPUT as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except TsrforgeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    finally:
        # --guard-bits holds for this call only
        if saved is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved


if __name__ == "__main__":
    raise SystemExit(main())
