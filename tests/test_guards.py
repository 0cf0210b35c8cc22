"""The size policy: where each limit refuses a size, and how the refusal names it."""

import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from tsrforge import guards
from tsrforge.cosets import cyclotomic_partition
from tsrforge.errors import FactorizationOverflow, ScaleExceeded
from tsrforge.factorint import factor_integer
from tsrforge.fields import make_field
from tsrforge.guards import (ENV_VAR, INT_DIGITS, POWER_BITS, check_custom, check_matrix_group, check_size,
                             checked_power, factorable_power, guarded_power, int_text)
from tsrforge.polys import parse_poly
from tsrforge.tsr import mn_decompose

needs_digit_limit = pytest.mark.skipif(not INT_DIGITS, reason="int-to-str conversion has no digit limit")
DIGITS = f"the {INT_DIGITS}-digit limit of int-to-str conversion"


@pytest.fixture(autouse=True)
def _default_guards(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.mark.parametrize("b", [0, 22, 10 ** 20])
def test_a_guard_of_2_to_the_b_takes_2_to_the_b_and_refuses_one_more(monkeypatch, b):
    # compared by bit count: 2^b is never built, so b = 10^20 takes the rule of b = 0 within a few KB
    monkeypatch.setenv(ENV_VAR, str(b))
    exact = 1 << min(b, 4096)  # past 4096, 2^4096 stands in for 2^b, which no memory holds
    tracemalloc.start()
    try:
        for check in (lambda size: check_size(size, "sample space", "field"),
                      lambda size: check_custom(size, b, "sample space")):
            assert check(exact) in (exact, None)
            if b <= 4096:
                with pytest.raises(ScaleExceeded, match=rf"^sample space of {exact + 1} exceeds the 2\^{b} guard$"):
                    check(exact + 1)
        # a size named by a lower bound of its log2: 2^b passes, anything more does not
        assert check_size(0, "sample space", "field", b) == 0
        with pytest.raises(ScaleExceeded, match=rf"^sample space exceeds the 2\^{b} guard$"):
            check_size(0, "sample space", "field", b + 1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q, e", [(2, POWER_BITS), (4, POWER_BITS // 2), (3, 3)])
def test_guarded_power_takes_the_largest_power_under_the_bound(q, e):
    assert guarded_power(q, e, "tap space") == q ** e


@pytest.mark.parametrize("q, e, kind, limit", [
    (2, POWER_BITS + 1, "field", "the 2^24 guard"),
    (2, POWER_BITS + 1, "enumeration", "the 2^22 guard"),
    (4, POWER_BITS // 2 + 1, "field", "the 2^24 guard"),
    (3, POWER_BITS + 1, "digits", DIGITS),
])
def test_guarded_power_refuses_the_first_power_past_the_bound_untaken(q, e, kind, limit):
    with pytest.raises(ScaleExceeded, match=rf"^tap space of {q}\^{e} exceeds {re.escape(limit)}$"):
        guarded_power(q, e, "tap space", kind)


def test_guarded_power_bound_moves_with_guard_bits(monkeypatch):
    # the bound is the larger of the guard and POWER_BITS
    monkeypatch.setenv(ENV_VAR, "3")
    assert guarded_power(2, POWER_BITS, "tap space").bit_length() == POWER_BITS + 1
    with pytest.raises(ScaleExceeded, match=rf"^tap space of 2\^{POWER_BITS + 1} exceeds the 2\^3 guard$"):
        guarded_power(2, POWER_BITS + 1, "tap space")
    bits = POWER_BITS + 8
    monkeypatch.setenv(ENV_VAR, str(bits))
    assert guarded_power(2, bits, "tap space").bit_length() == bits + 1
    with pytest.raises(ScaleExceeded, match=rf"^tap space of 2\^{bits + 1} exceeds the 2\^{bits} guard$"):
        guarded_power(2, bits + 1, "tap space")


def test_checked_power_refuses_a_taken_power_by_its_value():
    assert checked_power(2, 24, "block field") == 1 << 24
    with pytest.raises(ScaleExceeded, match=r"^block field of 33554432 exceeds the 2\^24 guard$"):
        checked_power(2, 25, "block field")
    with pytest.raises(ScaleExceeded, match=r"^matrix space of 8388608 exceeds the 2\^22 guard$"):
        checked_power(2, 23, "matrix space", "enumeration")


def test_matrix_group_bound_at_the_enumeration_guard():
    # m^2 (bit length of q - 1) - 2: 22 for GL_2(64) passes the 2^22 guard, 23 for GL_5(2) does not
    check_matrix_group(64, 2, "matrix group", "enumeration")
    with pytest.raises(ScaleExceeded, match=r"^matrix group GL_5\(2\) of more than 2\^23 elements exceeds the 2\^22 guard$"):
        check_matrix_group(2, 5, "matrix group", "enumeration")


def test_matrix_group_bound_at_the_digit_limit(monkeypatch):
    # 2^low > 10^d - 1 exactly when low reaches the bit length of 10^d: 34 for d = 10
    monkeypatch.setattr(guards, "INT_DIGITS", 10)
    check_matrix_group(2 ** 35, 1, "gl_order count over", "digits")  # low = 33
    with pytest.raises(ScaleExceeded, match=r"^gl_order count over GL_6\(2\) of more than 2\^34 elements "
                                            r"exceeds the 10-digit limit of int-to-str conversion$"):
        check_matrix_group(2, 6, "gl_order count over", "digits")


@needs_digit_limit
def test_matrix_group_bound_at_the_default_digit_limit():
    check_matrix_group(2, 119, "gl_order count over", "digits")  # low = 14159
    with pytest.raises(ScaleExceeded, match=rf"^gl_order count over GL_120\(2\) of more than 2\^14398 elements exceeds {DIGITS}$"):
        check_matrix_group(2, 120, "gl_order count over", "digits")


@needs_digit_limit
def test_digit_refusal_at_the_limit():
    assert check_size(10 ** INT_DIGITS - 1, "lfsr_irr count", "digits") == 10 ** INT_DIGITS - 1
    bits = (10 ** INT_DIGITS).bit_length()
    with pytest.raises(ScaleExceeded, match=rf"^lfsr_irr count of a {bits}-bit number exceeds {DIGITS}$"):
        check_size(10 ** INT_DIGITS, "lfsr_irr count", "digits")


@needs_digit_limit
def test_int_text_both_forms():
    assert int_text(10 ** INT_DIGITS - 1) == "9" * INT_DIGITS
    assert int_text(10 ** INT_DIGITS) == f"a {(10 ** INT_DIGITS).bit_length()}-bit number"
    assert int_text(-12) == "-12"


BOUND = r"exceeds the 2\^64 factorization bound$"


def test_factorable_power_names_an_untaken_number():
    assert factorable_power(3, 40) == 3 ** 40 - 1
    assert factorable_power(2, POWER_BITS).bit_length() == POWER_BITS
    with pytest.raises(FactorizationOverflow, match=rf"^a {POWER_BITS + 1}-bit number {BOUND}"):
        factorable_power(2, POWER_BITS + 1)
    with pytest.raises(FactorizationOverflow, match=rf"^a 200000000000-bit number {BOUND}"):
        factorable_power(4, 10 ** 11)
    with pytest.raises(FactorizationOverflow, match=rf"^3\^{POWER_BITS + 1} - 1 {BOUND}"):
        factorable_power(3, POWER_BITS + 1)


def test_factor_integer_takes_2_to_the_64_and_names_one_more():
    assert factor_integer(2 ** 64).factors == ((2, 64),)
    with pytest.raises(FactorizationOverflow, match=rf"^18446744073709551617 {BOUND}"):
        factor_integer(2 ** 64 + 1)


def test_cyclotomic_partition_is_sized_by_the_field_guard(monkeypatch):
    # it walks the 2^(2m) - 1 exponents: 63 for m = 3 passes a 2^6 guard, 255 for m = 4 does not
    monkeypatch.setenv(ENV_VAR, "6")
    assert cyclotomic_partition(3).modulus == 63
    with pytest.raises(ScaleExceeded, match=r"^exponent space of 255 exceeds the 2\^6 guard$"):
        cyclotomic_partition(4)


def test_mn_decompose_walk_is_bounded_by_the_enumeration_guard():
    f2 = make_field(2)
    with pytest.raises(ScaleExceeded, match=r"^tap space of 8388608 exceeds the 2\^22 guard$"):
        mn_decompose(parse_poly("x^24 + x + 1", f2), 1, 24)
    assert mn_decompose(parse_poly("x^6 + x + 1", f2), 2, 3) is None  # 2^2 taps g, inside the guard


_LIBRARY = """
import resource, sys, time
from types import SimpleNamespace
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from tsrforge import (ScaleExceeded, count_matrices_with_charpoly, count_trace_one_classes, cyclotomic_partition,
                      find_trace_one_quadratic, make_field, primitive_trace_one_count, tsr_period,
                      tsrp_count_theorem)
big, f2 = 10 ** 11, make_field(2)
calls = [
    lambda: tsr_period(SimpleNamespace(q=2, m=1, n=big, field=f2)),
    lambda: count_matrices_with_charpoly(SimpleNamespace(degree=big, field=f2), big),
    lambda: find_trace_one_quadratic(big),
    lambda: count_trace_one_classes(big),
    lambda: primitive_trace_one_count(big),
    lambda: cyclotomic_partition(big),
    lambda: tsrp_count_theorem(2, 100000, 1, 100000),
]
for call in calls:
    start = time.perf_counter()
    try:
        call()
        print("no refusal")
    except ScaleExceeded as exc:
        print(f"{time.perf_counter() - start < 2} {exc}")
"""


def test_power_sites_refuse_a_huge_exponent_untaken():
    # each call sizes q^e by guarded_power before it is taken; under a 512 MB cap, within 2 s
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(guards.__file__)))
    env.pop(ENV_VAR, None)
    res = subprocess.run([sys.executable, "-c", _LIBRARY], env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    assert res.stdout.splitlines() == [
        "True state space of 2^100000000000 exceeds the 2^24 guard",
        "True matrix space of 2^10000000000000000000000 exceeds the 2^22 guard",
        "True quadratic splitting field of 2^200000000000 exceeds the 2^24 guard",
        "True census field of 2^100000000000 exceeds the 2^24 guard",
        "True element tally space of 2^200000000000 exceeds the 2^24 guard",
        "True exponent space of 2^200000000000 exceeds the 2^24 guard",
        "True tsrp_count_theorem over GL_100000(2) of more than 2^9999999998 elements "
        "exceeds the 4300-digit limit of int-to-str conversion",
    ]
