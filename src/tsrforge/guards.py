"""Size guards: the one module that holds a size limit and decides whether a size passes it.

The limits: the enumeration and field guards (2^22, 2^24; TSRFORGE_GUARD_BITS overrides both), the digit limit of
int-to-str conversion and the 2^64 factorization bound.  A power is sized before it is taken; 2^b is never built.
"""

import os
import sys

from .errors import FactorizationOverflow, ScaleExceeded

ENUMERATION_BITS = 22
FIELD_BITS = 24
FACTOR_BITS = 64  # factor_integer takes n up to 2^64
POWER_BITS = 1 << 24  # a power q^e whose bit length alone passes this and the limit is not taken
INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()  # int-to-str conversion's digit limit; 0: none
ENV_VAR = "TSRFORGE_GUARD_BITS"


def guard_bits(kind: str) -> int:
    env = os.environ.get(ENV_VAR)
    if env is None:
        return {"enumeration": ENUMERATION_BITS, "field": FIELD_BITS}[kind]
    if not env.strip().isdecimal():
        raise ValueError(f"{ENV_VAR} = {env!r} must be an integer >= 0")
    return int(env)


def check_enumeration(size: int, what: str = "candidate space") -> None:
    check_size(size, what, "enumeration")


def check_field(size: int, what: str = "state space") -> None:
    check_size(size, what, "field")


def check_custom(size: int, bits: int, what: str) -> None:
    check_size(size, what, bits)


def int_text(n: int) -> str:
    """n in decimal, or "a N-bit number" when it has more digits than int-to-str conversion allows."""
    try:
        return f"{n}"
    except ValueError:
        return f"a {n.bit_length()}-bit number"


def check_size(size: int, what: str, kind: str | int, low: int = -1) -> int:
    """size; ScaleExceeded naming it when it passes the limit of kind ("enumeration", "field", "digits" or 2^kind).
    A size too large to take is passed as 0 with low >= 0, a lower bound of its log2, and named by what."""
    if kind == "digits":
        past = INT_DIGITS and (low >= (top := 10 ** INT_DIGITS - 1).bit_length() or size > top)
    else:  # by bit count: 2^bits is never built, so any bits works
        past = low > (bits := guard_bits(kind) if isinstance(kind, str) else kind) or (size - 1) >> bits > 0
    if past:
        limit = f"the {INT_DIGITS}-digit limit of int-to-str conversion" if kind == "digits" else f"the 2^{bits} guard"
        raise ScaleExceeded(f"{what} exceeds {limit}" if low >= 0 else f"{what} of {int_text(size)} exceeds {limit}")
    return size


def check_factorable(n: int, what: str = "", low: int = -1) -> None:
    """FactorizationOverflow naming n, or what when low >= 0, when it passes the 2^64 factorization bound."""
    if low > FACTOR_BITS or (n - 1) >> FACTOR_BITS > 0:
        raise FactorizationOverflow(f"{what or int_text(n)} exceeds the 2^{FACTOR_BITS} factorization bound")


def guarded_power(q: int, e: int, what: str, kind: str = "field") -> int:
    """q ** e; ScaleExceeded naming q^e, before it is taken, when e * (q.bit_length() - 1),
    a lower bound of log2(q^e), passes both the limit of kind and POWER_BITS."""
    if (low := e * (q.bit_length() - 1)) > POWER_BITS:
        check_size(0, f"{what} of {q}^{e}", kind, low)
    return q ** e


def checked_power(q: int, e: int, what: str, kind: str = "field") -> int:
    return check_size(guarded_power(q, e, what, kind), what, kind)


def check_matrix_group(q: int, m: int, what: str, kind: str) -> None:
    low = m * m * (q.bit_length() - 1) - 2  # below log2 |GL_m(q)|
    check_size(0, f"{what} GL_{m}({q}) of more than 2^{low} elements", kind, low)


def factorable_power(q: int, e: int) -> int:
    """q ** e - 1; untaken past POWER_BITS, refused by its bit length when q is a power of two, else as q^e - 1."""
    if (low := e * (q.bit_length() - 1)) > POWER_BITS:
        check_factorable(0, f"a {low}-bit number" if q & (q - 1) == 0 else f"{q}^{e} - 1", low)
    return q ** e - 1
