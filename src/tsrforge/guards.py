"""Brute-force scale guards.

Exceeding a guard raises ScaleExceeded with the offending bound; nothing is
ever silently truncated.  TSRFORGE_GUARD_BITS overrides both default bounds.
"""

import os

from .errors import ScaleExceeded

ENUMERATION_BITS = 22
FIELD_BITS = 24
POWER_BITS = 1 << 24  # a power q^e whose bit length alone passes this and the guard is not taken
ENV_VAR = "TSRFORGE_GUARD_BITS"


def guard_bits(kind: str) -> int:
    env = os.environ.get(ENV_VAR)
    if env is None:
        return {"enumeration": ENUMERATION_BITS, "field": FIELD_BITS}[kind]
    if not env.strip().isdecimal():
        raise ValueError(f"{ENV_VAR} = {env!r} must be an integer >= 0")
    return int(env)


def check_enumeration(size: int, what: str = "candidate space") -> None:
    check_custom(size, guard_bits("enumeration"), what)


def check_field(size: int, what: str = "state space") -> None:
    check_custom(size, guard_bits("field"), what)


def check_custom(size: int, bits: int, what: str) -> None:
    if size > (1 << bits):
        raise ScaleExceeded(f"{what} of {int_text(size)} exceeds the 2^{bits} guard")


def int_text(n: int) -> str:
    """n in decimal, or "a N-bit number" when it has more digits than int-to-str conversion allows."""
    try:
        return f"{n}"
    except ValueError:
        return f"a {n.bit_length()}-bit number"


def guarded_power(q: int, e: int, what: str, kind: str = "field") -> int:
    """q ** e; ScaleExceeded naming q^e, before it is taken, when e * (q.bit_length() - 1),
    a lower bound of log2(q^e), passes both the guard and POWER_BITS."""
    bits = guard_bits(kind)
    if e * (q.bit_length() - 1) > max(bits, POWER_BITS):
        raise ScaleExceeded(f"{what} of {q}^{e} exceeds the 2^{bits} guard")
    return q ** e
