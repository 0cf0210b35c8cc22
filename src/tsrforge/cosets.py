"""Cyclotomic cosets of exponents modulo 2^{2m} - 1 and trace-one classes.

The census driver: r counts conjugate classes of primitive elements of
F_{2^{2m}} whose relative trace over F_{2^m} equals 1, and r*m is the number
of primitive quadratics X^2 + X + c over F_{2^m}.  The counting path works on
raw integer encodings (field elements as bitmasks, one exp table per field)
so m = 12 stays inside the time budget; the class-summary path goes through
the structured field layer and is meant for small m.

A class is counted when its trace t equals 1.  The squaring orbit of t
contains 1 exactly when t = 1 (t^{2^i} = 1 forces (t-1)^{2^i} = 0), so
orbit-membership and equality coincide; the orbit variant is exercised as a
tripwire in the test suite.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import ExistenceViolation, ScaleExceeded
from .factorint import euler_phi
from .fields import make_field, subfield_maps
from .guards import check_field
from .polys import Polynomial

MAX_PARTITION_M = 14


@dataclass(frozen=True)
class CosetPartition:
    """Multiply-by-2 orbits of the units modulo 2^{2m} - 1."""

    modulus: int
    cosets: tuple[tuple[int, ...], ...]
    leaders: tuple[int, ...]


@dataclass(frozen=True)
class ConjugateClassSummary:
    """One conjugate class: leader exponent, relative trace and norm of the

    leader element, and the m quadratics X^2 - t^{2^i} X + nm^{2^i} the class
    induces over F_{2^m}.
    """

    leader: int
    trace: object
    norm: object
    quadratics: tuple[Polynomial, ...]


@lru_cache(maxsize=None)
def _exp_table(k: int) -> array:
    """exp[i] = bitmask of x^i in F_{2^k}, i = 0 .. 2^k - 2.

    The modulus is the one make_field picks for F_{2^k}; it is primitive, so
    x generates the units.  r and the element tally do not depend on which
    primitive modulus is used.
    """
    mod = sum(c << i for i, c in enumerate(make_field(2 ** k).modulus_coeffs))
    group = (1 << k) - 1
    table = array("I", bytes(4 * group))
    cur = 1
    top = 1 << k
    for i in range(group):
        table[i] = cur
        cur <<= 1
        if cur & top:
            cur ^= mod
    return table


def cyclotomic_partition(m: int) -> CosetPartition:
    """Partition {i : gcd(i, 2^{2m}-1) = 1} into multiply-by-2 orbits.

    Cosets are sorted internally; leaders (the minima) come out ascending.
    """
    if m < 1 or m > MAX_PARTITION_M:
        raise ScaleExceeded(f"m = {m} outside supported range 1..{MAX_PARTITION_M}")
    group = (1 << (2 * m)) - 1
    visited = bytearray(group)
    cosets = []
    leaders = []
    for j in range(1, group):
        if visited[j] or gcd(j, group) != 1:
            continue
        orbit = []
        cur = j
        while not visited[cur]:
            visited[cur] = 1
            orbit.append(cur)
            cur = cur * 2 % group
        cosets.append(tuple(sorted(orbit)))
        leaders.append(j)
    return CosetPartition(group, tuple(cosets), tuple(leaders))


def count_trace_one_classes(m: int) -> tuple[int, int]:
    """(r, r*m): conjugate classes of primitive elements with trace one.

    Walks every multiply-by-2 orbit once; a single gcd decides whether the
    orbit consists of unit exponents, and the leader's trace
    x^j + x^{j*2^m} (one table lookup each) decides membership.  Unit orbit
    sizes and the total unit count are checked against phi(2^{2m}-1).
    """
    if m < 1:
        raise ScaleExceeded(f"m = {m} outside supported range")
    k = 2 * m
    group = (1 << k) - 1
    check_field(group, "coset exponent space")
    exp = _exp_table(k)
    visited = bytearray(group)
    r = 0
    units = 0
    for j in range(1, group):
        if visited[j]:
            continue
        size = 0
        cur = j
        while not visited[cur]:
            visited[cur] = 1
            size += 1
            cur = cur * 2 % group
        if gcd(j, group) != 1:
            continue
        if size != k:
            raise ExistenceViolation(f"unit coset of leader {j} has size {size}, expected {k}")
        units += size
        if exp[j] ^ exp[(j << m) % group] == 1:
            r += 1
    if units != euler_phi(group):
        raise ExistenceViolation(f"unit tally {units} != phi({group})")
    return r, r * m


def primitive_trace_one_count(m: int) -> int:
    """Elementwise tally: primitive x in F_{2^{2m}} with x + x^{2^m} = 1.

    Independent of the class count; must equal 2*r*m.
    """
    if m < 1:
        raise ScaleExceeded(f"m = {m} outside supported range")
    k = 2 * m
    group = (1 << k) - 1
    check_field(group, "element tally space")
    exp = _exp_table(k)
    count = 0
    for j in range(1, group):
        if gcd(j, group) == 1 and exp[j] ^ exp[(j << m) % group] == 1:
            count += 1
    return count


def conjugate_class_summary(m: int, leader: int) -> ConjugateClassSummary:
    """Field-level view of one class: trace, norm, and its m quadratics.

    Uses the structured field tower F_{2^m} inside F_{2^{2m}}; intended for
    small m.  The i-th quadratic is X^2 - t^{2^i} X + nm^{2^i}.
    """
    big = make_field(2 ** (2 * m))
    base, _, descend = subfield_maps(big, 2 ** m)
    x = big.gen() ** leader
    frob = x ** (2 ** m)
    t = descend(x + frob)
    nm = descend(x * frob)
    if t is None or nm is None:
        raise ExistenceViolation("relative trace/norm must land in the base field")
    quads = []
    ti, ni = t, nm
    for _ in range(m):
        quads.append(Polynomial.make(base, [ni, -ti, base.one()]))
        ti = ti * ti
        ni = ni * ni
    return ConjugateClassSummary(leader, t, nm, tuple(quads))


def trace_one_class_summaries(m: int) -> list[ConjugateClassSummary]:
    """Summaries of the r trace-one unit classes, leaders ascending."""
    part = cyclotomic_partition(m)
    base = make_field(2 ** m)
    out = []
    for j in part.leaders:
        s = conjugate_class_summary(m, j)
        if s.trace == base.one():
            out.append(s)
    return out
