"""Trace-one classes of primitive elements of F_{2^{2m}} and the quadratic census.

r counts conjugate classes of primitive elements x of F_{2^{2m}} whose
relative trace x + x^{2^m} over F_{2^m} equals 1.  Such an x has minimal
polynomial X^2 + X + N(x) over F_{2^m}, and the 2m conjugates of x give the m
Frobenius images of N(x), so r*m is the number of c in F_{2^m} with
X^2 + X + c primitive.  count_trace_one_classes counts those c, one squaring
orbit of F_{2^m} at a time, in O(2^m) field operations.

primitive_trace_one_count is the independent element-level cross-check, in
O(2^m) element-order tests on the ops of F_{2^{2m}}: the relative trace is
F_{2^m}-linear and onto with kernel F_{2^m}, so the trace-one elements are
the single coset x0 + F_{2^m}.  The class-summary path goes through the
structured field layer and is meant for small m.

A class is counted when its trace t equals 1.  The squaring orbit of t
contains 1 exactly when t = 1 (t^{2^i} = 1 forces (t-1)^{2^i} = 0), so
orbit-membership and equality coincide; the orbit variant is exercised as a
tripwire in the test suite.
"""

from dataclasses import dataclass
from math import gcd

from .errors import ExistenceViolation, ScaleExceeded
from .fields import conjugates, int_pow, make_field, subfield_maps
from .guards import check_field
from .polys import Polynomial
from .primitivity import _generates, is_primitive_poly

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

    Walks F_{2^m} once by squaring orbits; r is the number of orbits whose
    leader c makes X^2 + X + c primitive.  Only orbits of size m (a primitive
    element's norm is primitive) with absolute trace Tr(c) = 1 (X^2 + X + c
    is irreducible exactly then) reach the primitivity test.  Every orbit
    size must divide m, and exactly 2^{m-1} elements must have trace one.
    """
    if m < 1:
        raise ScaleExceeded(f"m = {m} outside supported range")
    check_field(1 << m, "census field")
    field = make_field(1 << m)
    seen = bytearray(field.order)
    r = 0
    trace_one = 0
    for c in range(1, field.order):
        if seen[c]:
            continue
        try:
            orbit = conjugates(c, 2, field.ops, m)
        except ExistenceViolation:
            orbit = []  # not closed after m steps
        if not orbit or m % len(orbit):
            raise ExistenceViolation(f"squaring orbit of {c} does not close after a divisor of {m} steps")
        size, total = len(orbit), 0
        for y in orbit:
            seen[y] = 1
            total ^= y
        # Tr(c) is the orbit sum taken m/size times: the sum when m/size is odd
        if (m // size) % 2 and total == 1:
            trace_one += size
            if size == m and is_primitive_poly(Polynomial(field, (c, 1, 1)))[0]:
                r += 1
    if trace_one != field.order // 2:
        raise ExistenceViolation(f"trace-one tally {trace_one} != {field.order // 2}")
    return r, r * m


def primitive_trace_one_count(m: int) -> int:
    """Elementwise tally: primitive x in F_{2^{2m}} with x + x^{2^m} = 1.

    Walks the trace-one coset x0 + F_{2^m} and counts the elements that
    generate F_{2^{2m}}^*.  With a the generator, which is primitive for the
    modulus make_field picks, x0 = a / T(a) (T(a) != 0, as a is not in
    F_{2^m}), and F_{2^m} is 0 and the powers of the norm h = a^{2^m+1},
    which generate F_{2^m}^*.  Independent of the class count; must equal
    2*r*m.
    """
    if m < 1:
        raise ScaleExceeded(f"m = {m} outside supported range")
    check_field((1 << (2 * m)) - 1, "element tally space")
    field = make_field(1 << (2 * m))
    ops, a, sub = field.ops, field.gen().int_value, 1 << m
    x0 = ops.mul(a, ops.inv(ops.add(a, int_pow(a, sub, ops))))
    h = int_pow(a, sub + 1, ops)
    count, c = _generates(x0, field.order, ops), 1
    for steps in range(1, sub):
        count += _generates(ops.add(x0, c), field.order, ops)
        c = ops.mul(c, h)
        if c == 1:
            break
    if c != 1 or steps != sub - 1:
        raise ExistenceViolation(f"powers of the norm {h} do not close after exactly {sub - 1} steps")
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
    quads = tuple(Polynomial.make(base, [nm ** (1 << i), -(t ** (1 << i)), base.one()]) for i in range(m))
    return ConjugateClassSummary(leader, t, nm, quads)


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
