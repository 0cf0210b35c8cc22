import math
from types import SimpleNamespace

import pytest

from tsrforge import cosets
from tsrforge.cosets import (ConjugateClassSummary, CosetPartition,
                             conjugate_class_summary, count_trace_one_classes,
                             cyclotomic_partition, primitive_trace_one_count,
                             trace_one_class_summaries)
from tsrforge.errors import ExistenceViolation, ScaleExceeded
from tsrforge.factorint import euler_phi
from tsrforge.fields import make_extension_field, make_field, subfield_maps
from tsrforge.polys import Polynomial, format_poly
from tsrforge.primitivity import is_primitive_element, is_primitive_poly


def test_partition_m1():
    part = cyclotomic_partition(1)
    assert part.modulus == 3
    assert part.cosets == ((1, 2),)
    assert part.leaders == (1,)


def test_partition_m2():
    part = cyclotomic_partition(2)
    assert part.modulus == 15
    assert part.cosets == ((1, 2, 4, 8), (7, 11, 13, 14))
    assert part.leaders == (1, 7)


def test_partition_structure():
    for m in (1, 2, 3, 4, 5, 6):
        part = cyclotomic_partition(m)
        group = 2 ** (2 * m) - 1
        assert part.modulus == group
        # unit cosets only, pairwise disjoint, and they cover all units
        seen = set()
        for coset in part.cosets:
            assert list(coset) == sorted(coset)
            # every unit coset of the doubling map has size exactly 2m
            assert len(coset) == 2 * m
            for x in coset:
                assert math.gcd(x, group) == 1
                assert x not in seen
                seen.add(x)
            # closure under doubling
            assert {x * 2 % group for x in coset} == set(coset)
        assert len(seen) == euler_phi(group)
        assert part.leaders == tuple(min(c) for c in part.cosets)
        assert list(part.leaders) == sorted(part.leaders)


def test_partition_guard():
    with pytest.raises(ScaleExceeded):
        cyclotomic_partition(15)
    with pytest.raises(ScaleExceeded):
        cyclotomic_partition(0)


def test_count_reference_values():
    want = {2: (1, 2), 3: (1, 3), 4: (1, 4), 5: (2, 10), 6: (3, 18),
            7: (6, 42), 8: (7, 56), 9: (16, 144), 10: (25, 250)}
    for m, pair in want.items():
        assert count_trace_one_classes(m) == pair, m


def test_count_equals_unfiltered_quadratic_census():
    # r*m counts every nonzero c with X^2 + X + c primitive over F_{2^m}; no
    # orbit-size or trace filter here, so this checks both filters
    for m in range(1, 9):
        base = make_field(2 ** m)
        hits = sum(1 for c in range(1, base.order)
                   if is_primitive_poly(Polynomial.make(base, [c, 1, 1]))[0])
        r, rm = count_trace_one_classes(m)
        assert rm == r * m == hits, m


def test_element_tally_walks_only_the_trace_one_coset(monkeypatch):
    # one element-order test per element of x0 + F_{2^m}, not one per unit of
    # F_{4^m}: an O(4^m) walk makes about 2^{2m} of them
    real, calls = cosets._generates, []

    def counted(a, q, ops):
        calls.append(a)
        return real(a, q, ops)

    monkeypatch.setattr(cosets, "_generates", counted)
    assert primitive_trace_one_count(10) == 500
    assert len(calls) <= 2 ** 10 + 64


def test_count_refuses_a_broken_squaring_map(monkeypatch):
    def fake_field(mul):
        return lambda order: SimpleNamespace(order=order, ops=SimpleNamespace(mul=mul))

    # squaring that is not a permutation: the orbit of 2 runs into that of 1
    monkeypatch.setattr(cosets, "make_field", fake_field(lambda a, b: 1))
    with pytest.raises(ExistenceViolation, match="squaring orbit of 2"):
        count_trace_one_classes(3)
    # identity "squaring": every orbit has size 1 and only c = 1 has trace one
    monkeypatch.setattr(cosets, "make_field", fake_field(lambda a, b: a))
    with pytest.raises(ExistenceViolation, match="trace-one tally 1 != 4"):
        count_trace_one_classes(3)


def test_count_equals_partition_trace_filter():
    # r recomputed from the partition plus a field-level trace evaluation
    for m in (2, 3, 4, 5):
        big = make_field(2 ** (2 * m))
        gen = big.gen()
        one = big.one()
        r_direct = 0
        for leader in cyclotomic_partition(m).leaders:
            x = gen ** leader
            if x + x ** (2 ** m) == one:
                r_direct += 1
        assert count_trace_one_classes(m) == (r_direct, r_direct * m)


def test_trace_one_constant_on_cosets():
    # doubling squares the relative trace, so the trace itself varies within
    # a coset; the trace == 1 predicate is still a class function because 1
    # is fixed by squaring
    for m in (2, 3, 4):
        big = make_field(2 ** (2 * m))
        gen = big.gen()
        one = big.one()
        group = 2 ** (2 * m) - 1
        squared_varies = 0
        for coset in cyclotomic_partition(m).cosets:
            trace = {e: gen ** e + (gen ** e) ** (2 ** m) for e in coset}
            flags = {t == one for t in trace.values()}
            assert len(flags) == 1
            if len(set(trace.values())) > 1:
                squared_varies += 1
            for e, t in trace.items():
                assert trace[e * 2 % group] == t * t
        assert squared_varies > 0


def test_element_tally_is_2rm():
    for m in range(1, 11):
        r, _ = count_trace_one_classes(m)
        assert primitive_trace_one_count(m) == 2 * r * m


def test_element_tally_direct_small():
    # direct field scan oracle at m = 2, 3
    for m in (2, 3):
        big = make_field(2 ** (2 * m))
        one = big.one()
        tally = 0
        for x in big.elements():
            if x.is_zero():
                continue
            if is_primitive_element(x) and x + x ** (2 ** m) == one:
                tally += 1
        assert primitive_trace_one_count(m) == tally


def test_count_guard():
    # the census walks the 2^m elements of F_{2^m}
    with pytest.raises(ScaleExceeded, match="census field of 33554432 exceeds the 2\\^24 guard"):
        count_trace_one_classes(25)
    with pytest.raises(ScaleExceeded, match="element tally space of 67108863 exceeds the 2\\^24 guard"):
        primitive_trace_one_count(13)
    with pytest.raises(ScaleExceeded, match="m = 0 outside supported range"):
        primitive_trace_one_count(0)


def test_r13_by_census_and_by_element_tally(monkeypatch):
    assert count_trace_one_classes(13) == (210, 2730)  # within the default guard
    monkeypatch.setenv("TSRFORGE_GUARD_BITS", "26")
    assert primitive_trace_one_count(13) == 2 * 210 * 13


def test_element_tally_refuses_a_norm_that_does_not_generate(monkeypatch):
    # a modulus whose root has order 5 in F_16^*: the norm a^5 is 1, so the
    # walk over F_4^* closes after one step instead of three
    monkeypatch.setattr(cosets, "make_field", lambda order: make_extension_field(2, 4, [1, 1, 1, 1, 1]))
    with pytest.raises(ExistenceViolation, match="do not close after exactly 3 steps"):
        primitive_trace_one_count(2)


def test_r_bound():
    for m in range(2, 11):
        r, _ = count_trace_one_classes(m)
        assert r <= euler_phi(2 ** m - 1) // m


def test_class_summary_m2():
    summaries = trace_one_class_summaries(2)
    assert len(summaries) == 1
    s = summaries[0]
    assert isinstance(s, ConjugateClassSummary)
    assert s.leader == 1
    base = make_field(4)
    assert s.trace == base.one()
    assert len(s.quadratics) == 2
    assert {format_poly(qd) for qd in s.quadratics} == {"x^2 + x + a", "x^2 + x + (a+1)"}


def test_class_summary_quadratics_annihilate():
    # each quadratic x^2 - t^(2^i) x + nm^(2^i) kills the corresponding
    # Frobenius image of the class representative
    for m in (2, 3):
        big = make_field(2 ** (2 * m))
        base, embed, _ = subfield_maps(big, 2 ** m)
        gen = big.gen()
        for s in trace_one_class_summaries(m):
            assert len(s.quadratics) == m
            x = gen ** s.leader
            for i, quad in enumerate(s.quadratics):
                y = x ** (2 ** i)
                lifted = [embed(c) for c in quad.coeffs]
                val = lifted[0] * big.one() + lifted[1] * y + lifted[2] * y * y
                assert val.is_zero()


def test_summary_trace_norm_consistency():
    m = 3
    big = make_field(2 ** (2 * m))
    gen = big.gen()
    base, embed, _ = subfield_maps(big, 2 ** m)
    for s in trace_one_class_summaries(m):
        x = gen ** s.leader
        assert embed(s.trace) == x + x ** (2 ** m)
        assert embed(s.norm) == x * x ** (2 ** m)
