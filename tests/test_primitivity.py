import copy
import dataclasses
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import textwrap

import pytest

import tsrforge
from tsrforge import primitivity
from tsrforge.errors import BadDegree, CoefficientNotDescended, ZeroConstantTerm
from tsrforge.factorint import euler_phi, factor_integer
from tsrforge.fields import _subfield_ints, base_digits, make_field, subfield_maps
from tsrforge.polys import (Polynomial, format_poly, parse_poly, poly_divrem, poly_gcd,
                            poly_modpow)
from tsrforge.primitivity import (PrimitivityCertificate, conjugate_product, is_irreducible,
                                  is_primitive_element, is_primitive_poly,
                                  minimal_polynomial, primitive_elements)


def test_irreducibility_known():
    f2 = make_field(2)
    assert is_irreducible(parse_poly("x^2 + x + 1", f2))
    assert not is_irreducible(parse_poly("x^2 + 1", f2))          # (x+1)^2
    assert is_irreducible(parse_poly("x^5 + x^2 + 1", f2))
    assert not is_irreducible(parse_poly("x^4 + x^2 + 1", f2))    # (x^2+x+1)^2
    f3 = make_field(3)
    assert is_irreducible(parse_poly("x^3 + 2x + 1", f3))
    assert not is_irreducible(parse_poly("x^3 + 2x", f3))


def test_irreducible_census_degree_4_over_f2():
    # (1/4) sum mu(d) 2^(4/d) = (16 - 4) / 4 = 3
    f2 = make_field(2)
    hits = []
    for v in range(16):
        coeffs = [f2.element((v >> i) & 1) for i in range(4)] + [f2.one()]
        p = Polynomial.make(f2, coeffs)
        if is_irreducible(p):
            hits.append(format_poly(p))
    assert hits == ["x^4 + x + 1", "x^4 + x^3 + 1", "x^4 + x^3 + x^2 + x + 1"]


def test_primitive_known_pairs():
    f2 = make_field(2)
    ok, cert = is_primitive_poly(parse_poly("x^4 + x + 1", f2))
    assert ok and cert.group_order == 15
    assert cert.factors.as_dict() == {3: 1, 5: 1}
    # irreducible of order 5 < 15
    ok, cert = is_primitive_poly(parse_poly("x^4 + x^3 + x^2 + x + 1", f2))
    assert not ok and cert is None
    # reducible
    assert is_primitive_poly(parse_poly("x^2 + 1", f2)) == (False, None)


def test_primitive_census_matches_phi():
    # #primitive monic of degree n over F_q is phi(q^n - 1) / n
    for q, n in ((2, 4), (3, 2), (5, 2), (4, 2)):
        field = make_field(q)
        count = 0
        for v in range(q ** n):
            coeffs = []
            t = v
            for _ in range(n):
                coeffs.append(field.element(t % q))
                t //= q
            p = Polynomial.make(field, coeffs + [field.one()])
            if not p.constant_term.is_zero() and is_primitive_poly(p)[0]:
                count += 1
        assert count == euler_phi(q ** n - 1) // n, (q, n)


def test_primitivity_scale_invariant():
    # primitivity is a property of the root set, so scaling cannot change it
    f5 = make_field(5)
    rng = random.Random(53)
    for _ in range(20):
        coeffs = [f5.element(rng.randrange(5)) for _ in range(3)] + [f5.one()]
        p = Polynomial.make(f5, coeffs)
        if p.constant_term.is_zero():
            continue
        verdict = is_primitive_poly(p)[0]
        for c in (2, 3, 4):
            assert is_primitive_poly(p.scale(f5.element(c)))[0] == verdict


def test_primitive_rejects_degenerate():
    f2 = make_field(2)
    with pytest.raises(ZeroConstantTerm):
        is_primitive_poly(parse_poly("x^2 + x", f2))
    with pytest.raises(BadDegree):
        is_primitive_poly(Polynomial.one(f2))


def test_certificate_witnesses():
    f2 = make_field(2)
    ok, cert = is_primitive_poly(parse_poly("x^6 + x + 1", f2))
    assert ok and cert.group_order == 63
    assert cert.factors.primes == (3, 7)
    # each witness is x^((q^n-1)/l) mod f and must differ from 1
    one = Polynomial.one(f2)
    for l, w in cert.witnesses:
        assert cert.group_order % l == 0
        assert w != one


def test_primitive_element_counts():
    for q in (9, 16, 25):
        field = make_field(q)
        count = sum(1 for x in field.elements()
                    if not x.is_zero() and is_primitive_element(x))
        assert count == euler_phi(q - 1), q


def test_minimal_polynomial_properties():
    big = make_field(64)
    g = big.gen()
    mp = minimal_polynomial(g, 2)
    assert mp.field.order == 2 and mp.degree == 6
    assert is_primitive_poly(mp)[0]
    # beta and beta^4 share a minimal polynomial over F_4, conjugates under x -> x^4
    mp4 = minimal_polynomial(g, 4)
    assert mp4.field.order == 4 and mp4.degree == 3
    assert minimal_polynomial(g ** 4, 4) == mp4
    # element of the base field has degree-1 minimal polynomial
    base, embed, _ = subfield_maps(big, 4)
    mp1 = minimal_polynomial(embed(base.gen()), 4)
    assert mp1.degree == 1


def test_minimal_polynomial_annihilates():
    big = make_field(81)
    rng = random.Random(59)
    _, embed, _ = subfield_maps(big, 3)
    for _ in range(10):
        x = big.element(rng.randrange(1, 81))
        mp = minimal_polynomial(x, 3)
        lifted = Polynomial.make(big, [embed(c) for c in mp.coeffs])
        val = sum((lifted.coeff(i) * x ** i for i in range(1, mp.degree + 1)),
                  lifted.coeff(0) * big.one())
        assert val.is_zero()


def test_conjugate_product_descends_and_divides():
    rng = random.Random(61)
    for q, base_q in ((9, 3), (4, 2), (25, 5)):
        big = make_field(q)
        for _ in range(10):
            coeffs = [big.element(rng.randrange(q)) for _ in range(2)] + [big.one()]
            p = Polynomial.make(big, coeffs)
            down = conjugate_product(p, base_q)
            assert down.field.order == base_q
            assert down.degree == p.degree * 2
            _, embed, _ = subfield_maps(big, base_q)
            lifted = Polynomial.make(big, [embed(c) for c in down.coeffs])
            _, rem = poly_divrem(lifted, p)
            assert rem.is_zero()


def test_conjugate_product_of_descended_is_power():
    # input already over the base: the product is just p^j
    big = make_field(9)
    _, embed, _ = subfield_maps(big, 3)
    f3 = make_field(3)
    p3 = parse_poly("x^2 + 1", f3)
    lifted = Polynomial.make(big, [embed(c) for c in p3.coeffs])
    assert conjugate_product(lifted, 3) == p3 * p3


def test_descend_poly_names_the_coefficient_outside_the_base():
    big = make_field(16)
    base, _, down = _subfield_ints(big, 4)  # _descend_poly maps canonical ints
    outside = Polynomial.make(big, [big.gen(), big.one()])
    with pytest.raises(CoefficientNotDescended, match="coefficient a of x \\+ a is outside GF\\(4\\)"):
        primitivity._descend_poly(outside, base, down)


# --- the staged test against the plain route ---------------------------------

def _reference_route(f):
    """(irreducible, primitive, certificate JSON) by the plain route.

    Rabin's test with each X^(q^k) by square-and-multiply, then
    X^((q^n-1)/l) != 1 mod f for every prime l | q^n - 1.
    """
    field, n = f.field, f.degree
    q = field.order
    fm = f.monic()
    X, one = Polynomial.x(field), Polynomial.one(field)
    irreducible = n == 1 or (
        all(poly_gcd(poly_modpow(X, q ** (n // l), fm) - X, fm).degree == 0
            for l in factor_integer(n).primes)
        and poly_modpow(X, q ** n, fm) == X)
    if not irreducible:
        return False, False, None
    group_order = q ** n - 1
    factors = factor_integer(group_order)
    witnesses = tuple((l, poly_modpow(X, group_order // l, fm)) for l in factors.primes)
    if any(w == one for _, w in witnesses):
        return True, False, None
    return True, True, PrimitivityCertificate(f, group_order, factors, witnesses).to_json()


def _staged_route(f):
    ok, cert = is_primitive_poly(f)
    return is_irreducible(f), ok, cert.to_json() if cert else None


def _monic_nonzero_constant_polys(q, max_degree):
    """Every monic polynomial of degree 1..max_degree with f(0) != 0."""
    field = make_field(q)
    for n in range(1, max_degree + 1):
        for v in range(q ** n):
            digits = base_digits(v, q, n)
            if digits[0]:
                yield Polynomial.make(field, digits + [1])


@pytest.mark.parametrize("q, max_degree", [(2, 10), (3, 6), (4, 4), (5, 4), (7, 3), (8, 3),
                                           (9, 3), (16, 2), (25, 2), (27, 2)])
def test_staged_test_matches_the_plain_route_exhaustively(q, max_degree):
    leads = {1}
    for v, f in enumerate(_monic_nonzero_constant_polys(q, max_degree)):
        expected = _reference_route(f)
        assert _staged_route(f) == expected, format_poly(f)
        if q > 2:
            # a multiple by a unit other than 1, cycling over them: the plain
            # route works on f.monic(), so only the certificate's poly changes
            g = f.scale(f.field.element(2 + v % (q - 2)))
            cert = expected[2] and dict(expected[2], poly=format_poly(g))
            assert _staged_route(g) == expected[:2] + (cert,), format_poly(g)
            leads.add(g.leading.int_value)
    assert len(leads) == q - 1


def test_staged_test_matches_the_plain_route_on_random_polynomials():
    rng = random.Random(67)
    cases = []
    for q in (1 << 17, 65537):
        field = make_field(q)
        for n in (1, 2, 3):
            for _ in range(3):
                cases.append(Polynomial.make(field, [rng.randrange(1, q)]
                                             + [rng.randrange(q) for _ in range(n - 1)]
                                             + [rng.randrange(1, q)]))
    f2 = make_field(2)
    for n in (40, 52, 64):
        cases.append(Polynomial.make(f2, [1] + [rng.randrange(2) for _ in range(n - 1)] + [1]))
    # published primitive trinomials, so the accept path runs at high degree too
    cases += [parse_poly(text, f2) for text in ("x^41 + x^3 + 1", "x^63 + x + 1")]
    verdicts = []
    for f in cases:
        staged = _staged_route(f)
        assert staged == _reference_route(f), format_poly(f)
        verdicts.append(staged[1])
    assert verdicts[-2:] == [True, True]


# primitive polynomials (monic, little-endian ints) at degrees where
# r = (q^n - 1)/(q - 1) has many primes, past the exhaustive grid
_HIGH_DEGREE_PRIMITIVE = {
    3: [[2, 0, 2, 1, 1, 1, 1, 0, 0, 2, 1, 2, 2, 1, 0, 1, 0, 2, 1, 2, 1],
        [2, 0, 2, 0, 2, 2, 2, 0, 2, 1, 1, 2, 1, 2, 1, 2, 2, 0, 0, 0, 1],
        [2, 0, 1, 2, 0, 1, 2, 2, 1, 2, 1, 1, 1, 2, 1, 0, 2, 0, 0, 1, 1],
        [2, 1, 2, 2, 1, 1, 2, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1],
        [2, 0, 2, 2, 2, 2, 1, 1, 2, 2, 0, 2, 2, 0, 2, 2, 2, 1, 2, 2, 1],
        [2, 0, 1, 0, 2, 1, 2, 2, 1, 2, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1]],
    4: [[2, 1, 3, 2, 0, 3, 1, 3, 3, 3, 2, 3, 1],
        [3, 3, 1, 0, 1, 1, 2, 0, 3, 0, 2, 2, 1],
        [2, 1, 3, 0, 3, 2, 1, 3, 3, 1, 1, 2, 1],
        [3, 3, 0, 0, 3, 2, 3, 3, 3, 1, 1, 1, 1],
        [2, 1, 3, 0, 1, 0, 3, 3, 1, 2, 1, 1, 1],
        [2, 2, 0, 3, 3, 0, 3, 2, 0, 1, 1, 3, 1]],
    9: [[3, 4, 6, 2, 8, 2, 3, 3, 1],
        [6, 1, 3, 1, 6, 6, 1, 2, 1],
        [6, 8, 0, 5, 4, 3, 5, 3, 1],
        [7, 1, 2, 2, 4, 5, 0, 2, 1],
        [3, 8, 1, 2, 6, 5, 8, 6, 1],
        [5, 2, 8, 8, 1, 1, 5, 3, 1]],
}
# irreducible with a primitive norm, so the order stage is the one that rejects
_ORDER_STAGE_REJECTS = ((4, [2, 1, 2, 0, 2, 0, 1]), (4, [3, 1, 2, 2, 3, 2, 3, 1, 2, 1]),
                        (8, [7, 2, 4, 1, 0, 6, 1]), (8, [3, 6, 6, 4, 2, 5, 4, 0, 4, 1]))


def _high_degree_cases():
    from tsrforge.search import _iter_primitive

    cases = [Polynomial.make(make_field(q), c) for q, pool in _HIGH_DEGREE_PRIMITIVE.items() for c in pool]
    for q in (4, 8):
        for degree in range(6, 10):  # the first two of search.primitive_polys(field, degree)
            cases += itertools.islice(_iter_primitive(make_field(q), degree), 2)
    cases += [Polynomial.make(make_field(q), c) for q, c in _ORDER_STAGE_REJECTS]
    return cases


def test_staged_test_matches_the_plain_route_at_high_degree():
    monic = _high_degree_cases()
    cases = monic + [f.scale(f.field.element(2)) for f in monic[::5]]  # leads other than 1
    staged = [_staged_route(f) for f in cases]
    for f, got in zip(cases, staged):
        expected = _reference_route(f)
        if f.leading.int_value != 1 and expected[2]:
            expected = expected[:2] + (dict(expected[2], poly=format_poly(f)),)
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True), format_poly(f)
    rejects = len(_ORDER_STAGE_REJECTS)
    assert [got[:2] for got in staged[:len(monic)]] == \
        [(True, True)] * (len(monic) - rejects) + [(True, False)] * rejects


@pytest.mark.parametrize("clear", [False, True])
def test_order_stage_survives_a_wrapped_irreducibility_stage(clear, monkeypatch):
    # a tracer wraps is_irreducible by name, and the ring that stage 2 leaves
    # in primitivity._ring may be gone when stage 3 asks for its conjugates
    f2 = make_field(2)
    cases = [parse_poly("x^63 + x + 1", f2), parse_poly("x^4 + x^3 + x^2 + x + 1", f2)]
    cases += [Polynomial.make(make_field(q), pool[0]) for q, pool in _HIGH_DEGREE_PRIMITIVE.items()]
    cases += [Polynomial.make(make_field(q), c) for q, c in _ORDER_STAGE_REJECTS[::3]]
    cases += [parse_poly(text, make_field(q)) for q, text in _O_CASES[:-1]]
    want = [json.dumps(_reference_route(f)[1:], sort_keys=True) for f in cases]
    irreducible, calls = primitivity.is_irreducible, []

    def wrapper(f):
        calls.append(f)
        ok = irreducible(f)
        if clear:
            primitivity._ring.cache_clear()
        return ok

    monkeypatch.setattr(primitivity, "is_irreducible", wrapper)
    built = []
    for kernel in {type(f.field.ops.kernel) for f in cases}:
        monkeypatch.setattr(kernel, "ring", lambda self, f, ring=kernel.ring: built.append(f) or ring(self, f))
    for f, expected in zip(cases, want):
        primitivity._ring.cache_clear()
        built.clear()
        ok, cert = is_primitive_poly(f)
        assert json.dumps((ok, cert and cert.to_json()), sort_keys=True) == expected, format_poly(f)
        if ok:  # stage 3 ran on the ring stage 2 built, or on a fresh one after the clear
            assert len(built) == 1 + clear, format_poly(f)
    accepted = [f for f, expected in zip(cases, want) if json.loads(expected)[0]]
    assert len(accepted) == 7 and all(any(f is g for g in calls) for f in accepted)


def test_norm_stage_rejects_without_polynomial_arithmetic(monkeypatch):
    # x^2 + x + 1 over F_5 is irreducible and X^3 = 1; its norm 1 is not primitive
    f = parse_poly("x^2 + x + 1", make_field(5))
    assert is_irreducible(f)
    assert poly_modpow(Polynomial.x(f.field), 3, f) == Polynomial.one(f.field)

    def not_reached(*_):
        raise AssertionError("stage 1 should have decided")

    # every polynomial product, reduction and power of the test runs in a
    # ring of the field's kernel, and every gcd on the kernel's packed_gcd
    monkeypatch.setattr(primitivity, "is_irreducible", not_reached)
    monkeypatch.setattr(type(f.field.ops.kernel), "ring", not_reached)
    monkeypatch.setattr(type(f.field.ops.kernel), "packed_gcd", not_reached)
    assert is_primitive_poly(f) == (False, None)


def test_group_order_is_factored_only_after_rabin_passes(monkeypatch):
    # stage 3's memo of q^n - 1 and its factorization fills only once Rabin's test
    # has passed, so a norm reject or a Rabin reject never factors q^n - 1
    factored = []
    monkeypatch.setattr(primitivity, "factor_integer", lambda n: factored.append(n) or factor_integer(n))
    primitivity._order_plan.cache_clear()
    norm_reject = parse_poly("x^2 + x + 1", make_field(5))  # irreducible; its norm 1 is not primitive
    f2 = make_field(2)
    # reducible, of degree 70: 2^70 - 1 is past the 2^64 factorization bound
    rabin_reject = parse_poly("x^70 + x + 1", f2)
    assert not is_irreducible(rabin_reject)
    for f in (norm_reject, rabin_reject):
        assert is_primitive_poly(f) == (False, None), format_poly(f)
    assert 5 ** 2 - 1 not in factored and 2 ** 70 - 1 not in factored
    assert primitivity._order_plan.cache_info().currsize == 0
    # an accept fills it once per (q, n)
    assert is_primitive_poly(parse_poly("x^6 + x + 1", f2))[0]
    assert is_primitive_poly(parse_poly("x^6 + x^5 + 1", f2))[0]
    assert factored.count(2 ** 6 - 1) == 1 and primitivity._order_plan.cache_info().currsize == 1


def test_one_ring_per_primitivity_test(monkeypatch):
    # Rabin's stage and the order stage run in one ring of the monic f
    from tsrforge.search import primitive_polys

    f2, f3, f9 = make_field(2), make_field(3), make_field(9)
    cases = [parse_poly("x^6 + x + 1", f2), parse_poly("x^4 + x^3 + x^2 + x + 1", f2)]
    for field, degree in ((f3, 4), (f9, 3)):
        f = primitive_polys(field, degree)[0]
        cases += [f, f.scale(field.element(2))]
    want = [(ok, cert and cert.to_json()) for ok, cert in map(is_primitive_poly, cases)]
    assert [ok for ok, _ in want] == [True, False, True, True, True, True]
    built = []
    for kernel in {type(f.field.ops.kernel) for f in cases}:
        monkeypatch.setattr(kernel, "ring", lambda self, f, ring=kernel.ring: built.append(f) or ring(self, f))
    for f, (ok, cert_json) in zip(cases, want):
        primitivity._ring.cache_clear()
        built.clear()
        got, cert = is_primitive_poly(f)
        assert (got, cert and cert.to_json()) == (ok, cert_json) and len(built) == 1, format_poly(f)


def test_verdict_only_callers_build_no_witness(monkeypatch):
    from tsrforge.cosets import count_trace_one_classes
    from tsrforge.counting import enumerate_special_primitives, enumerate_tsrp_bruteforce
    from tsrforge.fields import _fallback_modulus
    from tsrforge.search import search_primitive_tsr, verify_conjecture
    from tsrforge.tables import fiber_census

    built = []
    witnesses = primitivity._witnesses
    monkeypatch.setattr(primitivity, "_witnesses", lambda *a: built.append(a) or witnesses(*a))
    # each of these accepts primitive polynomials and keeps only the verdict
    assert enumerate_special_primitives(2, 2, 3, "P_mnq")
    assert enumerate_tsrp_bruteforce(2, 2, 2)
    assert fiber_census(2, 2, (0, 1, 1, 1))
    assert count_trace_one_classes(5) == (2, 10)
    assert search_primitive_tsr(2, 3, 3).certificate.group_order == 2 ** 9 - 1
    assert _fallback_modulus.__wrapped__(2, 5)
    assert verify_conjecture(2, 2, 2, "direct").conversion_ok
    assert verify_conjecture(2, 2, 2, "composition").conversion_ok
    assert built == []
    ok, cert = is_primitive_poly(parse_poly("x^6 + x + 1", make_field(2)))
    assert ok and built == []
    assert cert.to_json() == cert.to_json() and len(built) == 1  # built once, on first read
    assert [l for l, _ in cert.witnesses] == [3, 7]


def test_lazy_certificate_behaves_as_the_eager_one():
    f = parse_poly("x^6 + x + 1", make_field(2))
    ok, cert = is_primitive_poly(f)
    eager = PrimitivityCertificate(f, cert.group_order, cert.factors, is_primitive_poly(f)[1].witnesses)
    assert cert == eager and eager == cert and hash(cert) == hash(eager)
    assert repr(cert) == repr(eager)
    assert pickle.loads(pickle.dumps(cert)) == eager
    assert type(copy.deepcopy(cert)) is PrimitivityCertificate
    other = dataclasses.replace(cert, group_order=7)
    assert other.group_order == 7 and other.witnesses == eager.witnesses and other != eager


def _order_by_walk(x):
    """Multiplicative order of x by repeated multiplication."""
    y, order = x, 1
    while y != x.owner.one():
        y, order = y * x, order + 1
    return order


def test_primitive_elements_match_the_order_walk():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 121, 125, 128, 256):
        field = make_field(q)
        expected = [x for x in field.elements() if not x.is_zero() and _order_by_walk(x) == q - 1]
        assert primitive_elements(field) == expected, q
        assert len(expected) == euler_phi(q - 1)


@pytest.mark.parametrize("q", [2 ** k for k in range(2, 13)] + [9, 81, 121])
def test_primitive_elements_test_one_element_per_frobenius_orbit(q, monkeypatch):
    field = make_field(q)
    expected = [x for x in field.elements() if not x.is_zero() and is_primitive_element(x)]
    orbits, seen = 0, set()
    for x in field.elements():
        if not x.is_zero() and x not in seen:
            orbits += 1
            while x not in seen:
                seen.add(x)
                x = x ** field.characteristic
    tested = []
    generates = primitivity._generates
    monkeypatch.setattr(primitivity, "_generates", lambda *a: tested.append(a[0]) or generates(*a))
    assert primitive_elements(field) == expected
    assert len(tested) == len(set(tested)) == orbits


def test_primitivity_is_invariant_under_coefficient_frobenius():
    # sigma: c -> c^p on the coefficients maps the roots of f to those of
    # f^sigma and keeps their orders, so f and every f^(sigma^i) share a verdict
    for q in (4, 8, 9, 16, 25, 64):
        field, rng = make_field(q), random.Random(q)
        p, k = field.characteristic, field.extension_degree
        kinds, moved = set(), 0

        def monic(d):
            return Polynomial.make(field, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(d - 1)] + [1])

        for degree in range(2, 7):
            for f in [monic(degree) for _ in range(6)] + [monic(1) * monic(degree - 1)]:
                ok = is_primitive_poly(f)[0]
                kinds.add("primitive" if ok else "irreducible" if is_irreducible(f) else "reducible")
                g = f
                for _ in range(k - 1):
                    g = Polynomial.make(field, [c ** p for c in g.coeffs])
                    moved += g != f
                    assert is_primitive_poly(g)[0] == ok, (q, format_poly(f), format_poly(g))
        assert kinds == {"primitive", "irreducible", "reducible"} and moved, q


def _run_optimized(code):
    """stdout of `code` run by python -O, which strips assert statements."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsrforge.__file__)))
    res = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


# (q, text): primitive, irreducible of low order, reducible, over prime and
# extension fields; the last is irreducible with 3^41 - 1 past 2^64
_O_CASES = ((2, "x^6 + x + 1"), (2, "x^4 + x^3 + x^2 + x + 1"), (2, "x^4 + x^2 + 1"),
            (3, "x^2 + x + 2"), (5, "x^2 + x + 1"), (4, "x^2 + x + a"), (9, "2x^2 + a"),
            (3, "x^41 + 2x + 2"))


def test_verdicts_survive_python_O():
    out = _run_optimized(f"""
        import json
        from tsrforge.fields import make_field
        from tsrforge.polys import parse_poly
        from tsrforge.primitivity import is_irreducible, is_primitive_poly

        rows = []
        for q, text in {_O_CASES!r}:
            f = parse_poly(text, make_field(q))
            ok, cert = is_primitive_poly(f)
            rows.append([is_irreducible(f), ok, cert.to_json() if cert else None])
        print(json.dumps([__debug__, rows]))
    """)
    debug, rows = json.loads(out)
    assert debug is False
    expected = [_reference_route(parse_poly(text, make_field(q))) for q, text in _O_CASES[:-1]]
    assert rows[:-1] == json.loads(json.dumps(expected))
    assert rows[-1] == [True, False, None]  # the norm decides


def _ref_minimal_polynomial(x, base_order):
    """Product of (X - y) over the Frobenius orbit of x, in Polynomial objects."""
    field = x.owner
    base, _, descend = subfield_maps(field, base_order)
    orbit, y = [x], x ** base_order
    while y != x:
        orbit.append(y)
        y = y ** base_order
    prod, X = Polynomial.one(field), Polynomial.x(field)
    for y in orbit:
        prod = prod * (X - Polynomial.constant(field, y))
    return Polynomial.make(base, [descend(c) for c in prod.coeffs])


def _ref_conjugate_product(f, base_order):
    """Product of the coefficient-Frobenius conjugates of f, in Polynomial objects."""
    field = f.field
    base, _, descend = subfield_maps(field, base_order)
    prod, g, order = f, f, base_order
    while order < field.order:  # one more conjugate per step up to the field
        g = Polynomial.make(field, [c ** base_order for c in g.coeffs])
        prod, order = prod * g, order * base_order
    return Polynomial.make(base, [descend(c) for c in prod.coeffs])


# every default field up to order 2^12, 3^6 and 5^4, over each of its proper subfields
_TOWERS = [(p ** k, p ** j) for p, top in ((2, 12), (3, 6), (5, 4))
           for k in range(2, top + 1) for j in range(1, k) if k % j == 0]


@pytest.mark.parametrize("q, base_order", _TOWERS)
def test_minimal_polynomial_and_conjugate_product_match_the_object_route(q, base_order):
    field, rng = make_field(q), random.Random(q * 7 + base_order)
    xs = [0, 1, field.characteristic] + [rng.randrange(q) for _ in range(12)]
    for x in map(field.element, xs):
        assert minimal_polynomial(x, base_order) == _ref_minimal_polynomial(x, base_order), x
    for deg in (0, 1, 3):
        f = Polynomial.make(field, [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])
        assert conjugate_product(f, base_order) == _ref_conjugate_product(f, base_order), f
    assert conjugate_product(Polynomial.zero(field), base_order).is_zero()
