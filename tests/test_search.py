import hashlib
import json

import pytest

from tsrforge import cli
from tsrforge.errors import (BadDegree, BudgetExhausted, CompositeCharacteristic,
                             InvalidParity, ScaleExceeded, SingularB, ZeroConstantTerm)
from tsrforge.fields import base_digits, make_extension_field, make_field, subfield_maps
from tsrforge.matrices import companion_matrix
from tsrforge.polys import Polynomial, format_poly, parse_poly
from tsrforge.primitivity import (conjugate_product, is_primitive_element,
                                  is_primitive_poly)
from tsrforge.search import (find_trace_one_quadratic, primitive_polys,
                             reciprocal, search_primitive_tsr, verify_conjecture)
from tsrforge.tsr import (TsrSpec, tap_polynomial, tsr_charpoly_direct,
                          tsr_period)


def test_reciprocal_known():
    f2 = make_field(2)
    p = parse_poly("x^3 + x + 1", f2)
    assert format_poly(reciprocal(p, 3)) == "x^3 + x^2 + 1"
    # padding with a degree hint reverses the implied zero head coefficients
    q = parse_poly("x + 1", f2)
    assert format_poly(reciprocal(q, 3)) == "x^3 + x^2"


def test_reciprocal_monic_normalization():
    f5 = make_field(5)
    p = parse_poly("2x^2 + x + 3", f5)
    r = reciprocal(p, 2)
    assert r.is_monic()
    # roots invert: r(x) ~ x^2 p(1/x)
    direct = Polynomial.make(f5, [p.coeff(2), p.coeff(1), p.coeff(0)])
    assert r == direct.monic()


def test_reciprocal_involution_on_monic_units():
    f3 = make_field(3)
    p = parse_poly("x^4 + x^3 + 2x + 1", f3)
    assert reciprocal(reciprocal(p, 4), 4) == p


def test_reciprocal_errors():
    f2 = make_field(2)
    with pytest.raises(ZeroConstantTerm):
        reciprocal(parse_poly("x^2 + x", f2), 2)
    with pytest.raises(BadDegree):
        reciprocal(parse_poly("x^3 + x + 1", f2), 2)


def test_companion_rejects_zero_constant():
    # the register refuses the singular companion matrix of an h with h(0) = 0
    f2 = make_field(2)
    with pytest.raises(SingularB):
        TsrSpec(f2, 2, 2, (f2.one(),), companion_matrix(parse_poly("x^2 + x", f2)))


def test_primitive_polys_ascending():
    f2 = make_field(2)
    polys = primitive_polys(f2, 4)
    assert [format_poly(p) for p in polys] == ["x^4 + x + 1", "x^4 + x^3 + 1"]


@pytest.mark.parametrize("q, degree", [(2, 5), (3, 3), (3, 4), (4, 2), (4, 3), (5, 3), (9, 2), (13, 1)])
def test_primitive_polys_match_a_scan_over_every_constant_term(q, degree):
    # the scan skips constant terms whose norm (-1)^degree c0 is not primitive
    field = make_field(q)
    every = [Polynomial.make(field, [c0] + base_digits(enc, q, degree - 1) + [1])
             for enc in range(q ** (degree - 1)) for c0 in range(1, q)]
    assert primitive_polys(field, degree) == [f for f in every if is_primitive_poly(f)[0]]
    with pytest.raises(BadDegree):
        primitive_polys(field, 0)


@pytest.mark.parametrize("p, k, modulus", [
    (2, 13, (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)), (3, 5, (1, 2, 0, 0, 0, 1)),
    (5, 4, (2, 2, 1, 0, 1)), (7, 3, (2, 3, 0, 1))])
def test_fallback_modulus_is_the_first_primitive_polynomial(p, k, modulus):
    # (p, k) outside the Conway table takes the least primitive monic polynomial
    assert make_extension_field(p, k).modulus_coeffs == modulus
    assert tuple(c.int_value for c in primitive_polys(make_field(p), k)[0].coeffs) == modulus


def test_search_basic_points():
    for q, m, n in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 3)):
        res = search_primitive_tsr(q, m, n)
        spec = res.spec
        assert (spec.q, spec.m, spec.n) == (q, m, n)
        ok, cert = is_primitive_poly(res.charpoly)
        assert ok and cert.group_order == q ** (m * n) - 1
        assert res.charpoly == tsr_charpoly_direct(spec)


def test_search_result_is_full_period():
    res = search_primitive_tsr(2, 2, 3)
    assert tsr_period(res.spec) == 63


def test_search_provenance_identities():
    for q, m, n in ((3, 2, 3), (5, 2, 3), (2, 2, 5)):
        res = search_primitive_tsr(q, m, n)
        prov = res.provenance
        base = make_field(q)
        # the tap polynomial reverses g's non-constant coefficients
        g = prov.g
        taps = tap_polynomial(res.spec)
        for i in range(1, n):
            assert taps.coeff(i).int_value == g.coeff(n - i).int_value
        # step-8 conjugate product equals the assembled characteristic polynomial
        assert prov.step8 == res.charpoly
        # composed form: charpoly is the monic reciprocal of f(g(X))
        fg = prov.f.compose(prov.g)
        assert reciprocal(fg, m * n) == _over(res.charpoly, prov.f.field)
        # lam is the inverse of the root alpha
        big = prov.lam.owner
        assert prov.lam * _lift(prov.alpha, big) == big.one()


def _lift(x, field):
    return field.element(x) if x.owner == field else x


def _over(p, field):
    return Polynomial.make(field, [field.element(int(c.int_value)) for c in p.coeffs])


def test_search_even_n_gate():
    with pytest.raises(InvalidParity):
        search_primitive_tsr(3, 2, 2)
    # q = 2 is exempt
    res = search_primitive_tsr(2, 2, 2)
    assert tsr_period(res.spec) == 15
    # escape hatch runs the scan, but the (3,3,2) candidate family is empty,
    # so the full 12-pair space exhausts
    with pytest.raises(BudgetExhausted) as info:
        search_primitive_tsr(3, 3, 2, allow_even_n=True)
    assert info.value.candidates_tried == 12


@pytest.mark.parametrize("q, m, n, budget, tried", [
    (3, 3, 2, 0, 0), (3, 3, 2, 5, 5), (3, 3, 2, 11, 11), (3, 3, 2, 12, 12), (3, 3, 2, 13, 12),
    (2, 2, 7, 5, 5), (2, 2, 7, 6, None), (3, 2, 3, 50, None)])
def test_search_budget_exhaustion(q, m, n, budget, tried):
    # a budget below the first hit trips mid-scan with the tally preserved, and
    # one that reaches it (pair 6 at (2, 2, 7)) does not interfere; (3, 3, 2)
    # has no hit among its 12 pairs, so every budget ends in a refusal
    if tried is None:
        res = search_primitive_tsr(q, m, n, budget=budget)
        assert is_primitive_poly(res.charpoly)[0]
        return
    with pytest.raises(BudgetExhausted, match=f"no primitive register found after {tried} candidate pairs$") as info:
        search_primitive_tsr(q, m, n, allow_even_n=True, budget=budget)
    assert info.value.candidates_tried == tried


def test_conjecture_both_forms_at_222():
    d = verify_conjecture(2, 2, 2, "direct")
    assert d.found and d.form == "direct" and d.conversion_ok
    assert is_primitive_poly(d.witness)[0]
    c = verify_conjecture(2, 2, 2, "composition")
    assert c.found and c.conversion_ok
    f, g = c.witness
    assert is_primitive_poly(f)[0]
    big_fg = f.compose(g)
    assert is_primitive_poly(big_fg)[0]


@pytest.mark.parametrize("q, m, n, form, budget, tried, found", [
    (3, 2, 3, "direct", 1, None, None), (3, 2, 3, "direct", 8, None, None), (3, 2, 3, "direct", 9, 9, True),
    (5, 2, 3, "direct", 34, None, None), (5, 2, 3, "direct", 35, 35, True),
    (3, 3, 2, "composition", 0, None, None), (3, 3, 2, "composition", 11, None, None),
    (3, 3, 2, "composition", 12, 12, False), (3, 3, 2, "composition", 13, 12, False),
    (2, 2, 7, "composition", 5, None, None), (2, 2, 7, "composition", 6, 6, True)])
def test_conjecture_budget(q, m, n, form, budget, tried, found):
    # a scan refuses only when the budget stops it with candidates left untested;
    # (3, 3, 2) has 12 composition pairs and none is a witness
    if tried is None:
        with pytest.raises(BudgetExhausted, match=f"{form} scan stopped after {budget} candidates$") as info:
            verify_conjecture(q, m, n, form, budget=budget)
        assert info.value.candidates_tried == budget
        return
    w = verify_conjecture(q, m, n, form, budget=budget)
    assert (w.found, w.candidates_tried) == (found, tried)


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match="budget = -1"):
        search_primitive_tsr(2, 2, 3, budget=-1)
    for form in ("direct", "composition"):
        with pytest.raises(ValueError, match="budget = -1"):
            verify_conjecture(3, 2, 3, form, budget=-1)


@pytest.mark.parametrize("form", ["direct", "composition"])
@pytest.mark.parametrize("m, n, message", [(2, 0, "register length n = 0 must be >= 1"),
                                            (0, 2, "block size m = 0 must be >= 1")])
def test_conjecture_refuses_a_bad_shape_as_the_search_does(form, m, n, message):
    with pytest.raises(BadDegree, match=message):
        search_primitive_tsr(2, m, n)
    with pytest.raises(BadDegree, match=message):
        verify_conjecture(2, m, n, form)


@pytest.mark.parametrize("form", ["direct", "composition"])
def test_conjecture_refuses_huge_powers_untaken(form):
    field_name = {"direct": "witness field", "composition": "root field"}[form]
    with pytest.raises(ScaleExceeded, match=f"^{field_name} of 2\\^99999999999 exceeds the 2\\^24 guard$"):
        verify_conjecture(2, 99999999999, 3, form)
    with pytest.raises(ScaleExceeded, match="^candidate space of 3\\^99999999998 exceeds the 2\\^24 guard$"):
        verify_conjecture(3, 2, 99999999999, form)


@pytest.mark.parametrize("form", ["direct", "composition"])
def test_conjecture_names_a_composite_q_in_both_forms(form):
    with pytest.raises(CompositeCharacteristic, match="^6 is not a prime power$"):
        verify_conjecture(6, 2, 2, form)


def _first_direct_witness(q, m, n):
    """(witness, candidates tried) of the direct form, testing every candidate
    in scan order: g's middle digits, then its lead, then lam ascending."""
    big = make_field(q ** m)
    base, embed, _ = subfield_maps(big, q)
    lams = [x for x in big.elements() if not x.is_zero() and is_primitive_element(x)]
    tried = 0
    for enc in range(q ** (n - 1)):
        for lead in range(1, q):
            tail = [embed(base.element(c)) for c in base_digits(enc, q, n - 1) + [lead]]
            for lam in lams:
                tried += 1
                cand = Polynomial.make(big, [lam] + tail)
                if is_primitive_poly(cand)[0]:
                    return cand, tried
    return None, tried


@pytest.mark.parametrize("q, m, n, tried", [
    (2, 2, 2, 3), (2, 2, 3, 7), (2, 3, 3, 7), (2, 4, 3, 13), (3, 2, 3, 9), (3, 3, 2, 28),
    (4, 2, 3, 29), (5, 2, 3, 35), (9, 2, 3, 257)])
def test_direct_form_matches_the_per_candidate_scan(q, m, n, tried):
    # the direct form tests one lam per orbit of lam -> lam^q; its witness and
    # tally are those of the scan that tests every candidate
    w = verify_conjecture(q, m, n, "direct")
    assert (w.witness, w.candidates_tried) == _first_direct_witness(q, m, n)
    assert w.found and w.candidates_tried == tried


@pytest.mark.parametrize("q, direct, composition", [(2, 2, 2), (3, 4, 3), (4, 31, 6), (5, 15, 4), (9, 33, 2)])
def test_conjecture_at_m1_converts_both_ways(q, direct, composition):
    # m = 1: alpha is -f(0) in F_q itself, so -g + alpha is -f(g(X))
    d = verify_conjecture(q, 1, 3, "direct")
    assert (d.found, d.candidates_tried, d.conversion_ok) == (True, direct, True)
    assert (d.witness, d.candidates_tried) == _first_direct_witness(q, 1, 3)
    c = verify_conjecture(q, 1, 3, "composition")
    assert (c.found, c.candidates_tried, c.conversion_ok) == (True, composition, True)
    f, g = c.witness
    assert c.converted == -f.compose(g)


def test_conjecture_composition_definitive_empty():
    # full exhaustion without a hit is a definitive negative, not an error
    w = verify_conjecture(3, 3, 2, "composition")
    assert not w.found
    assert w.witness is None
    assert w.candidates_tried == 12


def test_conjecture_direct_332_exists_but_does_not_convert():
    w = verify_conjecture(3, 3, 2, "direct")
    assert w.found
    assert not w.conversion_ok


def test_find_trace_one_quadratic():
    for m in (2, 3, 4, 5):
        quad = find_trace_one_quadratic(m)
        big = quad.field
        assert big.order == 2 ** m
        assert quad.degree == 2
        lam = quad.constant_term
        assert is_primitive_element(lam)
        assert quad.coeff(1) == lam
        assert is_primitive_poly(quad)[0]
    # the least primitive lam that works, in ascending encoding, as a scan of every element finds it
    assert [format_poly(find_trace_one_quadratic(m)) for m in range(1, 9)] == [
        "x^2 + x + 1", "x^2 + ax + a", "x^2 + ax + a", "x^2 + ax + a", "x^2 + (a^2+a)x + (a^2+a)",
        "x^2 + ax + a", "x^2 + a^3x + a^3", "x^2 + (a^2+a)x + (a^2+a)"]


# stdout of `search-tsr q m n --emit provenance` where alpha is split out of
# a field of 2^20 to 2^24 elements: its sha256, and the alpha line in clear
@pytest.mark.parametrize("q, m, n, alpha, digest", [
    (16, 5, 1, "a^15+a^14+a^13+a^11+a^10+a^8+a+1",
     "45f13e316d913868fb356ad6b2979e987a3136bebad0882619b374564cd6faf3"),
    (4, 10, 1, "a^16+a^14+a^9+a^7+a^6+a^2+1",
     "a1eba94b54159ebcfa8aec155b3ea0ccb9f58d21a504bd9676739dd9824bd403"),
    (64, 4, 1, "a^22+a^18+a^14+a^13+a^12+a^10+a^7+a^6+a^3+a",
     "cf2740890c233c41bd90044d6c9ec3a500d63b0bea0f92e9ddb4a8a0f0b60722"),
], ids=["16-5-1", "4-10-1", "64-4-1"])
def test_search_output_at_scale_is_pinned(capsys, q, m, n, alpha, digest):
    code = cli.main(["search-tsr", str(q), str(m), str(n), "--emit", "provenance"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[1])["alpha"] == alpha
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the (q, m, n) points of the search-tsr ladder that the construct benchmark runs
LADDER = [(11, 2, 3), (13, 2, 3), (13, 3, 3), (2, 2, 11), (2, 2, 13), (2, 2, 7), (2, 2, 9),
          (2, 3, 5), (2, 3, 7), (2, 3, 9), (2, 4, 5), (2, 5, 5), (3, 2, 5), (3, 2, 7), (3, 3, 3),
          (3, 3, 5), (3, 4, 3), (3, 5, 3), (4, 2, 3), (4, 2, 5), (4, 3, 3), (5, 2, 3), (5, 2, 5),
          (5, 3, 3), (7, 2, 3), (8, 2, 3), (9, 2, 3)]


def test_ladder_certificate_is_the_test_of_the_charpoly():
    # the probe certified the characteristic polynomial itself, so a second test reads the same
    for q, m, n in LADDER:
        res = search_primitive_tsr(q, m, n)
        assert res.certificate.poly == res.charpoly
        assert res.certificate.to_json() == is_primitive_poly(res.charpoly)[1].to_json()


@pytest.mark.parametrize("q, m, n", [(2, 3, 9), (4, 3, 3), (13, 3, 3), (3, 3, 5), (2, 2, 13)])
def test_one_primitivity_test_per_candidate(q, m, n, monkeypatch):
    from tsrforge import search

    search_primitive_tsr(q, m, n)  # builds the fields, untimed and uncounted
    calls, real = [], search.is_primitive_poly
    monkeypatch.setattr(search, "is_primitive_poly", lambda f: calls.append(f) or real(f))
    res = search_primitive_tsr(q, m, n)
    made = len(calls)
    calls.clear()
    base = make_field(q)
    for f in search._iter_primitive(base, m):  # the f stream up to the hit
        if f == res.provenance.f:
            break
    f_tests = len(calls)
    tried = search._composition_scan(base, m, n, None)[1]
    assert made == f_tests + tried
