import pytest

from tsrforge.counting import (closed_form_count, count_matrices_with_charpoly,
                               enumerate_special_primitives,
                               enumerate_tsrp_bruteforce, gl_matrices, gl_order,
                               primitive_elements, tsrp_count_theorem,
                               tsrp_upper_bound)
from tsrforge.errors import (BadDegree, FiberSizeViolation, ScaleExceeded,
                             UnknownKind)
from tsrforge.factorint import euler_phi
from tsrforge.fields import make_field
from tsrforge.guards import ENV_VAR
from tsrforge.matrices import matrix_charpoly, matrix_is_invertible
from tsrforge.polys import format_poly, parse_poly
from tsrforge.primitivity import is_primitive_element, is_primitive_poly
from tsrforge.tsr import is_primitive_tsr


def test_gl_order_known():
    assert gl_order(2, 1) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 168
    assert gl_order(3, 2) == 48
    assert gl_order(5, 2) == 480


def test_gl_matrices_census():
    f2 = make_field(2)
    mats = list(gl_matrices(f2, 2))
    assert len(mats) == 6
    assert all(matrix_is_invertible(M) for M in mats)
    f3 = make_field(3)
    assert sum(1 for _ in gl_matrices(f3, 2)) == 48


def test_closed_form_lfsr_counts():
    # phi(q^n - 1)/n and the Moebius census
    assert closed_form_count("lfsr_prim", 2, n=4) == 2
    assert closed_form_count("lfsr_prim", 2, n=8) == euler_phi(255) // 8
    assert closed_form_count("lfsr_irr", 2, n=4) == 3
    assert closed_form_count("lfsr_irr", 2, n=6) == 9
    assert closed_form_count("lfsr_irr", 3, n=3) == 8
    assert closed_form_count("lfsr_prim", 2, n=1) == 1


def test_closed_form_lfsr_matches_bruteforce():
    f3 = make_field(3)
    prim = irr = 0
    for v in range(27):
        coeffs = [f3.element(v % 3), f3.element((v // 3) % 3), f3.element(v // 9), f3.one()]
        from tsrforge.polys import Polynomial
        p = Polynomial.make(f3, coeffs)
        from tsrforge.primitivity import is_irreducible
        if is_irreducible(p):
            irr += 1
            if not p.constant_term.is_zero() and is_primitive_poly(p)[0]:
                prim += 1
    assert irr == closed_form_count("lfsr_irr", 3, n=3)
    assert prim == closed_form_count("lfsr_prim", 3, n=3)


def test_closed_form_sigma_counts():
    # phi(q^mn - 1)/(mn) * q^(m(m-1)(n-1)) * prod_{i=1}^{m-1}(q^m - q^i)
    assert closed_form_count("sigma_prim", 2, m=2, n=2) == (euler_phi(15) // 4) * 4 * 2
    assert closed_form_count("sigma_prim", 2, m=1, n=4) == 2
    assert closed_form_count("sigma_irr", 2, m=1, n=4) == 3
    v = closed_form_count("sigma_prim", 3, m=2, n=2)
    assert v == (euler_phi(80) // 4) * 9 * 6


def test_closed_form_tsr_counts():
    # order-1 registers: |GL_m|/(q^m - 1) * phi(q^m - 1)/m
    assert closed_form_count("tsr_order1", 2, m=2) == 2
    assert closed_form_count("tsr_order1", 3, m=2) == 12
    assert closed_form_count("tsr_m1", 2, n=4) == 2
    assert closed_form_count("gl_order", 2, m=3) == 168


def test_closed_form_rejects():
    with pytest.raises(UnknownKind):
        closed_form_count("nope", 2, m=1, n=1)


def test_matrix_census_reference_values():
    f2 = make_field(2)
    assert count_matrices_with_charpoly(parse_poly("x^2 + x + 1", f2), 2) == 2
    f3 = make_field(3)
    assert count_matrices_with_charpoly(parse_poly("x^2 + x + 2", f3), 2) == 6
    # census over all primitive quadratics is constant on the class
    for text in ("x^2 + 2x + 2", "x^2 + 1"):
        p = parse_poly(text, f3)
        if is_primitive_poly(p)[0]:
            assert count_matrices_with_charpoly(p, 2) == 6


def test_matrix_census_non_primitive_no_crash():
    # non-primitive inputs are allowed; the value is just reported
    f2 = make_field(2)
    # (x+1)^2: trace 0 det 1 leaves {[[0,1],[1,0]]} plus three unipotents
    assert count_matrices_with_charpoly(parse_poly("x^2 + 1", f2), 2) == 4
    # x(x+1): trace 1 det 0, singular matrices allowed
    assert count_matrices_with_charpoly(parse_poly("x^2 + x", f2), 2) == 6
    with pytest.raises(BadDegree):
        count_matrices_with_charpoly(parse_poly("x^3 + x + 1", f2), 2)


def test_matrix_census_guard_moves_with_the_environment(monkeypatch):
    f2 = make_field(2)
    monkeypatch.delenv(ENV_VAR, raising=False)
    with pytest.raises(ScaleExceeded, match=r"^matrix space of 33554432 exceeds the 2\^22 guard$"):
        count_matrices_with_charpoly(parse_poly("x^5 + x^2 + 1", f2), 5)
    monkeypatch.setenv(ENV_VAR, "10")
    with pytest.raises(ScaleExceeded, match=r"^matrix space of 65536 exceeds the 2\^10 guard$"):
        count_matrices_with_charpoly(parse_poly("x^4 + x + 1", f2), 4)
    assert count_matrices_with_charpoly(parse_poly("x^2 + x + 1", f2), 2) == 2


def test_matrix_census_matches_gl_conjugation():
    # companion orbit under GL-conjugation has size |GL|/|centralizer|; for an
    # irreducible charpoly the centralizer is F_{q^m}^*, so the count is
    # |GL_m(q)| / (q^m - 1)
    assert count_matrices_with_charpoly(parse_poly("x^2 + x + 1", make_field(2)), 2) == 6 // 3
    assert count_matrices_with_charpoly(parse_poly("x^2 + x + 2", make_field(3)), 2) == 48 // 8


def test_primitive_elements():
    f9 = make_field(9)
    prims = primitive_elements(f9)
    assert len(prims) == euler_phi(8)
    from tsrforge.primitivity import is_primitive_element
    assert all(is_primitive_element(x) for x in prims)


def test_special_enumeration_reference_point():
    got = enumerate_special_primitives(2, 2, 3, "P_mnq")
    assert [format_poly(p) for p in got] == [
        "x^3 + x^2 + x + (a+1)", "x^3 + x^2 + x + a"]
    with pytest.raises(UnknownKind):
        enumerate_special_primitives(2, 2, 3, "bogus")


def test_special_enumeration_counts_by_field():
    # |P(m, n, q)| values recomputed exhaustively elsewhere in the suite
    assert len(enumerate_special_primitives(2, 2, 4, "P_mnq")) == 4
    assert len(enumerate_special_primitives(2, 2, 5, "P_mnq")) == 10
    assert len(enumerate_special_primitives(3, 2, 3, "P_mnq")) == 12


def test_tsrp_bruteforce_small():
    specs = enumerate_tsrp_bruteforce(2, 2, 2)
    assert len(specs) == 2
    assert all(is_primitive_tsr(s) for s in specs)
    assert len(enumerate_tsrp_bruteforce(3, 2, 1)) == 12


def test_tsrp_bruteforce_tests_each_charpoly_once(monkeypatch):
    from tsrforge import counting
    from tsrforge.fields import base_digits
    from tsrforge.tsr import TsrSpec, tsr_charpoly_formula
    for q, m, n in ((2, 2, 3), (3, 2, 2), (2, 3, 2), (4, 2, 1)):
        field = make_field(q)
        taps = [tuple(field.element(d) for d in base_digits(enc, q, n - 1))
                for enc in range(q ** (n - 1))]
        specs = [TsrSpec(field, m, n, c, B) for c in taps for B in gl_matrices(field, m)]
        tested, chis = [], []
        monkeypatch.setattr(counting, "is_primitive_poly",
                            lambda f: tested.append(f) or is_primitive_poly(f))
        monkeypatch.setattr(counting, "matrix_charpoly", lambda M: chis.append(M) or matrix_charpoly(M))
        # the same registers in the same (taps, B) order as one test per register
        assert enumerate_tsrp_bruteforce(q, m, n) == [s for s in specs if is_primitive_tsr(s)]
        assert len(tested) == len(set(tested)) == len({tsr_charpoly_formula(s) for s in specs})
        # one characteristic polynomial per m x m matrix, which also decides invertibility
        assert len(chis) == len(set(chis)) == q ** (m * m)
        monkeypatch.undo()


@pytest.mark.parametrize("q, m, n", [(2, 2, 3), (3, 2, 2), (4, 2, 1), (2, 3, 1), (2, 3, 2)])
def test_tsrp_census_runs_one_hessenberg_pass_per_matrix(q, m, n, monkeypatch):
    # a Matrix keeps its characteristic polynomial, so TsrSpec's invertibility
    # check on a B the census already reduced runs no second pass
    from tsrforge import matrices
    from tsrforge.fields import base_digits
    from tsrforge.tsr import TsrSpec
    field = make_field(q)
    taps = [tuple(field.element(d) for d in base_digits(enc, q, n - 1)) for enc in range(q ** (n - 1))]
    specs = [TsrSpec(field, m, n, c, B) for c in taps for B in gl_matrices(field, m)]
    want = [s for s in specs if is_primitive_tsr(s)]
    passes, hessenberg = [], matrices._hessenberg_charpoly
    monkeypatch.setattr(matrices, "_hessenberg_charpoly", lambda M: passes.append(M) or hessenberg(M))
    assert enumerate_tsrp_bruteforce(q, m, n) == want and want
    assert len(passes) == q ** (m * m)


@pytest.mark.parametrize("form", ["P_mnq", "P_qmn"])
@pytest.mark.parametrize("q, m, n", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (4, 2, 3), (2, 4, 3)])
def test_special_census_tests_one_candidate_per_frobenius_orbit(q, m, n, form, monkeypatch):
    from tsrforge import counting
    from tsrforge.fields import base_digits, subfield_maps
    from tsrforge.polys import Polynomial
    big = make_field(q ** m)
    base, embed, _ = subfield_maps(big, q)
    lams = [x for x in big.elements() if not x.is_zero() and is_primitive_element(x)]
    cands = []
    for enc in range(q ** (n - 1)):
        tail = [embed(base.element(d)) for d in base_digits(enc, q, n - 1)]
        if form == "P_mnq":  # g(X) + lam, g monic of degree n with g(0) = 0
            cands += [Polynomial.make(big, [lam] + tail + [big.one()]) for lam in lams]
        else:  # X^n - mu g(X), g(0) = 1 and deg g <= n - 1
            cands += [Polynomial.make(big, [-(mu * c) for c in [big.one()] + tail] + [big.one()])
                      for mu in lams]
    tested = []
    monkeypatch.setattr(counting, "is_primitive_poly", lambda f: tested.append(f) or is_primitive_poly(f))
    # one test per orbit of lam -> lam^q, whose m members share the verdict
    assert enumerate_special_primitives(q, m, n, form) == \
        sorted((f for f in cands if is_primitive_poly(f)[0]), key=format_poly)
    assert len(tested) * m == len(cands)


def test_tsrp_theorem_consistency():
    p_count = len(enumerate_special_primitives(2, 2, 2, "P_mnq"))
    assert tsrp_count_theorem(2, 2, 2, p_count) == len(enumerate_tsrp_bruteforce(2, 2, 2))
    with pytest.raises(FiberSizeViolation):
        tsrp_count_theorem(2, 2, 2, 3)  # 2 does not divide 3


@pytest.mark.parametrize("q, n, count", [(3, 3, 4), (4, 3, 12), (2, 4, 2)])
def test_tsrp_census_at_m1_counts_the_primitive_lfsrs(q, n, count):
    # m = 1: a register is an LFSR over F_q
    assert len(enumerate_tsrp_bruteforce(q, 1, n)) == closed_form_count("lfsr_prim", q, n=n) == count
    # over F_3 with n odd the norm -lam of a monic g(X) + lam is 1 for the only
    # primitive lam = 2, so P_mnq is empty and the theorem's count reads 0
    p_count = len(enumerate_special_primitives(q, 1, n, "P_mnq"))
    assert tsrp_count_theorem(q, 1, n, p_count) == (0 if q == 3 else count)


def test_tsrp_upper_bound_values():
    # (q^(n-1) - 1) * phi(q^m - 1)/m * |GL_m|/(q^m - 1)
    assert tsrp_upper_bound(2, 2, 2) == 1 * 1 * 2
    assert tsrp_upper_bound(2, 2, 3) == 3 * 1 * 2
    assert tsrp_upper_bound(2, 3, 2) == 1 * 2 * 24
    assert tsrp_upper_bound(3, 2, 3) == 8 * 2 * 6
    # n = 1: the only tap polynomial is X, so the bound is the exact order-1 census
    assert tsrp_upper_bound(3, 2, 1) == 12 == closed_form_count("tsr_order1", 3, m=2)


def test_tsrp_upper_bound_rejects_bad_shape():
    with pytest.raises(BadDegree, match="m = 0"):
        tsrp_upper_bound(2, 0, 2)
    with pytest.raises(BadDegree, match="n = 0"):
        tsrp_upper_bound(2, 2, 0)


def test_enumeration_guard():
    with pytest.raises(ScaleExceeded):
        enumerate_tsrp_bruteforce(5, 3, 3)
    with pytest.raises(ScaleExceeded):
        enumerate_special_primitives(2, 14, 14, "P_mnq")
