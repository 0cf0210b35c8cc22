import random
from types import SimpleNamespace

import pytest

from tsrforge.errors import BaseNotSubfield, CompositeCharacteristic, ExistenceViolation, ScaleExceeded
from tsrforge.fields import (FieldElement, conjugates, format_element, int_pow, least_root,
                             make_extension_field, make_field, make_prime_field,
                             subfield_degree, subfield_maps)


def test_prime_field_arithmetic():
    f7 = make_prime_field(7)
    assert f7.order == 7
    assert (f7.element(3) + f7.element(5)).int_value == 1
    assert (f7.element(3) * f7.element(5)).int_value == 1
    assert (-f7.element(2)).int_value == 5
    assert f7.element(4).inverse().int_value == 2
    assert (f7.element(6) ** 2).int_value == 1


def test_make_field_rejects_non_prime_power():
    with pytest.raises(CompositeCharacteristic):
        make_field(12)
    with pytest.raises(CompositeCharacteristic):
        make_field(1)


def test_int_encoding_round_trip():
    f = make_field(27)
    for v in range(27):
        assert f.element(v).int_value == v
    # elements() ascends in canonical encoding
    assert [x.int_value for x in f.elements()] == list(range(27))


def test_encoding_is_validated():
    f9 = make_field(9)
    for bad in (9, -1):
        with pytest.raises(ValueError):
            FieldElement(f9, bad)
    assert f9.element(10).int_value == 1  # ints reduce mod q
    assert f9.element([1, 2]).coeffs == (1, 2)
    with pytest.raises(ValueError):
        f9.element([1, 2, 0])


def test_standard_moduli():
    # fixed construction table: F_4, F_8, F_9 moduli are pinned
    assert make_field(4).modulus_coeffs == (1, 1, 1)
    assert make_field(8).modulus_coeffs == (1, 1, 0, 1)
    assert make_field(9).modulus_coeffs == (2, 2, 1)
    assert make_field(7).modulus_coeffs is None


def test_generator_is_primitive():
    from tsrforge.primitivity import is_primitive_element
    for q in (4, 8, 9, 16, 25, 27, 49, 121, 169):
        f = make_field(q)
        g = f.gen()
        assert is_primitive_element(g), q
        # explicit order check
        seen = f.one()
        for _ in range(q - 2):
            seen = seen * g
            assert seen != f.one()


def test_field_laws_random():
    rng = random.Random(11)
    for q in (8, 9, 25, 64):
        f = make_field(q)
        for _ in range(50):
            a = f.element(rng.randrange(q))
            b = f.element(rng.randrange(q))
            c = f.element(rng.randrange(q))
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            if not a.is_zero():
                assert a * a.inverse() == f.one()


def test_frobenius_power_is_additive():
    f = make_field(16)
    rng = random.Random(5)
    for _ in range(40):
        a = f.element(rng.randrange(16))
        b = f.element(rng.randrange(16))
        assert (a + b) ** 2 == a ** 2 + b ** 2


def test_subfield_degree():
    # j with base_order = p^j, so the degree of the base over the prime field
    assert subfield_degree(make_field(64), 4) == 2
    assert subfield_degree(make_field(64), 8) == 3
    assert subfield_degree(make_field(81), 9) == 2
    with pytest.raises(BaseNotSubfield):
        subfield_degree(make_field(64), 16)
    with pytest.raises(BaseNotSubfield):
        subfield_degree(make_field(64), 9)


def test_subfield_maps_prime_base():
    big = make_field(8)
    base, embed, descend = subfield_maps(big, 2)
    assert base.order == 2
    assert embed(base.one()) == big.one()
    assert descend(big.one()) == base.one()
    with pytest.raises(BaseNotSubfield):
        descend(big.gen())


def test_subfield_maps_homomorphism():
    big = make_field(64)
    base, embed, descend = subfield_maps(big, 4)
    xs = list(base.elements())
    for a in xs:
        for b in xs:
            assert embed(a + b) == embed(a) + embed(b)
            assert embed(a * b) == embed(a) * embed(b)
            assert descend(embed(a)) == a
    # elements outside the embedded copy refuse to descend
    image = {embed(a) for a in xs}
    outside = 0
    for x in big.elements():
        if x not in image:
            outside += 1
            with pytest.raises(BaseNotSubfield):
                descend(x)
    assert outside == 60


@pytest.mark.parametrize("p, k, modulus, base_order, images", [
    (2, 4, (1, 1, 1, 1, 1), 4, [0, 1, 12, 13]),
    (3, 4, (1, 0, 1, 1, 1), 9, [0, 1, 2, 17, 15, 16, 22, 23, 21]),
])
def test_subfield_maps_non_primitive_modulus(p, k, modulus, base_order, images):
    # the generator of these moduli is not primitive; the root of the base
    # modulus is split out by traces all the same
    big = make_extension_field(p, k, modulus)
    base, embed, descend = subfield_maps(big, base_order)
    assert least_root(big, base.modulus_coeffs, p) == _scanned_root(big, base.modulus_coeffs, p)
    assert [embed(c).int_value for c in base.elements()] == images
    assert all(descend(embed(c)) == c for c in base.elements())


def test_subfield_table_is_guarded(monkeypatch):
    # the guard is checked on every call, also once the table is built
    assert subfield_maps(make_field(256), 16)[0].order == 16
    monkeypatch.setenv("TSRFORGE_GUARD_BITS", "3")
    with pytest.raises(ScaleExceeded, match="subfield table of 16 exceeds the 2\\^3 guard"):
        subfield_maps(make_field(256), 16)
    assert subfield_maps(make_field(64), 8)[0].order == 8


def test_subfield_tables_are_built_once_per_field_and_base():
    from tsrforge import fields
    from tsrforge.search import search_primitive_tsr

    fields._subfield_tables.cache_clear()
    builds = lambda: fields._subfield_tables.cache_info().misses
    # the search at a prime-power q maps F_16 into F_4096 for alpha, the
    # minimal polynomial of lam and the conjugate product
    assert search_primitive_tsr(16, 3, 3).certificate.group_order == 16 ** 9 - 1
    assert builds() == 1
    # an equal field built anew shares the tables; embed and descend are its own
    big = make_extension_field(2, 12)
    base, embed, descend = subfield_maps(big, 16)
    assert builds() == 1
    assert all(embed(c).owner is big and descend(embed(c)) == c for c in base.elements())
    subfield_maps(big, 64)
    assert builds() == 2


def test_subfield_maps_f81_over_f9():
    big = make_field(81)
    base, embed, descend = subfield_maps(big, 9)
    # embedded multiplicative order divides 8
    g9 = embed(base.gen())
    assert g9 ** 8 == big.one()
    assert g9 ** 4 != big.one()
    assert descend(embed(base.element(7))) == base.element(7)


def _scanned_root(field, coeffs, base_order):
    """Reference for least_root: the first root in ascending encoding order,
    by Horner on field.ops, then its least base_order-power conjugate."""
    add, mul = field.ops.add, field.ops.mul
    for x in range(field.order):
        acc = 0
        for c in reversed(coeffs):
            acc = add(mul(acc, x), c)
        if not acc:
            break
    else:
        return None
    best, y = x, int_pow(x, base_order, field.ops)
    while y != x:
        best, y = min(best, y), int_pow(y, base_order, field.ops)
    return best


# every proper subfield beyond F_p of every default field up to order 2^12
_SUBFIELD_PAIRS = [(p, k, j) for p, top in ((2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3))
                   for k in range(2, top + 1) for j in range(2, k) if k % j == 0]


@pytest.mark.parametrize("p, k, j", _SUBFIELD_PAIRS)
def test_least_root_matches_the_scan_on_default_subfields(p, k, j):
    big, modulus = make_extension_field(p, k), make_extension_field(p, j).modulus_coeffs
    root = least_root(big, modulus, p)
    assert root is not None and root == _scanned_root(big, modulus, p)


@pytest.mark.parametrize("q, m", [(4, 2), (4, 3), (8, 2), (9, 2), (16, 2), (25, 2)])
def test_search_alpha_matches_the_scan(q, m):
    from tsrforge.search import _alpha_field, primitive_polys

    big = make_field(q ** m)
    _, embed, _ = subfield_maps(big, q)
    polys = primitive_polys(make_field(q), m)
    assert polys
    for f in polys:
        coeffs = [embed(c).int_value for c in f.coeffs]
        assert _alpha_field(q, m, f)[1].int_value == _scanned_root(big, coeffs, q)


def test_least_root_is_none_when_the_polynomial_does_not_split():
    # an irreducible cubic over F_4 has its roots in F_64, none in F_16
    from tsrforge.search import primitive_polys

    cubic = primitive_polys(make_field(4), 3)[0]
    big = make_field(16)
    _, embed, _ = subfield_maps(big, 4)
    coeffs = [embed(c).int_value for c in cubic.coeffs]
    assert _scanned_root(big, coeffs, 4) is None
    assert least_root(big, coeffs, 4) is None


def test_make_extension_field_custom_modulus():
    # x^2 + 1 is irreducible over F_3
    f = make_extension_field(3, 2, modulus=(1, 0, 1))
    i = f.gen()
    assert i * i == -f.one()
    from tsrforge.errors import ReducibleModulus
    with pytest.raises(ReducibleModulus):
        make_extension_field(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2)


def test_degree_one_custom_modulus_is_the_prime_field():
    f2 = make_extension_field(2, 1, modulus=[1, 1])
    assert f2 == make_prime_field(2) and repr(f2) == "GF(2)"
    assert f2.one() + make_prime_field(2).one() == make_prime_field(2).zero()
    with pytest.raises(ValueError, match="monic of degree k"):
        make_extension_field(2, 1, modulus=[1, 1, 1])


def test_format_element():
    f9 = make_field(9)
    texts = [format_element(x) for x in f9.elements()]
    assert texts == ["0", "1", "2", "a", "a+1", "a+2", "2a", "2a+1", "2a+2"]
    f2 = make_field(2)
    assert format_element(f2.one()) == "1"


@pytest.mark.parametrize("q", [1 << k for k in range(2, 13)] + [9, 81, 125, 121])
def test_conjugates_walk_each_frobenius_orbit(q):
    field = make_field(q)
    ops, p, k = field.ops, field.characteristic, field.extension_degree
    for e in sorted({p, p ** (k // 2)}):  # Frobenius over F_p and over F_{p^(k/2)}
        seen = set()
        for x in range(q):
            orbit = conjugates(x, e, ops, k)
            ref = [x]  # x^(e^i), each raised from x itself
            while len(ref) < k and int_pow(x, e ** len(ref), ops) != x:
                ref.append(int_pow(x, e ** len(ref), ops))
            assert orbit == ref and k % len(orbit) == 0 and len(set(orbit)) == len(orbit), (x, e)
            assert int_pow(orbit[-1], e, ops) == x
            seen.update(orbit)
        assert seen == set(range(q))


def test_conjugates_refuse_a_map_that_does_not_close():
    steps = []

    def mul(a, b):  # y -> y^2 sends every y to 1, so the orbit of 2 never returns
        steps.append(a)
        return 1

    ops = SimpleNamespace(mul=mul)
    assert conjugates(1, 2, ops, 3) == [1]
    steps.clear()
    with pytest.raises(ExistenceViolation, match="orbit of 2 under y -> y\\^2 does not close after 3 steps"):
        conjugates(2, 2, ops, 3)
    assert len(steps) == 3  # one squaring per step, and no more than the limit


@pytest.mark.parametrize("q", [3, 4, 5, 1 << 17])
def test_values_over_a_field_with_built_ops_pickle(q):
    # the ops hold closures and memos; a pickled field leaves them out and rebuilds them
    import pickle

    from tsrforge.polys import Polynomial
    from tsrforge.tsr import TsrSpec, TsrState, tsr_step

    field = make_field(q)
    x, y = field.element(q - 1), field.element(2)
    f = Polynomial.make(field, [1, q - 1, 2])
    spec = TsrSpec.from_json({"q": q, "m": 1, "n": 2, "c": [1], "B": [[q - 1]]})
    state = tsr_step(spec, TsrState.from_ints(spec, [1, 2]))
    for value in (field, x * y, f * f, spec, state):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and "ops" in vars(field) and "ops" not in vars(pickle.loads(pickle.dumps(field)))
    back_x, back_f = pickle.loads(pickle.dumps((x, f)))
    assert back_x * y == x * y and back_f * back_f == f * f
    assert tsr_step(spec, pickle.loads(pickle.dumps(state))) == tsr_step(spec, state)
