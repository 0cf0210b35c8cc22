import operator
import random

import pytest

from tsrforge.errors import DivisionByZeroPoly
from tsrforge.fields import FieldElement, make_extension_field, make_field
from tsrforge.polys import (Polynomial, format_poly, parse_poly, poly_divrem,
                            poly_gcd, poly_mod, poly_modpow)


def _derivative(f):
    """f' as a reference: coefficient i scaled by the integer i mod p."""
    return Polynomial.make(f.field, [c.scale_int(i) for i, c in enumerate(f.coeffs)][1:])


def _rand_poly(rng, field, max_deg):
    coeffs = [field.element(rng.randrange(field.order)) for _ in range(max_deg + 1)]
    return Polynomial.make(field, coeffs)


def test_degree_and_normalization():
    f3 = make_field(3)
    p = Polynomial.make(f3, [f3.element(1), f3.element(2), f3.zero(), f3.zero()])
    assert p.degree == 1
    assert len(p.coeffs) == 2
    z = Polynomial.zero(f3)
    assert z.is_zero()
    assert Polynomial.one(f3).degree == 0
    assert Polynomial.x(f3).degree == 1


def test_make_refuses_out_of_range_encodings():
    # an int coefficient is a canonical encoding; it is not reduced mod q
    f4 = make_field(4)
    for bad in ([5, 9], [0, 1, 4], [-1, 1]):
        with pytest.raises(ValueError, match="outside GF\\(4\\)"):
            Polynomial.make(f4, bad)
    p = Polynomial.make(f4, [3, f4.element([0, 1]), 1, 0])
    assert [c.int_value for c in p.coeffs] == [3, 2, 1]
    # the positional constructor takes trimmed canonical ints
    with pytest.raises(ValueError, match="trailing zero coefficient"):
        Polynomial(f4, (3, 2, 0))


STORAGE_FIELDS = [make_field(q) for q in (2, 3, 4, 9, 16)]


@pytest.mark.parametrize("field", STORAGE_FIELDS, ids=lambda f: f"F{f.order}")
def test_make_from_ints_equals_make_from_elements(field):
    rng = random.Random(field.order)
    cases = [[]] + [[rng.randrange(field.order) for _ in range(degree)] + [rng.randrange(1, field.order)]
                    for degree in range(7)]
    for ints in cases:
        p = Polynomial.make(field, ints + [0])
        q = Polynomial.make(field, [field.element(v) for v in ints])
        assert p == q and hash(p) == hash(q) and p.ints == tuple(ints)
        assert all(isinstance(c, FieldElement) and c.owner is field for c in p.coeffs)
        assert [c.int_value for c in p.coeffs] == ints


def test_operations_refuse_mixed_fields():
    # zero operands too: no coefficient pair is there to trip an element-level check
    f2, f3 = make_field(2), make_field(3)
    for a, b in ((Polynomial.zero(f2), Polynomial.zero(f3)), (Polynomial.x(f2), Polynomial.one(f3))):
        for op in (operator.add, operator.sub, operator.mul, Polynomial.compose):
            with pytest.raises(ValueError, match="^elements belong to different fields$"):
                op(a, b)
        with pytest.raises(ValueError, match="^elements belong to different fields$"):
            a.scale(f3.one())


def test_arithmetic_known_values():
    f2 = make_field(2)
    a = parse_poly("x^2 + x + 1", f2)
    b = parse_poly("x + 1", f2)
    assert format_poly(a + b) == "x^2"
    assert format_poly(a * b) == "x^3 + 1"
    q, r = poly_divrem(a, b)
    assert format_poly(q) == "x"
    assert format_poly(r) == "1"


def test_divrem_invariant_random():
    rng = random.Random(17)
    for q in (2, 3, 5, 9):
        field = make_field(q)
        for _ in range(60):
            a = _rand_poly(rng, field, rng.randrange(1, 7))
            b = _rand_poly(rng, field, rng.randrange(1, 5))
            if b.is_zero():
                continue
            quo, rem = poly_divrem(a, b)
            assert quo * b + rem == a
            assert rem.is_zero() or rem.degree < b.degree


def test_divrem_by_zero():
    f2 = make_field(2)
    with pytest.raises(DivisionByZeroPoly):
        poly_divrem(Polynomial.one(f2), Polynomial.zero(f2))


def test_gcd_known():
    f2 = make_field(2)
    a = parse_poly("x^4 + x^2", f2)        # x^2 (x+1)^2
    b = parse_poly("x^3 + x^2", f2)        # x^2 (x+1)
    assert format_poly(poly_gcd(a, b)) == "x^3 + x^2"
    c = parse_poly("x^2 + x + 1", f2)
    assert format_poly(poly_gcd(a * c, b * c)) == format_poly(b * c)


def test_modpow_matches_repeated_multiplication():
    rng = random.Random(23)
    f5 = make_field(5)
    mod = parse_poly("x^3 + x + 1", f5)
    base = _rand_poly(rng, f5, 2)
    acc = Polynomial.one(f5)
    for e in range(12):
        assert poly_modpow(base, e, mod) == poly_mod(acc, mod)
        acc = acc * base


def test_negative_exponent_is_refused():
    f2 = make_field(2)
    x, mod = Polynomial.x(f2), parse_poly("x^3 + x + 1", f2)
    with pytest.raises(ValueError, match="e = -1"):
        poly_modpow(x, -1, mod)
    with pytest.raises(ValueError, match="e = -1"):
        x.pow(-1)


def test_compose():
    f3 = make_field(3)
    f = parse_poly("x^2 + 1", f3)
    g = parse_poly("x + 2", f3)
    # (x+2)^2 + 1 = x^2 + 4x + 5 = x^2 + x + 2 mod 3
    assert format_poly(f.compose(g)) == "x^2 + x + 2"


def test_derivative_multiplies_by_the_exponent_mod_p():
    # coefficient i is scaled by the integer i mod p, not by the element encoded as i
    f4 = make_field(4)
    assert _derivative(parse_poly("x^3 + x^2", f4)) == parse_poly("x^2", f4)
    f9 = make_field(9)
    assert _derivative(parse_poly("x^4 + x^3 + a", f9)) == parse_poly("x^3", f9)
    assert _derivative(parse_poly("ax^5 + x^3 + x^2 + x", f9)) == parse_poly("2ax^4 + 2x + 1", f9)


def test_monic_and_scale():
    f5 = make_field(5)
    p = parse_poly("3x^2 + x + 4", f5)
    m = p.monic()
    assert m.leading == f5.one()
    assert m == p.scale(f5.element(3).inverse())


def test_format_known():
    f9 = make_field(9)
    p = parse_poly("x^3 + x^2 + x + a", f9)
    assert format_poly(p) == "x^3 + x^2 + x + a"
    p2 = parse_poly("x^2 + 2a x + 2a+2", f9)
    assert format_poly(p2) == "x^2 + 2ax + (2a+2)"
    assert format_poly(Polynomial.zero(f9)) == "0"
    assert format_poly(Polynomial.constant(f9, f9.element(5))) == "(a+2)"


def test_parse_format_round_trip_exhaustive_small():
    # every polynomial of degree <= 2 over F_9 round-trips exactly
    f9 = make_field(9)
    xs = list(f9.elements())
    count = 0
    for c2 in xs:
        for c1 in xs:
            for c0 in xs:
                p = Polynomial.make(f9, [c0, c1, c2])
                assert parse_poly(format_poly(p), f9) == p
                count += 1
    assert count == 729


def test_parse_format_round_trip_random():
    rng = random.Random(31)
    for q in (2, 4, 25, 27, 121):
        field = make_field(q)
        for _ in range(40):
            p = _rand_poly(rng, field, rng.randrange(0, 9))
            assert parse_poly(format_poly(p), field) == p


def _element_text(c):
    """An element as format_element wrote it from FieldElement.coeffs: 'a^2+2a+1'."""
    terms = [("" if d == 1 else str(d)) + ("a" if i == 1 else f"a^{i}") if i else str(d)
             for i, d in reversed(list(enumerate(c.coeffs))) if d]
    return "+".join(terms) or "0"


def _reference_format(p):
    """format_poly through one FieldElement per coefficient, the route it replaced."""
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        cs = _element_text(p.coeffs[i])
        if cs == "0":
            continue
        cs = f"({cs})" if "+" in cs else cs
        xpart = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        parts.append(xpart if cs == "1" and xpart else cs + xpart)
    return " + ".join(parts) or "0"


CODEC_FIELDS = [make_field(q) for q in (2, 3, 4, 9, 25, 1 << 17, 3 ** 11)]


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=lambda f: f"F{f.order}")
def test_codec_round_trip_matches_the_element_route(field):
    rng, q = random.Random(field.order), field.order
    digits = [rng.choice((0, 0, 1, 2, rng.randrange(q), rng.randrange(q))) % q for _ in range(400)]
    polys = [Polynomial.zero(field), Polynomial.one(field), Polynomial.x(field)]
    polys += [Polynomial.make(field, [v]) for v in range(min(q, 30))]  # zero and the constants
    polys += [Polynomial.make(field, [rng.randrange(q)] + [1]), Polynomial.make(field, [q - 1] * 5)]
    polys += [Polynomial.make(field, rng.sample(digits, rng.randrange(1, 14))) for _ in range(60)]
    if field.extension_degree > 1:  # composite coefficients: more than one power of a
        assert any("+" in _element_text(c) for p in polys for c in p.coeffs)
    for p in polys:
        text = format_poly(p)
        assert text == _reference_format(p)
        assert parse_poly(text, field) == p


def test_parse_flexible_spellings():
    f9 = make_field(9)
    want = parse_poly("x^2 + 2ax + (2a+2)", f9)
    for text in ("x^2+2ax+2a+2", "x^2 + 2a x + 2a + 2", "(1)x^2 + (2a)x + (2a+2)"):
        assert parse_poly(text, f9) == want
    f2 = make_field(2)
    assert parse_poly("x^7+x^3+x", f2).degree == 7
    assert parse_poly("X^7 + X^3 + X", f2) == parse_poly("x^7+x^3+x", f2)
    assert parse_poly("X^2 + 2aX + (2a+2)", f9) == want


def test_parse_rejects_garbage():
    f4 = make_field(4)
    for text in ("", "x^", "b+1", "x**2", "x^2 + , + 1"):
        with pytest.raises(ValueError):
            parse_poly(text, f4)


def test_parse_refuses_a_sign_with_no_term_after_it():
    f2, f3, f4 = make_field(2), make_field(3), make_field(4)
    for text, field in (("x^4+x+1+", f2), ("x^4 + x + 1 -", f2), ("+", f2),
                        ("x^2+(a+)x+1", f4), ("x^2 + (a -)", f4)):
        with pytest.raises(ValueError, match="sign with no term after it"):
            parse_poly(text, field)
    # leading signs and a sign before a negative term still parse
    assert format_poly(parse_poly("-x^2 + 1", f3)) == "2x^2 + 1"
    assert format_poly(parse_poly("+x^4+x+1", f2)) == "x^4 + x + 1"
    assert format_poly(parse_poly("x^2 + -1", f3)) == "x^2 + 2"
    assert format_poly(parse_poly("x^2 + (-a+1)x", f4)) == "x^2 + (a+1)x"


def test_canonical_format_has_no_commas():
    rng = random.Random(47)
    for q in (9, 49, 169):
        field = make_field(q)
        for _ in range(30):
            p = _rand_poly(rng, field, 4)
            assert "," not in format_poly(p)


# --- differential test: the integer kernel against a FieldElement schoolbook ---
#
# Element sums and products are also checked against digit-level references
# that never touch the field's ops, so the Zech and vector ops stay covered.

def _digit_product(field, x, y):
    """x*y from coefficient vectors over F_p reduced by the modulus, without the field's ops."""
    p, k = field.characteristic, field.extension_degree
    mod = field.modulus_coeffs or (0, 1)
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            prod[i + j] += a * b
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top] % p
        for i in range(k + 1):
            prod[top - k + i] -= c * mod[i]
    return field.element([c % p for c in prod[:k]])


def _digit_sum(field, x, y, sign=1):
    """x + sign*y coefficient by coefficient mod p, without the field's ops."""
    p = field.characteristic
    return field.element([(a + sign * b) % p for a, b in zip(x.coeffs, y.coeffs)])


def _school_trim(c):
    while c and c[-1].is_zero():
        c.pop()
    return c


def _school_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _school_trim(out)


def _school_divrem(a, b, field):
    rem = list(a)
    quot = [field.zero()] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(rem) >= len(b):
        c = rem[-1] * inv
        d = len(rem) - len(b)
        quot[d] = c
        for i, y in enumerate(b):
            rem[d + i] = rem[d + i] - c * y
        _school_trim(rem)
    return _school_trim(quot), rem


def _school_gcd(a, b, field):
    while b:
        a, b = b, _school_divrem(a, b, field)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _school_modpow(base, e, mod, field):
    result = [field.one()]
    acc = _school_divrem(base, mod, field)[1]
    while e:
        if e & 1:
            result = _school_divrem(_school_mul(result, acc, field), mod, field)[1]
        e >>= 1
        acc = _school_divrem(_school_mul(acc, acc, field), mod, field)[1]
    return result


DIFFERENTIAL_FIELDS = [make_field(q) for q in (2, 3, 4, 8, 9, 13, 25)] + [
    make_extension_field(2, 4, modulus=(1, 1, 1, 1, 1)),  # irreducible, X of order 5
    make_field(2 ** 17),  # above the exp/log table bound
    make_field(65537),  # prime field above 2^16
]


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=(
    "F2", "F3", "F4", "F8", "F9", "F13", "F25", "F16_x_of_order_5", "F2^17", "F65537"))
def test_kernel_matches_field_element_schoolbook(field):
    rng = random.Random(field.order)
    xs = [field.element(rng.randrange(field.order)) for _ in range(6)] + [field.zero(), field.one()]
    for x in xs:
        assert -x == _digit_sum(field, field.zero(), x, -1)
        for y in xs:
            assert x * y == _digit_product(field, x, y)
            assert x + y == _digit_sum(field, x, y)
            assert x - y == _digit_sum(field, x, y, -1)

    def rand(deg):
        lead = field.element(rng.randrange(1, field.order))
        return Polynomial.make(field, [rng.randrange(field.order) for _ in range(deg)] + [lead])

    polys = [Polynomial.zero(field), Polynomial.one(field), rand(0), rand(1),
             rand(3), rand(3), rand(5)]
    for a in polys:
        for b in polys:
            ca, cb = list(a.coeffs), list(b.coeffs)
            assert list((a * b).coeffs) == _school_mul(ca, cb, field)
            assert list(poly_gcd(a, b).coeffs) == _school_gcd(ca, cb, field)
            if b.is_zero():
                continue
            quo, rem = poly_divrem(a, b)
            assert (list(quo.coeffs), list(rem.coeffs)) == _school_divrem(ca, cb, field)
    # rand() leads with a random unit, so most moduli are not monic
    for mod in polys[3:]:
        for base in polys[::2]:
            for e in (0, 1, 2, 7, field.order + 1, rng.randrange(1 << 20)):
                got = poly_modpow(base, e, mod)
                assert list(got.coeffs) == _school_modpow(list(base.coeffs), e, list(mod.coeffs), field)


# --- the int storage against a FieldElement schoolbook ---

def _school_add(a, b, field, sign=1):
    n = max(len(a), len(b))
    a, b = a + [field.zero()] * (n - len(a)), b + [field.zero()] * (n - len(b))
    return _school_trim([x + y if sign > 0 else x - y for x, y in zip(a, b)])


def _school_compose(f, g, field):
    acc = []
    for c in reversed(f):
        acc = _school_add(_school_mul(acc, g, field), [c], field)
    return acc


@pytest.mark.parametrize("field", STORAGE_FIELDS, ids=lambda f: f"F{f.order}")
def test_int_storage_matches_field_element_schoolbook(field):
    rng = random.Random(100 + field.order)
    polys = [Polynomial.zero(field)] + [_rand_poly(rng, field, d) for d in range(7) for _ in range(2)]
    scalars = [field.zero(), field.one(), field.element(rng.randrange(1, field.order))]
    for a in polys:
        ca = list(a.coeffs)
        assert list((-a).coeffs) == _school_trim([-c for c in ca])
        for k in (0, 1, 3):
            assert list(a.shift(k).coeffs) == (_school_trim([field.zero()] * k + ca) if ca else [])
        for c in scalars:
            assert list(a.scale(c).coeffs) == _school_trim([x * c for x in ca])
        assert list(a.monic().coeffs) == ([x * ca[-1].inverse() for x in ca] if ca else [])
        for b in polys[::3]:
            cb = list(b.coeffs)
            assert list((a + b).coeffs) == _school_add(ca, cb, field)
            assert list((a - b).coeffs) == _school_add(ca, cb, field, -1)
            assert list(a.compose(b).coeffs) == _school_compose(ca, cb, field)


def test_a_power_of_the_generator_is_reduced_by_the_modulus():
    # a^N is the N-th power of the modulus root at any N; below the extension
    # degree it is the basis vector it always was
    f4, f9 = make_field(4), make_field(9)
    assert parse_poly("x^2 + x + a^2", f4) == parse_poly("x^2 + x + a + 1", f4)
    assert parse_poly("x + a^99999999999", f4) == parse_poly("x + 1", f4)  # a^3 = 1
    assert parse_poly("x + 2a^9", f9) == parse_poly("x + 2a", f9)  # a^8 = 1
    assert parse_poly("x + 2a^1", f9).coeffs[0].coeffs == (0, 2)
    assert parse_poly("x + 3a^0", make_field(2)) == parse_poly("x + 1", make_field(2))
    with pytest.raises(ValueError, match="coefficient vector too long"):
        parse_poly("x + a", make_field(3))
