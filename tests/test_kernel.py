"""The polynomial kernels against a schoolbook reference on plain ints mod p.

The reference below imports nothing from tsrforge: lists of ints in
[0, p), little-endian and trimmed, with every operation written out.
"""

import random

import pytest

from tsrforge import kernel
from tsrforge.fields import make_extension_field, make_field
from tsrforge.polys import Polynomial
from tsrforge.primitivity import is_irreducible


def _ref_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _ref_trim(out)


def _ref_divrem(a, b, p):
    rem = _ref_trim(list(a))
    inv = pow(b[-1], p - 2, p)
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] * inv % p
        shift = len(rem) - len(b)
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * y) % p
        _ref_trim(rem)
    return _ref_trim(quot), rem


def _ref_gcd(a, b, p):
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    while b:
        a, b = b, _ref_divrem(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _ref_modpow(base, e, mod, p):
    result, acc = [1], _ref_divrem(base, mod, p)[1]
    while e:
        if e & 1:
            result = _ref_divrem(_ref_mul(result, acc, p), mod, p)[1]
        e >>= 1
        acc = _ref_divrem(_ref_mul(acc, acc, p), mod, p)[1]
    return _ref_divrem(result, mod, p)[1]


def _modpow(base, e, mod, ops):
    """base^e mod mod in the kernel's ring F_p[X]/(mod)."""
    ring = ops.kernel.ring(mod)
    return ring.list(ring.pow(ring.reduce(base), e))


def _rand(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


PRIMES = (2, 3, 5, 13, 65537)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernel_matches_schoolbook(p):
    ops, rng = make_field(p).ops, random.Random(p)
    polys = [[], [1], [p - 1], _rand(rng, p, 1), _rand(rng, p, 3), _rand(rng, p, 7),
             _rand(rng, p, 20), [0, 0, 0, 1], [rng.randrange(1, p)] + [0] * 9 + [p - 1]]
    for a in polys:
        for b in polys:
            assert ops.kernel.mul(a, b) == _ref_mul(a, b, p)
            assert ops.kernel.gcd(a, b) == _ref_gcd(a, b, p)
            if b:  # leads are random units, so most divisors are not monic
                assert ops.kernel.divrem(a, b) == _ref_divrem(a, b, p)
    # untrimmed input and a divisor of higher degree than the dividend
    assert ops.kernel.divrem([1, 1, 0, 0], [0, 0, 0, 1]) == ([], [1, 1])
    for mod in polys[3:]:
        for base in polys:  # the zero base, constants, and bases above deg mod
            for e in (0, 1, 2, 3, p, p + 1, rng.randrange(1 << 40), p ** len(mod) - 2):
                assert _modpow(base, e, mod, ops) == _ref_modpow(base, e, mod, p), (base, e, mod)


@pytest.mark.parametrize("p, deg", [(2, 254), (2, 255), (2, 300)]
                         + [(p, deg) for p in PRIMES[1:] for deg in (254, 255)])
def test_packed_kernel_matches_schoolbook_across_the_slot_width_boundary(p, deg):
    # a product of two polynomials with 256 or more coefficients takes wider
    # slots; `full` (every coefficient p - 1) fills a slot to its bound
    ops, rng = make_field(p).ops, random.Random(deg * p)
    a, b, mod = _rand(rng, p, deg), _rand(rng, p, deg), _rand(rng, p, deg)
    small, full = _rand(rng, p, 5), [p - 1] * (deg + 1)
    assert ops.kernel.mul(full, full) == _ref_mul(full, full, p)
    assert ops.kernel.mul(a, b) == _ref_mul(a, b, p)
    assert ops.kernel.mul(a, small) == _ref_mul(a, small, p)
    assert ops.kernel.divrem(_ref_mul(a, b, p), mod) == _ref_divrem(_ref_mul(a, b, p), mod, p)
    assert ops.kernel.gcd(_ref_mul(a, small, p), _ref_mul(b, small, p)) == \
        _ref_gcd(_ref_mul(a, small, p), _ref_mul(b, small, p), p)
    for base, e, m in ((a, 0, mod), (b, 3, mod), (_ref_mul(a, b, p), 2, mod), (full[:-1], 2, full)):
        assert _modpow(base, e, m, ops) == _ref_modpow(base, e, m, p)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernel_slot_by_slot_matches_schoolbook(p, monkeypatch):
    # without array typecodes, as on a big-endian host, slots pack one by one
    monkeypatch.setattr(kernel, "_ARRAY_CODES", {})
    pk, rng = kernel.PackedKernel(p), random.Random(p)
    assert pk.code is None
    a, b, c, mod = _rand(rng, p, 20), _rand(rng, p, 9), _rand(rng, p, 4), _rand(rng, p, 7)
    assert pk.mul(a, b) == _ref_mul(a, b, p)
    assert pk.divrem(a, b) == _ref_divrem(a, b, p)
    assert pk.gcd(_ref_mul(a, c, p), _ref_mul(b, c, p)) == _ref_gcd(_ref_mul(a, c, p), _ref_mul(b, c, p), p)
    ring = pk.ring(mod)
    assert ring.list(ring.pow(ring.reduce(a), p ** 7 - 2)) == _ref_modpow(a, p ** 7 - 2, mod, p)


@pytest.mark.parametrize("q, n", [(2, 24), (3, 12), (13, 5), (4, 8), (8, 6), (9, 5), (16, 4), (121, 3)])
def test_xpow_from_the_conjugates_matches_square_and_multiply(q, n):
    # a fresh ring, so its chain of X^(q^i) starts at X; f has a random unit
    # lead and is mostly reducible, and the identity holds in any F_q[X]/(f)
    ops, rng = make_field(q).ops, random.Random(q * 100 + n)
    f = [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]
    ring = ops.kernel.ring(f)
    assert ring.chain == [ring.x]
    top = (q - 1) * q ** (n - 1)  # top digit q - 1
    for e in [0, 1, q ** n - 1, top, top + rng.randrange(q ** (n - 1))] + [rng.randrange(q ** n) for _ in range(8)]:
        assert ring.xpow(e) == ring.pow(ring.x, e), e
    assert len(ring.chain) == n
    assert [ring.conjugate(k) for k in range(n + 1)] == [ring.pow(ring.x, q ** k) for k in range(n + 1)]
    # the ring reduces by the monic tail it keeps, a one-off divrem by its own
    a, b = [rng.randrange(q) for _ in range(n)], [rng.randrange(q) for _ in range(n)]
    assert ring.list(ring.mul(ring.reduce(a), ring.reduce(b))) == \
        ops.kernel.divrem(ops.kernel.mul(a, b), f)[1]


def _monic_polys(p, n):
    for v in range(p ** n):
        digits = []
        for _ in range(n):
            v, d = divmod(v, p)
            digits.append(d)
        yield tuple(digits) + (1,)


def _reducible_monic(p, max_degree):
    """Every product of two monic polynomials of degree >= 1 with degree <= max_degree."""
    out = set()
    for i in range(1, max_degree // 2 + 1):
        for a in _monic_polys(p, i):
            for j in range(i, max_degree - i + 1):
                for b in _monic_polys(p, j):
                    out.add(tuple(_ref_mul(list(a), list(b), p)))
    return out


@pytest.mark.parametrize("p, max_degree", [(2, 12), (3, 7)])
def test_is_irreducible_matches_trial_division_exhaustively(p, max_degree):
    field, reducible = make_field(p), _reducible_monic(p, max_degree)
    for n in range(1, max_degree + 1):
        for f in _monic_polys(p, n):
            assert is_irreducible(Polynomial.make(field, f)) == (f not in reducible), f


def _clmul_mod(a, b, mod):
    """a*b mod `mod` on F_2 bit vectors, by shift and xor."""
    k, r = mod.bit_length() - 1, 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= mod
    return r


@pytest.mark.parametrize("k", (17, 25, 255))
def test_bitmask_multiply_in_characteristic_2(k):
    # above 2^16 elements F_{2^k} multiplies canonical ints (bit vectors) packed;
    # at k = 255 a product has 255 terms, so the slots are two bytes wide
    low = next(j for j in range(1, k) if is_irreducible(Polynomial.make(
        make_field(2), [1] + [0] * (j - 1) + [1] + [0] * (k - j - 1) + [1])))
    field = make_extension_field(2, k, [1] + [0] * (low - 1) + [1] + [0] * (k - low - 1) + [1])
    mod, rng = (1 << k) | (1 << low) | 1, random.Random(k)
    xs = [0, 1, 2, (1 << k) - 1] + [rng.randrange(1 << k) for _ in range(6)]
    for x in xs:
        for y in xs:
            assert field.ops.mul(x, y) == _clmul_mod(x, y, mod)
        if x:
            assert _clmul_mod(x, field.ops.inv(x), mod) == 1


def _ref_digits(v, p, k):
    """The k little-endian base-p digits of v."""
    return [v // p ** i % p for i in range(k)]


def _ref_value(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


@pytest.mark.parametrize("q", (3 ** 11, 5 ** 8, 7 ** 7, 5 ** 9))
def test_vector_arithmetic_in_odd_characteristic(q):
    # above 2^16 elements F_{p^k}, p odd, adds digit-wise and multiplies packed;
    # the reference multiplies digit vectors mod p and reduces by the modulus
    field = make_field(q)
    p, k, ops = field.characteristic, field.extension_degree, field.ops
    if q == 5 ** 9:  # (k - 1)^2 (p - 1) + 2 = 258 reaches 2^bits, so the fold reduces h * mu before its last norm
        assert (k - 1) ** 2 * (p - 1) + 2 >= 1 << ops.kernel.bits
    mod, rng = list(field.modulus_coeffs), random.Random(q)
    xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(8)]
    for x in xs:
        dx = _ref_digits(x, p, k)
        assert ops.neg(x) == _ref_value([-d % p for d in dx], p)
        for y in xs:
            dy = _ref_digits(y, p, k)
            assert ops.add(x, y) == _ref_value([(a + b) % p for a, b in zip(dx, dy)], p)
            assert ops.mul(x, y) == _ref_value(_ref_divrem(_ref_mul(dx, dy, p), mod, p)[1], p)
        if x:
            assert _ref_divrem(_ref_mul(dx, _ref_digits(ops.inv(x), p, k), p), mod, p)[1] == [1]


def _repeated(v, e, mul, one):
    r = one
    for _ in range(e):
        r = mul(r, v)
    return r


def _exponents(rng):
    return [0, 1, 2, 3] + [(1 << k) + d for k in range(2, 7) for d in (-1, 1)] + [rng.randrange(4, 130) for _ in range(3)]


@pytest.mark.parametrize("q", [2, 7, 16, 81, 1 << 17])
def test_power_matches_repeated_multiplication_on_field_ints(q):
    # F_2, F_7 by % p; F_16 and F_81 by tables; F_{2^17} by vectors
    ops, rng = make_field(q).ops, random.Random(q)
    for v in [0, 1, q - 1] + [rng.randrange(q) for _ in range(3)]:
        for e in _exponents(rng):
            calls = []

            def mul(a, b):
                calls.append(b is v or a is b)  # left to right: a square, or a multiply by v itself
                return ops.mul(a, b)

            assert kernel.power(v, e, mul, 1) == _repeated(v, e, ops.mul, 1), (v, e)
            assert all(calls) and len(calls) == max(e.bit_length() + bin(e).count("1") - 2, 0), (v, e)


@pytest.mark.parametrize("q, n", [(3, 6), (2, 9), (9, 4), (4, 5)])
def test_power_matches_repeated_multiplication_in_packed_and_list_rings(q, n):
    ops, rng = make_field(q).ops, random.Random(q * 10 + n)
    ring = ops.kernel.ring([rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)])
    for v in [ring.one, ring.x, ring.reduce([rng.randrange(q) for _ in range(n)])]:
        for e in _exponents(rng):
            assert ring.pow(v, e) == _repeated(v, e, ring.mul, ring.one), e


@pytest.mark.parametrize("q", [3, 4])
def test_polynomial_pow_matches_repeated_multiplication(q):
    field, rng = make_field(q), random.Random(q)
    for f in [Polynomial.zero(field), Polynomial.one(field), Polynomial.x(field),
              Polynomial.make(field, [rng.randrange(q) for _ in range(3)] + [rng.randrange(1, q)])]:
        for e in _exponents(rng)[:12]:
            assert f.pow(e) == _repeated(f, e, Polynomial.__mul__, Polynomial.one(field)), (f, e)


@pytest.mark.parametrize("q, n", [(5, 0), (5, 1), (5, 3), (4, 2), (2, 4)])
def test_matrix_power_matches_repeated_multiplication(q, n):
    from tsrforge.matrices import Matrix

    field, rng = make_field(q), random.Random(q * 10 + n)
    A = Matrix(field, n, n, tuple(rng.randrange(q) for _ in range(n * n)))
    for e in _exponents(rng):
        assert A.power(e) == _repeated(A, e, Matrix.__mul__, Matrix.identity(field, n)), e


def test_negative_exponents_are_refused():
    # int_pow and xpow looped forever on e < 0, and ring.pow(v, -1) gave v^3
    from tsrforge.fields import int_pow

    with pytest.raises(ValueError, match="e = -1 must be >= 0"):
        int_pow(3, -1, make_field(16).ops)
    with pytest.raises(ValueError, match="e = -2 must be >= 0"):
        kernel.power(3, -2, make_field(16).ops.mul, 1)
    for q in (2, 4):  # a packed and a list ring
        ring = make_field(q).ops.kernel.ring([1, 1, 1])
        with pytest.raises(ValueError, match="e = -3 must be >= 0"):
            ring.xpow(-3)
        with pytest.raises(ValueError, match="e = -1 must be >= 0"):
            ring.pow(ring.x, -1)


# --- F_{p^k}: the packed kernel against a schoolbook on the field's modulus alone ---

class _RefField:
    """F_{p^k} on canonical ints by digit lists mod p, reduced by the modulus; no tsrforge arithmetic.

    Digit lists, products and inverses are memoised: the reference stays a schoolbook, computed once per operand.
    """

    def __init__(self, field):
        self.p, self.k, self.q = field.characteristic, field.extension_degree, field.order
        self.mod = field.modulus_coeffs
        self._digits, self._products, self._inverses = {}, {}, {}

    def digits(self, v):
        if v not in self._digits:
            out, rest = [], v
            for _ in range(self.k):
                rest, d = divmod(rest, self.p)
                out.append(d)
            self._digits[v] = tuple(out)
        return self._digits[v]

    def encode(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.encode([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.encode([-x % self.p for x in self.digits(a)])

    def mul(self, a, b):
        if (a, b) in self._products:
            return self._products[a, b]
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            for i, m in enumerate(self.mod):
                prod[top - k + i] = (prod[top - k + i] - c * m) % p
        self._products[a, b] = self._products[b, a] = self.encode(prod[:k])
        return self._products[a, b]

    def inv(self, a):
        if a not in self._inverses:
            r, x, e = 1, a, self.q - 2
            while e:
                if e & 1:
                    r = self.mul(r, x)
                x, e = self.mul(x, x), e >> 1
            self._inverses[a] = r
        return self._inverses[a]

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return _ref_trim(out)

    def poly_divrem(self, a, b):
        rem, inv = _ref_trim(list(a)), self.inv(b[-1])
        quot = [0] * max(len(rem) - len(b) + 1, 0)
        while len(rem) >= len(b):
            c, shift = self.mul(rem[-1], inv), len(rem) - len(b)
            quot[shift] = c
            for i, y in enumerate(b):
                rem[shift + i] = self.add(rem[shift + i], self.neg(self.mul(c, y)))
            _ref_trim(rem)
        return _ref_trim(quot), rem

    def poly_gcd(self, a, b):
        a, b = _ref_trim(list(a)), _ref_trim(list(b))
        while b:
            a, b = b, self.poly_divrem(a, b)[1]
        return [self.mul(c, self.inv(a[-1])) for c in a] if a else a

    def poly_compose(self, f, g):
        acc = []
        for c in reversed(f):
            acc = self.poly_mul(acc, g) or [0]
            acc[0] = self.add(acc[0], c)
            _ref_trim(acc)
        return acc

    def poly_modpow(self, base, e, mod):
        result, acc = [1], self.poly_divrem(base, mod)[1]
        while e:
            if e & 1:
                result = self.poly_divrem(self.poly_mul(result, acc), mod)[1]
            e >>= 1
            acc = self.poly_divrem(self.poly_mul(acc, acc), mod)[1]
        return self.poly_divrem(result, mod)[1]


# F_4 .. F_1024 by tables and F_{2^17} by vectors; the last degrees of each row are
# where a product's slots widen: min(len a, len b) * k reaches 2^8
EXTENSION_DEGREES = {4: (127, 128), 8: (85, 86), 16: (63, 64), 1024: (25, 26), 9: (127, 128),
                     25: (127, 128), 27: (85, 86), 81: (63, 64), 169: (127, 128), 1 << 17: (15, 16)}


@pytest.mark.parametrize("q", list(EXTENSION_DEGREES))
def test_extension_kernel_matches_schoolbook(q):
    field = make_field(q)
    ref, kern, rng = _RefField(field), field.ops.kernel, random.Random(q)
    polys = [[]] + [_rand(rng, q, d) for d in range(13 if q < 1 << 10 else 7)]
    for a in polys:
        for b in [[], [1], [q - 1]] + [_rand(rng, q, d) for d in (0, 1, 4, 12)] + [a]:
            assert kern.mul(a, b) == ref.poly_mul(a, b), (a, b)
            assert kern.compose(a, b[:4]) == ref.poly_compose(a, b[:4]), (a, b)
            assert kern.gcd(a, b) == ref.poly_gcd(a, b), (a, b)
            if b:
                assert kern.divrem(a, b) == ref.poly_divrem(a, b), (a, b)
    narrow, wide = EXTENSION_DEGREES[q]
    a, b, small = _rand(rng, q, narrow), _rand(rng, q, wide), _rand(rng, q, 4)
    full = [q - 1] * (wide + 1)  # every digit of every coefficient p - 1
    for x, y in ((a, a), (a, b), (b, b), (full, full), (b, small)):
        assert kern.mul(x, y) == ref.poly_mul(x, y)
    assert kern.divrem(b, small) == ref.poly_divrem(b, small)
    assert kern.gcd(ref.poly_mul(a, small), b) == ref.poly_gcd(ref.poly_mul(a, small), b)


@pytest.mark.parametrize("q", list(EXTENSION_DEGREES))
def test_extension_rings_match_schoolbook(q):
    # mul of F_q[X]/(f), f with a random unit lead, at every degree up to 12 and where a
    # ring's slots widen, (deg f + 1) * k reaches 2^8; frob (v^q), pow and xpow up to a
    # degree the schoolbook reaches in a few seconds
    field = make_field(q)
    ref, kern, rng = _RefField(field), field.ops.kernel, random.Random(q + 1)
    for d in list(range(1, 13)) + [256 // field.extension_degree - 1, 256 // field.extension_degree]:
        f = [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
        ring = kern.ring(f)
        a, b = [rng.randrange(q) for _ in range(d)], [rng.randrange(q) for _ in range(d)]
        ra, rb = ring.reduce(a), ring.reduce(b)
        assert ring.list(ring.mul(ra, rb)) == ref.poly_divrem(ref.poly_mul(a, b), f)[1], d
        if d <= (12 if q < 100 else 4):
            assert ring.list(ring.frob(ra)) == ref.poly_modpow(a, q, f), d
            for e in (0, 1, 2, 5, q + 1):
                assert ring.list(ring.pow(ra, e)) == ref.poly_modpow(a, e, f), (d, e)
            e = rng.randrange(q ** min(d, 3))
            assert ring.list(ring.xpow(e)) == ref.poly_modpow([0, 1], e, f), (d, e)


@pytest.mark.parametrize("q", [8, 9])
def test_extension_kernel_slot_by_slot_matches_schoolbook(q, monkeypatch):
    # without array typecodes, as on a big-endian host, slots, spreads and gathers go one by one
    monkeypatch.setattr(kernel, "_ARRAY_CODES", {})
    field = make_field(q)
    pk, ref, rng = kernel.PackedKernel(field.characteristic, 8, field.modulus_coeffs), _RefField(field), random.Random(q)
    assert pk.code is None
    a, b, c, mod = _rand(rng, q, 9), _rand(rng, q, 5), _rand(rng, q, 3), _rand(rng, q, 4)
    assert pk.mul(a, b) == ref.poly_mul(a, b)
    assert pk.divrem(a, b) == ref.poly_divrem(a, b)
    assert pk.gcd(ref.poly_mul(a, c), ref.poly_mul(b, c)) == ref.poly_gcd(ref.poly_mul(a, c), ref.poly_mul(b, c))
    assert pk.compose(c, b) == ref.poly_compose(c, b)
    ring = pk.ring(mod)
    assert ring.list(ring.pow(ring.reduce(a), q + 3)) == ref.poly_modpow(a, q + 3, mod)
    assert ring.list(ring.frob(ring.reduce(a))) == ref.poly_modpow(a, q, mod)
