"""The polynomial kernel: polynomials over F_q, q = p^k, as ints (two-level Kronecker substitution).

Each field's FieldOps carries its PackedKernel; callers run its mul, divrem
(quot, rem with deg rem < deg b, for a trimmed nonzero b), monic gcd and ring
(F_q[X]/(f)) on little-endian lists of canonical ints, which come out trimmed
(the zero polynomial is []).  `power` is the package's one square-and-multiply.

Base-p digit j of coefficient i sits in the w-bit slot i*(2k-1) + j, so a product
is one big-int multiply whose blocks of 2k - 1 slots hold coefficients as
polynomials in y of degree <= 2k - 2.  A fold reduces every block at once: the
norm takes each slot mod p (an AND over F_2, else floor(v*m / 2^s) = floor(v/p)
for v < 2^top, as Granlund & Montgomery), then digits k..2k-2 go by the field
modulus m(y) with Barrett's quotient floor(floor(c / y^k) * floor(y^(2k-2) / m)
/ y^(k-2)), one multiply for all blocks (none for k = 2; over F_p the norm is
all).  Reduction by f of degree d in X is Barrett's again on whole blocks, with
mu = floor(X^n / f) once per modulus.  Lists convert at the edge only, by a
memoised spread per coefficient and a gather per block, both through the one
element codec (_block, _value), which also gives F_{p^k} its element_ops.
"""

import sys
from array import array
from functools import lru_cache
from operator import and_, pos, xor
from typing import Callable, NamedTuple

# slot bytes -> array typecode; arrays hold native-order items, so a
# big-endian host packs slot by slot with to_bytes instead
_ARRAY_CODES = {array(t).itemsize: t for t in "BHIQ"} if sys.byteorder == "little" else {}


class FieldOps(NamedTuple):
    """add, neg, mul and inv on canonical encodings (inv of nonzero only), and the field's kernel."""

    add: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]
    kernel: "PackedKernel"


class _Memo(dict):
    """key -> fill(memo, key), remembering at most `cap` keys (spreads, gathers, inverses: 2^12)."""

    def __init__(self, fill, cap: int = 1 << 12):
        self.fill, self.cap = fill, cap

    def __missing__(self, key):
        value = self.fill(self, key)
        if len(self) < self.cap:
            self[key] = value
        return value


def base_digits(v: int, base: int, k: int) -> list[int]:
    """The k little-endian base-`base` digits of v: the canonical decoding."""
    digits = []
    for _ in range(k):
        digits.append(v % base)
        v //= base
    return digits


def _encode(digits, p: int) -> int:
    """Inverse of base_digits: sum of digits[i] * p**i."""
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def power(v, e: int, mul: Callable, one):
    """v^e by left-to-right square-and-multiply, so every multiply is by v itself; e >= 0."""
    if e < 0:
        raise ValueError(f"exponent e = {e} must be >= 0")
    r = v if e else one
    for bit in bin(e)[3:]:  # the binary digits of e after its leading 1
        r = mul(r, r)
        if bit == "1":
            r = mul(r, v)
    return r


@lru_cache(maxsize=None)
def _kernel(p: int, bits: int, modulus: tuple[int, ...]) -> "PackedKernel":
    return PackedKernel(p, bits, modulus)


class PackedKernel:
    """Polynomials over F_q, q = p^k with the monic modulus m(y) of degree k
    ((0, 1), y itself, for F_p), on ints with a block of 2k - 1 w-bit slots per
    coefficient.  A slot holds a sum of fewer than 2^bits products of two
    digits until the next fold."""

    def __init__(self, p: int, bits: int = 8, modulus: tuple[int, ...] = (0, 1)):
        k = len(modulus) - 1
        bits = max(bits, (2 * k).bit_length())  # a division step adds k products to a normed slot
        top = (((1 << bits) - 1) * (p - 1) ** 2).bit_length()  # bits of a slot before a norm
        s = top + p.bit_length()
        m = -((-1 << s) // p)  # ceil(2^s / p)
        size = -(-(top if p == 2 else top + m.bit_length()) // 8)
        self.size = next((n for n in sorted(_ARRAY_CODES) if n >= size), size)
        self.p, self.k, self.q, self.bits, self.modulus = p, k, p ** k, bits, tuple(modulus)
        self.w, self.code = 8 * self.size, _ARRAY_CODES.get(self.size)
        self.W = (2 * k - 1) * self.w  # bits of a block
        self.magic = m, s  # the norm's multiplier and shift, which _fold writes inline
        if p == 2:
            self.norm, slot = and_, 1
        else:
            self.norm, slot = (lambda x, mask: x - p * (x * m >> s & mask)), (1 << self.w - s) - 1
        self.pattern = slot.to_bytes(self.size, "little")
        self.folds = _Memo(lambda _, b: self._fold(1 << b))  # by bit length of the block count
        self.inverse = _Memo(lambda _, v: self._inverse(v))
        if k > 1:  # the element codec: a canonical int as one block, base-p digit j in slot j, and back
            size, n = self.size, k * self.size  # n: the bytes of a folded block's k digits
            if p == 2:  # the binary digits, one byte '0' or '1' each, become the slots' low bytes
                to_slot, to_bit = {48: "\0" * size, 49: "\0" * (size - 1) + "\1"}, bytes.maketrans(b"\0\1", b"01")
                self._block = lambda v: int.from_bytes(f"{v:b}".translate(to_slot).encode("latin-1"), "big")
                self._value = lambda x: int(x.to_bytes(n, "big")[size - 1::size].translate(to_bit), 2)
            else:
                self._block = lambda v: int.from_bytes(self._bytes(base_digits(v, p, k)), "little")
                self._value = lambda x: _encode(self._digits(x.to_bytes(n, "little")), p)
            self.spread = _Memo(lambda _, v: self._block(v).to_bytes(self.W // 8, "little"))
            self.gather = _Memo(lambda _, raw: self._value(int.from_bytes(raw, "little")))

    def element_ops(self):
        """(add, neg, mul, inv) on the canonical ints of F_{p^k}, k > 1: a product is one
        folded block and an inverse is _inverse's; add and neg stay XOR and identity
        over F_2 and digit-wise over odd p, which is faster than through blocks."""
        p, k, block, value = self.p, self.k, self._block, self._value
        fold, mask = self.fold(1)
        mul = lambda a, b: value(fold(block(a) * block(b), mask))
        inv = lambda a: value(self._inverse(block(a))[0])
        if p == 2:
            return xor, pos, mul, inv
        return (lambda a, b: _encode([(x + y) % p for x, y in zip(base_digits(a, p, k), base_digits(b, p, k))], p),
                lambda a: _encode([-x % p for x in base_digits(a, p, k)], p), mul, inv)

    def wide(self, terms: int) -> "PackedKernel":
        """A kernel whose slots hold sums of the products of `terms` coefficient pairs."""
        n = terms * self.k
        return self if n >> self.bits == 0 else _kernel(self.p, n.bit_length(), self.modulus)

    def fold(self, blocks: int) -> tuple[Callable[[int, int], int], int]:
        """(fold, mask): fold(x, mask) reduces every block of an x of at most `blocks` blocks."""
        return self.folds[blocks.bit_length()]

    def _fold(self, blocks: int):
        """(fold, mask) for `blocks` blocks; for k > 1 fold writes the norm inline, each
        time, as a call to self.norm costs more than the norm itself."""
        norm, p, k, w, size = self.norm, self.p, self.k, self.w, self.size
        mask = int.from_bytes(self.pattern * (blocks * (2 * k - 1)), "little")  # the norm's, on every slot
        if k == 1:
            return norm, mask
        # the low k - 1 slots of every block, where c >> k*w puts digits k..2k-2
        high = int.from_bytes((b"\xff" * size * (k - 1) + bytes(size * k)) * blocks, "little")
        mu = _kernel(p, 8, (0, 1)).divrem([0] * (2 * k - 2) + [1], list(self.modulus))[0]
        mu = int.from_bytes(self._bytes(mu), "little")
        neg_m = int.from_bytes(self._bytes([-c % p for c in self.modulus]), "little")
        kw, sw = k * w, (k - 2) * w
        lazy = (k - 1) ** 2 * (p - 1) + 2 < 1 << self.bits  # room for the last norm to take the quotient mod p

        if p == 2:
            def fold(x: int, mask: int) -> int:
                c = x & mask
                h = c >> kw & high
                if k > 2:
                    h = (h * mu if lazy else h * mu & mask) >> sw & high
                return c + h * neg_m & mask

            return fold, mask
        m, s = self.magic

        def fold(x: int, mask: int) -> int:  # the norm v - p * floor(v * m / 2^s), inline
            c = x - p * (x * m >> s & mask)
            h = c >> kw & high
            if k > 2:
                h *= mu
                if not lazy:
                    h -= p * (h * m >> s & mask)
                h = h >> sw & high
            c += h * neg_m
            return c - p * (c * m >> s & mask)

        return fold, mask

    def _inverse(self, v: int) -> tuple[int, int]:
        """(1/v, -1/v) for a nonzero block v."""
        fold, mask = self.fold(1)
        inv = pow(v, -1, self.p) if self.k == 1 else power(v, self.q - 2, lambda a, b: fold(a * b, mask), 1)
        return inv, fold(inv * (self.p - 1), mask)

    def _bytes(self, digits):
        """The slots of `digits`, little-endian, as a bytes-like object."""
        if self.code:
            return array(self.code, digits)
        return b"".join([d.to_bytes(self.size, "little") for d in digits])

    def _digits(self, raw) -> list[int]:
        """The slot values of raw bytes."""
        if self.code:
            return array(self.code, raw).tolist()
        return [int.from_bytes(raw[i:i + self.size], "little") for i in range(0, len(raw), self.size)]

    def pack(self, coeffs) -> int:
        if self.k == 1:
            return int.from_bytes(self._bytes(coeffs), "little")
        return int.from_bytes(b"".join(map(self.spread.__getitem__, coeffs)), "little")

    def unpack(self, x: int) -> list[int]:
        """The trimmed coefficient list of a folded x."""
        step = self.W // 8
        raw = x.to_bytes(-(-x.bit_length() // self.W) * step, "little")
        if self.k == 1:
            return self._digits(raw)
        gather, n = self.gather, self.k * self.size
        return [gather[raw[i:i + n]] for i in range(0, len(raw), step)]

    def lead(self, x: int) -> int:
        """The top block of a nonzero x."""
        return x >> (x.bit_length() - 1) // self.W * self.W

    def packed_divrem(self, a: int, b: int, fold, mask: int) -> tuple[int, int]:
        """(quot * lead(b), rem) of folded a by folded b != 0, one quotient block per step."""
        W = self.W
        db = (b.bit_length() - 1) // W
        nb = fold(b * self.inverse[b >> db * W][1], mask)  # -b / lead(b)
        quot = 0
        for top in range((a.bit_length() - 1) // W, db - 1, -1):
            c = a >> top * W
            if c:
                quot |= c << (top - db) * W
                a = fold(a + (c * nb << (top - db) * W), mask)
        return quot, a

    def packed_gcd(self, a: int, b: int, fold, mask: int) -> int:
        """The monic gcd of folded a and b."""
        while b:
            a, b = b, self.packed_divrem(a, b, fold, mask)[1]
        return fold(a * self.inverse[self.lead(a)][0], mask) if a else 0

    def mul(self, a, b):
        if not a or not b:
            return []
        pk = self.wide(min(len(a), len(b)))
        fold, mask = pk.fold(len(a) + len(b))
        return pk.unpack(fold(pk.pack(a) * pk.pack(b), mask))

    def divrem(self, a, b):
        (fold, mask), b = self.fold(max(len(a), len(b))), self.pack(b)
        quot, rem = self.packed_divrem(self.pack(a), b, fold, mask)
        return self.unpack(fold(quot * self.inverse[self.lead(b)][0], mask)), self.unpack(rem)

    def gcd(self, a, b):
        return self.unpack(self.packed_gcd(self.pack(a), self.pack(b), *self.fold(max(len(a), len(b)))))

    def compose(self, f, g, n: int = 0):
        """sum of f_i g^i X^(n(d - i)), d = len(f) - 1, by Horner's rule, packed: f(g(X)) for n = 0."""
        pk = self.wide(len(g) + 1)
        (fold, mask), g, acc = pk.fold(len(f) * max(len(g), n) + 1), pk.pack(g), 0
        step, shift = n * pk.W, 0
        for c in reversed(f):
            acc = fold(acc * g + (pk.pack([c]) << shift), mask)
            shift += step
        return pk.unpack(acc)

    def ring(self, f):
        return _Ring(self.wide(len(f)), f)


class _Ring:
    """F_q[X]/(f), f trimmed of degree >= 1, on packed residues (c < p is c): one, x, list, frob (v^q)."""

    def __init__(self, pk: PackedKernel, f):
        d, W = len(f) - 1, pk.W
        n = max(2 * d - 2, d)  # Barrett's X^n: deg c <= 2d - 2 for a product of residues
        self.pk, self.d, self.q, self.one, self.list = pk, d, pk.q, 1, pk.unpack
        self.fold, self.mask = fold, mask = pk.fold(2 * d + 1)
        self.shifts = d * W, (n - d) * W
        f = pk.pack(f)
        self.f = f if pk.lead(f) == 1 else fold(f * pk.inverse[pk.lead(f)][0], mask)  # monic
        self.f_neg = fold(self.f * (pk.p - 1), mask)
        self.mu = 1 if d < 3 else pk.packed_divrem(1 << n * W, self.f, fold, mask)[0]
        self.x = 1 << W if d > 1 else self.reduce([0, 1])
        self.chain = [self.x]  # X^(q^k) mod f for k < len(chain)
        # v^q by a power costs two products or one for q <= 4; past that the q-power matrix wins
        self.rows = [] if self.q > 4 else None

    def reduce(self, coeffs):
        pk = self.pk
        return pk.packed_divrem(pk.pack(coeffs), self.f, *pk.fold(max(len(coeffs), 2 * self.d + 1)))[1]

    def mul(self, a: int, b: int) -> int:
        """a*b mod f for reduced a, b: Barrett's quotient, then c - quot*f."""
        fold, mask, (dw, nw) = self.fold, self.mask, self.shifts
        c = fold(a * b, mask)
        quot = c >> dw if self.mu == 1 else fold((c >> dw) * self.mu >> nw, mask)
        return fold(c + quot * self.f_neg, mask)

    def add(self, a: int, b: int) -> int:
        return self.fold(a + b, self.mask)

    def gcd(self, v: int, w: int) -> int:
        """The monic gcd of v - w and f."""
        return self.pk.packed_gcd(self.f, self.fold(v + w * (self.pk.p - 1), self.mask), self.fold, self.mask)

    def frob(self, v: int) -> int:
        """v^q, the q-power step of Rabin's test: over F_2 one squaring; for q > 4 sum v_i X^(qi)
        mod f (v_i^q = v_i) on the rows of the q-power matrix, built on the first step."""
        if self.rows is None:
            return power(v, self.q, self.mul, 1)
        rows = self.rows
        if not rows:
            rows += [1, power(self.x, self.q, self.mul, 1)]
            while len(rows) < self.d:
                rows.append(self.mul(rows[-1], rows[1]))
        W, block, acc = self.pk.W, (1 << self.pk.k * self.pk.w) - 1, 0
        for row in rows:
            acc += (v & block) * row
            v >>= W
        return self.fold(acc, self.mask)

    def conjugate(self, k: int):
        """X^(q^k) mod f, memoised: the chain grows by q-power steps on X as k asks."""
        chain = self.chain
        while len(chain) <= k:
            chain.append(self.frob(chain[-1]))
        return chain[k]

    def xpow(self, e: int):
        """X^e mod f, e >= 0, by Straus's interleaving: X^e = prod (X^(q^i))^(d_i) for
        e = sum d_i q^i, at (q - 1).bit_length() - 1 squarings shared by all d_i."""
        if e < 0:
            raise ValueError(f"exponent e = {e} must be >= 0")
        digits = []
        while e:
            e, d = divmod(e, self.q)
            digits.append(d)
        r = None  # 1 until the first factor
        for j in reversed(range((self.q - 1).bit_length())):
            if r is not None:
                r = self.mul(r, r)
            for i, d in enumerate(digits):
                if d >> j & 1:
                    r = self.conjugate(i) if r is None else self.mul(r, self.conjugate(i))
        return self.one if r is None else r

    def pow(self, v, e: int):
        """v^e; e >= 0."""
        return power(v, e, self.mul, self.one)
