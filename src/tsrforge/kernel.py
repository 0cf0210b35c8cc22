"""Polynomial kernels: polynomials over F_q as little-endian lists of canonical ints.

A field's FieldOps carries one kernel, picked when fields._field_ops builds
the ops; callers run its mul, divrem (quot, rem with deg rem < deg b, for a
trimmed nonzero b), monic gcd and ring (F_q[X]/(f)) directly.  Lists come
out trimmed; the zero polynomial is [].  `power` is the package's one
square-and-multiply: field elements, ring residues, polynomials and
matrices all raise to a power through it.

- F_p runs packed (Kronecker substitution): a polynomial is one int with a
  w-bit slot per coefficient, so a product is one big-int multiply.  `norm`
  reduces every slot mod p at once: an AND over F_2, else the exact
  slot-wise quotient floor(v*m / 2^s) = floor(v/p) for v < 2^top (Granlund
  & Montgomery), on slots of about 2*top bits.  Reduction by a fixed f of
  degree d is Barrett's: quot(c) = floor(floor(c / X^d) * mu / X^(d-1)) with
  mu = floor(X^(2d-1) / f), found once per modulus.  Powers, and Rabin's
  q-power steps with them, stay packed; lists convert at the edge only.
- F_{p^k}, k >= 2, runs list loops on the field's add/neg/mul/inv.
"""

import sys
from array import array
from operator import and_
from typing import Callable, NamedTuple

# slot bytes -> array typecode; arrays hold native-order items, so a
# big-endian host packs slot by slot with to_bytes instead
_ARRAY_CODES = {array(t).itemsize: t for t in "BHIQ"} if sys.byteorder == "little" else {}


class FieldOps(NamedTuple):
    """add, neg, mul and inv on canonical encodings (inv of nonzero only), and a kernel."""

    add: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]
    kernel: "ListKernel | PackedKernel"


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


class _Ring:
    """F_q[X]/(f) for a trimmed f of degree >= 1, on its kernel's form of a
    polynomial: q, one, x (X mod f), reduce, mul, list and frob (v -> v^q)."""

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


class ListKernel:
    """Loops over a field's add/neg/mul/inv: the kernel of F_{p^k}, k >= 2."""

    def __init__(self, q: int, add, neg, mul, inv):
        self.q, self.ops = q, (add, neg, mul, inv)

    def mul(self, a, b):
        if not a or not b:
            return []
        add, _, mul, _ = self.ops
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        out[j] = add(out[j], mul(x, y))
        return _trim(out)

    def monic_tail(self, b):
        """(1/lead(b), [-b_i/lead(b) for i < deg b]): what divrem reduces by."""
        _, neg, mul, inv = self.ops
        inv_lead = inv(b[-1])
        return inv_lead, [mul(neg(c), inv_lead) for c in b[:-1]]

    def divrem(self, a, b, monic_tail=None):
        rem = _trim(list(a))
        db = len(b) - 1
        if len(rem) <= db:
            return [], rem
        add, _, mul, _ = self.ops
        inv_lead, tail = monic_tail or self.monic_tail(b)
        quot = [0] * (len(rem) - db)
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if c:
                quot[top - db] = mul(c, inv_lead)
                for i, t in enumerate(tail, top - db):
                    if t:
                        rem[i] = add(rem[i], mul(c, t))
        del rem[db:]
        return quot, _trim(rem)

    def gcd(self, a, b):
        a, b = _trim(list(a)), _trim(list(b))
        while b:
            a, b = b, self.divrem(a, b)[1]
        if a:
            _, _, mul, inv = self.ops
            inv_lead = inv(a[-1])
            a = [mul(c, inv_lead) for c in a]
        return a

    def ring(self, f):
        return _ListRing(self, f)


class _ListRing(_Ring):
    def __init__(self, kernel: ListKernel, f):
        self.kernel, self.f, self.q, self.one, self.rows = kernel, f, kernel.q, [1], None
        self.tail = kernel.monic_tail(f)
        self.x = self.reduce([0, 1])
        self.chain = [self.x]  # X^(q^k) mod f for k < len(chain)

    def reduce(self, coeffs):
        return self.kernel.divrem(coeffs, self.f, self.tail)[1]

    def mul(self, a, b):
        return self.reduce(self.kernel.mul(a, b))

    def list(self, v):
        return v

    def frob(self, v):
        """v^q = sum of v_i X^(qi) mod f, as v_i^q = v_i in F_q: the q-power matrix,
        whose rows are built on the first call from one X^q mod f."""
        if self.rows is None:
            x_q = self.pow(self.x, self.q)
            self.rows = [[1], x_q]
            for _ in range(len(self.f) - 3):
                self.rows.append(self.mul(self.rows[-1], x_q))
        add, _, mul, _ = self.kernel.ops
        acc = [0] * len(self.rows)
        for c, row in zip(v, self.rows):
            if c:
                for j, y in enumerate(row):
                    if y:
                        acc[j] = add(acc[j], mul(c, y))
        return _trim(acc)


class PackedKernel:
    """Polynomials over F_p on ints with one w-bit slot per coefficient: the
    kernel of prime fields.  A slot holds a sum of fewer than 2^bits
    products of two coefficients until the next norm."""

    def __init__(self, p: int, bits: int = 8):
        top = (((1 << bits) - 1) * (p - 1) ** 2).bit_length()  # bits of a slot before a norm
        s = top + p.bit_length()
        m = -((-1 << s) // p)  # ceil(2^s / p)
        size = -(-(top if p == 2 else top + m.bit_length()) // 8)
        self.size = next((n for n in sorted(_ARRAY_CODES) if n >= size), size)
        self.p, self.bits, self.w, self.code = p, bits, 8 * self.size, _ARRAY_CODES.get(self.size)
        if p == 2:
            self.norm, slot = and_, 1
        else:
            self.norm, slot = (lambda x, mask: x - p * (x * m >> s & mask)), (1 << self.w - s) - 1
        self.pattern = slot.to_bytes(self.size, "little")

    def wide(self, terms: int) -> "PackedKernel":
        """A kernel whose slots hold sums of `terms` products."""
        return self if terms >> self.bits == 0 else PackedKernel(self.p, terms.bit_length())

    def mask(self, slots: int) -> int:
        """The norm's mask over `slots` slots."""
        return int.from_bytes(self.pattern * slots, "little")

    def pack(self, coeffs) -> int:
        if self.code:
            return int.from_bytes(array(self.code, coeffs), "little")
        return int.from_bytes(b"".join([c.to_bytes(self.size, "little") for c in coeffs]), "little")

    def unpack(self, x: int) -> list[int]:
        """The trimmed coefficient list of a normed x."""
        size = self.size
        raw = x.to_bytes(-(-x.bit_length() // self.w) * size, "little")
        if self.code:
            return array(self.code, raw).tolist()
        return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]

    def packed_divrem(self, a: int, b: int, mask: int) -> tuple[int, int]:
        """(quot, rem) of normed a by normed b != 0, one quotient slot per step."""
        w, p = self.w, self.p
        db = (b.bit_length() - 1) // w
        inv = pow(b >> db * w, -1, p)
        nb = self.norm(b * (-inv % p), mask)  # -b / lead(b)
        quot = 0
        for top in range((a.bit_length() - 1) // w, db - 1, -1):
            c = a >> top * w
            if c:
                quot |= c * inv % p << (top - db) * w
                a = self.norm(a + (c * nb << (top - db) * w), mask)
        return quot, a

    def mul(self, a, b):
        if not a or not b:
            return []
        pk = self.wide(min(len(a), len(b)))
        return pk.unpack(pk.norm(pk.pack(a) * pk.pack(b), pk.mask(len(a) + len(b))))

    def divrem(self, a, b):
        quot, rem = self.packed_divrem(self.pack(a), self.pack(b), self.mask(max(len(a), len(b))))
        return self.unpack(quot), self.unpack(rem)

    def gcd(self, a, b):
        mask = self.mask(max(len(a), len(b)))
        a, b = self.pack(a), self.pack(b)
        while b:
            a, b = b, self.packed_divrem(a, b, mask)[1]
        if a:
            a = self.norm(a * pow(a >> (a.bit_length() - 1) // self.w * self.w, -1, self.p), mask)
        return self.unpack(a)

    def ring(self, f):
        return _PackedRing(self.wide(len(f)), f)


class _PackedRing(_Ring):
    def __init__(self, pk: PackedKernel, f):
        d, p = len(f) - 1, pk.p
        self.pk, self.d, self.q, self.one, self.list = pk, d, p, 1, pk.unpack
        self.mask = pk.mask(2 * d + 1)
        self.f = pk.norm(pk.pack(f) * pow(f[-1], -1, p), self.mask)  # monic
        self.f_neg = pk.norm(self.f * (p - 1), self.mask)
        self.mu = pk.packed_divrem(1 << (2 * d - 1) * pk.w, self.f, self.mask)[0]
        self.x = self.reduce([0, 1])
        self.chain = [self.x]  # X^(q^k) mod f for k < len(chain)

    def reduce(self, coeffs):
        pk = self.pk
        return pk.packed_divrem(pk.pack(coeffs), self.f, pk.mask(max(len(coeffs), 2 * self.d + 1)))[1]

    def mul(self, a: int, b: int) -> int:
        """a*b mod f for reduced a, b: Barrett's quotient, then c - quot*f."""
        norm, mask, w, d = self.pk.norm, self.mask, self.pk.w, self.d
        c = norm(a * b, mask)
        return norm(c + norm((c >> d * w) * self.mu >> (d - 1) * w, mask) * self.f_neg, mask)

    def frob(self, v: int) -> int:
        """v^p, the q-power step of Rabin's test: over F_2 one squaring."""
        return power(v, self.q, self.mul, 1)
