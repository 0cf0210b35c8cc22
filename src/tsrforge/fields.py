"""Prime and extension finite fields with exact element arithmetic.

Elements of F_{p^k} are coefficient vectors of length k over F_p in the power
basis of the modulus root, little-endian (index i multiplies a^i).  The
canonical integer encoding of an element is sum(coeffs[i] * p**i); element
iteration and "lexicographic" tie-breaking throughout the package follow this
encoding in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import (
    BaseNotSubfield,
    CompositeCharacteristic,
    ReducibleModulus,
    ZeroElement,
)
from .factorint import factor_integer, is_prime_int

# Conway polynomials, little-endian coefficient tuples over F_p.  Each entry
# was verified primitive (order test) and norm-compatible with its subfield
# entries before being frozen here.  Missing (p, k) pairs fall back to the
# lexicographically least primitive monic polynomial of degree k.
CONWAY_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
    (13, 1): (11, 1),
    (13, 2): (2, 12, 1),
}


def base_digits(v: int, base: int, k: int) -> list[int]:
    """The k little-endian base-`base` digits of v: the canonical decoding."""
    digits = []
    for _ in range(k):
        digits.append(v % base)
        v //= base
    return digits


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p; CompositeCharacteristic otherwise."""
    factors = factor_integer(q).factors if q >= 2 else ()
    if len(factors) != 1:
        raise CompositeCharacteristic(f"{q} is not a prime power")
    return factors[0]


# --- base-field coefficient-vector arithmetic (lists of ints mod p) ---

def _vec_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _vec_add(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return _vec_trim(out)


def _vec_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _vec_trim(out)


def _vec_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    r = list(a)
    _vec_trim(r)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        c = r[-1] * inv_lead % p
        d = len(r) - 1 - db
        q[d] = c
        for i in range(db + 1):
            r[d + i] = (r[d + i] - c * b[i]) % p
        _vec_trim(r)
    return q, r


def _vec_modpow(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _vec_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _vec_divmod(_vec_mul(result, acc, p), mod, p)[1]
        e >>= 1
        acc = _vec_divmod(_vec_mul(acc, acc, p), mod, p)[1]
    return result


def _vec_egcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Return (g, u) with u*a = g (mod b), g = gcd(a, b) normalized monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [1], []
    while r1:
        q, r = _vec_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _vec_add(u0, [(-v) % p for v in _vec_mul(q, u1, p)], p)
    if r0:
        inv_lead = pow(r0[-1], p - 2, p)
        r0 = [v * inv_lead % p for v in r0]
        u0 = [v * inv_lead % p for v in u0]
    return r0, u0


def _vec_is_irreducible(f: Sequence[int], p: int) -> bool:
    k = len(f) - 1
    if k < 1:
        return False
    x = [0, 1]
    if _vec_modpow(x, p ** k, f, p) != _vec_divmod(x, f, p)[1]:
        return False
    for ell in factor_integer(k).primes:
        t = _vec_modpow(x, p ** (k // ell), f, p)
        t = _vec_add(t, [0, p - 1], p)
        if len(_vec_egcd(t, f, p)[0]) - 1 != 0:
            return False
    return True


def _vec_is_primitive(f: Sequence[int], p: int) -> bool:
    k = len(f) - 1
    if f[0] == 0 or not _vec_is_irreducible(f, p):
        return False
    order = p ** k - 1
    for ell in factor_integer(order).primes:
        if _vec_modpow([0, 1], order // ell, f, p) == [1]:
            return False
    return True


@lru_cache(maxsize=None)
def _fallback_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least primitive monic polynomial of degree k over F_p."""
    for v in range(p ** k):
        coeffs = base_digits(v, p, k) + [1]
        if coeffs[0] != 0 and _vec_is_primitive(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no primitive polynomial found; unreachable for prime p")


@dataclass(frozen=True)
class FieldElement:
    """Element of a Field: immutable little-endian coefficient tuple over F_p."""

    owner: "Field"
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.owner.extension_degree:
            raise ValueError("coefficient vector length must equal the extension degree")

    @property
    def int_value(self) -> int:
        p = self.owner.characteristic
        v = 0
        for c in reversed(self.coeffs):
            v = v * p + c
        return v

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.owner.characteristic
        return FieldElement(self.owner, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.owner.characteristic
        return FieldElement(self.owner, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.owner.characteristic
        return FieldElement(self.owner, tuple((-a) % p for a in self.coeffs))

    def scale_int(self, c: int) -> "FieldElement":
        """Multiple by an integer scalar (acting through F_p)."""
        p = self.owner.characteristic
        c %= p
        return FieldElement(self.owner, tuple((a * c) % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.owner
        p = f.characteristic
        if f.extension_degree == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % p,))
        prod = _vec_mul(self.coeffs, other.coeffs, p)
        rem = _vec_divmod(prod, f._modulus_vec, p)[1] if len(prod) >= f.extension_degree + 1 else prod
        return f._from_vec(rem)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroElement("zero has no multiplicative inverse")
        f = self.owner
        p = f.characteristic
        if f.extension_degree == 1:
            return FieldElement(f, (pow(self.coeffs[0], p - 2, p),))
        g, u = _vec_egcd(_vec_trim(list(self.coeffs)), list(f._modulus_vec), p)
        if len(g) != 1:
            raise ZeroElement("element not invertible (modulus not irreducible?)")
        inv_g = pow(g[0], p - 2, p)
        return f._from_vec([v * inv_g % p for v in u])

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.owner.one()
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            acc = acc * acc
        return result

    def _check(self, other: "FieldElement") -> None:
        if self.owner != other.owner:
            raise ValueError("elements belong to different fields")

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"FieldElement({format_element(self)!r} in GF({self.owner.order}))"


@dataclass(frozen=True)
class Field:
    """F_{p^k} given by a monic irreducible modulus over F_p (absent for k=1)."""

    characteristic: int
    extension_degree: int
    _modulus_vec: tuple[int, ...]  # length k+1, monic; (0, 1) placeholder for k=1

    @property
    def order(self) -> int:
        return self.characteristic ** self.extension_degree

    @property
    def modulus_coeffs(self) -> Optional[tuple[int, ...]]:
        """Little-endian F_p coefficients of the modulus, or None for prime fields."""
        if self.extension_degree == 1:
            return None
        return self._modulus_vec

    def element(self, value) -> FieldElement:
        """Coerce an int (canonical encoding) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.owner != self:
                raise ValueError("element belongs to a different field")
            return value
        p = self.characteristic
        k = self.extension_degree
        if isinstance(value, int):
            return FieldElement(self, tuple(base_digits(value % self.order, p, k)))
        coeffs = [int(c) % p for c in value]
        if len(coeffs) > k:
            raise ValueError("coefficient vector too long")
        coeffs += [0] * (k - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def _from_vec(self, vec: Sequence[int]) -> FieldElement:
        k = self.extension_degree
        coeffs = list(vec[:k]) + [0] * (k - len(vec))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def gen(self) -> FieldElement:
        """The residue class of x, i.e. the power-basis generator a."""
        if self.extension_degree == 1:
            raise ValueError("prime fields have no power-basis generator")
        return self.element(self.characteristic)

    def elements(self) -> Iterator[FieldElement]:
        """All elements in ascending canonical integer encoding."""
        for v in range(self.order):
            yield self.element(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.characteristic == other.characteristic
            and self.extension_degree == other.extension_degree
            and self._modulus_vec == other._modulus_vec
        )

    def __hash__(self) -> int:
        return hash((self.characteristic, self.extension_degree, self._modulus_vec))

    def __repr__(self) -> str:
        if self.extension_degree == 1:
            return f"GF({self.characteristic})"
        return f"GF({self.characteristic}^{self.extension_degree})"


def make_prime_field(p: int) -> Field:
    """F_p for prime p."""
    if p < 2 or not is_prime_int(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    return Field(p, 1, (0, 1))


def make_extension_field(p: int, k: int, modulus: Optional[Sequence[int]] = None) -> Field:
    """F_{p^k}; modulus as little-endian F_p coefficients (monic, degree k).

    Without an explicit modulus the built-in Conway table is consulted, then
    the lexicographically least primitive monic polynomial of degree k.
    """
    if not is_prime_int(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if k == 1 and modulus is None:
        return make_prime_field(p)
    if modulus is None:
        vec = CONWAY_POLYNOMIALS.get((p, k)) or _fallback_modulus(p, k)
    else:
        vec = tuple(int(c) % p for c in modulus)
        if len(vec) != k + 1 or vec[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _vec_is_irreducible(vec, p):
            raise ReducibleModulus("supplied modulus is reducible")
    return Field(p, k, vec)


def make_field(order: int) -> Field:
    """F_q for a prime power q, with the default (Conway/fallback) modulus."""
    p, k = prime_power(order)
    return make_extension_field(p, k) if k > 1 else make_prime_field(p)


def subfield_degree(field: Field, base_order: int) -> int:
    """Degree j with base_order = p^j, requiring j | extension degree."""
    p = field.characteristic
    j = 0
    t = 1
    while t < base_order:
        t *= p
        j += 1
    if t != base_order or j == 0 or field.extension_degree % j != 0:
        raise BaseNotSubfield(f"GF({base_order}) is not a subfield of GF({field.order})")
    return j


def frobenius(x: FieldElement, base_order: int, i: int = 1) -> FieldElement:
    """x raised to base_order^i: the i-th power of the relative Frobenius."""
    field = x.owner
    j = subfield_degree(field, base_order)
    cycle = field.extension_degree // j
    i %= cycle
    if i == 0 or x.is_zero():
        return x
    return x ** (base_order ** i)


def subfield_maps(field: Field, base_order: int):
    """(base_field, embed, descend) realizing GF(base_order) inside `field`.

    embed: base element -> its image in `field`.
    descend: image -> base element; BaseNotSubfield if the value is outside
    the embedded copy.
    """
    p = field.characteristic
    k = field.extension_degree
    j = subfield_degree(field, base_order)
    if j == k:
        ident = lambda x: x
        return field, ident, ident
    if j == 1:
        base = make_prime_field(p)

        def embed1(c: FieldElement) -> FieldElement:
            return field.element([c.coeffs[0]])

        def descend1(x: FieldElement) -> FieldElement:
            if any(x.coeffs[1:]):
                raise BaseNotSubfield(f"{x.coeffs} is not a prime-field scalar")
            return base.element([x.coeffs[0]])

        return base, embed1, descend1

    base = make_extension_field(p, j)
    root = _subfield_generator_image(field, base)
    # power-basis coordinates of root^0..root^(j-1); columns of the descent system
    powers = [field.one()]
    for _ in range(j - 1):
        powers.append(powers[-1] * root)
    # row-reduce [cols | x] lazily: precompute the k x j coordinate matrix
    cols = [pw.coeffs for pw in powers]

    def embed_big(c: FieldElement) -> FieldElement:
        acc = field.zero()
        for i, ci in enumerate(c.coeffs):
            if ci:
                acc = acc + powers[i].scale_int(ci)
        return acc

    def descend_big(x: FieldElement) -> FieldElement:
        sol = _solve_mod_p(cols, x.coeffs, p, k, j)
        if sol is None:
            raise BaseNotSubfield(f"value {x.coeffs} lies outside GF({base_order})")
        return base.element(sol)

    return base, embed_big, descend_big


def _subfield_generator_image(field: Field, base: Field) -> FieldElement:
    """First root in `field` of the base field's modulus.

    The candidate scan runs over the cyclic subgroup of index
    (|field|-1)/(|base|-1) generated by gen (primitive for table/fallback
    moduli), falling back to a full element scan for custom moduli.
    """
    mod = base.modulus_coeffs
    p = field.characteristic

    def is_root(x: FieldElement) -> bool:
        acc = field.zero()
        pw = field.one()
        for c in mod:
            if c:
                acc = acc + pw.scale_int(c)
            pw = pw * x
        return acc.is_zero()

    stride = (field.order - 1) // (base.order - 1)
    g = field.gen() ** stride
    cur = field.one()
    best = None
    for _ in range(base.order - 1):
        if is_root(cur):
            enc = cur.int_value
            if best is None or enc < best[0]:
                best = (enc, cur)
        cur = cur * g
    if best is not None:
        return best[1]
    for x in field.elements():
        if not x.is_zero() and is_root(x):
            return x
    raise BaseNotSubfield("modulus of the base field has no root here")


def _solve_mod_p(cols, target, p: int, k: int, j: int):
    """Solve sum_i t_i * cols[i] = target over F_p; None if inconsistent."""
    aug = [[cols[c][r] if r < len(cols[c]) else 0 for c in range(j)]
           + [target[r] if r < len(target) else 0] for r in range(k)]
    pivots = []
    row = 0
    for col in range(j):
        pr = next((r for r in range(row, k) if aug[r][col] % p != 0), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        inv = pow(aug[row][col], -1, p)
        aug[row] = [(v * inv) % p for v in aug[row]]
        for r in range(k):
            if r != row and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, k):
        if aug[r][j] % p:
            return None
    sol = [0] * j
    for r, col in enumerate(pivots):
        sol[col] = aug[r][j]
    return sol


def format_element(x: FieldElement, gen_symbol: str = "a") -> str:
    """Render in the generator symbol, e.g. '2a^2+a+1', '0', '3'."""
    terms = []
    for i in range(len(x.coeffs) - 1, -1, -1):
        c = x.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            coeff = "" if c == 1 else str(c)
            power = gen_symbol if i == 1 else f"{gen_symbol}^{i}"
            terms.append(coeff + power)
    return "+".join(terms) if terms else "0"
