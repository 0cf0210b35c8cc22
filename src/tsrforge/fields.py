"""Prime and extension finite fields with exact element arithmetic.

Elements of F_{p^k} are coefficient vectors of length k over F_p in the power
basis of the modulus root, little-endian (index i multiplies a^i).  An element
is stored as its canonical integer encoding sum(coeffs[i] * p**i), and its
field's ops are its only arithmetic; element iteration and "lexicographic"
tie-breaking throughout the package follow this encoding in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import and_, pos, xor
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    BaseNotSubfield,
    CompositeCharacteristic,
    ExistenceViolation,
    ReducibleModulus,
    ZeroElement,
)
from .factorint import factor_integer, is_prime_int
from .guards import check_enumeration
from .kernel import FieldOps, _encode, _kernel, base_digits, power

# Conway polynomials, little-endian coefficient tuples over F_p.  Each entry
# was verified primitive (order test) and norm-compatible with its subfield
# entries before being frozen here.  Missing (p, k) pairs fall back to the
# lexicographically least primitive monic polynomial of degree k.
CONWAY_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
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
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
}


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p; CompositeCharacteristic otherwise."""
    factors = factor_integer(q).factors if q >= 2 else ()
    if len(factors) != 1:
        raise CompositeCharacteristic(f"{q} is not a prime power")
    return factors[0]


TABLE_MAX_ORDER = 1 << 16  # extension fields up to this order multiply by exp/log tables


def int_pow(a: int, e: int, ops: FieldOps) -> int:
    """a^e on canonical encodings; e >= 0."""
    return power(a, e, ops.mul, 1)


def conjugates(x: int, e: int, ops: FieldOps, limit: int) -> list[int]:
    """The orbit x, x^e, x^(e^2), ... of the canonical int x under y -> y^e, up
    to its return to x; ExistenceViolation if it has not closed after `limit` steps."""
    mul, orbit = ops.mul, [x]
    y = power(x, e, mul, 1)
    while y != x:
        if len(orbit) >= limit:
            raise ExistenceViolation(f"orbit of {x} under y -> y^{e} does not close after {limit} steps")
        orbit.append(y)
        y = power(y, e, mul, 1)
    return orbit


@lru_cache(maxsize=None)
def _field_ops(p: int, k: int, modulus: tuple[int, ...]) -> FieldOps:
    """F_p by % p; F_{p^k} by exp/log tables up to TABLE_MAX_ORDER, else by element_ops
    of the packed polynomial kernel on its modulus (kernel.py), which every field carries."""
    kernel = _kernel(p, 8, modulus)
    if k > 1:
        ops = _table_ops(p, k, modulus) if p ** k <= TABLE_MAX_ORDER else kernel.element_ops()
    else:
        ops = (xor, pos, and_, pos) if p == 2 else (lambda a, b: (a + b) % p, lambda a: -a % p,
                                                    lambda a, b: a * b % p, lambda a: pow(a, p - 2, p))
    return FieldOps(*ops, kernel)


def _table_ops(p: int, k: int, modulus: tuple[int, ...]):
    """(add, neg, mul, inv) by exp/log on a primitive element g; addition by XOR (p = 2) or a Zech table.

    log[0] is a sentinel past every sum of two logs of nonzero elements, and
    exp holds zeros from there on, so a product with 0 needs no branch.
    exp, log and zech each have O(q) entries.
    """
    n = p ** k - 1
    powers = _generator_powers(p, k, modulus)
    zero_log = 2 * n - 1
    log = [zero_log] * (n + 1)
    for i, v in enumerate(powers):
        log[v] = i
    exp = powers + powers[:-1] + [0] * (2 * n)

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]]

    def inv(a: int) -> int:
        return exp[n - log[a]]

    if p == 2:
        return xor, pos, mul, inv
    half = n // 2  # g^half = -1 in odd characteristic
    # zech[d] = log(1 + g^d); 1 + v only changes the lowest base-p digit of v.
    # A negative d indexes zech[n + d], which is d mod n.
    zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in powers]

    def add(a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def neg(a: int) -> int:
        return exp[log[a] + half]

    return add, neg, mul, inv


def _generator_powers(p: int, k: int, modulus: tuple[int, ...]) -> list[int]:
    """g^0 .. g^(q-2) for a primitive g: x when the modulus is primitive, else the least one."""
    q = p ** k
    for g in [p] + [v for v in range(2, q) if v != p]:
        step = _times_x(p, k, modulus) if g == p else partial(_kernel(p, 8, modulus).element_ops()[2], g)
        powers = [1]
        v = step(1)
        while v != 1 and len(powers) < q - 1:
            powers.append(v)
            v = step(v)
        if v == 1 and len(powers) == q - 1:
            return powers
    raise ReducibleModulus("no primitive element; the modulus is not irreducible")


def _times_x(p: int, k: int, modulus: tuple[int, ...]) -> Callable[[int], int]:
    """v -> v*x on canonical encodings: shift the digits up, fold x^k back by the modulus."""
    top = p ** (k - 1)
    if p == 2:
        mask = _encode(modulus, 2)
        return lambda v: (v << 1) ^ mask if v >= top else v << 1
    # fold[t] = digits of -t * (modulus - x^k)
    fold = [[-t * c % p for c in modulus[:-1]] for t in range(p)]

    def times_x(v: int) -> int:
        t, low = divmod(v, top)
        shifted = base_digits(low * p, p, k)
        return _encode([(a + b) % p for a, b in zip(shifted, fold[t])], p)

    return times_x


@lru_cache(maxsize=None)
def _fallback_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least primitive monic polynomial of degree k over F_p."""
    from .search import _iter_primitive

    return next(_iter_primitive(make_prime_field(p), k)).ints


@dataclass(frozen=True)
class FieldElement:
    """Element of a Field, stored as its canonical integer encoding."""

    owner: "Field"
    int_value: int

    def __post_init__(self):
        if not 0 <= self.int_value < self.owner.order:
            raise ValueError(f"encoding {self.int_value} is outside GF({self.owner.order})")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Little-endian coefficient vector over F_p."""
        f = self.owner
        return tuple(base_digits(self.int_value, f.characteristic, f.extension_degree))

    def is_zero(self) -> bool:
        return not self.int_value

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.owner
        return FieldElement(f, f.ops.add(self.int_value, other.int_value))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        ops = self.owner.ops
        return FieldElement(self.owner, ops.add(self.int_value, ops.neg(other.int_value)))

    def __neg__(self) -> "FieldElement":
        f = self.owner
        return FieldElement(f, f.ops.neg(self.int_value))

    def scale_int(self, c: int) -> "FieldElement":
        """Multiple by an integer scalar (acting through F_p)."""
        f = self.owner
        return FieldElement(f, f.ops.mul(self.int_value, c % f.characteristic))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.owner
        return FieldElement(f, f.ops.mul(self.int_value, other.int_value))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroElement("zero has no multiplicative inverse")
        f = self.owner
        return FieldElement(f, f.ops.inv(self.int_value))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        f = self.owner
        return FieldElement(f, int_pow(self.int_value, e, f.ops))

    def _check(self, other: "FieldElement") -> None:
        if self.owner is not other.owner and self.owner != other.owner:
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

    @cached_property
    def order(self) -> int:
        return self.characteristic ** self.extension_degree

    @cached_property
    def ops(self) -> FieldOps:
        """add, neg, mul and inv on canonical encodings, built once per equal field."""
        return _field_ops(self.characteristic, self.extension_degree, self._modulus_vec)

    def __getstate__(self):  # ops hold closures and memos; they are rebuilt from p, k and the modulus
        return {k: v for k, v in self.__dict__.items() if k != "ops"}

    @property
    def modulus_coeffs(self) -> Optional[tuple[int, ...]]:
        """Little-endian F_p coefficients of the modulus, or None for prime fields."""
        if self.extension_degree == 1:
            return None
        return self._modulus_vec

    def element(self, value) -> FieldElement:
        """Coerce an int (canonical encoding) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.owner is not self and value.owner != self:
                raise ValueError("element belongs to a different field")
            return value
        p = self.characteristic
        k = self.extension_degree
        if isinstance(value, int):
            return FieldElement(self, value % self.order)
        coeffs = [int(c) % p for c in value]
        if len(coeffs) > k:
            raise ValueError("coefficient vector too long")
        return FieldElement(self, _encode(coeffs, p))

    @cached_property
    def _zero_one(self) -> tuple[FieldElement, FieldElement]:
        """Zero and one, built once per Field object and shared."""
        return FieldElement(self, 0), FieldElement(self, 1)

    def zero(self) -> FieldElement:
        return self._zero_one[0]

    def one(self) -> FieldElement:
        return self._zero_one[1]

    def gen(self) -> FieldElement:
        """The residue class of x, i.e. the power-basis generator a."""
        if self.extension_degree == 1:
            raise ValueError("prime fields have no power-basis generator")
        return self.element(self.characteristic)

    def elements(self) -> Iterator[FieldElement]:
        """All elements in ascending canonical integer encoding."""
        for v in range(self.order):
            yield self.element(v)

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
    if modulus is not None:
        vec = tuple(int(c) % p for c in modulus)
        if len(vec) != k + 1 or vec[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
    if k == 1:
        return make_prime_field(p)
    if modulus is None:
        vec = CONWAY_POLYNOMIALS.get((p, k)) or _fallback_modulus(p, k)
    else:
        from .polys import Polynomial
        from .primitivity import is_irreducible

        if not is_irreducible(Polynomial.make(make_prime_field(p), vec)):
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


def subfield_maps(field: Field, base_order: int):
    """(base_field, embed, descend) realizing GF(base_order) inside `field`.

    embed: base element -> its image in `field`.
    descend: image -> base element; BaseNotSubfield if the value is outside
    the embedded copy.  Both wrap the int maps of _subfield_ints.
    """
    base, up, down = _subfield_ints(field, base_order)
    if base is field:
        ident = lambda x: x
        return field, ident, ident
    return (base, lambda c: FieldElement(field, up(c.int_value)),
            lambda x: FieldElement(base, down(x.int_value)))


def _subfield_ints(field: Field, base_order: int):
    """(base_field, up, down): subfield_maps on canonical ints, base -> field and back."""
    p, k = field.characteristic, field.extension_degree
    j = subfield_degree(field, base_order)
    if j == k:
        return field, pos, pos
    if j == 1:  # a prime-field scalar is an encoding below p in every extension
        def down1(v: int) -> int:
            if v >= p:
                raise BaseNotSubfield(f"{tuple(base_digits(v, p, k))} is not a prime-field scalar")
            return v

        return make_prime_field(p), pos, down1
    base = make_extension_field(p, j)
    check_enumeration(base.order, "subfield table")
    up, down = _subfield_tables(field, base)

    def down_big(v: int) -> int:
        if v not in down:
            raise BaseNotSubfield(f"value {tuple(base_digits(v, p, k))} lies outside GF({base_order})")
        return down[v]

    return base, up.__getitem__, down_big


@lru_cache(maxsize=None)
def _subfield_tables(field: Field, base: Field) -> tuple[list[int], dict[int, int]]:
    """(up, down): base -> field as a list and its inverse as a dict, once per (field, base)."""
    # base.gen() is primitive, so gen^i -> root^i over the units is the embedding
    root = least_root(field, base.modulus_coeffs, field.characteristic)
    if root is None:
        raise BaseNotSubfield("modulus of the base field has no root here")
    gen, bmul, fmul = base.gen().int_value, base.ops.mul, field.ops.mul
    up, down, b, x = [0] * base.order, {0: 0}, 1, 1
    for _ in range(base.order - 1):
        up[b], down[x] = x, b
        b, x = bmul(b, gen), fmul(x, root)
    if x != 1 or len(down) != base.order:
        raise BaseNotSubfield(f"powers of {root} do not close after {base.order - 1} steps")
    return up, down


def least_root(field: Field, coeffs: Sequence[int], base_order: int) -> Optional[int]:
    """Least root in `field` of the polynomial with canonical-int coefficients
    `coeffs` (little-endian, in `field`), irreducible over GF(base_order).

    Berlekamp's trace splitting on the field's kernel: for beta = a^1 .. a^(k-1),
    the gcds of f with Tr(beta X) - c mod f, c in F_p, split the roots r by
    Tr(beta r), and f becomes a proper factor of least degree.  Conjugate
    roots share Tr(r), but the trace form is nondegenerate, so some a^i
    separates any two, and f ends as X - r.  The roots are r's base_order-power
    conjugates; the least is returned, or None when f does not end linear.
    """
    ops, p, k = field.ops, field.characteristic, field.extension_degree
    lead = ops.inv(coeffs[-1])
    f = [ops.mul(c, lead) for c in coeffs]
    for i in range(1, k):  # beta = a^i
        if len(f) <= 2:
            break
        ring = ops.kernel.ring(f)
        v = t = ring.reduce([0, p ** i])
        for _ in range(k - 1):  # t = v + v^p + ... + v^(p^(k-1)), v = beta X
            v = ring.pow(v, p)
            t = ring.add(t, v)
        parts = [g for c in range(p) if len(g := ring.list(ring.gcd(t, c))) > 1]  # c: a constant residue
        f = min(parts, key=len, default=f)
    return min(conjugates(ops.neg(f[0]), base_order, ops, k)) if len(f) == 2 else None


def format_element(x: FieldElement) -> str:
    """Render in the generator symbol a, e.g. '2a^2+a+1', '0', '3'."""
    return _format_int(x.int_value, x.owner)


def _format_int(v: int, field: Field) -> str:
    """format_element of the canonical int v of field, without building the element."""
    p = field.characteristic
    if v < p:
        return str(v)
    digits = base_digits(v, p, field.extension_degree)
    terms = [("" if c == 1 else str(c)) + ("a" if i == 1 else f"a^{i}") for i, c in enumerate(digits) if c and i]
    return "+".join(terms[::-1] + ([str(digits[0])] if digits[0] else []))
