"""Irreducibility and primitivity testing with certificates.

A monic irreducible f of degree n over F_q is primitive when the residue
class of X generates the full multiplicative group of order q^n - 1.  By
Lidl & Niederreiter, *Finite Fields*, Thm 3.18, that holds iff the norm
N = (-1)^n f(0) is primitive in F_q and X has order r = (q^n - 1)/(q - 1)
modulo the constants F_q^*.  is_primitive_poly runs three stages on the
int list of f and the field's ops; each stage only rejects.  What a stage
needs of (q, n) alone is memoised per (q, n): _plan holds stages 1-2's
exponents, _order_plan stage 3's q^n - 1, its factorization and cofactors.

1. norm: N must generate F_q^* (vacuous for q = 2); no polynomial arithmetic;
2. is_irreducible: Rabin's test, X^(q^k) mod f by k q-power steps on X in a
   ring F_q[X]/(f) of the field's kernel (see kernel.py).  Over a prime
   field the ring is packed and a step is the power v^p, so over F_2 one
   squaring; over F_{p^k} a step applies the q-power (Frobenius) matrix,
   whose rows X^(qi) mod f are built from one X^q mod f;
3. order: X^(r/l) mod f is not a constant for each prime l of r that does
   not divide q - 1.  Stage 1 settles the primes l of q - 1: once f is
   irreducible, X^r = N mod f, so X^((q^n-1)/l) = N^((q-1)/l).  X^(r/l) comes
   from Rabin's conjugates by Straus interleaving: the ring keeps stage 2's
   X^(q^i) mod f, and X^(r/l) = prod (X^(q^i))^(d_i) for r/l = sum d_i q^i.

The certificate witnesses X^((q^n-1)/l) mod f for every prime l | q^n - 1,
built on accept when they are first read: the constant N^((q-1)/l) when
l | q - 1, else (X^(r/l))^(q-1).  The non-monic case is accepted too:
scaling f by a unit fixes the ideal (f), so irreducibility and the order
of X mod f are unchanged.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

from .errors import (BadDegree, BaseNotSubfield, CoefficientNotDescended, ZeroConstantTerm,
                     ZeroElement)
from .factorint import Factorization, factor_integer
from .fields import (Field, FieldElement, _format_int, _subfield_ints, conjugates, int_pow,
                     subfield_degree)
from .kernel import FieldOps
from .polys import Polynomial, format_poly


@dataclass(frozen=True)
class PrimitivityCertificate:
    """Witnesses that X mod poly has full order q^deg - 1."""

    poly: Polynomial
    group_order: int
    factors: Factorization
    witnesses: tuple[tuple[int, Polynomial], ...]  # (prime l, X^((q^n-1)/l) mod poly)

    def to_json(self) -> dict:
        return {
            "poly": format_poly(self.poly),
            "field_order": self.poly.field.order,
            "group_order": self.group_order,
            "factors": [[p, e] for p, e in self.factors.factors],
            "witnesses": {str(l): format_poly(w) for l, w in self.witnesses},
        }


_FIELDS = attrgetter("poly", "group_order", "factors", "witnesses")


class _LazyCertificate(PrimitivityCertificate):
    """A certificate whose witnesses _witnesses builds on first read from the
    ring of f, the norm N and the powers X^(r/l) mod f, dropped once built.  It
    pickles, copies, compares, hashes and prints as the eager certificate with
    the same fields; dataclasses.replace passes the witnesses in."""

    def __init__(self, poly, group_order, factors, witnesses=None, *, inputs=None):
        self.__dict__.update(poly=poly, group_order=group_order, factors=factors, _inputs=inputs)
        if witnesses is not None:
            self.__dict__["witnesses"] = witnesses

    @cached_property
    def witnesses(self) -> tuple[tuple[int, Polynomial], ...]:
        return _witnesses(self.poly.field, *self.__dict__.pop("_inputs"), self.factors)

    def __eq__(self, other):
        return _FIELDS(self) == _FIELDS(other) if isinstance(other, PrimitivityCertificate) else NotImplemented

    __hash__ = PrimitivityCertificate.__hash__

    def __repr__(self) -> str:
        return repr(PrimitivityCertificate(*_FIELDS(self)))

    def __reduce__(self):
        return PrimitivityCertificate, _FIELDS(self)


@lru_cache(maxsize=1)
def _ring(kernel, f: tuple[int, ...]):
    """The kernel's ring F_q[X]/(f), which divides f by its lead.  The last one
    is kept, so is_primitive_poly and its is_irreducible call build one ring."""
    return kernel.ring(f)


@lru_cache(maxsize=4096)
def _plan(q: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Stages 1-2 at (q, n), constants of the field and degree: the norm exponents
    (q - 1)/l per prime l | q - 1, and Rabin's k = n/l per prime l | n, ascending."""
    return (tuple((q - 1) // l for l in factor_integer(q - 1).primes),
            tuple(sorted(n // l for l in factor_integer(n).primes)))


@lru_cache(maxsize=4096)
def _order_plan(q: int, n: int) -> tuple[int, Factorization, tuple[tuple[int, int], ...]]:
    """Stage 3 at (q, n): q^n - 1, its factorization and (l, r/l) for r = (q^n - 1)/(q - 1)
    and each prime l of r not dividing q - 1.  Read only once f is irreducible, so a
    q^n - 1 past the factorization bound is refused only then."""
    group_order = q ** n - 1
    factors = factor_integer(group_order)
    q1_primes, r = factor_integer(q - 1).primes, group_order // (q - 1)
    return group_order, factors, tuple((l, r // l) for l in factors.primes if l not in q1_primes)


def _generates(a: int, q: int, ops: FieldOps) -> bool:
    """True iff the nonzero encoding a generates F_q^*: a^((q-1)/l) != 1 per prime l | q - 1."""
    return all(int_pow(a, e, ops) != 1 for e in _plan(q, 1)[0])


def is_irreducible(f: Polynomial) -> bool:
    """Rabin test: X^(q^n) = X mod f and gcd(X^(q^(n/l)) - X, f) = 1 per prime l | n.

    X^(q^k) for k = 1..n is the ring's chain of q-power steps, kept for stage 3.
    """
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise BadDegree("irreducibility is defined for degree >= 1")
    if n == 1:
        return True
    field = f.field
    ring = _ring(field.ops.kernel, f.ints)
    for k in _plan(field.order, n)[1]:
        if ring.gcd(ring.conjugate(k), ring.x) != ring.one:  # gcd(X^(q^k) - X, f)
            return False
    return ring.conjugate(n) == ring.x


def is_primitive_poly(f: Polynomial) -> tuple[bool, PrimitivityCertificate | None]:
    """(verdict, certificate): X mod f generates a group of order q^n - 1.

    The certificate builds its witnesses when they are first read, so a
    caller that keeps only the verdict never computes them.
    """
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise BadDegree("primitivity is defined for degree >= 1")
    if not f.ints[0]:
        raise ZeroConstantTerm("X divides f, so X mod f cannot generate")
    field = f.field
    q, ops = field.order, field.ops
    c0, lead = f.ints[0], f.ints[-1]
    if lead != 1:
        c0 = ops.mul(c0, ops.inv(lead))  # f(0) of the monic f
    norm = ops.neg(c0) if n % 2 else c0  # (-1)^n f(0)
    if not _generates(norm, q, ops):
        return False, None
    if not is_irreducible(f):
        return False, None
    group_order, factors, cofactors = _order_plan(q, n)
    ring = _ring(ops.kernel, f.ints)
    powers = {}  # prime l of r but not of q - 1 -> X^(r/l) mod f
    for l, e in cofactors:
        w = ring.xpow(e)
        if len(ring.list(w)) == 1:
            return False, None
        powers[l] = w
    return True, _LazyCertificate(f, group_order, factors, inputs=(ring, norm, powers))


def _witnesses(field: Field, ring, norm: int, powers: dict, factors: Factorization) -> tuple:
    """X^((q^n-1)/l) mod f per prime l: N^((q-1)/l) when l | q - 1, else (X^(r/l))^(q-1)."""
    q, ops = field.order, field.ops
    return tuple((l, Polynomial(field, tuple(ring.list(ring.pow(powers[l], q - 1))) if l in powers
                                else (int_pow(norm, (q - 1) // l, ops),)))
                 for l in factors.primes)


def is_primitive_element(x: FieldElement) -> bool:
    """True iff x generates the multiplicative group of its field."""
    if x.is_zero():
        raise ZeroElement("zero is not in the multiplicative group")
    return _generates(x.int_value, x.owner.order, x.owner.ops)


def primitive_elements(field: Field) -> list:
    """Primitive elements in ascending canonical encoding; x and x^p have the
    same order, so one test decides each orbit of x -> x^p."""
    q, ops = field.order, field.ops
    verdict = bytearray(q)  # 0 unseen, 1 not primitive, 2 primitive
    for x in range(1, q):
        if not verdict[x]:
            v = 1 + _generates(x, q, ops)
            for y in conjugates(x, field.characteristic, ops, field.extension_degree):
                verdict[y] = v
    return [field.element(x) for x in range(1, q) if verdict[x] == 2]


def minimal_polynomial(x: FieldElement, base_order: int) -> Polynomial:
    """Monic minimal polynomial of x over GF(base_order).

    Product of (X - y) over the Frobenius orbit {x, x^q, ...}, a linear factor at
    a time on the field's ops, with the coefficients descended into the base field.
    """
    field = x.owner
    base, _, down = _subfield_ints(field, base_order)
    if x.is_zero():
        return Polynomial.x(base)
    ops, prod = field.ops, [1]
    for y in conjugates(x.int_value, base_order, ops, field.extension_degree):
        prod = [ops.add(a, ops.mul(ops.neg(y), b)) for a, b in zip([0] + prod, prod + [0])]  # (X - y) prod
    return _descend_poly(Polynomial(field, tuple(prod)), base, down)


def conjugate_product(f: Polynomial, base_order: int) -> Polynomial:
    """Product of the m coefficient-Frobenius conjugates of f, over GF(base_order).

    m is the degree of f's field over the base; the product is Galois-fixed,
    so every coefficient descends.
    """
    field = f.field
    base, _, down = _subfield_ints(field, base_order)
    m = field.extension_degree // subfield_degree(field, base_order)
    ops, prod, g = field.ops, f.ints, f.ints
    for _ in range(m - 1):
        g = [int_pow(c, base_order, ops) for c in g]
        prod = ops.kernel.mul(prod, g)
    return _descend_poly(Polynomial(field, tuple(prod)), base, down)


def _descend_poly(p: Polynomial, base: Field, down) -> Polynomial:
    out = []
    for v in p.ints:
        try:
            out.append(down(v))
        except BaseNotSubfield as exc:
            raise CoefficientNotDescended(
                f"coefficient {_format_int(v, p.field)} of {format_poly(p)} is outside GF({base.order})"
            ) from exc
    return Polynomial(base, tuple(out))
