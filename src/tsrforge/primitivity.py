"""Irreducibility and primitivity testing with certificates.

A monic irreducible f of degree n over F_q is primitive when the residue
class of X generates the full multiplicative group of order q^n - 1.  By
Lidl & Niederreiter, *Finite Fields*, Thm 3.18, that holds iff the norm
N = (-1)^n f(0) is primitive in F_q and X has order r = (q^n - 1)/(q - 1)
modulo the constants F_q^*.  is_primitive_poly runs three stages on the
monic int list of f and the field's ops; each stage only rejects:

1. norm: N must generate F_q^* (vacuous for q = 2); no polynomial arithmetic;
2. is_irreducible: Rabin's test, with v -> v^q as the q-power (Frobenius)
   matrix whose rows are X^(qi) mod f, built from one X^q mod f and applied
   n times to X;
3. order: X^(r/l) mod f is not a constant for each prime l of r that does
   not divide q - 1.  Stage 1 settles the primes l of q - 1: once f is
   irreducible, X^r = N mod f, so X^((q^n-1)/l) = N^((q-1)/l).

The certificate witnesses X^((q^n-1)/l) mod f for every prime l | q^n - 1,
built only on accept: the constant N^((q-1)/l) when l | q - 1, else
(X^(r/l))^(q-1).  The non-monic case is accepted too: scaling f by a unit
fixes the ideal (f), so irreducibility and the order of X mod f are
unchanged.
"""

from dataclasses import dataclass

from .errors import BadDegree, CoefficientNotDescended, ZeroConstantTerm, ZeroElement
from .factorint import Factorization, factor_integer
from .fields import (Field, FieldElement, FieldOps, _trim, frobenius, int_poly_divrem,
                     int_poly_gcd, int_poly_modpow, int_poly_mul, int_pow, subfield_maps)
from .polys import Polynomial, _from_ints, _ints, format_poly


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


def _monic_ints(f: Polynomial, ops: FieldOps) -> list[int]:
    coeffs = _ints(f)
    if coeffs[-1] == 1:
        return coeffs
    inv_lead = ops.inv(coeffs[-1])
    return [ops.mul(c, inv_lead) for c in coeffs]


def _generates(a: int, q: int, ops: FieldOps) -> bool:
    """True iff the nonzero encoding a generates F_q^*: a^((q-1)/l) != 1 per prime l | q - 1."""
    return all(int_pow(a, (q - 1) // l, ops) != 1 for l in factor_integer(q - 1).primes)


def _frobenius_apply(v: list[int], rows: list[list[int]], ops: FieldOps) -> list[int]:
    """v^q mod f = sum of v_i X^(qi) mod f, since v_i^q = v_i in F_q."""
    add, mul = ops.add, ops.mul
    acc = [0] * len(rows)
    for c, row in zip(v, rows):
        if c:
            for j, y in enumerate(row):
                if y:
                    acc[j] = add(acc[j], mul(c, y))
    return _trim(acc)


def is_irreducible(f: Polynomial) -> bool:
    """Rabin test: X^(q^n) = X mod f and gcd(X^(q^(n/l)) - X, f) = 1 per prime l | n.

    X^(q^k) for k = 1..n comes from applying the q-power matrix to X k times.
    """
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise BadDegree("irreducibility is defined for degree >= 1")
    if n == 1:
        return True
    ops = f.field.ops
    fm = _monic_ints(f, ops)
    x_q = int_poly_modpow([0, 1], f.field.order, fm, ops)
    rows = [[1], x_q]  # rows[i] = X^(qi) mod f
    for _ in range(n - 2):
        rows.append(int_poly_divrem(int_poly_mul(rows[-1], x_q, ops), fm, ops)[1])
    checks = {n // l for l in factor_integer(n).primes}
    minus_one = ops.neg(1)
    v = x_q  # X^(q^k) mod f
    for k in range(1, n):
        if k in checks:
            h = v + [0] * (2 - len(v))  # v - X
            h[1] = ops.add(h[1], minus_one)
            if len(int_poly_gcd(h, fm, ops)) != 1:
                return False
        v = _frobenius_apply(v, rows, ops)
    return v == [0, 1]


def is_primitive_poly(f: Polynomial) -> tuple[bool, PrimitivityCertificate | None]:
    """(verdict, certificate): X mod f generates a group of order q^n - 1."""
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise BadDegree("primitivity is defined for degree >= 1")
    if f.constant_term.is_zero():
        raise ZeroConstantTerm("X divides f, so X mod f cannot generate")
    field = f.field
    q, ops = field.order, field.ops
    fm = _monic_ints(f, ops)
    norm = ops.neg(fm[0]) if n % 2 else fm[0]  # (-1)^n f(0) of the monic f
    if not _generates(norm, q, ops):
        return False, None
    if not is_irreducible(f):
        return False, None
    group_order = q ** n - 1
    factors = factor_integer(group_order)
    q1_primes = factor_integer(q - 1).primes
    r = group_order // (q - 1)
    powers = {}  # prime l of r but not of q - 1 -> X^(r/l) mod f
    for l in factors.primes:
        if l not in q1_primes:
            w = int_poly_modpow([0, 1], r // l, fm, ops)
            if len(w) == 1:
                return False, None
            powers[l] = w
    witnesses = tuple(
        (l, _from_ints(field, int_poly_modpow(powers[l], q - 1, fm, ops) if l in powers
                       else [int_pow(norm, (q - 1) // l, ops)]))
        for l in factors.primes)
    return True, PrimitivityCertificate(f, group_order, factors, witnesses)


def is_primitive_element(x: FieldElement) -> bool:
    """True iff x generates the multiplicative group of its field."""
    if x.is_zero():
        raise ZeroElement("zero is not in the multiplicative group")
    return _generates(x.int_value, x.owner.order, x.owner.ops)


def primitive_elements(field: Field) -> list:
    """Primitive elements in ascending canonical encoding."""
    return [x for x in field.elements() if not x.is_zero() and is_primitive_element(x)]


def minimal_polynomial(x: FieldElement, base_order: int) -> Polynomial:
    """Monic minimal polynomial of x over GF(base_order).

    Product of (X - y) over the Frobenius orbit {x, x^q, ...}, with the
    coefficients descended into the base field.
    """
    field = x.owner
    base, _, descend = subfield_maps(field, base_order)
    if x.is_zero():
        return Polynomial.x(base)
    orbit = [x]
    y = frobenius(x, base_order)
    while y != x:
        orbit.append(y)
        y = frobenius(y, base_order)
    prod = Polynomial.one(field)
    X = Polynomial.x(field)
    for y in orbit:
        prod = prod * (X - Polynomial.constant(field, y))
    return _descend_poly(prod, base, descend)


def conjugate_product(f: Polynomial, base_order: int) -> Polynomial:
    """Product of the m coefficient-Frobenius conjugates of f, over GF(base_order).

    m is the degree of f's field over the base; the product is Galois-fixed,
    so every coefficient descends.
    """
    field = f.field
    base, _, descend = subfield_maps(field, base_order)
    m = 0
    t = 1
    while t < field.order:
        t *= base_order
        m += 1
    prod = f
    g = f
    for _ in range(m - 1):
        g = Polynomial.make(field, [frobenius(c, base_order) for c in g.coeffs])
        prod = prod * g
    return _descend_poly(prod, base, descend, strict=True)


def _descend_poly(p: Polynomial, base: Field, descend, strict: bool = False) -> Polynomial:
    out = []
    for c in p.coeffs:
        try:
            out.append(descend(c))
        except Exception as exc:
            if strict:
                raise CoefficientNotDescended(
                    f"coefficient {c} of {format_poly(p)} is outside GF({base.order})"
                ) from exc
            raise
    return Polynomial.make(base, out)
