"""Irreducibility and primitivity testing with certificates.

A monic irreducible f of degree n over F_q is primitive when the residue
class of X generates the full multiplicative group of order q^n - 1; the
test checks X^((q^n-1)/l) != 1 for every prime l dividing q^n - 1.  The
non-monic case is accepted too: scaling f by a unit fixes the ideal (f),
so irreducibility and the order of X mod f are unchanged.
"""

from dataclasses import dataclass

from .errors import BadDegree, CoefficientNotDescended, ZeroConstantTerm, ZeroElement
from .factorint import Factorization, factor_integer
from .fields import Field, FieldElement, frobenius, subfield_maps
from .polys import Polynomial, format_poly, poly_gcd, poly_modpow


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


def is_irreducible(f: Polynomial) -> bool:
    """Rabin test: X^(q^n) = X mod f and gcd(X^(q^(n/l)) - X, f) = 1 per prime l | n."""
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise BadDegree("irreducibility is defined for degree >= 1")
    if n == 1:
        return True
    f = f.monic()
    field = f.field
    q = field.order
    X = Polynomial.x(field)
    for l in factor_integer(n).primes:
        h = poly_modpow(X, q ** (n // l), f) - X
        if poly_gcd(h, f).degree != 0:
            return False
    return poly_modpow(X, q ** n, f) == X


def is_primitive_poly(f: Polynomial) -> tuple[bool, PrimitivityCertificate | None]:
    """(verdict, certificate): X mod f generates a group of order q^n - 1."""
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise BadDegree("primitivity is defined for degree >= 1")
    if f.constant_term.is_zero():
        raise ZeroConstantTerm("X divides f, so X mod f cannot generate")
    if not is_irreducible(f):
        return False, None
    field = f.field
    q = field.order
    group_order = q ** n - 1
    factors = factor_integer(group_order)
    fm = f.monic()
    X = Polynomial.x(field)
    one = Polynomial.one(field)
    witnesses = []
    for l in factors.primes:
        w = poly_modpow(X, group_order // l, fm)
        if w == one:
            return False, None
        witnesses.append((l, w))
    return True, PrimitivityCertificate(f, group_order, factors, tuple(witnesses))


def is_primitive_element(x: FieldElement) -> bool:
    """True iff x generates the multiplicative group of its field."""
    if x.is_zero():
        raise ZeroElement("zero is not in the multiplicative group")
    group_order = x.owner.order - 1
    if group_order == 1:
        return True
    one = x.owner.one()
    for l in factor_integer(group_order).primes:
        if x ** (group_order // l) == one:
            return False
    return True


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
