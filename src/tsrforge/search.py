"""Primitive-register search and the two census conjectures.

The search walks (f, g) pairs: f a monic primitive polynomial of degree m
over F_q, g monic of degree n with g(0) = 0, accepting when f(g(X)) is
primitive of degree mn.  From a hit it assembles the register directly:
alpha is the residue class of X in F_q[X]/(f), lam = alpha^{-1}, the monic
reciprocal of g - alpha is X^n - lam*L(X) whose tail L supplies the taps,
and B is the companion matrix of the minimal polynomial of lam.  The
characteristic polynomial is replayed as the product of coefficient
conjugates of X^n - lam*L(X), which equals the monic reciprocal of f(g(X))
in every characteristic (over F_2 the signs collapse to the usual ones).
"""

from dataclasses import dataclass

from .errors import (BadDegree, BudgetExhausted, ExistenceViolation,
                     InvalidParity, ZeroConstantTerm)
from .counting import _fiber, _orbit_leads, check_shape
from .factorint import is_prime_int
from .fields import (Field, _subfield_ints, base_digits, least_root, make_extension_field,
                     make_field, prime_power, subfield_maps)
from .guards import check_field, guarded_power
from .matrices import Matrix, companion_matrix
from .parallel import first_hit
from .polys import Polynomial
from .primitivity import (PrimitivityCertificate, _generates, conjugate_product,
                          is_primitive_element, is_primitive_poly,
                          minimal_polynomial, primitive_elements)
from .tsr import TsrSpec, tsr_charpoly_formula


@dataclass(frozen=True)
class SearchProvenance:
    """Intermediates of the nine search steps."""

    f: Polynomial
    g: Polynomial
    alpha: object
    lam: object
    step5: Polynomial
    h: Polynomial
    A: Matrix
    step8: Polynomial


@dataclass(frozen=True)
class SearchResult:
    spec: TsrSpec
    charpoly: Polynomial
    certificate: PrimitivityCertificate
    provenance: SearchProvenance


@dataclass(frozen=True)
class ConjectureWitness:
    q: int
    m: int
    n: int
    witness: object
    found: bool
    candidates_tried: int
    form: str
    converted: object = None
    conversion_ok: bool = False


def reciprocal(k: Polynomial, degree_hint: int) -> Polynomial:
    """Monic reversal X^d * k(1/X) within ambient degree d = degree_hint."""
    if k.is_zero() or not k.ints[0]:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    if degree_hint < k.degree:
        raise BadDegree(f"ambient degree {degree_hint} below deg k = {k.degree}")
    return Polynomial(k.field, (0,) * (degree_hint - k.degree) + k.ints[::-1]).monic()


def primitive_polys(field: Field, degree: int) -> list[Polynomial]:
    """Monic primitive polynomials of the given degree, ascending."""
    return list(_iter_primitive(field, degree))


def _alpha_field(q: int, m: int, f: Polynomial):
    """(F_q[X]/(f), alpha, up): alpha is the class of X (a root of f), up embeds canonical ints of F_q.

    For prime q and m > 1 the quotient is built with f itself as the modulus,
    so alpha is literally the generator.  Otherwise alpha is the least root of
    f in the standard F_{q^m}, split out by fields.least_root (-f(0) for m = 1).
    """
    if m > 1 and is_prime_int(q):
        field = make_extension_field(q, m, modulus=f.ints)
        return field, field.gen(), _subfield_ints(field, q)[1]
    field = make_field(q ** m)
    up = _subfield_ints(field, q)[1]
    alpha = least_root(field, [up(c) for c in f.ints], q)
    if alpha is None:
        raise ExistenceViolation("a primitive polynomial must split in its splitting field")
    return field, field.element(alpha), up


def search_primitive_tsr(q: int, m: int, n: int, budget: int | None = None,
                         allow_even_n: bool = False) -> SearchResult:
    """First (f, g) hit in scan order, assembled into a primitive register."""
    check_shape(m, n)
    _check_budget(budget)
    if q >= 3 and n % 2 == 0 and not allow_even_n:
        raise InvalidParity(f"n = {n} even is out of scope for q = {q} >= 3")
    check_field(guarded_power(q, m, "block field"), "block field")
    check_field(guarded_power(q, n, "tap space"), "tap space")
    base = make_field(q)
    hit, tried, _ = _composition_scan(base, m, n, budget)
    if hit is None:
        raise BudgetExhausted(f"no primitive register found after {tried} candidate pairs", tried)
    return _assemble(q, m, n, base, *hit)


def _composition_scan(base: Field, m: int, n: int, budget: int | None):
    """(hit, tried, stopped) for the first (f, g) in scan order with f(g(X)) primitive.

    f runs over the monic primitive polynomials of degree m ascending and, for
    each f, g over the monic g of degree n with g(0) = 0 ascending, probed
    through first_hit.  A probe tests the monic reciprocal of f(g(X)), the
    register's characteristic polynomial, primitive exactly when f(g(X)) is.
    hit is (f, g, its certificate) or None, tried counts the pairs tested, and
    stopped is True when the budget ran out while untested pairs remained.
    """
    kernel, g_total, tried = base.ops.kernel, guarded_power(base.order, n - 1, "candidate space"), 0
    for f in _iter_primitive(base, m):
        remaining = g_total if budget is None else min(g_total, budget - tried)
        if remaining <= 0:
            return None, tried, True

        def probe(idx):
            # g is built when probed: the scan usually hits long before g_total
            g = (0, *base_digits(idx, base.order, n - 1), 1)
            ok, cert = is_primitive_poly(reciprocal(Polynomial(base, tuple(kernel.compose(f.ints, g))), m * n))
            return (Polynomial(base, g), cert) if ok else None

        hit = first_hit(probe, remaining)
        if hit is not None:
            return (f, *hit[1]), tried + hit[0] + 1, False
        tried += remaining
        if remaining < g_total:
            return None, tried, True
    return None, tried, False


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"budget = {budget} must be >= 0")


def _iter_primitive(field: Field, degree: int):
    """Monic primitive polynomials of exact degree, ascending by coefficient encoding; the constant
    term c0, the lowest digit, runs over the c0 whose norm (-1)^degree c0 is primitive."""
    if degree < 1:
        raise BadDegree("primitivity is defined for degree >= 1")
    q, ops = field.order, field.ops
    c0s = [c for c in range(1, q) if _generates(ops.neg(c) if degree % 2 else c, q, ops)]
    for enc in range(q ** (degree - 1)):
        upper = (*base_digits(enc, q, degree - 1), 1)
        for c0 in c0s:
            f = Polynomial(field, (c0, *upper))
            if is_primitive_poly(f)[0]:
                yield f


def _assemble(q: int, m: int, n: int, base: Field, f: Polynomial, g: Polynomial,
              cert: PrimitivityCertificate) -> SearchResult:
    big, alpha, up = _alpha_field(q, m, f)
    lam = alpha.inverse()
    k = [up(c) for c in g.ints]  # g - alpha over F_{q^m}
    k[0] = big.ops.add(k[0], big.ops.neg(alpha.int_value))
    step5 = reciprocal(Polynomial(big, tuple(k)), n)
    h = minimal_polynomial(lam, q)
    A = companion_matrix(h)
    # taps read from L = X^n g(1/X): L_i = g_{n-i}, L_0 = 1 since g is monic
    taps = tuple(g.coeff(n - i) for i in range(1, n))
    spec = TsrSpec(base, m, n, taps, A)
    charpoly = tsr_charpoly_formula(spec)
    step8 = conjugate_product(step5, q)
    if step8 != charpoly:
        raise ExistenceViolation("conjugate-product replay must reproduce the characteristic polynomial")
    if cert.poly != charpoly:  # cert: the probe's test of the monic reciprocal of f(g(X))
        raise ExistenceViolation("characteristic polynomial must be the monic reciprocal of f(g(X))")
    prov = SearchProvenance(f, g, alpha, lam, step5, h, A, step8)
    return SearchResult(spec, charpoly, cert, prov)


def verify_conjecture(q: int, m: int, n: int, form: str, budget: int | None = None) -> ConjectureWitness:
    """Scan for a witness in one form, then convert it to the other and re-verify.

    direct: some g(X) + lam over F_{q^m} is primitive, with g over F_q of
    degree n (any leading coefficient), g(0) = 0, lam primitive.
    composition: some f(g(X)) is primitive of degree mn over F_q, with f
    monic primitive of degree m and g monic of degree n, g(0) = 0.
    """
    check_shape(m, n)
    _check_budget(budget)
    prime_power(q)  # both forms name a bad q before sizing F_{q^m}
    if form == "direct":
        return _verify_direct(q, m, n, budget)
    if form == "composition":
        return _verify_composition(q, m, n, budget)
    raise BadDegree(f"unknown conjecture form {form!r}")


def _verify_direct(q: int, m: int, n: int, budget: int | None) -> ConjectureWitness:
    """One first_hit over the flat index: g's middle digits, then its lead, then lam."""
    check_field(guarded_power(q, m, "witness field"), "witness field")
    big = make_field(q ** m)
    base, up, _ = _subfield_ints(big, q)
    lams = primitive_elements(big)
    orbit_leads = _orbit_leads(lams, q)
    per_shape = (q - 1) * len(lams)
    total = guarded_power(q, n - 1, "candidate space") * per_shape
    scan = total if budget is None else min(total, budget)

    def probe(i):
        enc, rest = divmod(i, per_shape)
        lead, k = divmod(rest, len(lams))
        if orbit_leads[k] != k:  # its conjugate, earlier in this shape, was no hit (_orbit_flags)
            return None
        shape = [0] + base_digits(enc, q, n - 1) + [lead + 1]
        cand = _fiber(big, base, up, shape, lams[k:k + 1])[0]
        return (shape, lams[k], cand) if is_primitive_poly(cand)[0] else None

    hit = first_hit(probe, scan)
    if hit is None:
        if scan < total:
            raise BudgetExhausted(f"direct scan stopped after {scan} candidates", scan)
        return ConjectureWitness(q, m, n, None, False, total, "direct")
    i, (shape, lam, cand) = hit
    converted, ok = _direct_to_composition(q, m, n, Polynomial.make(base, shape), lam)
    return ConjectureWitness(q, m, n, cand, True, i + 1, "direct", converted, ok)


def _verify_composition(q: int, m: int, n: int, budget: int | None) -> ConjectureWitness:
    check_field(guarded_power(q, m, "root field"), "root field")
    hit, tried, stopped = _composition_scan(make_field(q), m, n, budget)
    if stopped:
        raise BudgetExhausted(f"composition scan stopped after {tried} candidates", tried)
    if hit is None:
        return ConjectureWitness(q, m, n, None, False, tried, "composition")
    converted, ok = _composition_to_direct(q, m, n, *hit[:2])
    return ConjectureWitness(q, m, n, hit[:2], True, tried, "composition", converted, ok)


def _composition_to_direct(q, m, n, f, g):
    """f(g) primitive -> -g + alpha is a direct witness (lam = alpha primitive)."""
    big, alpha, up = _alpha_field(q, m, f)
    cand = -Polynomial(big, tuple(map(up, g.ints))) + Polynomial.constant(big, alpha)
    ok = is_primitive_element(alpha) and is_primitive_poly(cand)[0]
    return cand, ok


def _direct_to_composition(q, m, n, g, lam):
    """g + lam primitive -> (minpoly(-c^{-1} lam), c^{-1} g) when -c^{-1} lam

    is itself primitive; the constant must be primitive for the composition
    to land back in the conjecture's domain, and that can genuinely fail.
    """
    big = lam.owner
    _, embed, _ = subfield_maps(big, q)
    c = g.leading
    c_big = embed(c)
    alpha2 = -(c_big.inverse() * lam)
    if not is_primitive_element(alpha2):
        return None, False
    f2 = minimal_polynomial(alpha2, q)
    if f2.degree != m:
        return None, False
    g2 = g.scale(c.inverse())
    ok = is_primitive_poly(f2.compose(g2))[0]
    return (f2, g2), ok


def find_trace_one_quadratic(m: int) -> Polynomial:
    """Least primitive X^2 + lam*X + lam over F_{2^m}, lam primitive."""
    check_field(2 ** (2 * m), "quadratic splitting field")
    field = make_field(2 ** m)
    one = field.one()
    for lam in primitive_elements(field):
        cand = Polynomial.make(field, [lam, lam, one])
        if is_primitive_poly(cand)[0]:
            return cand
    raise ExistenceViolation(f"no primitive X^2 + lam X + lam over GF({2 ** m}); "
                             "existence is a theorem, so this indicates an arithmetic bug")
