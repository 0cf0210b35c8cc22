"""Census machinery: closed-form counts and exhaustive oracles.

The closed forms count primitive/irreducible registers of several shapes;
the enumerators rebuild the same numbers by brute force so each side checks
the other.
"""

from .errors import BadDegree, FiberSizeViolation, UnknownKind
from .factorint import euler_phi, factor_integer, moebius
from .fields import Field, _subfield_ints, base_digits, conjugates, make_field, prime_power
from .guards import check_matrix_group, check_size, checked_power, factorable_power, guarded_power
from .kernel import _trim
from .matrices import Matrix, matrix_charpoly, matrix_is_invertible
from .parallel import deterministic_map
from .polys import Polynomial, format_poly
from .primitivity import is_primitive_poly, primitive_elements
from .tsr import TsrSpec, _homogenize


def gl_order(q: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= q ** m - q ** i
    return out


# the shape arguments each closed-form kind reads
_KIND_ARGS = {"lfsr_prim": "n", "lfsr_irr": "n", "sigma_prim": "mn", "sigma_irr": "mn",
              "gl_order": "m", "tsr_order1": "m", "tsr_m1": "n"}


def closed_form_count(kind: str, q: int, m: int | None = None, n: int | None = None) -> int:
    """Exact closed-form census for the named register family.

    A q that is not a prime power, or an m or n the kind reads that is missing or below 1, is
    refused, and so is a count with more digits than int-to-str conversion allows; guards.py
    sizes each power, |GL_m(q)| and q^k - 1 before it is taken.
    """
    if kind not in _KIND_ARGS:
        raise UnknownKind(f"unknown census kind {kind!r}")
    prime_power(q)
    needs = _KIND_ARGS[kind]
    for name, value, label in (("m", m, "block size"), ("n", n, "register length")):
        if name in needs and value is None:
            raise BadDegree(f"kind {kind!r} requires the {label} {name}")
    m, n = m if "m" in needs else 1, n if "n" in needs else 1
    check_shape(m, n)
    k, what = m * n, f"{kind} count"
    if kind.endswith("irr"):  # the monic irreducible polynomials of degree k
        terms = (moebius(d) * guarded_power(q, k // d, f"{what} term", "digits") for d in factor_integer(k).divisors())
        count = _exact_div(sum(terms), k)
    elif kind != "gl_order":  # the monic primitive polynomials of degree k
        count = _exact_div(euler_phi(factorable_power(q, k)), k)
    if "m" in needs:  # the kinds on |GL_m(q)|, which is sized after any factorization refusal
        check_matrix_group(q, m, f"{what} over", "digits")
        gl, rest = gl_order(q, m), guarded_power(q, m * (m - 1) * (n - 1), f"{what} term", "digits")
        count = gl if kind == "gl_order" else count * rest * _exact_div(gl, q ** m - 1)
    return check_size(count, what, "digits")


def _exact_div(a: int, b: int) -> int:
    quot, rem = divmod(a, b)
    if rem:
        raise FiberSizeViolation(f"{a} is not divisible by {b}")
    return quot


def count_matrices_with_charpoly(p: Polynomial, m: int) -> int:
    """Exhaustive count of m x m matrices whose characteristic polynomial is p."""
    if p.degree != m:
        raise BadDegree(f"polynomial degree {p.degree} != m = {m}")
    field = p.field
    checked_power(field.order, m * m, "matrix space", "enumeration")
    return sum(matrix_charpoly(M) == p for M in _all_matrices(field, m))


def enumerate_special_primitives(q: int, m: int, n: int, form: str) -> list[Polynomial]:
    """Exhaustive primitive census in one of the two special shapes.

    P_qmn: X^n - mu*g(X) with g over F_q, g(0) = 1, deg g <= n-1, mu primitive
    in F_{q^m}.  P_mnq: g(X) + lam with g over F_q monic of degree n, g(0) = 0,
    lam primitive.  Sorted by canonical text.
    """
    if form not in ("P_qmn", "P_mnq"):
        raise UnknownKind(f"unknown enumeration form {form!r}")
    prime_power(q)
    check_shape(m, n)
    # guard before the primitive-element scan; phi counts that scan's output
    space = guarded_power(q, n - 1, "candidate space") * euler_phi(guarded_power(q, m, "coefficient field") - 1)
    check_size(space, "candidate space", "field")
    big = make_field(q ** m)
    base, up, _ = _subfield_ints(big, q)
    prims = primitive_elements(big)
    neg, mul = big.ops.neg, big.ops.mul
    candidates = []
    for enc in range(q ** (n - 1)):
        digits = base_digits(enc, q, n - 1)
        if form == "P_mnq":
            candidates += _fiber(big, base, up, [0] + digits + [1], prims)
            continue
        # X^n - mu*g(X), g embedded with constant term 1 and degree <= n-1
        g = [1] + [up(d) for d in digits]
        candidates += [Polynomial(big, tuple([neg(mul(mu.int_value, c)) for c in g]) + (1,)) for mu in prims]
    flags = _orbit_flags(prims, q, candidates)
    found = [f for f, ok in zip(candidates, flags) if ok]
    return sorted(found, key=format_poly)


def _orbit_leads(lams: list, q: int) -> list[int]:
    """Per lams[i], the index of the first member of its orbit under lam -> lam^q;
    lams is closed under that map, as the primitive elements of a field are."""
    field, index = lams[0].owner, {lam.int_value: i for i, lam in enumerate(lams)}
    leads = [-1] * len(lams)
    for i, lam in enumerate(lams):
        if leads[i] < 0:
            for y in conjugates(lam.int_value, q, field.ops, field.extension_degree):
                leads[index[y]] = i
    return leads


def _orbit_flags(lams: list, q: int, cands: list[Polynomial]) -> list[bool]:
    """is_primitive_poly verdicts of cands, where cands[j * len(lams) + i] is
    built from lams[i] and coefficients in F_q, one test per orbit of lam -> lam^q.

    sigma: x -> x^q, extended to the splitting field, maps the roots of f to
    those of f^sigma (the candidate of lams[i]^q) and keeps their orders, so f
    and f^sigma are primitive together.
    """
    width, leads = len(lams), _orbit_leads(lams, q)
    tested = [t for t in range(len(cands)) if leads[t % width] == t % width]
    verdict = dict(zip(tested, deterministic_map(lambda t: is_primitive_poly(cands[t])[0], tested)))
    return [verdict[t - t % width + leads[t % width]] for t in range(len(cands))]


def _fiber(big: Field, base: Field, up, shape, lams) -> list[Polynomial]:
    """g(X) + lam over big for each lam in lams, in order.

    shape lists the little-endian ints over base of g, with g(0) = 0, each
    read mod |base|, and up maps the ints of base into big (_subfield_ints);
    each candidate is the coefficient list [lam] + the embedded tail of g.
    """
    if shape[0]:
        raise ValueError(f"shape {tuple(shape)} must have g(0) = 0")
    tail = tuple(_trim([up(c % base.order) for c in shape[1:]]))
    return [Polynomial(big, (lam.int_value,) + tail) for lam in lams]


def _all_matrices(field: Field, m: int):
    """All m x m matrices, ascending by entry encoding."""
    q = field.order
    for enc in range(q ** (m * m)):
        yield Matrix(field, m, m, tuple(base_digits(enc, q, m * m)))


def gl_matrices(field: Field, m: int):
    """All invertible m x m matrices, ascending by entry encoding."""
    return (M for M in _all_matrices(field, m) if matrix_is_invertible(M))


def enumerate_tsrp_bruteforce(q: int, m: int, n: int) -> list[TsrSpec]:
    """All primitive registers at (q, m, n), scanning (taps, B) ascending.

    A register's charpoly g^m Psi_B(X^n / g) depends on B only through Psi_B,
    so each distinct charpoly is tested once; the B are grouped by Psi_B and
    every key is a tuple of canonical ints.
    """
    check_shape(m, n)
    field = make_field(q)
    taps = guarded_power(q, n - 1, "candidate space", "enumeration")
    check_matrix_group(q, m, "matrix group", "enumeration")
    check_size(taps * gl_order(q, m), "candidate space", "enumeration")
    pairs, psis = [], {}  # (B, Psi_B ints) per invertible B, ascending; the distinct Psi_B by ints
    for B in _all_matrices(field, m):
        psi = matrix_charpoly(B)
        if psi.ints[0]:  # B is invertible iff Psi_B(0) = (-1)^m det B is nonzero
            pairs.append((B, psi.ints))
            psis.setdefault(psi.ints, psi)
    charpoly, distinct = {}, {}  # (tap, Psi_B) -> charpoly ints; charpoly ints -> charpoly
    for t in range(taps):
        g = Polynomial(field, tuple(_trim([1] + base_digits(t, q, n - 1))))
        for key, psi in psis.items():
            f = _homogenize(psi, g, m, n)
            charpoly[t, key] = f.ints
            distinct.setdefault(f.ints, f)
    verdicts = deterministic_map(lambda f: is_primitive_poly(f)[0], list(distinct.values()))
    primitive = dict(zip(distinct, verdicts))
    specs = []
    for t in range(taps):
        hits = [B for B, key in pairs if primitive[charpoly[t, key]]]
        if hits:
            c = tuple(field.element(d) for d in base_digits(t, q, n - 1))
            specs += [TsrSpec(field, m, n, c, B) for B in hits]
    return specs


def check_shape(m: int, n: int) -> None:
    """BadDegree naming m or n when a register shape has a side below 1."""
    if m < 1:
        raise BadDegree(f"block size m = {m} must be >= 1")
    if n < 1:
        raise BadDegree(f"register length n = {n} must be >= 1")


def tsrp_count_theorem(q: int, m: int, n: int, p_count: int) -> int:
    """Register count implied by a special-primitive census of size p_count; guards.py sizes |GL_m(q)| first."""
    if p_count % m:
        raise FiberSizeViolation(f"census size {p_count} is not a multiple of m = {m}")
    check_matrix_group(q, m, "tsrp_count_theorem over", "digits")
    return (p_count // m) * _exact_div(gl_order(q, m), guarded_power(q, m, "tsrp_count_theorem term", "digits") - 1)


def tsrp_upper_bound(q: int, m: int, n: int) -> int:
    """taps * phi(q^m - 1)/m * |GL_m|/(q^m - 1), bounding the census at (q, m, n).

    taps counts the tap polynomials g(X) = X^n + ... with g(0) = 0 that can
    carry a primitive g(X) + lambda.  For n >= 2 it is q^{n-1} - 1: X^n is
    left out because a root beta of X^n + lambda has beta^n = -lambda, so its
    order divides n(q^m - 1) < q^{mn} - 1.  For n = 1 the only tap polynomial
    is X, and X + lambda is primitive for every primitive lambda, so taps = 1
    and the bound is exact: it equals closed_form_count("tsr_order1", q, m).
    A q that is not a prime power, or m or n below 1, is refused.
    """
    prime_power(q)
    check_shape(m, n)
    taps = 1 if n == 1 else guarded_power(q, n - 1, "tsrp_upper_bound over a tap space", "digits") - 1
    return check_size(taps * closed_form_count("tsr_order1", q, m=m), "tsrp_upper_bound", "digits")
