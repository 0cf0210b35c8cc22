"""Transformation shift registers over F_q.

A register of order n with block size m holds n row vectors of width m and
evolves by s_{i+n} = s_i B + s_{i+1} (c_1 B) + ... + s_{i+n-1} (c_{n-1} B)
with B invertible; the normalized form fixes c_0 = 1 by absorbing it into B.
The transition matrix has identity blocks on the subdiagonal and last block
column (B, c_1 B, ..., c_{n-1} B).
"""

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .errors import (BadDegree, DimensionMismatch, ExistenceViolation, SingularB,
                     ZeroConstantTerm)
from .factorint import merged_factorization, multiplicative_order_from
from .fields import Field, FieldElement, _trim, base_digits, int_poly_mul, make_field
from .guards import check_field
from .matrices import (Matrix, _int_rows, matrix_charpoly, matrix_is_invertible,
                       matrix_minpoly)
from .polys import Polynomial, _common_field, _from_ints, _ints, poly_modpow
from .primitivity import is_primitive_poly


@dataclass(frozen=True)
class TsrSpec:
    """Normalized register: block size m, order n, taps c_1..c_{n-1}, matrix B."""

    field: Field
    m: int
    n: int
    c: tuple[FieldElement, ...]
    B: Matrix

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionMismatch("m and n must be positive")
        if len(self.c) != self.n - 1:
            raise DimensionMismatch(f"need {self.n - 1} tap coefficients, got {len(self.c)}")
        if any(ci.owner != self.field for ci in self.c):
            raise DimensionMismatch("tap coefficients must live in the base field")
        if self.B.rows != self.m or self.B.cols != self.m or self.B.field != self.field:
            raise DimensionMismatch("B must be m x m over the base field")
        if not matrix_is_invertible(self.B):
            raise SingularB("B must be invertible")

    @property
    def q(self) -> int:
        return self.field.order

    @cached_property
    def _tap_rows(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """(j, rows of c_j B as canonical ints) for each nonzero tap, c_0 = 1."""
        mul = self.field.ops.mul
        taps = (1,) + tuple(ci.int_value for ci in self.c)
        return tuple((j, tuple(tuple(mul(cj, b) for b in row) for row in _int_rows(self.B)))
                     for j, cj in enumerate(taps) if cj)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "c": [ci.int_value for ci in self.c],
            "B": [[self.B.at(i, j).int_value for j in range(self.m)] for i in range(self.m)],
        }

    @staticmethod
    def from_json(doc: dict) -> "TsrSpec":
        field = make_field(int(doc["q"]))
        m, n = int(doc["m"]), int(doc["n"])
        c = tuple(FieldElement(field, int(v)) for v in doc["c"])
        B = Matrix.from_rows(field, [[FieldElement(field, int(v)) for v in row] for row in doc["B"]])
        return TsrSpec(field, m, n, c, B)


@dataclass(frozen=True)
class TsrState:
    """n row vectors of width m plus the number of steps taken."""

    blocks: tuple[tuple[FieldElement, ...], ...]
    step_index: int = 0

    def flatten(self) -> tuple[FieldElement, ...]:
        return tuple(v for block in self.blocks for v in block)

    @staticmethod
    def from_ints(spec: TsrSpec, values) -> "TsrState":
        vals = [FieldElement(spec.field, int(v)) for v in values]
        if len(vals) != spec.m * spec.n:
            raise DimensionMismatch("state needs m*n entries")
        blocks = tuple(tuple(vals[i * spec.m:(i + 1) * spec.m]) for i in range(spec.n))
        return TsrState(blocks, 0)


@dataclass(frozen=True)
class Decomposition:
    """f = g^m h(X^n / g) with g(0) = 1, deg g <= n-1, h monic of degree m, h(0) != 0."""

    g: Polynomial
    h: Polynomial
    m: int
    n: int

    def recompose(self) -> Polynomial:
        return _homogenize(self.h, self.g, self.m, self.n)


def _homogenize(h: Polynomial, g: Polynomial, m: int, n: int) -> Polynomial:
    """g^m h(X^n / g) with denominators cleared: sum of h_k X^{nk} g^{m-k}, k = 0..m."""
    field = _common_field(h, g)
    ops = field.ops
    g_ints, g_pow = _ints(g), [[1]]
    for _ in range(m):
        g_pow.append(int_poly_mul(g_pow[-1], g_ints, ops))
    terms = [(n * k, hk, g_pow[m - k]) for k, hk in enumerate(_ints(h)[:m + 1]) if hk]
    acc = [0] * max((shift + len(gp) for shift, _, gp in terms), default=0)
    for shift, hk, gp in terms:
        for i, y in enumerate(gp, shift):
            acc[i] = ops.add(acc[i], ops.mul(hk, y))
    return _from_ints(field, _trim(acc))


def build_transition_matrix(spec: TsrSpec) -> Matrix:
    field, m, n = spec.field, spec.m, spec.n
    size = m * n
    zero, one = field.zero(), field.one()
    rows = [[zero] * size for _ in range(size)]
    for t in range(n - 1):
        for i in range(m):
            rows[(t + 1) * m + i][t * m + i] = one
    taps = (one,) + spec.c
    for j in range(n):
        cj = taps[j]
        if cj.is_zero():
            continue
        for i in range(m):
            for k in range(m):
                rows[j * m + i][(n - 1) * m + k] = spec.B.at(i, k) * cj
    return Matrix.from_rows(field, rows)


def tsr_step(spec: TsrSpec, state: TsrState) -> TsrState:
    field, m, blocks = spec.field, spec.m, state.blocks
    if len(blocks) != spec.n or any(len(b) != m for b in blocks):
        raise DimensionMismatch("state shape does not match the spec")
    for block in blocks:
        for e in block:
            if e.owner is not field and e.owner != field:
                raise ValueError("elements belong to different fields")
    add, _, mul, _ = field.ops
    # new last block = sum over j of block_j (c_j B)
    new_last = [0] * m
    for j, rows in spec._tap_rows:
        for e, row in zip(blocks[j], rows):
            x = e.int_value
            if x:
                for t, y in enumerate(row):
                    if y:
                        new_last[t] = add(new_last[t], mul(x, y))
    new_block = tuple([FieldElement(field, v) for v in new_last])
    return TsrState(blocks[1:] + (new_block,), state.step_index + 1)


def tap_polynomial(spec: TsrSpec) -> Polynomial:
    """g_T(X) = 1 + c_1 X + ... + c_{n-1} X^{n-1}."""
    return Polynomial.make(spec.field, (spec.field.one(),) + spec.c)


def tsr_charpoly_formula(spec: TsrSpec) -> Polynomial:
    """Denominator-cleared g_T^m Psi_B(X^n / g_T): sum of (Psi_B)_k X^{nk} g_T^{m-k}."""
    return _homogenize(matrix_charpoly(spec.B), tap_polynomial(spec), spec.m, spec.n)


def tsr_charpoly_direct(spec: TsrSpec) -> Polynomial:
    return matrix_charpoly(build_transition_matrix(spec))


def tsr_period(spec: TsrSpec) -> int:
    """Order of the transition matrix: the order of X mod mu_T = g_T^d mu_B(X^n / g_T).

    d = deg mu_B.  X annihilates E = lcm(q^i - 1, i = 1..mn) if mu_T is squarefree;
    else E takes one more factor p at a time, up to the first p^t >= mn: a factor of
    multiplicity b <= mn needs p^t >= b (Lidl & Niederreiter, Thm 3.8).
    """
    q, mn, p = spec.q, spec.m * spec.n, spec.field.characteristic
    check_field(q ** mn)
    mu_B = matrix_minpoly(spec.B)
    mu = _homogenize(mu_B, tap_polynomial(spec), mu_B.degree, spec.n)
    factors = merged_factorization(q ** i - 1 for i in range(1, mn + 1))
    exponent = prod(prime ** mult for prime, mult in factors.items())
    X, one = Polynomial.x(spec.field), Polynomial.one(spec.field)
    pow_fn = lambda e: poly_modpow(X, e, mu)
    while pow_fn(exponent) != one:  # p divides no q^i - 1, so factors[p] counts the padding
        if p ** factors.get(p, 0) >= mn:
            raise ExistenceViolation("exponent bound must annihilate X mod psi")
        exponent *= p
        factors[p] = factors.get(p, 0) + 1
    return multiplicative_order_from(pow_fn, one, exponent, factors)


def mn_decompose(f: Polynomial, m: int, n: int):
    """First (g, h) with f = g^m h(X^n/g), scanning g ascending; None if none exists."""
    if f.degree != m * n:
        raise BadDegree(f"degree {f.degree} != m*n = {m * n}")
    if not f.is_monic():
        raise BadDegree("decomposition target must be monic")
    if f.constant_term.is_zero():
        raise ZeroConstantTerm("f(0) = 0 admits no invertible register")
    field = f.field
    q = field.order
    one = field.one()
    for enc in range(q ** (n - 1)):
        g = Polynomial.make(field, [one] + [field.element(d) for d in base_digits(enc, q, n - 1)])
        dec = _peel(f, g, m, n)
        if dec is not None:
            return dec
    return None


def _peel(f: Polynomial, g: Polynomial, m: int, n: int):
    field = f.field
    D = g.degree
    lead = g.leading
    g_pow = [Polynomial.one(field)]
    for _ in range(m):
        g_pow.append(g_pow[-1] * g)
    rem = f
    h_coeffs = [field.zero()] * (m + 1)
    for k in range(m, -1, -1):
        target = n * k + D * (m - k)
        if rem.degree > target:
            return None
        hk = rem.coeff(target) * (lead ** (m - k)).inverse() if rem.degree == target else field.zero()
        if not hk.is_zero():
            h_coeffs[k] = hk
            rem = rem - g_pow[m - k].shift(n * k).scale(hk)
    if not rem.is_zero():
        return None
    h = Polynomial.make(field, h_coeffs)
    if h.degree != m or h.constant_term.is_zero():
        return None
    return Decomposition(g, h, m, n)


def is_primitive_tsr(spec: TsrSpec) -> bool:
    return is_primitive_poly(tsr_charpoly_formula(spec))[0]
