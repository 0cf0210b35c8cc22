"""Transformation shift registers over F_q.

A register of order n with block size m holds n row vectors of width m and
evolves by s_{i+n} = s_i B + s_{i+1} (c_1 B) + ... + s_{i+n-1} (c_{n-1} B)
with B invertible; the normalized form fixes c_0 = 1 by absorbing it into B.
The transition matrix has identity blocks on the subdiagonal and last block
column (B, c_1 B, ..., c_{n-1} B).
"""

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from math import prod
from typing import Optional

from .errors import (BadDegree, DimensionMismatch, ExistenceViolation, SingularB,
                     ZeroConstantTerm)
from .factorint import merged_factorization, multiplicative_order_from
from .fields import Field, FieldElement, base_digits, make_field
from .guards import check_field
from .kernel import _Memo
from .matrices import (Matrix, _int_rows, matrix_charpoly, matrix_is_invertible,
                       matrix_minpoly)
from .polys import Polynomial, _common_field, poly_modpow
from .primitivity import is_primitive_poly

# entries kept per tap table and by the decoder; a larger q^m computes the others on each step
TAP_TABLE_CAP = 1 << 12


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
    def _taps(self) -> tuple:
        """(norm, mask, decoder, ((j, table), ...)): per nonzero tap c_j (c_0 = 1) a table maps a block
        to block (c_j B) packed as one int by the field's kernel; decoder: normed sum -> (block,)."""
        m, mul = self.m, self.field.ops.mul
        pk = self.field.ops.kernel.wide(self.n)
        mask = pk.fold(m)[1]

        def part(rows, table, block):  # m products, plus the part of block with its last nonzero entry cleared
            i = max((i for i, x in enumerate(block) if x), default=0)
            prods = pk.pack([mul(block[i], y) for y in rows[i]])
            return pk.norm(prods + (table[block[:i] + (0,) * (m - i)] if i else 0), mask)

        def decode(_, x):
            entries = pk.unpack(x)
            return (tuple(entries) + (0,) * (m - len(entries)),)

        return pk.norm, mask, _Memo(decode, TAP_TABLE_CAP), tuple(
            (j, _Memo(partial(part, [[mul(cj, b) for b in row] for row in _int_rows(self.B)]), TAP_TABLE_CAP))
            for j, cj in enumerate((1,) + tuple(ci.int_value for ci in self.c)) if cj)

    def __getstate__(self):  # _taps holds closures; it is rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k != "_taps"}

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "c": [ci.int_value for ci in self.c],
            "B": _int_rows(self.B),
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
    """n row vectors of width m, as canonical ints of `field`, plus the number of steps taken.

    from_ints and tsr_step set `field` (blocks of one width); tsr_step checks in full only a
    state that does not carry its spec's field.  FieldElements of one field are normalised to
    ints of that field; any other hand-built state is kept as given.
    """

    blocks: tuple[tuple[int, ...], ...]
    step_index: int = 0
    field: Optional[Field] = None

    def __post_init__(self):
        if self.field is not None and len({len(block) for block in self.blocks}) > 1:
            raise DimensionMismatch("state blocks differ in width")
        if self.field is None:
            entries = list(chain.from_iterable(self.blocks))
            owners = {e.owner for e in entries if isinstance(e, FieldElement)}
            if len(owners) == 1 and all(isinstance(e, FieldElement) for e in entries):
                object.__setattr__(self, "field", owners.pop())
                object.__setattr__(self, "blocks", tuple(tuple(e.int_value for e in block)
                                                         for block in self.blocks))

    def flatten(self) -> tuple[FieldElement, ...]:
        entries = tuple(chain.from_iterable(self.blocks))
        if self.field is None:
            return entries
        return tuple(FieldElement(self.field, v) for v in entries)

    @staticmethod
    def from_ints(spec: TsrSpec, values) -> "TsrState":
        vals = [FieldElement(spec.field, int(v)).int_value for v in values]
        if len(vals) != spec.m * spec.n:
            raise DimensionMismatch("state needs m*n entries")
        blocks = tuple(tuple(vals[i * spec.m:(i + 1) * spec.m]) for i in range(spec.n))
        return TsrState(blocks, 0, spec.field)


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
    """g^m h(X^n / g) with denominators cleared: sum of h_k X^{nk} g^{m-k}, k = 0..m, by Horner's rule in g."""
    field = _common_field(h.field, g.field)
    hs = (h.ints + (0,) * m)[:m + 1]  # h_0..h_m, padded when deg h < m
    return Polynomial(field, tuple(field.ops.kernel.compose(hs[::-1], g.ints, n)))


def build_transition_matrix(spec: TsrSpec) -> Matrix:
    field, m, n = spec.field, spec.m, spec.n
    size = m * n
    zero, one = field.zero(), field.one()
    rows = [[zero] * size for _ in range(size)]
    for t in range(n - 1):
        for i in range(m):
            rows[(t + 1) * m + i][t * m + i] = one
    for j, cj in enumerate((one,) + spec.c):
        for i in range(m):
            for k in range(m):
                rows[j * m + i][(n - 1) * m + k] = spec.B.at(i, k) * cj
    return Matrix.from_rows(field, rows)


def _checked_blocks(spec: TsrSpec, state: TsrState) -> tuple[tuple[int, ...], ...]:
    """The blocks of a state that does not carry spec.field, as canonical ints of it."""
    field, blocks = spec.field, state.blocks
    if len(blocks) != spec.n or any(len(b) != spec.m for b in blocks):
        raise DimensionMismatch("state shape does not match the spec")
    entries = list(chain.from_iterable(blocks))
    if state.field not in (None, field) or any(isinstance(e, FieldElement) and e.owner != field
                                               for e in entries):
        raise ValueError("elements belong to different fields")
    return TsrState.from_ints(spec, [getattr(e, "int_value", e) for e in entries]).blocks


def tsr_step(spec: TsrSpec, state: TsrState) -> TsrState:
    """The next state: its last block is the packed parts of spec._taps summed, normed and decoded."""
    field, blocks = spec.field, state.blocks
    if state.field is not field:
        blocks = _checked_blocks(spec, state)
    elif len(blocks) != spec.n or len(blocks[0]) != spec.m:
        raise DimensionMismatch("state shape does not match the spec")
    norm, mask, decoder, tables = spec._taps
    total = 0
    for j, table in tables:
        total += table[blocks[j]]
    new = object.__new__(TsrState)  # without __post_init__, as the field is known
    fields = new.__dict__
    fields["blocks"] = blocks[1:] + decoder[norm(total, mask)]
    fields["step_index"] = state.step_index + 1
    fields["field"] = field
    return new


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

    d = deg mu_B and D = deg mu_T.  Every irreducible factor of mu_T has degree
    and multiplicity at most D, so X annihilates E = lcm(q^i - 1, i = 1..D) if
    mu_T is squarefree; else E takes one more factor p at a time, up to the first
    p^t >= D: a factor of multiplicity b needs p^t >= b (Lidl & Niederreiter,
    Thm 3.8).
    """
    q, mn, p = spec.q, spec.m * spec.n, spec.field.characteristic
    check_field(q ** mn)
    mu_B = matrix_minpoly(spec.B)
    mu = _homogenize(mu_B, tap_polynomial(spec), mu_B.degree, spec.n)
    D = mu.degree
    factors = merged_factorization(q ** i - 1 for i in range(1, D + 1))
    exponent = prod(prime ** mult for prime, mult in factors.items())
    X, one = Polynomial.x(spec.field), Polynomial.one(spec.field)
    pow_fn = lambda e: poly_modpow(X, e, mu)
    while pow_fn(exponent) != one:  # p divides no q^i - 1, so factors[p] counts the padding
        if p ** factors.get(p, 0) >= D:
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
    g_pow = [g.pow(k) for k in range(m + 1)]
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
