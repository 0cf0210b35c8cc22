"""Dense matrices over a Field.

A matrix stores its entries row-major as canonical ints of its field, and
every arithmetic method runs on the field's ops over those ints; `entries`
wraps them as FieldElements, once, when first read.  All values are
immutable after construction.  The characteristic polynomial uses
Hessenberg reduction with field division followed by the
leading-principal-minor recurrence, O(d^3) field operations and valid in
any characteristic.  A matrix computes it once, as its cached `charpoly`,
and the determinant and invertibility read its constant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .errors import DimensionMismatch, NonSquareMatrix
from .fields import Field, FieldElement
from .kernel import FieldOps, power
from .polys import Polynomial, _common_field, _encodings


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    ints: tuple[int, ...]

    def __post_init__(self):
        if len(self.ints) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.ints)}"
            )

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Matrix":
        """Build from rows of FieldElements or canonical ints in [0, q) (not reduced mod q)."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        ints = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            ints += _encodings(field, r)
        return Matrix(field, nrows, ncols, tuple(ints))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (0,) * (rows * cols))

    @cached_property
    def entries(self) -> tuple[FieldElement, ...]:
        return tuple([FieldElement(self.field, v) for v in self.ints])

    @cached_property
    def charpoly(self) -> Polynomial:
        """Monic det(XI - M), by _hessenberg_charpoly on first read."""
        if not self.is_square:
            raise NonSquareMatrix("characteristic polynomial of a non-square matrix")
        return _hessenberg_charpoly(self)

    def at(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.field, self.ints[i * self.cols + j])

    def row(self, i: int) -> tuple[FieldElement, ...]:
        c = self.cols
        return tuple([FieldElement(self.field, v) for v in self.ints[i * c:(i + 1) * c]])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _zip(self, other: "Matrix", op: Callable[[int, int], int], what: str) -> "Matrix":
        """op entry by entry, for two matrices of one field and one shape."""
        field = _common_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch in {what}")
        return Matrix(field, self.rows, self.cols, tuple(map(op, self.ints, other.ints)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._zip(other, self.field.ops.add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        add, neg = self.field.ops.add, self.field.ops.neg
        return self._zip(other, lambda a, b: add(a, neg(b)), "subtraction")

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(map(self.field.ops.neg, self.ints)))

    def scale(self, c: FieldElement) -> "Matrix":
        _common_field(self.field, c.owner)
        mul, v = self.field.ops.mul, c.int_value
        return Matrix(self.field, self.rows, self.cols, tuple([mul(a, v) for a in self.ints]))

    def __mul__(self, other: "Matrix") -> "Matrix":
        field = _common_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if not self.cols:
            return Matrix.zeros(field, self.rows, other.cols)
        return Matrix.from_rows(field, _int_matmul(_int_rows(self), _int_rows(other), field.ops))

    def power(self, e: int) -> "Matrix":
        if not self.is_square:
            raise NonSquareMatrix("power of a non-square matrix")
        if e < 0:
            raise ValueError("negative matrix powers are not supported")
        n, ops = self.rows, self.field.ops
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        rows = power(_int_rows(self), e, lambda a, b: _int_matmul(a, b, ops), identity)
        return Matrix.from_rows(self.field, rows)

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows))


# The kernels below work on rows of canonical ints (lists, mutated in place).

def _int_rows(M: Matrix) -> list[list[int]]:
    return [list(M.ints[i * M.cols:(i + 1) * M.cols]) for i in range(M.rows)]


def _int_matmul(a: list[list[int]], b: list[list[int]], ops: FieldOps) -> list[list[int]]:
    """a * b for a nonempty b, skipping zero entries."""
    add, mul = ops.add, ops.mul
    out = []
    for arow in a:
        acc = [0] * len(b[0])
        for x, brow in zip(arow, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = add(acc[j], mul(x, y))
        out.append(acc)
    return out


def matrix_det(M: Matrix) -> FieldElement:
    """det M = (-1)^n chi_M(0), read off the characteristic polynomial."""
    if not M.is_square:
        raise NonSquareMatrix("determinant of a non-square matrix")
    c = M.charpoly.ints[0]
    return FieldElement(M.field, M.field.ops.neg(c) if M.rows % 2 else c)


def matrix_is_invertible(M: Matrix) -> bool:
    """M is square and chi_M(0) = (-1)^n det M is nonzero."""
    return M.is_square and M.charpoly.ints[0] != 0


def matrix_charpoly(M: Matrix) -> Polynomial:
    """Monic det(XI - M), computed once per matrix (Matrix.charpoly)."""
    return M.charpoly


def _hessenberg_charpoly(M: Matrix) -> Polynomial:
    """det(XI - M) of a square M via Hessenberg reduction + minor recurrence."""
    n = M.rows
    add, neg, mul, inv, _ = M.field.ops
    H = _int_rows(M)
    # similarity-reduce to upper Hessenberg form
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if H[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[piv], H[col + 1] = H[col + 1], H[piv]
            for row in H:
                row[piv], row[col + 1] = row[col + 1], row[piv]
        top = H[col + 1]
        inv_piv = inv(top[col])
        for r in range(col + 2, n):
            if not H[r][col]:
                continue
            t = mul(H[r][col], inv_piv)
            nt = neg(t)
            row = H[r]
            for c in range(col, n):
                row[c] = add(row[c], mul(nt, top[c]))
            for rr in H:
                rr[col + 1] = add(rr[col + 1], mul(t, rr[r]))
    # p_m(X) = charpoly of the leading m x m block of H, as a monic int list
    p = [[1]]
    for m in range(1, n + 1):
        h = neg(H[m - 1][m - 1])  # t = (X - H[m-1][m-1]) p_{m-1}
        t = [add(a, mul(h, b)) for a, b in zip([0] + p[m - 1], p[m - 1] + [0])]
        prod = 1
        for i in range(1, m):
            prod = mul(prod, H[m - i][m - i - 1])
            if not prod:
                break
            coef = neg(mul(H[m - 1 - i][m - 1], prod))
            if coef:
                for j, y in enumerate(p[m - 1 - i]):
                    t[j] = add(t[j], mul(coef, y))
        p.append(t)
    return Polynomial(M.field, tuple(p[n]))


def matrix_minpoly(M: Matrix) -> Polynomial:
    """Monic minimal polynomial: the first dependency among I, M, M^2, ... (k <= n).

    Each power M^k is flattened to ints and tagged with X^k in n + 1 extra slots; the
    first power that elimination reduces to zero leaves the dependency in its tag.
    """
    if not M.is_square:
        raise NonSquareMatrix("minimal polynomial of a non-square matrix")
    n, size, ops = M.rows, M.rows ** 2, M.field.ops
    add, neg, mul, inv, _ = ops
    rows, power = _int_rows(M), [[int(i == j) for j in range(n)] for i in range(n)]
    basis = []  # (pivot, tagged row scaled to 1 at the pivot)
    for k in range(n + 1):
        vec = [x for r in power for x in r] + [0] * k + [1] + [0] * (n - k)
        for piv, brow in basis:
            t = neg(vec[piv])
            if t:
                vec = [add(x, mul(t, y)) for x, y in zip(vec, brow)]
        piv = next((j for j in range(size) if vec[j]), None)
        if piv is None:
            return Polynomial(M.field, tuple(vec[size:size + k + 1]))
        s = inv(vec[piv])
        basis.append((piv, [mul(s, y) for y in vec]))
        power = _int_matmul(power, rows, ops)


def companion_matrix(f: Polynomial) -> Matrix:
    """Companion matrix of a monic f: subdiagonal ones, last column -coeffs."""
    if f.is_zero() or not f.is_monic() or f.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    d, neg = len(f.ints) - 1, f.field.ops.neg
    ints = [0] * (d * d)
    for i in range(1, d):
        ints[i * d + i - 1] = 1
    for i, c in enumerate(f.ints[:d]):
        ints[i * d + d - 1] = neg(c)
    return Matrix(f.field, d, d, tuple(ints))
