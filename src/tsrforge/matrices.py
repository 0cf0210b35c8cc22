"""Dense matrices over a Field.

Entries are stored row-major; all values are immutable after construction.
The characteristic polynomial uses Hessenberg reduction with field division
followed by the leading-principal-minor recurrence, O(d^3) field operations
and valid in any characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, NonSquareMatrix
from .fields import Field, FieldElement
from .polys import Polynomial


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            entries.extend(field.element(v) for v in r)
        return Matrix(field, nrows, ncols, tuple(entries))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return Matrix(
            field, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n))
        )

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (field.zero(),) * (rows * cols))

    def at(self, i: int, j: int) -> FieldElement:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[FieldElement, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[FieldElement]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: FieldElement) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(a * c for a in self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        zero = self.field.zero()
        out = [zero] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = self.entries[base + t]
                if a.is_zero():
                    continue
                obase = t * m
                rbase = i * m
                for j in range(m):
                    b = other.entries[obase + j]
                    if not b.is_zero():
                        out[rbase + j] = out[rbase + j] + a * b
        return Matrix(self.field, n, m, tuple(out))

    def apply(self, vec: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Matrix-vector product, vec as a column."""
        if self.cols != len(vec):
            raise DimensionMismatch("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = self.field.zero()
            base = i * self.cols
            for j, v in enumerate(vec):
                e = self.entries[base + j]
                if not e.is_zero() and not v.is_zero():
                    acc = acc + e * v
            out.append(acc)
        return tuple(out)

    def power(self, e: int) -> "Matrix":
        if not self.is_square:
            raise NonSquareMatrix("power of a non-square matrix")
        if e < 0:
            raise ValueError("negative matrix powers are not supported")
        result = Matrix.identity(self.field, self.rows)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            if e:
                acc = acc * acc
        return result

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def trace(self) -> FieldElement:
        if not self.is_square:
            raise NonSquareMatrix("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows))


def matrix_det(M: Matrix) -> FieldElement:
    """Determinant by Gaussian elimination with row swaps."""
    if not M.is_square:
        raise NonSquareMatrix("determinant of a non-square matrix")
    n = M.rows
    field = M.field
    a = [list(M.row(i)) for i in range(n)]
    det = field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            return field.zero()
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inverse()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            t = a[r][col] * inv
            for c in range(col, n):
                a[r][c] = a[r][c] - t * a[col][c]
    return det


def matrix_is_invertible(M: Matrix) -> bool:
    return M.is_square and not matrix_det(M).is_zero()


def matrix_charpoly(M: Matrix) -> Polynomial:
    """Monic det(XI - M) via Hessenberg reduction + minor recurrence."""
    if not M.is_square:
        raise NonSquareMatrix("characteristic polynomial of a non-square matrix")
    n = M.rows
    field = M.field
    if n == 0:
        return Polynomial.one(field)
    H = [list(M.row(i)) for i in range(n)]
    # similarity-reduce to upper Hessenberg form
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if not H[r][col].is_zero()), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[piv], H[col + 1] = H[col + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][col + 1] = H[r][col + 1], H[r][piv]
        inv = H[col + 1][col].inverse()
        for r in range(col + 2, n):
            if H[r][col].is_zero():
                continue
            t = H[r][col] * inv
            for c in range(col, n):
                H[r][c] = H[r][c] - t * H[col + 1][c]
            for rr in range(n):
                H[rr][col + 1] = H[rr][col + 1] + t * H[rr][r]
    # p_m(X) = charpoly of the leading m x m block of H
    X = Polynomial.x(field)
    p = [Polynomial.one(field)]
    for m in range(1, n + 1):
        t = (X - Polynomial.constant(field, H[m - 1][m - 1])) * p[m - 1]
        prod = field.one()
        for i in range(1, m):
            prod = prod * H[m - i][m - i - 1]
            if prod.is_zero():
                break
            coef = H[m - 1 - i][m - 1] * prod
            if not coef.is_zero():
                t = t - Polynomial.constant(field, coef) * p[m - 1 - i]
        p.append(t)
    return p[n]


def companion_matrix(f: Polynomial) -> Matrix:
    """Companion matrix of a monic f: subdiagonal ones, last column -coeffs."""
    if f.is_zero() or not f.is_monic() or f.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    field = f.field
    d = int(f.degree)
    zero, one = field.zero(), field.one()
    rows = [[zero] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = one
    for i in range(d):
        rows[i][d - 1] = -f.coeff(i)
    return Matrix.from_rows(field, rows)
