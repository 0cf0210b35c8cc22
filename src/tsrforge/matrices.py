"""Dense matrices over a Field.

Entries are stored row-major; all values are immutable after construction.
Products, powers, the determinant and the characteristic and minimal
polynomials read the entries' canonical ints once, run on the field's ops,
and wrap the result once.  The characteristic polynomial uses Hessenberg
reduction with field division followed by the leading-principal-minor
recurrence, O(d^3) field operations and valid in any characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, NonSquareMatrix
from .fields import Field, FieldElement
from .kernel import FieldOps
from .polys import Polynomial, _common_field, _from_ints


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
        """Build from rows of FieldElements or canonical ints in [0, q) (not reduced mod q)."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            entries.extend(FieldElement(field, int(v)) if isinstance(v, int) else field.element(v)
                           for v in r)
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
        field = _common_field(self, other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if not self.cols:
            return Matrix.zeros(field, self.rows, other.cols)
        return _from_int_rows(field, _int_matmul(_int_rows(self), _int_rows(other), field.ops),
                              other.cols)

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
        n, ops = self.rows, self.field.ops
        result = [[int(i == j) for j in range(n)] for i in range(n)]
        acc = _int_rows(self)
        while e:
            if e & 1:
                result = _int_matmul(result, acc, ops)
            e >>= 1
            if e:
                acc = _int_matmul(acc, acc, ops)
        return _from_int_rows(self.field, result, n)

    def trace(self) -> FieldElement:
        if not self.is_square:
            raise NonSquareMatrix("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows))


# The kernels below work on rows of canonical ints (lists, mutated in place).

def _int_rows(M: Matrix) -> list[list[int]]:
    vals = [e.int_value for e in M.entries]
    return [vals[i * M.cols:(i + 1) * M.cols] for i in range(M.rows)]


def _from_int_rows(field: Field, rows: list[list[int]], cols: int) -> Matrix:
    return Matrix(field, len(rows), cols, tuple(FieldElement(field, v) for r in rows for v in r))


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
    """Determinant by Gaussian elimination with row swaps."""
    if not M.is_square:
        raise NonSquareMatrix("determinant of a non-square matrix")
    n = M.rows
    add, neg, mul, inv, _ = M.field.ops
    a = _int_rows(M)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return M.field.zero()
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            det = neg(det)
        top = a[col]
        det = mul(det, top[col])
        inv_piv = inv(top[col])
        for row in a[col + 1:]:
            if row[col]:
                t = neg(mul(row[col], inv_piv))
                for c in range(col, n):
                    row[c] = add(row[c], mul(t, top[c]))
    return FieldElement(M.field, det)


def matrix_is_invertible(M: Matrix) -> bool:
    return M.is_square and not matrix_det(M).is_zero()


def matrix_charpoly(M: Matrix) -> Polynomial:
    """Monic det(XI - M) via Hessenberg reduction + minor recurrence."""
    if not M.is_square:
        raise NonSquareMatrix("characteristic polynomial of a non-square matrix")
    n = M.rows
    ops = M.field.ops
    add, neg, mul, inv, _ = ops
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
        t = ops.kernel.mul([neg(H[m - 1][m - 1]), 1], p[m - 1])
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
    return _from_ints(M.field, p[n])


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
            return _from_ints(M.field, vec[size:size + k + 1])
        s = inv(vec[piv])
        basis.append((piv, [mul(s, y) for y in vec]))
        power = _int_matmul(power, rows, ops)


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
