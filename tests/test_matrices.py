import random

import pytest

from tsrforge.errors import DimensionMismatch, NonSquareMatrix, ZeroConstantTerm
from tsrforge.fields import make_extension_field, make_field
from tsrforge.matrices import (Matrix, companion_matrix, matrix_charpoly,
                               matrix_det, matrix_is_invertible, matrix_minpoly)
from tsrforge.polys import Polynomial, format_poly, parse_poly, poly_mod


def _rand_matrix(rng, field, n):
    return Matrix.from_rows(field, [[field.element(rng.randrange(field.order))
                                     for _ in range(n)] for _ in range(n)])


def test_companion_layout():
    f2 = make_field(2)
    C = companion_matrix(parse_poly("x^2 + x + 1", f2))
    assert [[e.int_value for e in C.row(i)] for i in range(2)] == [[0, 1], [1, 1]]
    f5 = make_field(5)
    C5 = companion_matrix(parse_poly("x^3 + 2x^2 + 3x + 4", f5))
    # subdiagonal ones, last column holds negated coefficients
    assert [[e.int_value for e in C5.row(i)] for i in range(3)] == [
        [0, 0, 1], [1, 0, 2], [0, 1, 3]]


def test_companion_charpoly_round_trip():
    rng = random.Random(3)
    for q in (2, 3, 4, 9):
        field = make_field(q)
        for _ in range(25):
            n = rng.randrange(1, 5)
            coeffs = [field.element(rng.randrange(q)) for _ in range(n)] + [field.one()]
            f = Polynomial.make(field, coeffs)
            assert matrix_charpoly(companion_matrix(f)) == f


def test_companion_requires_monic_input_shape():
    f3 = make_field(3)
    with pytest.raises(ValueError):
        companion_matrix(Polynomial.constant(f3, f3.one()))


def test_matrix_ring_laws():
    rng = random.Random(7)
    f4 = make_field(4)
    for _ in range(25):
        A = _rand_matrix(rng, f4, 3)
        B = _rand_matrix(rng, f4, 3)
        C = _rand_matrix(rng, f4, 3)
        assert (A + B) + C == A + (B + C)
        assert A * (B + C) == A * B + A * C
        assert (A * B) * C == A * (B * C)
        I = Matrix.identity(f4, 3)
        assert A * I == A and I * A == A


def test_det_multiplicative():
    rng = random.Random(13)
    f5 = make_field(5)
    for _ in range(30):
        A = _rand_matrix(rng, f5, 3)
        B = _rand_matrix(rng, f5, 3)
        assert matrix_det(A * B) == matrix_det(A) * matrix_det(B)


def test_invertibility_matches_det():
    rng = random.Random(19)
    f3 = make_field(3)
    for _ in range(40):
        A = _rand_matrix(rng, f3, 2)
        assert matrix_is_invertible(A) == (not matrix_det(A).is_zero())


def test_charpoly_known():
    f2 = make_field(2)
    A = Matrix.from_rows(f2, [[1, 1], [0, 1]])
    # (x-1)^2 = x^2 + 1 over F_2
    assert format_poly(matrix_charpoly(A)) == "x^2 + 1"
    f3 = make_field(3)
    B = Matrix.from_rows(f3, [[0, 1], [2, 0]])
    assert format_poly(matrix_charpoly(B)) == "x^2 + 1"


def test_cayley_hamilton_random():
    rng = random.Random(29)
    for q in (2, 3, 9):
        field = make_field(q)
        for _ in range(15):
            n = rng.randrange(1, 4)
            A = _rand_matrix(rng, field, n)
            chi = matrix_charpoly(A)
            acc = Matrix.zeros(field, n, n)
            for i, c in enumerate(chi.coeffs):
                acc = acc + A.power(i).scale(c)
            assert acc == Matrix.zeros(field, n, n)


def test_apply_and_power():
    f2 = make_field(2)
    A = Matrix.from_rows(f2, [[0, 1], [1, 1]])
    v = (f2.one(), f2.zero())
    assert A.apply(v) == (f2.zero(), f2.one())
    assert A.power(0) == Matrix.identity(f2, 2)
    assert A.power(3) == A * A * A


def test_shape_errors():
    f2 = make_field(2)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(f2, [[1, 0], [1]])
    A = Matrix.from_rows(f2, [[1, 0], [0, 1]])
    B = Matrix.from_rows(f2, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionMismatch):
        _ = A + B
    with pytest.raises(NonSquareMatrix):
        matrix_charpoly(B)
    with pytest.raises(NonSquareMatrix):
        matrix_det(B)
    with pytest.raises(NonSquareMatrix):
        matrix_minpoly(B)


def test_from_rows_refuses_out_of_range_encodings():
    # an int entry is a canonical encoding; it is not reduced mod q
    f4 = make_field(4)
    for bad in ([[7, 1]], [[0, -1]], [[1, 0], [0, 4]]):
        with pytest.raises(ValueError, match="outside GF\\(4\\)"):
            Matrix.from_rows(f4, bad)
    A = Matrix.from_rows(f4, [[3, 0], [f4.element([1, 1]), 2]])
    assert [e.int_value for e in A.entries] == [3, 0, 3, 2]


DIFFERENTIAL_FIELDS = [make_field(q) for q in (2, 3, 4, 9, 25)] + [
    make_extension_field(2, 4, modulus=(1, 1, 1, 1, 1)),  # irreducible, X of order 5
    make_field(2 ** 17),  # above the exp/log table bound
    make_field(65537),  # prime field above 2^16
]
FIELD_IDS = ("F2", "F3", "F4", "F9", "F25", "F16_x_of_order_5", "F2^17", "F65537")


def _sparse_matrix(rng, field, n):
    """Random n x n matrix with about half its entries zero."""
    return Matrix.from_rows(field, [[rng.randrange(field.order) if rng.random() < 0.5 else 0
                                     for _ in range(n)] for _ in range(n)])


def _schoolbook(A, B):
    """A * B with FieldElement * and +, outside the int kernel."""
    field = A.field
    rows = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = field.zero()
            for t in range(A.cols):
                acc = acc + A.at(i, t) * B.at(t, j)
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(field, rows)


def _cofactor_det(A):
    """Laplace expansion along the first row, with FieldElement arithmetic."""
    field = A.field
    acc = field.one() if A.rows == 0 else field.zero()
    for j in range(A.cols):
        minor = Matrix.from_rows(field, [[A.at(i, k) for k in range(A.cols) if k != j]
                                         for i in range(1, A.rows)])
        term = A.at(0, j) * _cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=FIELD_IDS)
def test_int_kernels_match_field_element_arithmetic(field):
    rng = random.Random(field.order)
    for n in range(1, 5):
        for make in (_rand_matrix, _sparse_matrix, _sparse_matrix):
            A, B = make(rng, field, n), make(rng, field, n)
            det = _cofactor_det(A)
            assert matrix_det(A) == det
            chi = matrix_charpoly(A)
            assert chi.degree == n and chi.is_monic()
            assert chi.coeff(n - 1) == -A.trace()
            assert chi.coeff(0) == (det if n % 2 == 0 else -det)
            # Cayley-Hamilton: chi(A) = 0, by Horner on schoolbook products
            I = Matrix.identity(field, n)
            acc = Matrix.zeros(field, n, n)
            for c in reversed(chi.coeffs):
                acc = _schoolbook(acc, A) + I.scale(c)
            assert acc == Matrix.zeros(field, n, n)
            # mu(A) = 0 the same way; mu is monic, divides chi, and chi divides mu^n
            mu = matrix_minpoly(A)
            assert mu.is_monic() and 1 <= mu.degree <= n
            acc = Matrix.zeros(field, n, n)
            for c in reversed(mu.coeffs):
                acc = _schoolbook(acc, A) + I.scale(c)
            assert acc == Matrix.zeros(field, n, n)
            assert poly_mod(chi, mu).is_zero() and poly_mod(mu.pow(n), chi).is_zero()
            assert A * B == _schoolbook(A, B)
            power = I
            for e in range(6):
                assert A.power(e) == power
                power = _schoolbook(power, A)


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=FIELD_IDS)
def test_minpoly_pinned_cases(field):
    rng = random.Random(field.order + 1)
    x = Polynomial.x(field)
    for _ in range(3):
        lam = field.element(rng.randrange(field.order))
        x_minus_lam = x - Polynomial.constant(field, lam)
        for k in range(1, 5):
            # lam I -> X - lam; the k x k Jordan block J_k(lam) -> (X - lam)^k
            scalar = Matrix.from_rows(field, [[lam if i == j else 0 for j in range(k)]
                                              for i in range(k)])
            assert matrix_minpoly(scalar) == x_minus_lam
            jordan = Matrix.from_rows(field, [[lam if i == j else int(j == i + 1)
                                               for j in range(k)] for i in range(k)])
            assert matrix_minpoly(jordan) == x_minus_lam.pow(k)
        f = Polynomial.make(field, [rng.randrange(field.order) for _ in range(4)] + [1])
        assert matrix_minpoly(companion_matrix(f)) == f


def test_product_over_different_fields_is_refused():
    # zero matrices have no nonzero product to trip an element-level check
    f2, f4 = make_field(2), make_field(4)
    with pytest.raises(ValueError, match="different fields"):
        _ = Matrix.zeros(f2, 2, 2) * Matrix.zeros(f4, 2, 2)
    with pytest.raises(ValueError, match="different fields"):
        _ = Matrix.identity(f4, 2) * Matrix.identity(f2, 2)
