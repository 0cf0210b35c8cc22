"""Dense univariate polynomials over a Field, plus the canonical text format.

Coefficient index i holds the coefficient of X^i; no trailing zeros are
stored.  The zero polynomial has an empty coefficient tuple and degree
NEG_INF, a sentinel below every integer so deg(a*b) = deg a + deg b holds
formally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DivisionByZeroPoly
from .fields import (Field, FieldElement, format_element, int_poly_divrem,
                     int_poly_gcd, int_poly_modpow, int_poly_mul)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Polynomial:
    field: Field
    coeffs: tuple[FieldElement, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1].is_zero():
            raise ValueError("trailing zero coefficient; use Polynomial.make")

    @staticmethod
    def make(field: Field, coeffs: Iterable) -> "Polynomial":
        """Build from little-endian coefficients (ints or FieldElements), trimming.

        An int is a canonical encoding: one outside [0, q) raises ValueError
        rather than being reduced mod q as Field.element(int) does.
        """
        elems = [FieldElement(field, int(c)) if isinstance(c, int) else field.element(c)
                 for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        return Polynomial(field, tuple(elems))

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial(field, ())

    @staticmethod
    def one(field: Field) -> "Polynomial":
        return Polynomial.make(field, [1])

    @staticmethod
    def x(field: Field) -> "Polynomial":
        return Polynomial.make(field, [0, 1])

    @staticmethod
    def constant(field: Field, c) -> "Polynomial":
        return Polynomial.make(field, [c])

    @property
    def degree(self) -> Union[int, float]:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def coeff(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    @property
    def constant_term(self) -> FieldElement:
        return self.coeff(0)

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.make(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.make(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        field = _common_field(self, other)
        return _from_ints(field, int_poly_mul(_ints(self), _ints(other), field.ops))

    def scale(self, c: FieldElement) -> "Polynomial":
        return Polynomial.make(self.field, [a * c for a in self.coeffs])

    def shift(self, k: int) -> "Polynomial":
        """Multiply by X^k (k >= 0)."""
        if self.is_zero() or k == 0:
            return self
        return Polynomial(self.field, tuple([self.field.zero()] * k) + self.coeffs)

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.leading.inverse())

    def reverse(self) -> "Polynomial":
        """Coefficient reversal X^deg * f(1/X); trims if f(0) = 0."""
        return Polynomial.make(self.field, list(reversed(self.coeffs)))

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, g: "Polynomial") -> "Polynomial":
        """f(g(X)) by Horner over polynomials."""
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * g + Polynomial.constant(self.field, c)
        return acc

    def pow(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError(f"exponent e = {e} must be >= 0")
        result = Polynomial.one(self.field)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            acc = acc * acc
        return result

    def derivative(self) -> "Polynomial":
        return Polynomial.make(
            self.field,
            [self.coeffs[i].scale_int(i) for i in range(1, len(self.coeffs))],
        )

    def int_encoding(self) -> int:
        """Sum of int(c_i) * q^i; the total order used for candidate scans."""
        q = self.field.order
        return sum(c.int_value * q**i for i, c in enumerate(self.coeffs))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r} over {self.field!r})"


# Polynomial.__mul__, poly_divrem, poly_modpow and poly_gcd convert at the
# edge and run the integer kernel of fields.py on canonical encodings.

def _ints(p: Polynomial) -> list[int]:
    return [c.int_value for c in p.coeffs]


def _from_ints(field: Field, coeffs: list[int]) -> Polynomial:
    """The polynomial of a trimmed list of canonical encodings."""
    return Polynomial(field, tuple([FieldElement(field, v) for v in coeffs]))


def _common_field(a, b) -> Field:
    """The field of two polynomials (or matrices); ValueError if they differ."""
    if a.field is not b.field and a.field != b.field:
        raise ValueError("elements belong to different fields")
    return a.field


def poly_divrem(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(quot, rem) with a = quot*b + rem, deg rem < deg b."""
    if b.is_zero():
        raise DivisionByZeroPoly("division by the zero polynomial")
    field = _common_field(a, b)
    quot, rem = int_poly_divrem(_ints(a), _ints(b), field.ops)
    return _from_ints(field, quot), _from_ints(field, rem)


def poly_mod(a: Polynomial, b: Polynomial) -> Polynomial:
    return poly_divrem(a, b)[1]


def poly_modpow(base: Polynomial, e: int, modulus: Polynomial) -> Polynomial:
    """base^e mod modulus by square-and-multiply."""
    if modulus.degree < 1:
        raise DivisionByZeroPoly("modulus must have degree >= 1")
    field = _common_field(base, modulus)
    return _from_ints(field, int_poly_modpow(_ints(base), e, _ints(modulus), field.ops))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd; zero when both are zero."""
    field = _common_field(a, b)
    return _from_ints(field, int_poly_gcd(_ints(a), _ints(b), field.ops))


# --- canonical text format ---
#
# Terms in decreasing degree joined by " + "; powers written with ^;
# extension-field coefficients printed in the generator symbol a, wrapped in
# parentheses when they have more than one term (e.g. "x^3 + x^2 + (a+1)").
# The parser also accepts the unparenthesized trailing style "x + 2a+1" by
# summing constant contributions term by term.

def format_poly(p: Polynomial, var: str = "x", gen_symbol: str = "a") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c.is_zero():
            continue
        cs = format_element(c, gen_symbol)
        composite = "+" in cs or "-" in cs
        if i == 0:
            parts.append(f"({cs})" if composite else cs)
            continue
        xpart = var if i == 1 else f"{var}^{i}"
        if cs == "1":
            parts.append(xpart)
        elif composite:
            parts.append(f"({cs}){xpart}")
        else:
            parts.append(f"{cs}{xpart}")
    return " + ".join(parts)


def _parse_coefficient(text: str, field: Field, gen_symbol: str) -> FieldElement:
    """Parse a coefficient expression like '2a^2+a+1', '3', '' (meaning 1)."""
    text = text.strip().replace(" ", "")
    if text in ("", "+"):
        return field.one()
    if text == "-":
        return -field.one()
    if text[-1] in "+-":
        raise ValueError(f"sign with no term after it in coefficient {text!r}")
    total = field.zero()
    for sign, term in re.findall(r"([+-]?)([^+-]+)", text):
        neg = sign == "-"
        m = re.fullmatch(rf"(\d*)\*?(?:{re.escape(gen_symbol)})(?:\^(\d+))?", term)
        if m:
            mult = int(m.group(1)) if m.group(1) else 1
            exp = int(m.group(2)) if m.group(2) else 1
            contrib = field.element([0] * exp + [mult])
        elif term.isdigit():
            contrib = field.element(int(term) % field.characteristic)
        else:
            raise ValueError(f"cannot parse coefficient term {term!r}")
        total = total - contrib if neg else total + contrib
    return total


def parse_poly(text: str, field: Field, var: str = "x", gen_symbol: str = "a") -> Polynomial:
    """Inverse of format_poly; accepts the looser unparenthesized table style.

    A constant tail like 'x^3 + x^2 + 2a + 2' sums term by term, so
    parentheses around composite coefficients are optional on input.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if var == var.lower():
        s = s.replace(var.upper(), var)
    if s == "0":
        return Polynomial.zero(field)
    # split into top-level signed chunks, keeping parenthesized groups intact
    chunks: list[tuple[bool, str]] = []
    depth = 0
    cur = ""
    neg = False
    for ch in s:
        if ch == "(":
            depth += 1
            cur += ch
        elif ch == ")":
            depth -= 1
            cur += ch
        elif ch in "+-" and depth == 0:
            if cur:
                chunks.append((neg, cur))
                cur = ""
                neg = ch == "-"
            else:
                neg = (ch == "-") != neg
        else:
            cur += ch
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if not cur:
        raise ValueError(f"sign with no term after it in {text!r}")
    chunks.append((neg, cur))
    coeff_acc: dict[int, FieldElement] = {}

    def add(i: int, c: FieldElement, negate: bool) -> None:
        if negate:
            c = -c
        coeff_acc[i] = coeff_acc.get(i, field.zero()) + c

    vre = re.compile(rf"^(?P<coeff>.*?)\*?{re.escape(var)}(?:\^(?P<exp>\d+))?$")
    for negate, chunk in chunks:
        m = vre.match(chunk)
        if m:
            coeff_text = m.group("coeff")
            exp = int(m.group("exp")) if m.group("exp") else 1
            if coeff_text.startswith("(") and coeff_text.endswith(")"):
                coeff_text = coeff_text[1:-1]
            add(exp, _parse_coefficient(coeff_text, field, gen_symbol), negate)
        else:
            inner = chunk[1:-1] if chunk.startswith("(") and chunk.endswith(")") else chunk
            add(0, _parse_coefficient(inner, field, gen_symbol), negate)
    top = max(coeff_acc) if coeff_acc else 0
    return Polynomial.make(field, [coeff_acc.get(i, field.zero()) for i in range(top + 1)])
