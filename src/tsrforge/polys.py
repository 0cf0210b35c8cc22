"""Dense univariate polynomials over a Field, plus the canonical text format.

A polynomial stores its coefficients as canonical ints of its field,
little-endian (index i holds the coefficient of X^i), with no trailing
zeros, and every arithmetic method runs on the field's ops and kernel over
those ints.  `coeffs` wraps them as FieldElements, once, when first read.
The zero polynomial has no coefficients and degree NEG_INF, a sentinel
below every integer so deg(a*b) = deg a + deg b holds formally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .errors import DivisionByZeroPoly, ScaleExceeded
from .fields import Field, FieldElement, _format_int, int_pow
from .guards import check_custom, guard_bits
from .kernel import _trim, power

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Polynomial:
    field: Field
    ints: tuple[int, ...]

    def __post_init__(self):
        if self.ints and not self.ints[-1]:
            raise ValueError("trailing zero coefficient; use Polynomial.make")

    @staticmethod
    def make(field: Field, coeffs: Iterable) -> "Polynomial":
        """Build from little-endian coefficients (ints or FieldElements), trimming.

        An int is a canonical encoding: one outside [0, q) raises ValueError
        rather than being reduced mod q as Field.element(int) does.
        """
        return Polynomial(field, tuple(_trim(_encodings(field, coeffs))))

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial(field, ())

    @staticmethod
    def one(field: Field) -> "Polynomial":
        return Polynomial(field, (1,))

    @staticmethod
    def x(field: Field) -> "Polynomial":
        return Polynomial(field, (0, 1))

    @staticmethod
    def constant(field: Field, c) -> "Polynomial":
        return Polynomial.make(field, [c])

    @cached_property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple([FieldElement(self.field, v) for v in self.ints])

    @property
    def degree(self) -> Union[int, float]:
        return len(self.ints) - 1 if self.ints else NEG_INF

    def is_zero(self) -> bool:
        return not self.ints

    def is_monic(self) -> bool:
        return bool(self.ints) and self.ints[-1] == 1

    def coeff(self, i: int) -> FieldElement:
        return FieldElement(self.field, self.ints[i]) if 0 <= i < len(self.ints) else self.field.zero()

    @property
    def constant_term(self) -> FieldElement:
        return self.coeff(0)

    @property
    def leading(self) -> FieldElement:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self.ints) - 1)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        field = _common_field(self.field, other.field)
        a, b = sorted((self.ints, other.ints), key=len)
        return Polynomial(field, tuple(_trim(list(map(field.ops.add, a, b)) + list(b[len(a):]))))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, tuple(map(self.field.ops.neg, self.ints)))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        field = _common_field(self.field, other.field)
        return Polynomial(field, tuple(field.ops.kernel.mul(self.ints, other.ints)))

    def scale(self, c: FieldElement) -> "Polynomial":
        _common_field(self.field, c.owner)
        return self._times(c.int_value)

    def _times(self, v: int) -> "Polynomial":
        """Multiply every coefficient by the canonical int v."""
        mul = self.field.ops.mul
        return Polynomial(self.field, tuple([mul(a, v) for a in self.ints]) if v else ())

    def shift(self, k: int) -> "Polynomial":
        """Multiply by X^k (k >= 0)."""
        if self.is_zero() or k == 0:
            return self
        return Polynomial(self.field, (0,) * k + self.ints)

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.is_monic():
            return self
        return self._times(self.field.ops.inv(self.ints[-1]))

    def compose(self, g: "Polynomial") -> "Polynomial":
        """f(g(X)) by Horner on the field's kernel."""
        field = _common_field(self.field, g.field)
        return Polynomial(field, tuple(field.ops.kernel.compose(self.ints, g.ints)))

    def pow(self, e: int) -> "Polynomial":
        return Polynomial(self.field, tuple(power(self.ints, e, self.field.ops.kernel.mul, [1])))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r} over {self.field!r})"


def _encodings(field: Field, values: Iterable) -> list[int]:
    """The canonical ints of ints in [0, q), which are not reduced mod q, or of
    anything Field.element takes; ValueError for an int outside [0, q)."""
    ints = [int(v) if isinstance(v, int) else field.element(v).int_value for v in values]
    for v in ints:
        if not 0 <= v < field.order:
            raise ValueError(f"encoding {v} is outside GF({field.order})")
    return ints


def _common_field(a: Field, b: Field) -> Field:
    """The field of two operands (polynomials, matrices or a scalar); ValueError if they differ."""
    if a is not b and a != b:
        raise ValueError("elements belong to different fields")
    return a


def poly_divrem(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(quot, rem) with a = quot*b + rem, deg rem < deg b."""
    if b.is_zero():
        raise DivisionByZeroPoly("division by the zero polynomial")
    field = _common_field(a.field, b.field)
    quot, rem = field.ops.kernel.divrem(a.ints, b.ints)
    return Polynomial(field, tuple(quot)), Polynomial(field, tuple(rem))


def poly_mod(a: Polynomial, b: Polynomial) -> Polynomial:
    return poly_divrem(a, b)[1]


def poly_modpow(base: Polynomial, e: int, modulus: Polynomial) -> Polynomial:
    """base^e mod modulus, in the kernel's ring F_q[X]/(modulus); e >= 0."""
    if modulus.degree < 1:
        raise DivisionByZeroPoly("modulus must have degree >= 1")
    field = _common_field(base.field, modulus.field)
    ring = field.ops.kernel.ring(modulus.ints)
    return Polynomial(field, tuple(ring.list(ring.pow(ring.reduce(base.ints), e))))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd; zero when both are zero."""
    field = _common_field(a.field, b.field)
    return Polynomial(field, tuple(field.ops.kernel.gcd(a.ints, b.ints)))


# --- canonical text format ---
#
# Terms in decreasing degree joined by " + "; powers written with ^;
# extension-field coefficients printed in the generator symbol a, wrapped in
# parentheses when they have more than one term (e.g. "x^3 + x^2 + (a+1)").
# The parser also accepts the unparenthesized trailing style "x + 2a+1" by
# summing constant contributions term by term.

def format_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts, field = [], p.field
    for i in range(len(p.ints) - 1, -1, -1):
        if not p.ints[i]:
            continue
        cs = _format_int(p.ints[i], field)
        if "+" in cs:  # a composite coefficient
            cs = f"({cs})"
        if i == 0:
            parts.append(cs)
        else:
            parts.append(("" if cs == "1" else cs) + ("x" if i == 1 else f"x^{i}"))
    return " + ".join(parts)


_INT_DIGITS = 4300  # the most digits int() converts from a str, by default


def _decimal(digits: str, mod: int = 0) -> int:
    """int(digits), or int(digits) % mod when mod is given, read _INT_DIGITS digits at a time."""
    out = 0
    for i in range(0, len(digits), _INT_DIGITS):
        chunk = digits[i:i + _INT_DIGITS]
        out = out * 10 ** len(chunk) + int(chunk)
        if mod:
            out %= mod
    return out


def _x_degree(digits: str, bits: int) -> int:
    """An exponent of x; one too long for int() whose digit count alone puts it
    past the degree guard of 2^bits (10^(d-1) > 2^bits once d > bits/3 + 1) is refused by that count."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > max(_INT_DIGITS, bits // 3 + 1):
        raise ScaleExceeded(f"polynomial degree of a {len(digits)}-digit number exceeds the 2^{bits} guard")
    return _decimal(digits)


def _parse_coefficient(text: str, field: Field) -> int:
    """The canonical int of a coefficient expression like '2a^2+a+1', '3', '' (meaning 1)."""
    text = text.strip().replace(" ", "")
    ops, p = field.ops, field.characteristic
    if text in ("", "+", "-"):
        return ops.neg(1) if text == "-" else 1
    if text[-1] in "+-":
        raise ValueError(f"sign with no term after it in coefficient {text!r}")
    total = 0
    for sign, term in re.findall(r"([+-]?)([^+-]+)", text):
        m = re.fullmatch(r"(\d*)\*?a(?:\^(\d+))?", term)
        if m:
            exp = m.group(2) or "1"
            if field.extension_degree == 1 and any(map(int, exp)):
                raise ValueError("coefficient vector too long")
            # a^(q-1) = 1, so a^N is a^(N mod (q - 1)); a multiplier acts mod p
            contrib = ops.mul(int_pow(p, _decimal(exp, field.order - 1), ops), _decimal(m.group(1) or "1", p))
        elif term.isdigit():
            contrib = _decimal(term, p)
        else:
            raise ValueError(f"cannot parse coefficient term {term!r}")
        total = ops.add(total, ops.neg(contrib) if sign == "-" else contrib)
    return total


def parse_poly(text: str, field: Field) -> Polynomial:
    """Inverse of format_poly; accepts the looser unparenthesized table style.

    A constant tail like 'x^3 + x^2 + 2a + 2' sums term by term, so
    parentheses around composite coefficients are optional on input.
    """
    s = text.strip().replace(" ", "").replace("X", "x")
    if not s:
        raise ValueError("empty polynomial text")
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
    ops, bits = field.ops, guard_bits("enumeration")
    coeff_acc: dict[int, int] = {}
    vre = re.compile(r"^(?P<coeff>.*?)\*?x(?:\^(?P<exp>\d+))?$")
    for negate, chunk in chunks:
        m = vre.match(chunk)
        if m:
            exp, coeff_text = _x_degree(m.group("exp") or "1", bits), m.group("coeff")
        else:
            exp, coeff_text = 0, chunk
        if coeff_text.startswith("(") and coeff_text.endswith(")"):
            coeff_text = coeff_text[1:-1]
        c = _parse_coefficient(coeff_text, field)
        coeff_acc[exp] = ops.add(coeff_acc.get(exp, 0), ops.neg(c) if negate else c)
    top = max(coeff_acc) if coeff_acc else 0
    check_custom(top, bits, "polynomial degree")  # before the dense list is built
    return Polynomial(field, tuple(_trim([coeff_acc.get(i, 0) for i in range(top + 1)])))
