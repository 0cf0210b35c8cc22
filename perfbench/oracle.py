"""Independent arithmetic used to establish the benchmark's known answers.

Nothing here imports tsrforge.  Field elements are ints in tsrforge's
encoding (sum of c_i p^i over the little-endian coefficients modulo the
field's modulus); polynomials are little-endian lists of such ints.  The
generator script and the tests use its verdicts; a run uses it only to
build certify inputs (products and their text), outside the timed calls.
"""

import math

# Moduli of tsrforge's extension fields, as printed by `tsrforge field Q`.
MODULI = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (2, 2, 1))}


class GF:
    """GF(q) with add/mul tables over the encoding above."""

    def __init__(self, q: int):
        if q in MODULI:
            p, mod = MODULI[q]
        else:
            p, mod = q, None
        self.q, self.p = q, p
        k = len(mod) - 1 if mod else 1
        vec = [_digits(v, p, k) for v in range(q)]
        enc = {tuple(d): v for v, d in enumerate(vec)}
        self.add = [[enc[tuple((a + b) % p for a, b in zip(vec[x], vec[y]))]
                     for y in range(q)] for x in range(q)]
        self.neg = [enc[tuple(-a % p for a in vec[x])] for x in range(q)]
        self.mul = [[enc[tuple(_mulmod(vec[x], vec[y], mod, p))] if mod else x * y % p
                     for y in range(q)] for x in range(q)]
        self.inv = [0] + [next(y for y in range(1, q) if self.mul[x][y] == 1)
                          for x in range(1, q)]


def _digits(v: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _mulmod(a, b, mod, p):
    k = len(mod) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            for i in range(k + 1):
                prod[d - k + i] = (prod[d - k + i] - c * mod[i]) % p
    return prod[:k]


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(F: GF, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = F.mul[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add[out[i + j]][row[y]]
    return trim(out)


def poly_mod(F: GF, a, f):
    a = list(a)
    df = len(f) - 1
    lead_inv = F.inv[f[-1]]
    while len(a) - 1 >= df and a:
        c = F.mul[a[-1]][lead_inv]
        shift = len(a) - 1 - df
        for i, y in enumerate(f):
            if y:
                a[shift + i] = F.add[a[shift + i]][F.neg[F.mul[c][y]]]
        trim(a)
    return a


def poly_powmod(F: GF, base, e: int, f):
    result, base = [1], poly_mod(F, base, f)
    while e:
        if e & 1:
            result = poly_mod(F, poly_mul(F, result, base), f)
        e >>= 1
        if e:
            base = poly_mod(F, poly_mul(F, base, base), f)
    return result


def poly_sub(F: GF, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return trim([F.add[x][F.neg[y]] for x, y in zip(a, b)])


def poly_gcd(F: GF, a, b):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, poly_mod(F, a, b)
    return a


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    if n >= 3317044064679887385961981:
        raise ValueError("is_prime is exact only below 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    for c in range(1, 200):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ValueError(f"rho failed on {n}")


def prime_factors(n: int) -> set:
    out = set()
    for p in range(2, 10000):
        while n % p == 0:
            out.add(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho(m)
            stack += [d, m // d]
    return out


def is_irreducible(F: GF, f) -> bool:
    """Rabin's test on a nonconstant f."""
    n = len(f) - 1
    X = [0, 1]
    for l in prime_factors(n) if n > 1 else ():
        h = poly_sub(F, poly_powmod(F, X, F.q ** (n // l), f), X)
        if len(poly_gcd(F, h, f)) != 1:
            return False
    return poly_mod(F, X, f) == poly_powmod(F, X, F.q ** n, f)


def is_primitive(F: GF, f) -> bool:
    """X mod f has order q^n - 1 (f irreducible, f(0) != 0)."""
    n = len(f) - 1
    if f[0] == 0 or not is_irreducible(F, f):
        return False
    order = F.q ** n - 1
    return all(poly_powmod(F, [0, 1], order // l, f) != [1] for l in prime_factors(order))


def element_text(q: int, v: int) -> str:
    """tsrforge's text for an element: '2a^2+a+1', 'a', '3'."""
    p, mod = MODULI.get(q, (q, None))
    if mod is None:
        return str(v)
    terms = []
    for i, c in reversed(list(enumerate(_digits(v, p, len(mod) - 1)))):
        if c:
            mult = "" if c == 1 and i else str(c)
            terms.append(mult + ("" if i == 0 else "a" if i == 1 else f"a^{i}"))
    return "+".join(terms) or "0"


def poly_text(q: int, f) -> str:
    """tsrforge's canonical text: 'x^3 + (a+1)x + a', composite terms parenthesized."""
    terms = []
    for i in range(len(f) - 1, -1, -1):
        if not f[i]:
            continue
        c = element_text(q, f[i])
        if "+" in c:
            c = f"({c})"
        mono = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        terms.append(mono if c == "1" and mono else c + mono)
    return " + ".join(terms)
