"""Integer factorization and arithmetic functions on factored integers.

Trial division by the twelve Miller-Rabin bases 2..37 strips the smallest
primes; Pollard rho with Brent cycling splits the cofactor, with deterministic
Miller-Rabin (exact below 3.18e23) certifying primality of every reported prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import FactorizationOverflow
from .guards import check_factorable

_RHO_RETRY_CAP = 64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # Miller-Rabin's bases and the trial divisors
# (bound, k): below bound the first k bases decide (Pomerance, Selfridge & Wagstaff 1980; Jaeschke 1993)
_PREFIXES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
             (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9))


@dataclass(frozen=True)
class Factorization:
    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, multiplicity), primes ascending

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factor product {prod} != {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def is_prime_int(n: int) -> bool:
    """Deterministic primality for any n below 3.18e23, where the twelve bases stop being exact."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES[:next((k for bound, k in _PREFIXES if n < bound), len(_BASES))]:
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


def _brent_rho(n: int, seed: int) -> int:
    """One Brent-cycle attempt at a nontrivial factor of composite odd n."""
    y, c, m = (seed * 2 + 1) % n, (seed * 2 + 3) % n, 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _split(n: int, out: dict[int, int]) -> None:
    """Recursively factor n > 1 (no prime factor in _BASES)."""
    if is_prime_int(n):
        out[n] = out.get(n, 0) + 1
        return
    root = math.isqrt(n)
    if root * root == n:
        _split(root, out)
        _split(root, out)
        return
    for attempt in range(_RHO_RETRY_CAP):
        d = _brent_rho(n, attempt)
        if 1 < d < n:
            _split(d, out)
            _split(n // d, out)
            return
    raise FactorizationOverflow(f"Pollard rho failed to split {n}")


@lru_cache(maxsize=4096)
def factor_integer(n: int) -> Factorization:
    if n < 1:
        raise ValueError("factor_integer needs n >= 1")
    check_factorable(n)
    out: dict[int, int] = {}
    rest = n
    for p in _BASES:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    if rest >= 41 * 41:  # no prime below 41 divides rest, so below 41^2 it is 1 or a prime
        _split(rest, out)
    elif rest > 1:
        out[rest] = 1
    return Factorization(n, tuple(sorted(out.items())))


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p, _ in factor_integer(n).factors:
        result -= result // p
    return result


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    fac = factor_integer(n)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def merged_factorization(values) -> dict[int, int]:
    """Prime factorization of lcm(values), each value factored independently.

    Lets the lcm pass the factorization bound as long as every individual value stays within it.
    """
    merged: dict[int, int] = {}
    for v in values:
        for p, e in factor_integer(v).factors:
            if merged.get(p, 0) < e:
                merged[p] = e
    return merged


def multiplicative_order_from(pow_fn, identity, exponent: int, factors: dict[int, int]) -> int:
    """Order of an element given any exponent it annihilates and its factorization.

    pow_fn(e) must return the element raised to e; factors must factor `exponent`.
    """
    order = exponent
    for p in factors:
        while order % p == 0 and pow_fn(order // p) == identity:
            order //= p
    return order
