import math
import random

import pytest

from tsrforge.errors import FactorizationOverflow
from tsrforge.factorint import (Factorization, euler_phi, factor_integer,
                                is_prime_int, merged_factorization, moebius,
                                multiplicative_order_from)


def test_factor_small_known():
    assert factor_integer(1).as_dict() == {}
    assert factor_integer(2).as_dict() == {2: 1}
    assert factor_integer(360).as_dict() == {2: 3, 3: 2, 5: 1}
    assert factor_integer(2 ** 20 - 1).as_dict() == {3: 1, 5: 2, 11: 1, 31: 1, 41: 1}
    assert factor_integer(3 ** 12 - 1).as_dict() == {2: 4, 5: 1, 7: 1, 13: 1, 73: 1}


def test_factor_mersenne_prime():
    # 2^61 - 1 is prime; forces the deterministic primality path
    n = 2 ** 61 - 1
    assert factor_integer(n).as_dict() == {n: 1}


def test_factor_hard_semiprime():
    # two 9-digit primes; forces rho
    p, q = 999999937, 999999893
    assert factor_integer(p * q).as_dict() == {q: 1, p: 1}


def test_factor_random_round_trip():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(2, 10 ** 12)
        fac = factor_integer(n)
        prod = 1
        for prime, exp in fac.as_dict().items():
            for k in range(1, exp + 1):
                assert prime ** k <= n
            prod *= prime ** exp
            assert is_prime_int(prime)
        assert prod == n


def _factor_cold(n):
    """factor_integer without its cache, so bulk checks leave the cache to the program."""
    return factor_integer.__wrapped__(n).as_dict()


def test_factor_matches_a_smallest_prime_factor_sieve():
    bound = 1 << 15
    spf = list(range(bound))
    for p in range(2, 182):  # 181^2 > 2^15
        if spf[p] == p:
            for k in range(p * p, bound, p):
                spf[k] = min(spf[k], p)
    for n in range(1, bound):
        expected, rest = {}, n
        while rest > 1:
            expected[spf[rest]] = expected.get(spf[rest], 0) + 1
            rest //= spf[rest]
        assert _factor_cold(n) == expected, n


def test_factor_products_of_two_primes_past_the_trial_divisors():
    # a^i b^j with 41 <= a <= b < 200: no factor is one of the twelve trial divisors
    primes = [p for p in range(41, 200) if is_prime_int(p)]
    for x, a in enumerate(primes):
        for b in primes[x:]:
            for i in range(6):
                for j in range(6):
                    if i + j and a ** i * b ** j <= 2 ** 64:
                        expected = {a: i + j} if a == b else {p: e for p, e in ((a, i), (b, j)) if e}
                        assert _factor_cold(a ** i * b ** j) == expected, (a, i, b, j)


def test_factor_overflow():
    with pytest.raises(FactorizationOverflow):
        factor_integer(2 ** 64 + 1)
    # 2^64 itself is within the supported range
    assert factor_integer(2 ** 64).as_dict() == {2: 64}


def test_euler_phi_known():
    assert euler_phi(1) == 1
    assert euler_phi(15) == 8
    assert euler_phi(2 ** 10 - 1) == 600
    assert euler_phi(2 ** 12 - 1) == euler_phi(3 ** 2) * euler_phi(5) * euler_phi(7) * euler_phi(13)
    # phi(n) counts gcd(k, n) = 1 directly
    import math
    for n in (12, 36, 97, 255):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_moebius_known():
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # Mertens identity: sum over divisors is the unit impulse
    for n in (1, 6, 30, 72):
        total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_merged_factorization():
    merged = merged_factorization([12, 18])
    assert merged == {2: 2, 3: 2}
    assert merged_factorization([7]) == {7: 1}
    assert merged_factorization([2 ** 16 - 1, 2 ** 8 - 1]) == {3: 1, 5: 1, 17: 1, 257: 1}


def test_multiplicative_order_from():
    # order of 2 modulo 341 = 11 * 31 is 10
    n = 341
    factors = factor_integer(340).as_dict()
    order = multiplicative_order_from(lambda e: pow(2, e, n), 1, 340, factors)
    assert order == 10
    # order of 3 modulo 2^16: full group order exponent check
    factors = factor_integer(2 ** 14).as_dict()
    order = multiplicative_order_from(lambda e: pow(3, e, 2 ** 16), 1, 2 ** 14, factors)
    assert pow(3, order, 2 ** 16) == 1
    assert all(pow(3, order // p, 2 ** 16) != 1 for p in (2,))


def test_factorization_primes_sorted():
    fac = factor_integer(2 ** 24 - 1)
    assert list(fac.primes) == sorted(fac.primes)
    assert fac.n == 2 ** 24 - 1



def test_each_base_prefix_refuses_the_strong_pseudoprime_at_its_bound():
    # psi_k, the least odd composite that passes Miller-Rabin on the first k prime
    # bases, is the bound of that prefix, so at psi_k itself a longer prefix decides
    psi = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
           6: 3474749660383, 7: 341550071728321, 9: 3825123056546413051}
    for k, n in psi.items():
        assert not is_prime_int(n), k
    # below the first four bounds, the short prefixes agree with trial division
    for bound in (2047, 1373653, 25326001, 3215031751):
        for n in range(bound - 60, bound, 2):
            assert is_prime_int(n) == all(n % d for d in range(3, math.isqrt(n) + 1, 2)), n
    # a cofactor below 41^2 left after the trial divisors is a prime
    assert factor_integer(2 * 3 * 1667).factors == ((2, 1), (3, 1), (1667, 1))
    assert factor_integer(37 * 41 * 41).factors == ((37, 1), (41, 2))
