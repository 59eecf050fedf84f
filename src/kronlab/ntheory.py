"""Small integer number theory helpers.

Everything here runs on desk-scale moduli (N well below 10^6), so trial
division and sieves are the right tools.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (p, e) pairs."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


@lru_cache(maxsize=None)
def primitive_root(q: int) -> int:
    """Smallest primitive root modulo q, for q in {1, 2, 4, p^e, 2p^e}."""
    if q in (1, 2):
        return 1
    phi = euler_phi(q)
    prime_parts = prime_divisors(phi)
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in prime_parts):
            return g
    raise ValueError(f"no primitive root modulo {q}")


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2."""
    inv = pow(m1, -1, m2)
    t = (r2 - r1) * inv % m2
    return (r1 + m1 * t) % (m1 * m2)


def unit_group_generators(N: int) -> list[tuple[int, int]]:
    """Generators of (Z/NZ)^* with their orders, via the CRT decomposition.

    For 2^e with e >= 3 the factor is generated by -1 (order 2) and 5
    (order 2^(e-2)); odd prime powers use a primitive root.
    """
    if N == 1:
        return []
    gens = []
    for p, e in factorize(N):
        q = p**e
        rest = N // q
        local = []
        if p == 2:
            if e == 2:
                local = [(3, 2)]
            elif e >= 3:
                local = [(q - 1, 2), (5, 2 ** (e - 2))]
        else:
            local = [(primitive_root(q), euler_phi(q))]
        for g, order in local:
            if rest == 1:
                gens.append((g % N, order))
            else:
                gens.append((crt_pair(g, q, 1, rest), order))
    return gens
