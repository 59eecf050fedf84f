import math
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm

import pytest

from kronlab.arith import Cyclotomic, bernoulli_number, embed_complex
from kronlab.dirichlet import (
    ParityError,
    bernoulli_pair,
    enumerate_characters,
    gauss_sum,
    l_value_negative,
    l_value_numeric,
    trivial_character,
    twisted_bernoulli,
)
from kronlab.ntheory import divisors, euler_phi, unit_group_generators


def quadratic(N):
    return next(c for c in enumerate_characters(N) if c.order == 2)


def test_enumerate_n1():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert chi(0) == 1 and chi.is_even() and chi.is_primitive()


def test_enumerate_n5():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    real_nontrivial = [c for c in chars if c.order == 2]
    assert len(real_nontrivial) == 1
    chi = real_nontrivial[0]
    assert chi.is_even() and chi.is_primitive()
    assert chars.index(chi) == 1  # trivial first, quadratic second
    assert chi(2) == -1 and chi(4) == 1 and chi(5) == 0


def test_enumerate_n3():
    chars = enumerate_characters(3)
    assert len(chars) == 2
    nontrivial = chars[1]
    assert not nontrivial.is_even()
    assert nontrivial(2) == -1


def test_enumerate_counts_and_multiplicativity():
    for N in (4, 8, 12, 13, 15):
        chars = enumerate_characters(N)
        assert len(chars) == euler_phi(N)
        for chi in chars[:6]:
            for a in range(N):
                for b in range(N):
                    assert chi(a * b) == chi(a) * chi(b)


# Oracles: characters built value by value as tables of Cyclotomic values,
# and their conjugate, parity and conductor read from those values.

def values_oracle(N: int) -> list:
    """(order, values) of every character mod N, built value by value from
    generators of (Z/NZ)^* and sorted by order and lifted value table."""
    if N == 1:
        return [(1, (Cyclotomic.from_rational(1),))]
    gens = unit_group_generators(N)
    chars = []
    for exps in product(*[range(d) for _, d in gens]):
        L = 1
        for (g, d), e in zip(gens, exps):
            L = lcm(L, d // gcd(d, e))
        values = [Cyclotomic.zero(L) if gcd(a, N) != 1 else None for a in range(N)]
        for avec in product(*[range(d) for _, d in gens]):
            r, t = 1, 0
            for (g, d), a, e in zip(gens, avec, exps):
                r = r * pow(g, a, N) % N
                t += a * e * L // d
            values[r] = Cyclotomic.zeta(L, t % L)
        chars.append((L, tuple(values)))
    common = lcm(*(L for L, _ in chars))
    chars.sort(key=lambda c: (c[0], tuple(v.lift(common).coeffs for v in c[1])))
    return chars


def conjugate_oracle(z: Cyclotomic) -> Cyclotomic:
    """Image of z under zeta -> zeta^(-1), power by power."""
    m = z.order
    out = None
    for j, c in enumerate(z.coeffs):
        if c == 0:
            continue
        term = Cyclotomic.zeta(m, (m - j) % m) * c
        out = term if out is None else out + term
    return out if out is not None else Cyclotomic.zero(m)


def is_even_oracle(values) -> bool:
    return len(values) == 1 or values[-1] == 1


def conductor_oracle(values) -> int:
    N = len(values)
    for M in divisors(N):
        if all(values[a % N] == 1 for a in range(1, N + 1) if gcd(a, N) == 1 and a % M == 1 % M):
            return M


# The order of enumerate_characters, which every --char INDEX reads: each
# character's exponent table, "." where it is 0 (off the units).
PINNED_CHARACTERS = {
    5: [
        ". 0 0 0 0",
        ". 0 1 1 0",
        ". 0 3 1 2",
        ". 0 1 3 2",
    ],
    7: [
        ". 0 0 0 0 0 0",
        ". 0 0 1 0 1 1",
        ". 0 1 2 2 1 0",
        ". 0 2 1 1 2 0",
        ". 0 2 1 4 5 3",
        ". 0 4 5 2 1 3",
    ],
    13: [
        ". 0 0 0 0 0 0 0 0 0 0 0 0",
        ". 0 1 0 0 1 1 1 1 0 0 1 0",
        ". 0 1 1 2 0 2 2 0 2 1 1 0",
        ". 0 2 2 1 0 1 1 0 1 2 2 0",
        ". 0 3 0 2 3 3 1 1 0 2 1 2",
        ". 0 1 0 2 1 1 3 3 0 2 3 2",
        ". 0 1 4 2 3 5 5 3 2 4 1 0",
        ". 0 5 2 4 3 1 1 3 4 2 5 0",
        ". 0 7 4 2 3 11 5 9 8 10 1 6",
        ". 0 5 8 10 9 1 7 3 4 2 11 6",
        ". 0 11 8 10 3 7 1 9 4 2 5 6",
        ". 0 1 4 2 9 5 11 3 8 10 7 6",
    ],
    17: [
        ". 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
        ". 0 0 1 0 1 1 1 0 0 1 1 1 0 1 0 0",
        ". 0 2 3 0 3 1 1 2 2 1 1 3 0 3 2 0",
        ". 0 2 1 0 1 3 3 2 2 3 3 1 0 1 2 0",
        ". 0 6 5 4 1 3 7 2 2 7 3 1 4 5 6 0",
        ". 0 6 1 4 5 7 3 2 2 3 7 5 4 1 6 0",
        ". 0 2 7 4 3 1 5 6 6 5 1 3 4 7 2 0",
        ". 0 2 3 4 7 5 1 6 6 1 5 7 4 3 2 0",
        ". 0 10 11 4 7 5 9 14 6 1 13 15 12 3 2 8",
        ". 0 10 3 4 15 13 1 14 6 9 5 7 12 11 2 8",
        ". 0 14 9 12 13 7 3 10 2 11 15 5 4 1 6 8",
        ". 0 14 1 12 5 15 11 10 2 3 7 13 4 9 6 8",
        ". 0 6 13 12 1 3 15 2 10 7 11 9 4 5 14 8",
        ". 0 6 5 12 9 11 7 2 10 15 3 1 4 13 14 8",
        ". 0 2 15 4 11 1 5 6 14 13 9 3 12 7 10 8",
        ". 0 2 7 4 3 9 13 6 14 5 1 11 12 15 10 8",
    ],
    41: [
        ". 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
        ". 0 0 1 0 0 1 1 0 0 0 1 1 1 1 1 0 1 0 1 0 0 1 0 1 0 1 1 1 1 1 0 0 0 1 1 0 0 1 0 0",
        ". 0 2 3 0 2 1 3 2 2 0 3 3 3 1 1 0 1 0 1 2 2 1 0 1 0 1 1 3 3 3 0 2 2 3 1 2 0 3 2 0",
        ". 0 2 1 0 2 3 1 2 2 0 1 1 1 3 3 0 3 0 3 2 2 3 0 3 0 3 3 1 1 1 0 2 2 1 3 2 0 1 2 0",
        ". 0 2 0 4 4 2 3 1 0 1 1 4 2 0 4 3 1 2 3 3 3 3 2 1 3 4 0 2 4 1 1 0 1 3 2 4 4 0 2 0",
        ". 0 3 0 1 1 3 2 4 0 4 4 1 3 0 1 2 4 3 2 2 2 2 3 4 2 1 0 3 1 4 4 0 4 2 3 1 1 0 3 0",
        ". 0 4 0 3 3 4 1 2 0 2 2 3 4 0 3 1 2 4 1 1 1 1 4 2 1 3 0 4 3 2 2 0 2 1 4 3 3 0 4 0",
        ". 0 1 0 2 2 1 4 3 0 3 3 2 1 0 2 4 3 1 4 4 4 4 1 3 4 2 0 1 2 3 3 0 3 4 1 2 2 0 1 0",
        ". 0 6 5 4 2 3 5 2 2 0 1 1 5 3 7 0 3 0 3 6 2 7 4 7 4 3 7 1 5 5 4 6 6 1 7 6 0 1 2 4",
        ". 0 6 1 4 2 7 1 2 2 0 5 5 1 7 3 0 7 0 7 6 2 3 4 3 4 7 3 5 1 1 4 6 6 5 3 6 0 5 2 4",
        ". 0 2 7 4 6 1 7 6 6 0 3 3 7 1 5 0 1 0 1 2 6 5 4 5 4 1 5 3 7 7 4 2 2 3 5 2 0 3 6 4",
        ". 0 2 3 4 6 5 3 6 6 0 7 7 3 5 1 0 5 0 5 2 6 1 4 1 4 5 1 7 3 3 4 2 2 7 1 2 0 7 6 4",
        ". 0 4 5 8 8 9 1 2 0 2 7 3 9 5 3 6 7 4 1 6 6 1 4 7 6 3 5 9 3 7 2 0 2 1 9 8 8 5 4 0",
        ". 0 6 5 2 2 1 9 8 0 8 3 7 1 5 7 4 3 6 9 4 4 9 6 3 4 7 5 1 7 3 8 0 8 9 1 2 2 5 6 0",
        ". 0 8 5 6 6 3 7 4 0 4 9 1 3 5 1 2 9 8 7 2 2 7 8 9 2 1 5 3 1 9 4 0 4 7 3 6 6 5 8 0",
        ". 0 2 5 4 4 7 3 6 0 6 1 9 7 5 9 8 1 2 3 8 8 3 2 1 8 9 5 7 9 1 6 0 6 3 7 4 4 5 2 0",
        ". 0 14 15 8 18 9 11 2 10 12 7 3 19 5 13 16 17 4 1 6 6 1 4 17 16 13 5 19 3 7 12 10 2 11 9 18 8 15 14 0",
        ". 0 14 5 8 18 19 1 2 10 12 17 13 9 15 3 16 7 4 11 6 6 11 4 7 16 3 15 9 13 17 12 10 2 1 19 18 8 5 14 0",
        ". 0 6 15 12 2 1 19 18 10 8 3 7 11 5 17 4 13 16 9 14 14 9 16 13 4 17 5 11 7 3 8 10 18 19 1 2 12 15 6 0",
        ". 0 6 5 12 2 11 9 18 10 8 13 17 1 15 7 4 3 16 19 14 14 19 16 3 4 7 15 1 17 13 8 10 18 9 11 2 12 5 6 0",
        ". 0 2 15 4 14 17 3 6 10 16 11 19 7 5 9 8 1 12 13 18 18 13 12 1 8 9 5 7 19 11 16 10 6 3 17 14 4 15 2 0",
        ". 0 2 5 4 14 7 13 6 10 16 1 9 17 15 19 8 11 12 3 18 18 3 12 11 8 19 15 17 9 1 16 10 6 13 7 14 4 5 2 0",
        ". 0 18 15 16 6 13 7 14 10 4 19 11 3 5 1 12 9 8 17 2 2 17 8 9 12 1 5 3 11 19 4 10 14 7 13 6 16 15 18 0",
        ". 0 18 5 16 6 3 17 14 10 4 9 1 13 15 11 12 19 8 7 2 2 7 8 19 12 11 15 13 1 9 4 10 14 17 3 6 16 5 18 0",
        ". 0 22 25 4 34 7 33 26 10 16 21 29 17 15 19 8 31 32 23 38 18 3 12 11 28 39 35 37 9 1 36 30 6 13 27 14 24 5 2 20",
        ". 0 22 5 4 34 27 13 26 10 16 1 9 37 35 39 8 11 32 3 38 18 23 12 31 28 19 15 17 29 21 36 30 6 33 7 14 24 25 2 20",
        ". 0 18 35 36 6 13 27 14 30 24 39 31 3 5 1 32 29 8 37 2 22 17 28 9 12 21 25 23 11 19 4 10 34 7 33 26 16 15 38 20",
        ". 0 18 15 36 6 33 7 14 30 24 19 11 23 25 21 32 9 8 17 2 22 37 28 29 12 1 5 3 31 39 4 10 34 27 13 26 16 35 38 20",
        ". 0 26 35 12 22 21 19 38 30 8 23 7 11 5 17 24 13 16 29 34 14 9 36 33 4 37 25 31 27 3 28 10 18 39 1 2 32 15 6 20",
        ". 0 26 15 12 22 1 39 38 30 8 3 27 31 25 37 24 33 16 9 34 14 29 36 13 4 17 5 11 7 23 28 10 18 19 21 2 32 35 6 20",
        ". 0 34 35 28 38 29 11 22 30 32 7 23 19 5 33 16 37 24 21 26 6 1 4 17 36 13 25 39 3 27 12 10 2 31 9 18 8 15 14 20",
        ". 0 34 15 28 38 9 31 22 30 32 27 3 39 25 13 16 17 24 1 26 6 21 4 37 36 33 5 19 23 7 12 10 2 11 29 18 8 35 14 20",
        ". 0 14 25 28 18 39 1 2 10 32 37 13 9 15 3 16 7 24 31 6 26 11 4 27 36 23 35 29 33 17 12 30 22 21 19 38 8 5 34 20",
        ". 0 14 5 28 18 19 21 2 10 32 17 33 29 35 23 16 27 24 11 6 26 31 4 7 36 3 15 9 13 37 12 30 22 1 39 38 8 25 34 20",
        ". 0 6 25 12 2 31 9 18 10 8 13 37 1 15 27 24 23 16 39 14 34 19 36 3 4 7 35 21 17 33 28 30 38 29 11 22 32 5 26 20",
        ". 0 6 5 12 2 11 29 18 10 8 33 17 21 35 7 24 3 16 19 14 34 39 36 23 4 27 15 1 37 13 28 30 38 9 31 22 32 25 26 20",
        ". 0 38 25 36 26 23 17 34 10 24 29 21 33 15 11 32 39 8 7 22 2 27 28 19 12 31 35 13 1 9 4 30 14 37 3 6 16 5 18 20",
        ". 0 38 5 36 26 3 37 34 10 24 9 1 13 35 31 32 19 8 27 22 2 7 28 39 12 11 15 33 21 29 4 30 14 17 23 6 16 25 18 20",
        ". 0 2 35 4 14 37 3 6 30 16 31 39 27 5 9 8 21 32 13 18 38 33 12 1 28 29 25 7 19 11 36 10 26 23 17 34 24 15 22 20",
        ". 0 2 15 4 14 17 23 6 30 16 11 19 7 25 29 8 1 32 33 18 38 13 12 21 28 9 5 27 39 31 36 10 26 3 37 34 24 35 22 20",
    ],
}


@pytest.mark.parametrize("N", sorted(PINNED_CHARACTERS))
def test_character_order_is_pinned(N):
    got = [" ".join("." if e is None else str(e) for e in c.exponents) for c in enumerate_characters(N)]
    assert got == PINNED_CHARACTERS[N]


def lifted_values_key(common):
    """enumerate_characters' earlier sort key: the order, then every value
    lifted to Q(zeta_common) and read as its integer row."""
    return lambda c: (c.order, tuple(v.lift(common).nums for v in c.values))


@pytest.mark.parametrize("N", [*range(1, 121), 173, 177, 251])
def test_character_order_matches_the_lifted_values_key(N):
    chars = enumerate_characters(N)
    common = lcm(*(c.order for c in chars))
    assert sorted(reversed(chars), key=lifted_values_key(common)) == list(chars)


@pytest.mark.parametrize("N", [60, 101, 173])
def test_sorting_characters_lifts_no_value(N, monkeypatch):
    # one call reads the common rows of zeta_common^j once and lifts nothing
    import kronlab.arith
    import kronlab.dirichlet as dirichlet

    calls = {"lift": 0, "lift_slots": 0, "rows": []}
    lift, lift_slots, zeta_rows = Cyclotomic.lift, kronlab.arith.lift_slots, dirichlet._zeta_rows

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def rows(m):
        out = zeta_rows(m)
        calls["rows"].append((m, len(out)))
        return out

    monkeypatch.setattr(Cyclotomic, "lift", counted("lift", lift))
    monkeypatch.setattr(kronlab.arith, "lift_slots", counted("lift_slots", lift_slots))
    monkeypatch.setattr(dirichlet, "_zeta_rows", rows)
    chars = dirichlet.enumerate_characters.__wrapped__(N)  # past the cache, which it leaves as it is
    common = lcm(*(c.order for c in chars))
    assert calls["rows"] == [(common, common)]
    assert calls["lift"] == calls["lift_slots"] == 0


def build_character_oracle(N, gens, exps):
    """enumerate_characters' earlier construction of one character: its own
    walk of the unit group, one pow per generator per element, giving its
    (order, exponent table)."""
    orders = [d for _, d in gens]
    L = 1
    for (g, d), e in zip(gens, exps):
        L = lcm(L, d // gcd(d, e))
    table = [None] * N
    for avec in product(*[range(d) for d in orders]):
        r = 1
        t = 0
        for (g, d), a, e in zip(gens, avec, exps):
            r = r * pow(g, a, N) % N
            t += a * e * L // d
        table[r] = t % L
    return L, tuple(table)


def characters_oracle(N):
    """(order, exponent table) of every character mod N, one walk per
    character, sorted by order and the table's value rows at the lcm of the
    orders."""
    if N == 1:
        return [(1, (0,))]
    gens = unit_group_generators(N)
    chars = [build_character_oracle(N, gens, exps) for exps in product(*[range(d) for _, d in gens])]
    common = lcm(*(L for L, _ in chars))
    rows = [Cyclotomic.zeta(common, j).nums for j in range(common)]
    zero = (0,) * euler_phi(common)
    chars.sort(key=lambda c: (c[0], tuple(zero if e is None else rows[e * common // c[0]] for e in c[1])))
    return chars


@pytest.mark.parametrize("N", [*range(1, 121), 173, 251, 499])
def test_characters_match_one_walk_per_character(N):
    # the key, exponents, values and order of each character, and the order
    # of the list, against one walk per character and each character's own
    # list of zeta_order^e (built one character at a time: at N = 499 the
    # lists of all characters at once take hundreds of MB)
    chars = enumerate_characters(N)
    want = characters_oracle(N)
    assert [(c.order, c.exponents) for c in chars] == want
    for chi, (order, table) in zip(chars, want):
        assert chi.key == (N, order, table)
        zetas = [Cyclotomic.zeta(order, e) for e in range(order)]
        values = [Cyclotomic.zero(order) if e is None else zetas[e] for e in table]
        assert [(v.order, v.den, v.nums) for v in chi.values] == [(v.order, v.den, v.nums) for v in values]


def test_exponent_tables_share_one_int_per_exponent_and_order():
    # every entry e of a table of order L is read from one tuple(range(L)),
    # so the tables at N = 499 hold no more distinct ints than the sum of
    # their orders (one per entry above 256 when each is computed)
    chars = enumerate_characters(499)
    orders = {c.order for c in chars}
    ids = {id(e) for c in chars for e in (*c.exponents, *c.conjugate().exponents) if e is not None}
    assert len(ids) <= sum(orders)


@pytest.mark.parametrize("N", [60, 101, 173, 499])
def test_characters_share_one_zeta_list_per_order(N, monkeypatch):
    # one uncached call builds zeta_L^e once per distinct order L, and at
    # most the common rows of its sort key besides
    import functools

    import kronlab.dirichlet as dirichlet

    calls = []
    zeta = Cyclotomic.zeta

    def counted(order, power=1):
        calls.append(order)
        return zeta(order, power)

    monkeypatch.setattr(Cyclotomic, "zeta", staticmethod(counted))
    monkeypatch.setattr(dirichlet, "_zetas", functools.lru_cache(maxsize=None)(dirichlet._zetas.__wrapped__))
    chars = dirichlet.enumerate_characters.__wrapped__(N)  # past the cache, which it leaves as it is
    orders = {c.order for c in chars}
    assert len(calls) <= sum(orders) + lcm(*orders)
    values = {}  # each zeta_L^e is one object, whichever character of order L reads it
    for chi in chars:
        for e, v in zip(chi.exponents, chi.values):
            if e is not None:
                assert values.setdefault((chi.order, e), v) is v


@pytest.mark.parametrize("N", [1, 5, 7, 13, 15, 17, 21, 41])
def test_exponent_tables_match_the_value_oracles(N):
    chars = enumerate_characters(N)
    want = values_oracle(N)
    assert len(chars) == len(want)
    for chi, (order, values) in zip(chars, want):
        assert chi.order == order
        assert [(v.order, v.coeffs) for v in chi.values] == [(v.order, v.coeffs) for v in values]
        bar = chi.conjugate()
        assert bar.order == order
        assert [(v.order, v.coeffs) for v in bar.values] == [
            (w.order, w.coeffs) for w in map(conjugate_oracle, values)
        ]
        assert chi.is_even() == is_even_oracle(values)
        assert chi.conductor() == conductor_oracle(values)
        assert bar.conjugate() == chi and hash(bar.conjugate()) == hash(chi)
        assert (bar == chi) == all(v.is_rational() for v in values)


@pytest.mark.parametrize("N", [1, 5, 13, 21])
def test_conjugate_is_built_once(N):
    for chi in enumerate_characters(N):
        bar = chi.conjugate()
        assert chi.conjugate() is bar
        assert bar.conjugate() == chi and bar.conjugate() is bar.conjugate()


def test_primitivity_flags():
    assert not enumerate_characters(5)[0].is_primitive()  # induced from mod 1
    assert trivial_character(1).is_primitive()
    # mod 12: the character induced from mod 3 is imprimitive
    chars12 = enumerate_characters(12)
    conductors = sorted(c.conductor() for c in chars12)
    assert conductors == [1, 3, 4, 12]


def test_gauss_sum_examples():
    assert gauss_sum(trivial_character(1)) == 1
    chi = quadratic(5)
    z5 = [Cyclotomic.zeta(5, e) for e in range(5)]
    assert gauss_sum(chi) == z5[1] + z5[4] - z5[2] - z5[3]


def gauss_sum_oracle(chi) -> Cyclotomic:
    """W(chi) summed term by term in Cyclotomic arithmetic."""
    N = chi.modulus
    if N == 1:
        return Cyclotomic.from_rational(1)
    m = lcm(chi.order, N)
    acc = Cyclotomic.zero(m)
    for h in range(N):
        v = chi.values[h]
        if v:
            acc = acc + v * Cyclotomic.zeta(m, h * (m // N))
    return acc


@pytest.mark.parametrize("N", [*range(1, 42), 55, 60])
def test_gauss_sum_matches_the_term_by_term_sum(N):
    # the same element at the same order, in the same slots
    for chi in enumerate_characters(N):
        got, want = gauss_sum(chi), gauss_sum_oracle(chi)
        assert (got.order, got.den, got.nums) == (want.order, want.den, want.nums)


def test_gauss_sum_product_relation():
    # W(chi) W(conj chi) = chi(-1) N for primitive chi
    for N in (3, 4, 5, 7, 8, 12, 13):
        for chi in enumerate_characters(N):
            if not chi.is_primitive():
                continue
            prod = gauss_sum(chi) * gauss_sum(chi.conjugate())
            sign = 1 if chi.is_even() else -1
            assert prod == sign * N
            assert abs(abs(embed_complex(gauss_sum(chi))) - math.sqrt(N)) < 1e-10


def bernoulli_polynomial(n, x):
    """B_n(x) = sum_j C(n,j) B_j x^(n-j), in Fractions: the oracle behind
    twisted_bernoulli's integer power sums."""
    x = Fraction(x)
    return sum(comb(n, j) * bernoulli_number(j) * x ** (n - j) for j in range(n + 1))


def test_bernoulli_polynomial_examples():
    assert bernoulli_polynomial(2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli_polynomial(1, Fraction(1, 2)) == 0
    assert bernoulli_polynomial(2, Fraction(1, 5)) == Fraction(1, 150)


@pytest.mark.parametrize("N", range(1, 42))
def test_twisted_bernoulli_matches_the_bernoulli_polynomial_oracle(N):
    # B_{n,chi} = N^(n-1) sum_h chi(h) B_n(h/N) for every character mod N,
    # even and odd, and n <= 12; a rational value comes back as a Fraction
    table = [[bernoulli_polynomial(n, Fraction(h, N)) for h in range(N)] for n in range(13)]
    for chi in enumerate_characters(N):
        for n, values in enumerate(table):
            want = Cyclotomic.zero(chi.order)
            for v, b in zip(chi.values, values):
                if v:
                    want = want + v * b
            want = want * Fraction(N) ** (n - 1)
            got = twisted_bernoulli(n, chi)
            assert got == want, (N, chi, n)
            assert isinstance(got, Fraction) == want.is_rational()


def test_twisted_bernoulli_examples():
    assert twisted_bernoulli(0, trivial_character(1)) == 1
    chi = quadratic(5)
    assert twisted_bernoulli(3, chi) == 0
    assert twisted_bernoulli(2, chi) == Fraction(4, 5)
    # B_0 = chi(0) and B_1 = -chi(0)/2 for even primitive characters
    assert twisted_bernoulli(0, chi) == 0
    assert twisted_bernoulli(1, chi) == 0
    triv = trivial_character(1)
    assert twisted_bernoulli(1, triv) == Fraction(-1, 2)


def generating_function_jet(chi, nmax):
    """Coefficients of sum_a chi(a) e^(au) / (e^(Nu) - 1) as a Laurent jet in u."""
    N = chi.modulus
    top = nmax + 3
    num = []
    for j in range(top):
        acc = None
        for a in range(N):
            v = chi.values[a]
            if v:
                term = v * Fraction(a**j, math.factorial(j))
                acc = term if acc is None else acc + term
        num.append(acc if acc is not None else Fraction(0))
    den = [Fraction(N**j, math.factorial(j)) for j in range(top)]  # index j >= 1 used
    # quotient q_j (j >= -1) with sum_{i>=1} den_i q_{m-i} = num_m
    q = {}
    for m in range(top - 1):
        acc = num[m]
        for i in range(2, m + 2):
            acc = acc - den[i] * q[m - i]
        q[m - 1] = acc / den[1]
    return q


def test_twisted_bernoulli_generating_function_agreement():
    # B_{n,chi}/(n)! appears as the u^(n-1) jet coefficient, n <= 12, N <= 15
    for N in range(1, 16):
        for chi in enumerate_characters(N):
            if not (chi.is_even() and chi.is_primitive()):
                continue
            jet = generating_function_jet(chi, 13)
            for n in range(0, 13):
                expect = twisted_bernoulli(n, chi) * Fraction(1, math.factorial(n))
                assert jet[n - 1] == expect, (N, chi.order, n)


def pair_sum_oracle(k, chi1, chi2) -> dict:
    """The r + s = k pair loop as each Eisenstein closed form once wrote it."""
    out = {}
    for s in range(k, -1, -2):
        r = k - s
        br = twisted_bernoulli(r, chi1)
        bs = twisted_bernoulli(s, chi2)
        if br == 0 or bs == 0:
            continue
        out[r - 1] = br * bs / (math.factorial(r) * math.factorial(s))
    return out


def test_bernoulli_pair_matches_the_hand_written_loop():
    # value, type and Cyclotomic order: the report bytes depend on all three
    for N in (1, 5, 7, 13):
        for chi in enumerate_characters(N):
            for chi1, chi2 in ((chi, chi.conjugate()), (chi.conjugate(), chi), (chi, chi)):
                for k in range(2, 21, 2):
                    got = bernoulli_pair(k, chi1, chi2)
                    want = pair_sum_oracle(k, chi1, chi2)
                    assert sorted(got) == sorted(want), (N, k)
                    for e, c in want.items():
                        assert type(got[e]) is type(c) and got[e] == c, (N, k, e)
                        assert getattr(got[e], "order", None) == getattr(c, "order", None)


def test_l_value_negative():
    triv = trivial_character(1)
    assert l_value_negative(triv, 2) == Fraction(-1, 12)
    chi = quadratic(5)
    assert l_value_negative(chi, 2) == Fraction(-2, 5)
    with pytest.raises(ParityError):
        l_value_negative(chi, 3)


def test_l_value_numeric_zeta():
    triv = trivial_character(1)
    assert abs(l_value_numeric(triv, 2) - math.pi**2 / 6) < 1e-12
    assert abs(l_value_numeric(triv, 4) - math.pi**4 / 90) < 1e-12


def test_l_value_numeric_matches_prop22():
    chi = quadratic(5)
    lhs = embed_complex(l_value_negative(chi, 2))
    w = embed_complex(gauss_sum(chi))
    rhs = 2 * w * 5 * math.factorial(1) / (2j * math.pi) ** 2 * l_value_numeric(chi, 2)
    assert abs(lhs - rhs) < 1e-10


def test_l_value_numeric_complex_s_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 30
    triv = trivial_character(1)
    for s in (3.5, 2 + 1.3j, 4 - 0.7j):
        assert abs(l_value_numeric(triv, s) - complex(mp.zeta(s))) < 1e-12
    chi = quadratic(5)
    for s in (2.0, 2.5 + 0.8j):
        ref = complex(
            5 ** (-complex(s))
            * sum(float(chi.scalar(a)) * mp.zeta(s, a / 5) for a in range(1, 5))
        )
        assert abs(l_value_numeric(chi, s) - ref) < 1e-12


def test_l_value_numeric_rejects_divergent_region():
    with pytest.raises(ValueError):
        l_value_numeric(trivial_character(1), 0.5)
