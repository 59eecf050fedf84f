import math
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from kronlab.arith import Cyclotomic, embed_complex
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
