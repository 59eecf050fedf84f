from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from kronlab.arith import (
    Cyclotomic,
    bernoulli_number,
    bernoulli_polynomial,
    embed_complex,
    rational_to_str,
)


def bernoulli_oracle(n):
    # independent recurrence sum_{j<n} C(n+1, j) B_j = -(n+1) B_n
    table = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, j) * table[j] for j in range(m))
        table.append(-acc / (m + 1))
    return table[n]


def test_bernoulli_examples():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == bernoulli_oracle(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanishing():
    assert all(bernoulli_number(2 * r + 1) == 0 for r in range(1, 15))


def test_bernoulli_polynomial_examples():
    assert bernoulli_polynomial(2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli_polynomial(1, Fraction(1, 2)) == 0
    assert bernoulli_polynomial(2, Fraction(1, 5)) == Fraction(1, 150)


def test_cyclo_mul_examples():
    i = Cyclotomic.zeta(4)
    assert i * i == -1
    z5 = Cyclotomic.zeta(5)
    assert z5 * z5**4 == 1
    gauss = z5 + z5**4 - z5**2 - z5**3
    assert gauss * gauss == 5


def test_embed_examples():
    one = Cyclotomic.from_rational(1)
    assert embed_complex(one) == 1
    i = Cyclotomic.zeta(4)
    assert abs(embed_complex(i) - 1j) < 1e-15
    z5 = Cyclotomic.zeta(5)
    gauss = z5 + z5**4 - z5**2 - z5**3
    assert abs(embed_complex(gauss) - 5**0.5) < 1e-12


def test_mixed_order_lift_and_equality():
    # zeta_6 = -zeta_3^2, compared across orders
    z6 = Cyclotomic.zeta(6)
    z3 = Cyclotomic.zeta(3)
    assert z6 == -(z3**2)
    assert z6 + z3 != 0
    assert z6 * z3 == -1  # zeta_6^3


def test_inverse_and_division():
    z = Cyclotomic.zeta(7, 3) + 2
    assert z * z.inverse() == 1
    assert (1 / z) * z == 1


def test_rational_string_roundtrip():
    x = Fraction(-22, 7)
    assert Fraction(rational_to_str(x)) == x


small_rational = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def cyclotomics(draw, orders=(1, 3, 4, 5, 6, 8)):
    m = draw(st.sampled_from(orders))
    from kronlab.ntheory import euler_phi

    coeffs = draw(
        st.lists(small_rational, min_size=euler_phi(m), max_size=euler_phi(m))
    )
    return Cyclotomic(m, coeffs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms_fuzz(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * b == b * a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclotomics(), cyclotomics())
def test_embed_is_ring_hom_fuzz(a, b):
    assert abs(embed_complex(a + b) - (embed_complex(a) + embed_complex(b))) < 1e-10
    assert abs(embed_complex(a * b) - embed_complex(a) * embed_complex(b)) < 1e-10


def test_conjugate_is_complex_conjugation():
    z = Cyclotomic.zeta(5) + 2 * Cyclotomic.zeta(5, 3)
    assert abs(embed_complex(z.conjugate()) - embed_complex(z).conjugate()) < 1e-12


def test_json_shape():
    z = Cyclotomic.zeta(4)
    assert z.to_json() == {"order": 4, "coeffs": ["0/1", "1/1"]}
