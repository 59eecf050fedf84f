"""The exact Eisenstein side against its one-Fraction-per-step oracle
(tests/eisenstein_side_oracles.py): every value and its exact type, and every
dict's key order, at levels 1, 5, 7, 13, 15, 21 and 105, for every sign
character and every even primitive character, at the even weights 2..20; and
the numeric R assembly, which shares `_chat` and `_r_from_chat`, bit for bit.
"""

from fractions import Fraction
from math import factorial

import eisenstein_side_oracles as old
import pytest

from kronlab import arith, dirichlet, modforms, periods
from kronlab.arith import Cyclotomic
from kronlab.checks import cusp_form_periods, even_primitive_characters, quadratic_character
from kronlab.dirichlet import trivial_character
from kronlab.modforms import sign_characters
from kronlab.periods import cusp_period_data

LEVELS = (1, 5, 7, 13, 15, 21, 105)
WEIGHTS = range(2, 21, 2)


def same(new, want):
    """new is want: equal values of one exact type, dicts in one key order;
    a Cyclotomic compares its order, denominator and numerators."""
    assert type(new) is type(want), (new, want)
    if isinstance(want, dict):
        assert list(new) == list(want)
        for key in want:
            same(new[key], want[key])
    elif isinstance(want, tuple):
        assert len(new) == len(want)
        for a, b in zip(new, want):
            same(a, b)
    elif isinstance(want, Cyclotomic):
        assert (new.order, new.den, new.nums) == (want.order, want.den, want.nums)
    else:
        assert new == want
    if isinstance(want, (int, Fraction, Cyclotomic)):
        assert arith.scalar_to_json(new) == old.scalar_to_json(want)


def test_bernoulli_numbers_match_the_oracle():
    for n in range(60):
        same(arith.bernoulli_number(n), old.bernoulli_number(n))


def test_scalar_to_json_matches_the_oracle():
    values = [0, 1, -7, 10**30, True, False, Fraction(3, 4), Fraction(-5), Fraction(0),
              Cyclotomic(6, [Fraction(1, 2), -3]), Cyclotomic.zero(4), 1.5j, complex(-0.0, 2)]
    for x in values:
        assert arith.scalar_to_json(x) == old.scalar_to_json(x)
    for x in (1.5, "1/2", None):
        with pytest.raises(arith.RingMismatchError):
            arith.scalar_to_json(x)


@pytest.mark.parametrize("N", LEVELS)
def test_character_side_matches_the_oracle(N):
    """bernoulli_pair, slice_cusp_data and the twisted periods over W(chi)."""
    triv = trivial_character(1)
    for chi in even_primitive_characters(N):
        chibar = chi.conjugate()
        for k in WEIGHTS:
            for pair in ((chi, chibar), (chibar, chi), (triv, triv)):
                same(dirichlet.bernoulli_pair(k, *pair), old.bernoulli_pair(k, *pair))
            same(modforms.slice_cusp_data(k, chi), old.slice_cusp_data(k, chi))
            same(periods._twisted_periods_over_w(k, chi), old._twisted_periods_over_w(k, chi))


@pytest.mark.parametrize("N", LEVELS)
def test_sign_side_and_R_match_the_oracle(N):
    """period_eisenstein for every sign character, and through _chat and
    _r_from_chat the R_eps / (k-2)! that generating_C keeps, for every even
    primitive character."""
    chars = even_primitive_characters(N)
    for k in WEIGHTS:
        inv_fact = Fraction(1, factorial(k - 2))
        for eps in sign_characters(N):
            if k == 2 and eps.is_trivial():
                for fn in (periods.period_eisenstein, old.period_eisenstein):
                    with pytest.raises(ValueError):
                        fn(k, eps)
                continue
            same(periods.period_eisenstein(k, eps), old.period_eisenstein(k, eps))
            for chi in chars:
                for scale in (1, inv_fact):
                    same(periods._scaled_eisenstein_R(k, eps, chi, scale),
                         old._scaled_eisenstein_R(k, eps, chi, scale))
        for chi in chars:
            cside = periods.generating_C(k, chi, 20)
            for eps in cside.signs:
                same(cside.multipliers[eps.label()],
                     old._scaled_eisenstein_R(k, eps, chi, inv_fact))


def hexed(poly: dict) -> list:
    return [(key, c.real.hex(), c.imag.hex()) for key, c in poly.items()]


@pytest.mark.parametrize("N, k", [(1, 12), (5, 4)])
def test_numeric_R_assembly_keeps_its_bits(N, k):
    """assemble_R against the oracle's _chat and _r_from_chat on the periods
    suite's own periods: every part of every value by float.hex, signed
    zeros included, in one key order."""
    chi = trivial_character(1) if N == 1 else quadratic_character(N)
    twist = quadratic_character(5)
    cp = cusp_form_periods(chi, k, 30, twist)
    rn_chi = cp.rn_tw if twist == chi else cp.rn
    w = arith.embed_complex(dirichlet.gauss_sum(chi))
    denom = float(N) ** (1 - k) * w * 2 * (2j) ** (k - 3)
    chat = old._chat(cusp_period_data(k, cp.rn), cusp_period_data(k, rn_chi), float(N), 1 / denom)
    want = old._r_from_chat(chat, k)
    new = periods.assemble_R(k, chi, cp.rn, rn_chi)
    assert hexed(new) == hexed(want)
