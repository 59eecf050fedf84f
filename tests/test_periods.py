import math
from fractions import Fraction

import pytest

from kronlab.arith import embed_complex
from kronlab.checks import delta_oracle, quadratic_character
from kronlab.dirichlet import gauss_sum, trivial_character
from kronlab.modforms import SignCharacter, eisenstein_g_eps, sign_characters
from kronlab.numeric import DOUBLE, _gamma_sum, cusp_period
from kronlab.periods import (
    OmegaConstants,
    assemble_R,
    bivar_swap,
    eisenstein_C_hat,
    eisenstein_R,
    generating_C,
    period_eisenstein,
    period_eisenstein_twisted,
    petersson_fit,
    rational_snap,
    twisted_odd_period,
)
from kronlab.series import LaurentPolyX


def test_omega_constants():
    om = OmegaConstants(4)
    assert om.minus == Fraction(-1)
    om12 = OmegaConstants(12)
    assert om12.minus == Fraction(-math.factorial(10), 2)
    # omega_plus numeric: (2 pi i)^(1-k) zeta(k-1) omega_minus, k = 4
    expect = (2j * math.pi) ** -3 * 1.2020569031595943 * -1
    assert abs(om.plus_numeric() - expect) < 1e-12


def test_period_eisenstein_level1_k4():
    eps = sign_characters(1)[0]
    pd = period_eisenstein(4, 1, eps)
    assert pd.even == LaurentPolyX({2: Fraction(1), 0: Fraction(-1)})
    assert pd.even_unit == "omega_plus"
    assert pd.odd == LaurentPolyX(
        {-1: Fraction(1, 720), 1: Fraction(-1, 144), 3: Fraction(1, 720)}
    )


def test_period_eisenstein_level5_odd_two_divisor_sum():
    # odd part: r^od_{G_4}(X) + eps(5) 5^(-1) r^od_{G_4}(5X)
    eps = SignCharacter(5, ((5, -1),))
    pd = period_eisenstein(4, 5, eps)
    base = {-1: Fraction(1, 720), 1: Fraction(-1, 144), 3: Fraction(1, 720)}
    expect = {
        e: c + Fraction(-1, 5) * c * Fraction(5) ** e for e, c in base.items()
    }
    assert pd.odd == LaurentPolyX(expect)


def test_period_eisenstein_twisted_reduces_at_level_one():
    eps = sign_characters(1)[0]
    pd = period_eisenstein_twisted(4, 1, eps, trivial_character(1))
    plain = period_eisenstein(4, 1, eps)
    assert pd.even == plain.even and pd.odd == plain.odd


def test_period_eisenstein_twisted_level5():
    chi = quadratic_character(5)
    eps = SignCharacter(5, ((5, -1),))
    pd = period_eisenstein_twisted(4, 5, eps, chi)
    # N > 1: even part vanishes; X coefficient is -(4/625) W(chi)
    assert pd.even == LaurentPolyX({})
    w = gauss_sum(chi)
    assert pd.odd == LaurentPolyX({1: w * Fraction(-4, 625)})
    # boundary Laurent entries vanish for N > 1
    assert -1 not in pd.odd.coeffs and 3 not in pd.odd.coeffs


def test_twisted_odd_period_independent_of_eps():
    chi = quadratic_character(5)
    assert twisted_odd_period(4, chi) == twisted_odd_period(4, chi)
    pd_plus = period_eisenstein_twisted(4, 5, SignCharacter(5, ((5, 1),)), chi)
    pd_minus = period_eisenstein_twisted(4, 5, SignCharacter(5, ((5, -1),)), chi)
    assert pd_plus.odd == pd_minus.odd


def period_data_numeric(pd) -> dict[int, complex]:
    """Collapse a PeriodData to complex Laurent coefficients (embeds omega_plus)."""
    out: dict[int, complex] = {}
    unit = OmegaConstants(pd.k).plus_numeric() if pd.even_unit else 1.0
    for e, c in pd.even.coeffs.items():
        out[e] = out.get(e, 0j) + unit * embed_complex(c)
    for e, c in pd.odd.coeffs.items():
        out[e] = out.get(e, 0j) + embed_complex(c)
    return out


def period_polynomial_numeric(series, k: int, N: int, eps_N: int) -> dict[int, complex]:
    """Laurent coefficients of r_f(X) for f in M_k^eps via the tilde integral
    at the self-dual point tau0 = i/sqrt(N).

    r_f(X) = ftilde(X) - eps(N) N^(k/2-1) X^(k-2) ftilde(-1/(N X)), where
    ftilde(X) = int_{tau0}^{inf} (f - a0)(X - z)^(k-2) dz
                + a0 (X - tau0)^(k-1) / (k-1).
    """
    t0 = 1 / math.sqrt(N)
    a0 = embed_complex(series.coeffs[0]) if series.coeffs[0] != 0 else 0j
    cusp_coeffs = [0] + list(series.coeffs[1:])
    tilde: dict[int, complex] = {}
    for j in range(k - 1):
        integral = complex((1j ** (j + 1)) * complex(_gamma_sum(cusp_coeffs, j, t0, DOUBLE)))
        e = k - 2 - j
        tilde[e] = tilde.get(e, 0j) + math.comb(k - 2, j) * (-1) ** j * integral
    if a0 != 0:
        for j in range(k):
            e = k - 1 - j
            tilde[e] = tilde.get(e, 0j) + a0 * math.comb(k - 1, j) * (-1j * t0) ** j / (
                k - 1
            )
    out = dict(tilde)
    scale = eps_N * float(N) ** (k // 2 - 1)
    for e, c in tilde.items():
        out_e = k - 2 - e
        out[out_e] = out.get(out_e, 0j) - scale * c * (-1.0 / N) ** e
    return out


def test_period_closed_form_vs_integral_oracle():
    for (k, N, idx) in [(4, 1, 0), (6, 1, 0), (4, 5, 1)]:
        eps = sign_characters(N)[idx]
        pd = period_eisenstein(k, N, eps)
        exact = period_data_numeric(pd)
        series = eisenstein_g_eps(k, N, eps, 60).series
        num = period_polynomial_numeric(series, k, N, eps(N))
        for e in set(exact) | set(num):
            assert abs(exact.get(e, 0) - num.get(e, 0)) < 1e-10


def test_eisenstein_R_symmetry_and_k2():
    chi = quadratic_character(5)
    eps = SignCharacter(5, ((5, -1),))
    r = eisenstein_R(4, 5, eps, chi)
    assert r == bivar_swap(r)
    assert eisenstein_C_hat(2, 5, eps, chi) == {}
    assert generating_C(2, 5, chi, 10).rows == {}


def test_trivial_twist_chat_is_reflection_invariant():
    # for chi = 1 (N = 1): Chat(X,Y) = (XY)^(k-2) Chat(-1/X,-1/Y), so the
    # symmetrized Rhat equals Chat and R_{f_1} = R_f
    from kronlab.periods import bivar_reflect, period_polynomial_from_rn, bivar_mul, uni_to_bivar

    delta = delta_oracle(30)
    k = 12
    rn = [cusp_period(delta, k, 1, 1, n).value for n in range(k - 1)]
    rf = period_polynomial_from_rn(k, [complex(x) for x in rn])
    even = {e: c for e, c in rf.items() if e % 2 == 0}
    odd = {e: c for e, c in rf.items() if e % 2 == 1}
    chat = bivar_mul(uni_to_bivar(even, "Y"), uni_to_bivar(odd, "X"))
    reflected = bivar_reflect(chat, k)
    for key in set(chat) | set(reflected):
        a, b = chat.get(key, 0j), reflected.get(key, 0j)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-6)


def test_assemble_R_symmetry():
    delta = delta_oracle(30)
    rn = [cusp_period(delta, 12, 1, 1, n).value for n in range(11)]
    rp = assemble_R(12, 1, trivial_character(1), rn, rn, 1.0)
    for (a, b), c in rp.coeffs.items():
        assert abs(c - rp.coeffs[(b, a)]) < 1e-12 * max(abs(c), 1)
    assert rp.provenance == "assembled-numeric"


def test_assemble_R_requires_full_periods():
    with pytest.raises(ValueError):
        assemble_R(12, 1, trivial_character(1), [1.0] * 5, [1.0] * 11, 1.0)
    with pytest.raises(ZeroDivisionError):
        assemble_R(12, 1, trivial_character(1), [1.0] * 11, [1.0] * 11, 0)


def test_petersson_fit_rejects_inconsistency():
    from kronlab.periods import FitError

    exact = {(0, 1): Fraction(1), (1, 0): Fraction(2)}
    good = {(0, 1): 3.0, (1, 0): 6.0}
    lam, dev = petersson_fit(exact, good)
    assert lam == pytest.approx(3.0) and dev < 1e-12
    with pytest.raises(FitError):
        petersson_fit(exact, {(0, 1): 3.0, (1, 0): 6.1})
    with pytest.raises(FitError):
        petersson_fit(exact, {(0, 1): -3.0, (1, 0): -6.0})


def test_laurent_parity_split():
    p = LaurentPolyX({-1: Fraction(1), 0: Fraction(2), 1: Fraction(3), 2: Fraction(4)})
    assert p.even_part() == LaurentPolyX({0: Fraction(2), 2: Fraction(4)})
    assert p.odd_part() == LaurentPolyX({-1: Fraction(1), 1: Fraction(3)})


def test_rational_snap():
    fr, resid = rational_snap(0.2500000001)
    assert fr == Fraction(1, 4) and resid < 1e-8
    fr2, _ = rational_snap(float(Fraction(73728, 3455)), tol=1e-9)
    assert fr2 == Fraction(73728, 3455)
