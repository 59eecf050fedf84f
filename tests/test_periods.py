import math
from fractions import Fraction

import pytest

from kronlab.arith import Cyclotomic, bernoulli_number, embed_complex
from kronlab.checks import (
    delta_oracle,
    eigenform_certificate,
    even_primitive_characters,
    hecke_eigen_checks,
    quadratic_character,
)
from kronlab.dirichlet import bernoulli_pair, gauss_sum, l_value_numeric, trivial_character
from kronlab.modforms import (
    ExtractionResult,
    SignCharacter,
    eisenstein_g_eps,
    eisenstein_signs,
    sign_characters,
)
from kronlab.ntheory import prime_divisors
from kronlab.numeric import _gamma_sums, cusp_period
from kronlab.periods import (
    _chat,
    _r_from_chat,
    assemble_R,
    bivar_reflect,
    bivar_swap,
    cusp_period_data,
    eisenstein_R,
    generating_C,
    omega_minus,
    period_eisenstein,
    period_eisenstein_twisted,
    petersson_fit,
    rational_snap,
)
from kronlab.series import QSeries


def omega_plus_numeric(k: int) -> complex:
    """The numeric embedding (2 pi i)^(1-k) zeta(k-1) omega_minus of the
    formal unit omega_plus."""
    zeta = l_value_numeric(trivial_character(1), k - 1)
    return (2j * math.pi) ** (1 - k) * zeta * complex(omega_minus(k))


def test_omega_constants():
    assert omega_minus(4) == Fraction(-1)
    assert omega_minus(12) == Fraction(-math.factorial(10), 2)
    # omega_plus numeric: (2 pi i)^(1-k) zeta(k-1) omega_minus, k = 4
    expect = (2j * math.pi) ** -3 * 1.2020569031595943 * -1
    assert abs(omega_plus_numeric(4) - expect) < 1e-12


def test_period_eisenstein_level1_k4():
    eps = sign_characters(1)[0]
    even, odd = period_eisenstein(4, eps)
    assert even == {2: Fraction(1), 0: Fraction(-1)}
    assert odd == {-1: Fraction(1, 720), 1: Fraction(-1, 144), 3: Fraction(1, 720)}


def test_period_eisenstein_level5_odd_two_divisor_sum():
    # odd part: r^od_{G_4}(X) + eps(5) 5^(-1) r^od_{G_4}(5X)
    eps = SignCharacter(5, ((5, -1),))
    _, odd = period_eisenstein(4, eps)
    base = {-1: Fraction(1, 720), 1: Fraction(-1, 144), 3: Fraction(1, 720)}
    expect = {
        e: c + Fraction(-1, 5) * c * Fraction(5) ** e for e, c in base.items()
    }
    assert odd == expect


def test_period_eisenstein_twisted_reduces_at_level_one():
    eps = sign_characters(1)[0]
    twisted = period_eisenstein_twisted(4, trivial_character(1))
    assert twisted == period_eisenstein(4, eps)


def test_period_eisenstein_twisted_level5():
    chi = quadratic_character(5)
    even, odd = period_eisenstein_twisted(4, chi)
    # N > 1: even part vanishes; X coefficient is -(4/625) W(chi)
    assert even == {}
    w = gauss_sum(chi)
    # boundary Laurent entries vanish for N > 1
    assert odd == {1: w * Fraction(-4, 625)}


def test_twisted_odd_period_independent_of_eps():
    # the twisted periods take no sign character: their odd part is the
    # twisted-Bernoulli sum alone,
    # omega_minus W(chi) N^(1-k) sum (B_{r,chi}/r!)(B_{s,conj}/s!)(N X)^(r-1)
    for N, k in [(5, 4), (5, 6), (7, 6), (13, 8)]:
        for chi in even_primitive_characters(N):
            w = gauss_sum(chi)
            want = {e: omega_minus(k) * w * Fraction(N) ** (1 - k) * c * Fraction(N) ** e
                    for e, c in bernoulli_pair(k, chi, chi.conjugate()).items()}
            assert period_eisenstein_twisted(k, chi)[1] == want, (N, k, chi)


def period_data_numeric(k: int, even: dict, odd: dict) -> dict[int, complex]:
    """Collapse closed-form (even, odd) periods to complex Laurent
    coefficients, embedding the even part's unit omega_plus."""
    out: dict[int, complex] = {}
    unit = omega_plus_numeric(k)
    for e, c in even.items():
        out[e] = out.get(e, 0j) + unit * embed_complex(c)
    for e, c in odd.items():
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
    sums, _ = _gamma_sums(cusp_coeffs, k - 2, t0, 0.0)  # the tails go unread
    for j in range(k - 1):
        integral = complex((1j ** (j + 1)) * complex(sums[j]))
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
        exact = period_data_numeric(k, *period_eisenstein(k, eps))
        series = eisenstein_g_eps(k, eps, 60)
        num = period_polynomial_numeric(series, k, N, eps(N))
        for e in set(exact) | set(num):
            assert abs(exact.get(e, 0) - num.get(e, 0)) < 1e-10


def test_eisenstein_R_symmetry_and_k2():
    chi = quadratic_character(5)
    eps = SignCharacter(5, ((5, -1),))
    r = eisenstein_R(4, eps, chi)
    assert r == bivar_swap(r)
    assert eisenstein_R(2, eps, chi) == {}
    assert generating_C(2, chi, 10).rows == {}


def eisenstein_C_hat_oracle(k: int, eps: SignCharacter, chi) -> dict:
    """Chat for (G_{k,N}^eps)_chi, N = eps.level, in closed form, with the
    period numerator and the norm cancelled by hand:

    Chat = (1 + chi(0)) omega_minus (eps(N) N^((2-k)/2) Y^(k-2) - 1)
           * P_chi(X/N) * (-2k/B_k) / (2^omega(N) prod_p (1 + eps(p) p^(k/2)))

    where P_chi(X/N) = sum_{r+s=k even} (B_{r,chi}/r!)(B_{s,conj chi}/s!) X^(r-1).
    """
    if k == 2:
        return {}
    N = eps.level
    denom = Fraction(2 ** len(prime_divisors(N)))
    for p in prime_divisors(N):
        denom *= 1 + eps(p) * p ** (k // 2)
    prefactor = (1 + chi.scalar(0)) * omega_minus(k) * Fraction(-2 * k) / bernoulli_number(k) / denom
    ypart = {k - 2: eps(N) * Fraction(1, N ** ((k - 2) // 2)), 0: Fraction(-1)}
    xpart = bernoulli_pair(k, chi, chi.conjugate())
    return {(a, b): prefactor * (cy * cx) for b, cy in ypart.items() for a, cx in xpart.items()}


def test_eisenstein_R_matches_the_closed_form_oracle():
    # every even primitive chi at these levels (the trivial one at N = 1),
    # every weight 2..12 and every eps: the same values, of the same type
    # and Cyclotomic order
    cases = 0
    for N in (1, 5, 7, 13, 15, 21):
        chars = [trivial_character(1)] if N == 1 else even_primitive_characters(N)
        for chi in chars:
            for k in range(2, 13, 2):
                for eps in eisenstein_signs(N, k):
                    got = eisenstein_R(k, eps, chi)
                    want = _r_from_chat(eisenstein_C_hat_oracle(k, eps, chi), k)
                    assert got == want, (N, chi, k, eps)
                    for key, c in got.items():
                        assert type(c) is type(want[key])
                        if isinstance(c, Cyclotomic):
                            assert c.order == want[key].order
                    cases += 1
    assert cases == 208


def test_trivial_twist_chat_is_reflection_invariant():
    # for chi = 1 (N = 1): Chat(X,Y) = (XY)^(k-2) Chat(-1/X,-1/Y), so the
    # symmetrized Rhat equals Chat and R_{f_1} = R_f
    delta = delta_oracle(30)
    k = 12
    rn = [r.value for r in cusp_period(delta, k, 1, 1)]
    even, odd = cusp_period_data(k, rn)
    chat = _chat((even, odd), (even, odd), 1.0, 1.0)
    reflected = bivar_reflect(chat, k)
    for key in set(chat) | set(reflected):
        a, b = chat.get(key, 0j), reflected.get(key, 0j)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-6)


def test_assemble_R_symmetry():
    delta = delta_oracle(30)
    rn = [r.value for r in cusp_period(delta, 12, 1, 1)]
    rp = assemble_R(12, trivial_character(1), rn, rn)
    for (a, b), c in rp.items():
        assert abs(c - rp[(b, a)]) < 1e-12 * max(abs(c), 1)


def test_assemble_R_requires_full_periods():
    with pytest.raises(ValueError):
        assemble_R(12, trivial_character(1), [1.0] * 5, [1.0] * 11)


def test_petersson_fit_rejects_inconsistency():
    exact = {(0, 1): Fraction(1), (1, 0): Fraction(2)}
    good = {(0, 1): 3.0, (1, 0): 6.0}
    lam, dev, unmatched = petersson_fit(exact, good)
    assert lam == pytest.approx(3.0) and dev < 1e-12 and unmatched == 0
    # the median ratio is 3.05, so the other monomial departs by 0.05 / 3.05
    lam, dev, unmatched = petersson_fit(exact, {(0, 1): 3.0, (1, 0): 6.1})
    assert lam == pytest.approx(3.05) and dev == pytest.approx(0.05 / 3.05) and unmatched == 0
    lam, dev, unmatched = petersson_fit(exact, {(0, 1): -3.0, (1, 0): -6.0})
    assert lam == pytest.approx(-3.0) and dev < 1e-12
    lam, dev, unmatched = petersson_fit(exact, {**good, (2, 2): 0.3})
    assert lam == pytest.approx(3.0) and dev < 1e-12 and unmatched == pytest.approx(0.1)
    with pytest.raises(ValueError, match="no nonzero monomials"):
        petersson_fit({}, good)


def test_rational_snap():
    fr, resid = rational_snap(0.2500000001)
    assert fr == Fraction(1, 4) and resid < 1e-8
    fr2, _ = rational_snap(float(Fraction(73728, 3455)), tol=1e-9)
    assert fr2 == Fraction(73728, 3455)


def test_twisted_functional_equation_pairs_a_nonreal_twist_with_its_conjugate():
    # at level 7 the twist has order 3: r_n(f_chi) and r_n(f_conj(chi)) differ,
    # and only the conjugate pairing satisfies the functional equation
    from kronlab.checks import (
        cusp_form_periods,
        even_primitive_characters,
        twisted_functional_equation_residuals,
    )

    chi = even_primitive_characters(7)[0]
    assert chi.conjugate() != chi
    cp = cusp_form_periods(chi, 4, 30, chi)
    assert max(abs(a - b) for a, b in zip(cp.rn_tw, cp.rn_twbar)) > 1e-3
    assert twisted_functional_equation_residuals(cp.rn_tw, cp.rn_twbar, 4, chi) <= 1e-12
    assert twisted_functional_equation_residuals(cp.rn_tw, cp.rn_tw, 4, chi) > 0.1
    # a real twist is its own conjugate
    chi5 = quadratic_character(5)
    cp5 = cusp_form_periods(chi5, 4, 30, chi5)
    assert cp5.rn_twbar is cp5.rn_tw


def test_the_hecke_certificate_refuses_a_form_too_short_to_check():
    # Delta with a(2) shifted by 5 is no eigenform.  At precision 4 all three
    # Hecke checks pass, and below 9 T_3 f is known to a_0 and a_1 only, so
    # the certificate refuses the form; from 9 on all three checks fail
    def shifted_delta(prec):
        coeffs = list(delta_oracle(prec).coeffs)
        coeffs[2] += 5
        return ExtractionResult(12, 1, 1, {}, QSeries(prec, coeffs))

    short = shifted_delta(4)
    assert all(c["pass"] for c in hecke_eigen_checks(short.eigenform, 12, 1))
    for prec in (4, 8):
        with pytest.raises(ValueError, match=f"needs qprec >= 9, not {prec}"):
            eigenform_certificate(shifted_delta(prec))
    for prec in (9, 12):
        cert = eigenform_certificate(shifted_delta(prec))
        assert [(c["name"], c["pass"]) for c in cert] == [
            ("rank_one_at_k12", True), ("hecke_T2", False), ("hecke_T3", False),
            ("coefficient_multiplicativity", False)]
    assert all(c["pass"] for c in eigenform_certificate(ExtractionResult(12, 1, 1, {}, delta_oracle(9))))
