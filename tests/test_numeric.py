import cmath
import math
from fractions import Fraction

import pytest

from kronlab.arith import embed_complex
from kronlab.checks import delta_oracle, quadratic_character
from kronlab.dirichlet import gauss_sum, trivial_character
from kronlab.kronecker import kron_laurent
from kronlab.modforms import eisenstein_g_chi, eisenstein_h_chi
from kronlab.numeric import (
    Context,
    atkin_lehner_matrix,
    cusp_period,
    eval_F,
    eval_F_chi,
    eval_qseries,
    eval_slashed,
    incomplete_gamma_int,
    theta,
    theta_prime0,
    twisted_cusp_period,
)
from kronlab.checks import jet_eval


def region_double_sum(tau, u, v, cutoff=400):
    """Defining double-sum oracle: sum_n eta^n / (q^n xi - 1), |q| < |xi|, |eta| < 1.

    Negative n is rewritten as eta^(-m) q^m / (xi - q^m) to avoid overflow.
    """
    q = cmath.exp(2j * math.pi * tau)
    xi, eta = cmath.exp(u), cmath.exp(v)
    acc = 1 / (xi - 1)
    for n in range(1, cutoff + 1):
        acc += eta**n / (q**n * xi - 1)
        acc += eta**-n * q**n / (xi - q**n)
    return acc


def test_theta_at_zero():
    assert abs(theta(2j, 0).value) < 1e-14


def test_theta_oddness():
    for u in (0.3 + 0.1j, -0.2 + 0.4j, 0.7j):
        a = theta(1.3j, u).value
        b = theta(1.3j, -u).value
        assert abs(a + b) < 1e-12 * max(abs(a), 1)


def test_theta_quasiperiodicity():
    tau = 1.1j
    xi = cmath.exp(0.3 + 0.2j)
    lhs = theta(tau, 0.3 + 0.2j + 2j * math.pi * tau).value
    # q^(-1/2) read as exp(-pi i tau)
    rhs = -cmath.exp(-1j * math.pi * tau) / xi * theta(tau, 0.3 + 0.2j).value
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_eval_F_matches_region_sum():
    # points inside the |q| < |xi|, |eta| < 1 convergence region
    for tau, u, v in [
        (2j, -0.3 + 0.1j, -0.4 - 0.2j),
        (1.4j, -0.5 + 0.3j, -0.25 + 0.15j),
    ]:
        got = eval_F(tau, u, v).value
        want = region_double_sum(tau, u, v)
        assert abs(got - want) < 1e-10 * abs(want)


def test_eval_F_symmetry_and_residue():
    tau, u, v = 1.2j, 0.25 + 0.1j, -0.3 + 0.05j
    assert abs(eval_F(tau, u, v).value - eval_F(tau, v, u).value) < 1e-12
    small = 1e-4
    assert abs(small * eval_F(tau, small, v).value - 1) < 1e-3


def test_eval_F_jet_consistency():
    chi = trivial_character(1)
    jet = kron_laurent(chi, 20, 10)
    tau, u, v = 1.1j, 0.05 + 0.02j, -0.04 + 0.03j
    direct = eval_F(tau, u, v).value
    via_jet = jet_eval(jet, tau, u, v)
    assert abs(direct - via_jet) < 1e-9


def test_eval_F_chi_reduces_at_level_one():
    tau, u, v = 1.3j, 0.2, 0.1j
    assert eval_F_chi(tau, u, v, trivial_character(1)).value == eval_F(tau, u, v).value


def test_pole_probe():
    # poles sit at u = 2 pi i r/N with (r, N) = 1; bounded otherwise
    chi = quadratic_character(5)
    tau, v = 1.05j, 0.23 + 0.11j
    near_pole = 2j * math.pi / 5 + 1e-7
    assert abs(eval_F_chi(tau, near_pole, v, chi).value) > 1e6
    non_pole = 2j * math.pi + 1e-7  # r = 5: gcd(5, 5) > 1
    assert abs(eval_F_chi(tau, non_pole, v, chi).value) < 1e3


def test_eval_slashed_identity():
    g = eisenstein_g_chi(4, quadratic_character(5), 30).series
    tau = 0.9j
    direct = eval_qseries(g, tau).value
    slashed = eval_slashed(g, 4, ((1, 0), (0, 1)), tau).value
    assert direct == slashed


def test_slash_g_vs_h():
    # G_{k,chi} | W_N = (N^(k/2)/W(chi)) H_{k,chi} pointwise
    chi = quadratic_character(5)
    k = 4
    g = eisenstein_g_chi(k, chi, 40).series
    h = eisenstein_h_chi(k, chi, 40).series
    w = embed_complex(gauss_sum(chi))
    wn = atkin_lehner_matrix(5, 5)
    for tau in (complex(0.1, 0.55), complex(-0.07, 0.8)):
        lhs = eval_slashed(g, k, wn, tau).value
        rhs = 5 ** (k / 2) / w * eval_qseries(h, tau).value
        assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_atkin_lehner_matrix_determinants():
    ((a, b), (c, d)) = atkin_lehner_matrix(3, 15)
    assert a * d - b * c == 3
    assert a % 3 == 0 and d % 3 == 0 and c % 15 == 0
    assert atkin_lehner_matrix(5, 5) == ((0, -1), (5, 0))


def test_incomplete_gamma():
    # Gamma(1, x) = e^-x; Gamma(3, 0) = 2
    assert incomplete_gamma_int(0, 1.7) == pytest.approx(math.exp(-1.7))
    assert incomplete_gamma_int(2, 0.0) == pytest.approx(2.0)


def test_cusp_period_against_l_value():
    # r_n = i^(n+1) n!/(2 pi)^(n+1) L(f, n+1), with L summed directly at n = 10
    delta = delta_oracle(200)
    n = 10
    lval = sum(float(delta.coeffs[m]) / m ** (n + 1) for m in range(1, 200))
    expect = 1j ** (n + 1) * math.factorial(n) / (2 * math.pi) ** (n + 1) * lval
    got = cusp_period(delta.truncate(40), 12, 1, 1, n)
    assert abs(got.value - expect) < 1e-10


def quadrature_upper_period(f_coeffs, n: int, t0: float, t_max: float = 40.0, steps: int = 20000) -> complex:
    """Simpson-rule oracle for int_{t0}^{t_max} f(it) t^n dt."""

    def integrand(t: float) -> complex:
        q = math.exp(-2 * math.pi * t)
        acc = 0j
        qm = q
        for m in range(1, len(f_coeffs)):
            c = f_coeffs[m]
            if c != 0:
                acc += embed_complex(c) * qm
            qm *= q
        return acc * t**n

    h = (t_max - t0) / steps
    total = integrand(t0) + integrand(t_max)
    for i in range(1, steps):
        total += (4 if i % 2 else 2) * integrand(t0 + i * h)
    return total * h / 3


def test_cusp_period_against_quadrature():
    delta = delta_oracle(40)
    n = 4
    upper = quadrature_upper_period(delta.coeffs, n, 1.0)
    # the split formula's upper piece at t0 = 1 equals the quadrature integral
    from kronlab.numeric import _gamma_sum, DOUBLE

    gamma_route = _gamma_sum(delta.coeffs, n, 1.0, DOUBLE)
    assert abs(upper - gamma_route) < 1e-10


def test_twisted_period_split_point_independence():
    # recomputing with a different split point exercises the W_{N^2} relation
    delta = delta_oracle(40)
    chi = quadratic_character(5)
    from kronlab.numeric import _gamma_sum, DOUBLE

    k, N = 12, 5
    tw = [chi(m) * delta.coeffs[m] if delta.coeffs[m] != 0 else 0 for m in range(40)]
    w = embed_complex(gauss_sum(chi))
    lam = w / embed_complex(gauss_sum(chi.conjugate()))
    for n in (2, 5):
        vals = []
        for t0 in (0.2, 0.25, 0.3):
            upper = _gamma_sum(tw, n, t0, DOUBLE)
            lower = lam * (1j) ** k * float(N) ** (k - 2 * n - 2) * _gamma_sum(
                tw, k - 2 - n, 1.0 / (N * N * t0), DOUBLE
            )
            vals.append((1j) ** (n + 1) * (upper + lower))
        assert abs(vals[0] - vals[1]) < 1e-11
        assert abs(vals[0] - vals[2]) < 1e-11
        assert abs(vals[0] - twisted_cusp_period(delta, k, N, chi, n).value) < 1e-11


def test_cusp_period_parity_structure():
    # i^(n+1) prefactor with real L-values: r_n(Delta) is imaginary for even n
    # and real for odd n
    delta = delta_oracle(30)
    for n in range(11):
        r = cusp_period(delta, 12, 1, 1, n).value
        if n % 2 == 0:
            assert abs(r.real) < 1e-15 and abs(r.imag) > 0
        else:
            assert abs(r.imag) < 1e-15 and abs(r.real) > 0


def test_numeric_values_carry_bounds():
    val = theta(1.5j, 0.2)
    assert val.bound < 1e-12
    delta = delta_oracle(30)
    per = cusp_period(delta, 12, 1, 1, 3)
    assert per.bound < 1e-10


def test_bigfloat_context_matches_double():
    ctx = Context.bigfloat()
    tau, u, v = 1.1j, 0.21 + 0.05j, -0.17 + 0.08j
    a = eval_F(tau, u, v).value
    b = eval_F(tau, u, v, ctx).value
    assert abs(a - complex(b)) < 1e-12 * abs(a)
