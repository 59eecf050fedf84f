import cmath
import math
import random
import struct

import pytest

from kronlab.arith import embed_complex
from kronlab.checks import (
    _random_point,
    delta_oracle,
    even_primitive_characters,
    jet_eval,
    quadratic_character,
)
from kronlab.dirichlet import gauss_sum, trivial_character
from kronlab.kronecker import kron_laurent
from kronlab.modforms import eisenstein_g_chi, eisenstein_h_chi
from kronlab.numeric import (
    THETA_TOL,
    ConvergenceError,
    NumericValue,
    _theta_nmax,
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


def region_double_sum(tau, u, v, cutoff=400, exp=cmath.exp, pi=math.pi):
    """Defining double-sum oracle: sum_n eta^n / (q^n xi - 1), |q| < |xi|, |eta| < 1.

    Negative n is rewritten as eta^(-m) q^m / (xi - q^m) to avoid overflow.
    exp and pi default to doubles; mpmath's run the sum in big floats.
    """
    q = exp(2j * pi * tau)
    xi, eta = exp(u), exp(v)
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


@pytest.mark.parametrize(
    "tau, u, v",
    [
        (2j, -0.3 + 0.1j, -0.4 - 0.2j),
        (1.4j, -0.5 + 0.3j, -0.25 + 0.15j),
        (1.1j, 0.21 + 0.05j, -0.17 + 0.08j),
    ],
)
def test_eval_F_error_within_its_bound(tau, u, v):
    # a 200-bit evaluation of the double sum (truncation below 1e-28 at these
    # points) stands in for the exact value
    import mpmath as mp

    got = eval_F(tau, u, v)
    with mp.workprec(200):
        want = region_double_sum(mp.mpc(tau), mp.mpc(u), mp.mpc(v), exp=mp.exp, pi=mp.pi)
        err = float(abs(got.value - want))
    assert err <= got.bound


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
    g = eisenstein_g_chi(4, quadratic_character(5), 30)
    tau = 0.9j
    direct = eval_qseries(g, tau).value
    slashed = eval_slashed(g, 4, ((1, 0), (0, 1)), tau).value
    assert direct == slashed


def test_slash_g_vs_h():
    # G_{k,chi} | W_N = (N^(k/2)/W(chi)) H_{k,chi} pointwise
    chi = quadratic_character(5)
    k = 4
    g = eisenstein_g_chi(k, chi, 40)
    h = eisenstein_h_chi(k, chi, 40)
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
    from kronlab.numeric import _gamma_sum

    gamma_route = _gamma_sum(delta.coeffs, n, 1.0)
    assert abs(upper - gamma_route) < 1e-10


def test_twisted_period_split_point_independence():
    # recomputing with a different split point exercises the W_{N^2} relation
    delta = delta_oracle(40)
    chi = quadratic_character(5)
    from kronlab.numeric import _gamma_sum

    k, N = 12, 5
    tw = [chi(m) * delta.coeffs[m] if delta.coeffs[m] != 0 else 0 for m in range(40)]
    w = embed_complex(gauss_sum(chi))
    lam = w / embed_complex(gauss_sum(chi.conjugate()))
    for n in (2, 5):
        vals = []
        for t0 in (0.2, 0.25, 0.3):
            upper = _gamma_sum(tw, n, t0)
            lower = lam * (1j) ** k * float(N) ** (k - 2 * n - 2) * _gamma_sum(
                tw, k - 2 - n, 1.0 / (N * N * t0)
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


def test_theta_outside_the_double_range_raises_overflow():
    # exp(u) overflows for Re(u) = 720 and 800, exp(-u) for Re(u) = -720, and
    # exp(u) underflows to 0 for Re(u) = -746 and -800
    for u in (800, 720, -720, -746, -800):
        with pytest.raises(OverflowError):
            theta(1j, u)
    # exp(u) is finite but the product is not
    with pytest.raises(OverflowError, match="double range"):
        theta(1j, 300)


def test_numeric_values_carry_bounds():
    val = theta(1.5j, 0.2)
    assert val.bound < 1e-12
    delta = delta_oracle(30)
    per = cusp_period(delta, 12, 1, 1, 3)
    assert per.bound < 1e-10


# ---------------------------------------------------------------------------
# Per-call oracles for the per-tau theta table: every call recomputes q, its
# powers and theta'(0), and the cutoff is a linear scan.

def scan_nmax(absq: float, grow: float) -> int:
    if absq >= 0.92:
        raise ConvergenceError("Im(tau) too small for theta evaluation")
    n = 1
    while absq**n * max(grow, 1.0) > THETA_TOL:
        n += 1
        if n > 20000:
            raise ConvergenceError("theta tolerance unreachable at this point")
    return n + 3


def oracle_theta(tau, u) -> NumericValue:
    tau = embed_complex(tau)
    u = embed_complex(u)
    q = cmath.exp(2 * 1j * math.pi * tau)
    absq = abs(q)
    xi = cmath.exp(u)
    grow = max(abs(xi), 1.0 / abs(xi)) if xi else math.inf
    if grow == math.inf:
        raise OverflowError("exp(-u) leaves the double range")
    nmax = scan_nmax(absq, grow)
    half = cmath.exp(u / 2)
    out = cmath.exp(2 * 1j * math.pi * tau / 8) * (half - 1 / half)
    qn = q
    for _ in range(nmax):
        out = out * (1 - qn) * (1 - qn * xi) * (1 - qn / xi)
        qn = qn * q
    if not cmath.isfinite(out):
        raise OverflowError("theta product leaves the double range")
    return NumericValue(out, abs(out) * absq**nmax * grow * 4)


def oracle_theta_prime0(tau) -> NumericValue:
    tau = embed_complex(tau)
    q = cmath.exp(2 * 1j * math.pi * tau)
    absq = abs(q)
    nmax = scan_nmax(absq, 1.0)
    out = cmath.exp(2 * 1j * math.pi * tau / 8)
    qn = q
    for _ in range(nmax):
        out = out * (1 - qn) ** 3
        qn = qn * q
    return NumericValue(out, abs(out) * absq**nmax * 6)


def oracle_eval_F(tau, u, v) -> NumericValue:
    t0 = oracle_theta_prime0(tau)
    tuv = oracle_theta(tau, embed_complex(u) + embed_complex(v))
    tu = oracle_theta(tau, u)
    tv = oracle_theta(tau, v)
    denom = tu.value * tv.value
    if abs(denom) == 0:
        raise ConvergenceError("theta denominator vanished (pole)")
    value = t0.value * tuv.value / denom
    rel = 4e-15 + t0.bound / max(abs(t0.value), 1e-300) + tuv.bound / max(
        abs(tuv.value), 1e-300
    )
    return NumericValue(value, abs(value) * rel)


def oracle_eval_F_chi(tau, u, v, chi) -> NumericValue:
    N = chi.modulus
    if N == 1:
        return oracle_eval_F(tau, u, v)
    chibar = chi.conjugate()
    w = embed_complex(gauss_sum(chibar))
    acc = 0j
    bound = 0.0
    u = embed_complex(u)
    v = embed_complex(v)
    for h in range(N):
        cv = chibar.values[h]
        if not cv:
            continue
        c = embed_complex(cv)
        shift = 2 * 1j * math.pi * h / N
        f1 = oracle_eval_F(tau, u + shift, v)
        f2 = oracle_eval_F(tau, u, v + shift)
        acc = acc + c * (f1.value + f2.value)
        bound += f1.bound + f2.bound
    value = acc / (2 * w)
    return NumericValue(value, (bound + 1e-14 * abs(acc)) / (2 * abs(w)))


def _outcome(fn, *args):
    """(value, bound) of a NumericValue, or the type and message it raised."""
    try:
        got = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return got.value, got.bound


def _assert_identical(got, want):
    # exact ==, and bit for bit where a value is NaN (which == never matches)
    assert got == want or struct.pack("<3d", got[0].real, got[0].imag, got[1]) == struct.pack(
        "<3d", want[0].real, want[0].imag, want[1]
    ), (got, want)


def _law_points(N: int, npoints: int, seed: int):
    """Seeded (tau, u, v) as the law suites draw them, with their modular
    images (small Im) and their elliptic shifts by N tau (large |xi|)."""
    rng = random.Random(seed)
    gammas = [((1, 0), (N, 1)), ((2, 1), (N, (N + 1) // 2))]
    gammas = [g for g in gammas if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1]
    for i in range(npoints):
        tau, u, v = _random_point(rng, N)
        yield tau, u, v
        for (a, b), (c, d) in gammas:
            denom = c * tau + d
            yield (a * tau + b) / denom, u / denom, v / denom
        m, n = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)][i % 6]
        yield tau, u + 2j * math.pi * (n * N * tau + i % 2), v + 2j * math.pi * m * N * tau


@pytest.mark.parametrize("N", [1, 5, 7, 13])
def test_theta_table_matches_per_call_oracle(N):
    chi = trivial_character(1) if N == 1 else even_primitive_characters(N)[0]
    raised = evaluated = 0
    for tau, u, v in _law_points(N, 6, 20240811 + N):
        want = _outcome(oracle_eval_F_chi, tau, u, v, chi)
        _assert_identical(_outcome(eval_F_chi, tau, u, v, chi), want)
        _assert_identical(_outcome(eval_F, tau, u, v), _outcome(oracle_eval_F, tau, u, v))
        _assert_identical(_outcome(theta, tau, u), _outcome(oracle_theta, tau, u))
        _assert_identical(_outcome(theta_prime0, tau), _outcome(oracle_theta_prime0, tau))
        if isinstance(want[0], type):
            raised += 1
        else:
            evaluated += 1
    assert evaluated > 0
    if N == 13:
        assert raised > 0  # the modular images leave the |q| < 0.92 range


ABSQ_GRID = [0.0, 5e-324, 1e-310, 1e-300, 1e-100, 1e-16, 1e-15, 1e-8, 0.01, 0.1, 0.3,
             0.5, 0.7, 0.8, 0.9, 0.91, 0.919, 0.9199999, math.nextafter(0.92, 0)]
GROWTH_GRID = [0.25, 1.0, 1.0 + 2**-52, 1.5, 2.0, 10.0, 1e3, 1e8, 1e15, 1e16, 1e50,
               1e100, 1e200, 1e300, 1.7976931348623157e308]


def test_closed_form_nmax_equals_the_scan():
    rng = random.Random(7)
    absqs = ABSQ_GRID + [rng.uniform(0, 0.92) for _ in range(40)]
    absqs += [10 ** rng.uniform(-320, -1) for _ in range(20)]
    grows = GROWTH_GRID + [10 ** rng.uniform(0, 300) for _ in range(20)]
    for absq in absqs:
        for g in grows:
            assert _theta_nmax(absq, g) == scan_nmax(absq, g), (absq, g)


def test_closed_form_nmax_at_predicate_boundaries():
    # |q| = 2^-k, g = 2^j: absq**n * g lands on powers of two, so a guess
    # rounded to either side of an exact boundary is caught
    for k in (1, 3, 10, 50):
        for j in (0, 1, 7, 49, 50, 51, 200):
            assert _theta_nmax(2.0**-k, 2.0**j) == scan_nmax(2.0**-k, 2.0**j), (k, j)


def test_nmax_convergence_errors():
    for absq in (0.92, 0.95, 1.0, 3.0, math.inf, math.nan):
        with pytest.raises(ConvergenceError, match="Im\\(tau\\) too small"):
            _theta_nmax(absq, 1.0)
    for absq in (0.92, 1.0):
        with pytest.raises(ConvergenceError, match="Im\\(tau\\) too small"):
            scan_nmax(absq, 1.0)
    # theta raises OverflowError before its growth max(|xi|, 1/|xi|) can be
    # infinite, so an infinite or NaN growth is outside the domain; the rule is
    # to raise.  (The scan stops at the first n with absq**n == 0, where
    # 0 * inf is NaN.)
    for g in (math.inf, math.nan):
        with pytest.raises(ConvergenceError, match="unreachable"):
            _theta_nmax(0.5, g)
    # the 20,000 cap is never reached for finite growth: absq**n underflows
    # to 0 near n = 8,900 even at the largest |q| below 0.92
    assert scan_nmax(math.nextafter(0.92, 0), 1.7976931348623157e308) < 9000
