import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kronlab.arith import embed_complex
from kronlab.checks import (
    LAW_SEED,
    _random_point,
    delta_oracle,
    even_primitive_characters,
    jet_eval,
    quadratic_character,
)
from kronlab.checks import cusp_form_periods
from kronlab.dirichlet import gauss_sum, trivial_character
from kronlab.kronecker import kron_laurent
from kronlab.modforms import eisenstein_g_chi, eisenstein_h_chi
from scalar_F_chi import eval_F_chi as scalar_eval_F_chi
from kronlab.numeric import (
    POINTS_BATCH,
    THETA_TOL,
    TWO_PI,
    ConvergenceError,
    _ThetaTable,
    NumericValue,
    _gamma_sums,
    _theta_quotients,
    atkin_lehner_matrix,
    cusp_period,
    eval_F,
    eval_F_chi,
    eval_F_chi_points,
    eval_qseries,
    eval_slashed,
    incomplete_gammas,
    pole_distance,
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
    # at N = 1 the character sum is the theta quotient itself
    tau, u, v = 1.3j, 0.2, 0.1j
    want = theta_prime0(tau).value * theta(tau, u + v).value / (theta(tau, u).value * theta(tau, v).value)
    assert abs(eval_F_chi(tau, u, v, trivial_character(1)).value - want) <= 1e-13 * abs(want)


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
    # Gamma(1, x) = e^-x; Gamma(1, 0), Gamma(2, 0), Gamma(3, 0) = 0!, 1!, 2!
    assert incomplete_gammas(0, 1.7) == [pytest.approx(math.exp(-1.7))]
    assert incomplete_gammas(2, 0.0) == pytest.approx([1.0, 1.0, 2.0])


def test_cusp_period_against_l_value():
    # r_n = i^(n+1) n!/(2 pi)^(n+1) L(f, n+1), with L summed directly at n = 10
    delta = delta_oracle(200)
    n = 10
    lval = sum(float(delta.coeffs[m]) / m ** (n + 1) for m in range(1, 200))
    expect = 1j ** (n + 1) * math.factorial(n) / (2 * math.pi) ** (n + 1) * lval
    got = cusp_period(delta.truncate(40), 12, 1, 1)[n]
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
    gamma_route = _gamma_sums(delta.coeffs, n, 1.0, 0.0)[0][n]
    assert abs(upper - gamma_route) < 1e-10


def test_twisted_period_split_point_independence():
    # recomputing with a different split point exercises the W_{N^2} relation
    delta = delta_oracle(40)
    chi = quadratic_character(5)
    k, N = 12, 5
    tw = [chi(m) * delta.coeffs[m] if delta.coeffs[m] != 0 else 0 for m in range(40)]
    w = embed_complex(gauss_sum(chi))
    lam = w / embed_complex(gauss_sum(chi.conjugate()))
    periods = twisted_cusp_period(delta, k, chi)
    sums = {t0: (_gamma_sums(tw, k - 2, t0, 0.0)[0], _gamma_sums(tw, k - 2, 1.0 / (N * N * t0), 0.0)[0])
            for t0 in (0.2, 0.25, 0.3)}
    for n in (2, 5):
        vals = []
        for upper, reflected in sums.values():
            lower = lam * (1j) ** k * float(N) ** (k - 2 * n - 2) * reflected[k - 2 - n]
            vals.append((1j) ** (n + 1) * (upper[n] + lower))
        assert abs(vals[0] - vals[1]) < 1e-11
        assert abs(vals[0] - vals[2]) < 1e-11
        assert abs(vals[0] - periods[n].value) < 1e-11


def test_cusp_period_parity_structure():
    # i^(n+1) prefactor with real L-values: r_n(Delta) is imaginary for even n
    # and real for odd n
    delta = delta_oracle(30)
    for n, r in enumerate(r.value for r in cusp_period(delta, 12, 1, 1)):
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
    per = cusp_period(delta, 12, 1, 1)[3]
    assert per.bound < 1e-10


@pytest.mark.parametrize("slot", [2, 3])
def test_theta_quotient_bound_carries_the_denominator_thetas(slot):
    # F = t0 tuv / (tu tv): a relative error of 1e-6 in a denominator theta
    # is a relative error of about 1e-6 in F
    thetas = [(2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (0.5, 0.0)]  # (value, relative error)
    thetas[slot] = (thetas[slot][0], 1e-6)
    (t0, e0), (tuv, euv), tu, tv = thetas
    [value], [bound] = _theta_quotients([t0 * tuv], [4e-15 + e0 + euv], ([tu[0]], [tu[1]]), ([tv[0]], [tv[1]]))
    assert value == 2.0 * 3.0 / (4.0 * 0.5)
    assert 1e-6 * abs(value) <= bound < 1.01e-6 * abs(value)


# ---------------------------------------------------------------------------
# Product oracles for the theta series: theta and theta'(0) from the products
# q^(1/8) (xi^(1/2) - xi^(-1/2)) prod (1-q^n)(1-q^n xi)(1-q^n/xi) and
# q^(1/8) prod (1-q^n)^3, recomputed on every call, cut off by a linear scan.

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
    """A NumericValue (or a list of them), or the type and message of the
    error it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def per_shift_thetas(table, u, N) -> list:
    """The pass at u as one NumericValue per shift, each with the pass's bound."""
    values, bound = table.thetas(u, N)
    return [NumericValue(value, bound) for value in values]


# relative difference allowed between the series and the product oracle (each
# rounds on its own); at these points it is at most 3.6e-14 for theta,
# 7.8e-15 for theta'(0), 3.9e-14 for F and 3.0e-13 for F^chi
ORACLE_RTOL = {"theta": 1e-12, "theta'(0)": 1e-12, "F": 1e-11, "F^chi": 1e-11}


def _assert_same_outcome(what, got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want, (what, got, want)
    else:
        assert abs(got.value - want.value) <= ORACLE_RTOL[what] * abs(want.value), (what, got, want)


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


@pytest.mark.parametrize("N", [1, 5, 7, 13, 17, 41])
def test_theta_table_matches_per_call_oracle(N):
    # the series raises what the product oracle raises, with the same message,
    # and otherwise agrees with it to ORACLE_RTOL; F^chi for the first even
    # primitive character and the last, of the highest order (6, 8 and 20 at
    # N = 13, 17 and 41)
    chars = [trivial_character(1)] if N == 1 else even_primitive_characters(N)
    raised = evaluated = 0
    for tau, u, v in _law_points(N, 6, 20240811 + N):
        want = _outcome(oracle_eval_F_chi, tau, u, v, chars[0])
        _assert_same_outcome("F^chi", _outcome(eval_F_chi, tau, u, v, chars[0]), want)
        chi = chars[-1]
        _assert_same_outcome("F^chi", _outcome(eval_F_chi, tau, u, v, chi), _outcome(oracle_eval_F_chi, tau, u, v, chi))
        _assert_same_outcome("F", _outcome(eval_F, tau, u, v), _outcome(oracle_eval_F, tau, u, v))
        for w in (u, v, u + v):
            _assert_same_outcome("theta", _outcome(theta, tau, w), _outcome(oracle_theta, tau, w))
        _assert_same_outcome("theta'(0)", _outcome(theta_prime0, tau), _outcome(oracle_theta_prime0, tau))
        if isinstance(want, tuple):
            raised += 1
        else:
            evaluated += 1
    assert evaluated > 0
    if N == 13:
        assert raised > 0  # the modular images leave the |q| < 0.92 range


def mp_theta(tau, u, derivative=False):
    """theta(u), or theta'(0), from the sum over n in Z of
    (-1)^n q^((n+1/2)^2/2) xi^(n+1/2) in mpmath's working precision, q^x read
    as exp(2 pi i tau x) and xi^x as exp(x u), the branches of q^(1/8) and
    xi^(1/2) that theta takes.  The n kept are those whose term is within
    e^-260 of the largest."""
    import mpmath as mp

    tau, u = mp.mpc(tau), mp.mpc(u)
    y = tau.imag
    centre = u.real / (2 * mp.pi * y)  # where the exponent -pi y x^2 + x Re(u) peaks
    width = mp.sqrt(260 / (mp.pi * y)) + 2
    acc = mp.mpc(0)
    for n in range(int(mp.floor(centre - width)), int(mp.ceil(centre + width)) + 1):
        x = n + mp.mpf(1) / 2
        term = (-1) ** n * mp.exp(1j * mp.pi * tau * x * x)
        acc += term * x if derivative else term * mp.exp(x * u)
    return acc


@pytest.mark.parametrize("N", [5, 7, 13, 17, 41])
def test_thetas_match_per_shift_theta(N):
    # one pass at w gives theta(w + 2 pi i h/N) for every h: each value agrees
    # with the per-shift theta to ORACLE_RTOL, or both raise the same error;
    # at a subset of h, each lies within its bound of the 300-bit sum at the
    # exact shift
    import mpmath as mp

    raised = evaluated = 0
    for tau, u, v in _law_points(N, 2, 20240811 + N):
        table = _ThetaTable(tau)
        for w in (u, v, u + v):
            got = _outcome(per_shift_thetas, table, w, N)
            for h in range(N):
                want = _outcome(theta, tau, w + 2j * math.pi * h / N)
                _assert_same_outcome("theta", got if isinstance(got, tuple) else got[h], want)
            if isinstance(got, tuple):
                raised += 1
                continue
            evaluated += 1
            for h in range(0, N, max(1, N // 5)):
                with mp.workprec(300):
                    exact = mp_theta(tau, mp.mpc(w) + 2j * mp.pi * h / N)
                    err = float(abs(got[h].value - exact))
                assert err <= got[h].bound, (tau, w, h, err, got[h])
    assert evaluated > 0
    if N >= 13:
        assert raised > 0  # elliptic shifts or modular images out of range


# the product oracle's rounding, in units of 2^-52 |value|, on top of the
# truncation bound it reports
ROUNDING_ULPS = 1024

# points off the law-point range, for the series only: |q| near 0.91 with a
# large |Re u| (about 80 terms, where a rounding term fixed in ulps of the
# largest term fell 3.5 times short) and Im(tau) near 6 (one term)
OFF_RANGE = [
    (0.4 + 0.015j, 5 + 0.5j),
    (0.1 + 0.02j, 6 + 0.1j),
    (-0.3 + 0.03j, -7 + 2j),
    (-0.0178 + 6.25j, -1.09 + 4j),
]


@pytest.mark.parametrize("kernel", ["series", "product oracle"])
def test_theta_error_within_bound_plus_rounding(kernel):
    # the series' bounds cover its rounding: theta, its shifts by 2 pi i h/N
    # (h = 1 and N - 2), theta'(0) and eval_F lie within them of 300-bit
    # sums, at the law points and off their range; the product oracle's
    # bounds cover truncation only and get ROUNDING_ULPS on top
    import mpmath as mp

    series = kernel == "series"
    th, th0 = (theta, theta_prime0) if series else (oracle_theta, oracle_theta_prime0)
    slack = 0 if series else ROUNDING_ULPS
    points = [(N, tau, u, v) for N in (5, 7) for tau, u, v in _law_points(N, 5, 20240811 + N)]
    if series:
        points += [(N, tau, u, None) for N in (1, 5) for tau, u in OFF_RANGE]
    checked = 0
    for N, tau, u, v in points:
        for w in (u, None) if v is None else (u, v, u + v, None):  # None: theta'(0)
            if w is None:
                got = _outcome(th0, tau)
            elif series:
                got = _outcome(per_shift_thetas, _ThetaTable(tau), w, N)
            else:
                got = _outcome(th, tau, w)
            if isinstance(got, tuple):
                continue
            values = got if isinstance(got, list) else [got]
            for h in (0, 1, N - 2) if len(values) > 1 else (0,):
                value = values[h]
                with mp.workprec(300):
                    if w is None:
                        want = mp_theta(tau, 0, derivative=True)
                    else:
                        want = mp_theta(tau, mp.mpc(w) + 2j * mp.pi * h / N)
                    err = float(abs(value.value - want))
                    size = float(abs(want))
                assert err <= value.bound + slack * 2**-52 * size, (tau, w, h, err, value)
                checked += 1
        if series and v is not None:
            got = _outcome(eval_F, tau, u, v)
            if isinstance(got, NumericValue):
                with mp.workprec(300):
                    want = mp_theta(tau, 0, derivative=True) * mp_theta(tau, mp.mpc(u) + mp.mpc(v)) / (
                        mp_theta(tau, u) * mp_theta(tau, v)
                    )
                    err = float(abs(got.value - want))
                assert err <= got.bound, (tau, u, v, err, got)
                checked += 1
    assert checked >= 100


def test_theta_domain_errors():
    # |q| >= 0.92, and a NaN |q|, raise before any term is summed
    y = -math.log(0.92) / (2 * math.pi)
    while abs(cmath.exp(-2 * math.pi * y)) < 0.92:
        y = math.nextafter(y, 0)
    while abs(cmath.exp(-2 * math.pi * y)) >= 0.92:
        y = math.nextafter(y, 1)
    y_out = math.nextafter(y, 0)  # |q| >= 0.92 at y_out, < 0.92 at y
    for tau in (complex(0, y_out), 0.3, complex(0, -math.inf), complex(math.nan, 1)):
        for fn, args in ((theta, (tau, 0.2)), (theta_prime0, (tau,))):
            with pytest.raises(ConvergenceError, match="Im\\(tau\\) too small"):
                fn(*args)
    assert abs(theta_prime0(complex(0, y)).value) > 0
    # an infinite growth max(|xi|, 1/|xi|) is an OverflowError, a NaN one is
    # outside the domain
    with pytest.raises(OverflowError, match="exp\\(-u\\)"):
        theta(1j, -800)
    with pytest.raises(ConvergenceError, match="unreachable"):
        theta(1j, math.nan)
    # the largest |q| below 0.92 with the largest finite growth ends its sum
    # (its terms leave the double range) well before the 20,000-term cap
    with pytest.raises(OverflowError, match="double range"):
        theta(complex(0, y), 709.7)


# ---------------------------------------------------------------------------
# Per-n and per-shift oracles: the period integrals one n at a time and the
# twisted series from one NumericValue per theta, in the float operations of
# the list and pass forms, so values and bounds agree with ==.

def oracle_incomplete_gamma(n: int, x: float) -> float:
    """Gamma(n+1, x) = n! e^(-x) sum_{j<=n} x^j / j!, the partial sums rebuilt."""
    term = 1.0
    acc = 1.0
    for j in range(1, n + 1):
        term = term * x / j
        acc += term
    return math.factorial(n) * math.exp(-x) * acc


def oracle_gamma_sum(coeffs, n: int, t0: float) -> complex:
    acc = 0j
    for m in range(1, len(coeffs)):
        c = coeffs[m]
        if c == 0:
            continue
        x = 2 * math.pi * m * t0
        acc = acc + embed_complex(c) * oracle_incomplete_gamma(n, x) / ((2 * math.pi * m) ** (n + 1))
    return acc


def oracle_tail_estimate(coeffs, n: int, t0: float, power: float) -> float:
    M = len(coeffs)
    cmax = 0.0
    for m in range(1, M):
        c = coeffs[m]
        if c != 0:
            cmax = max(cmax, abs(embed_complex(c)) / m**power)
    x = 2 * math.pi * M * t0
    term = cmax * M**power * oracle_incomplete_gamma(n, x) / (2 * math.pi * M) ** (n + 1)
    return 3.0 * term


def oracle_split_period(upper, reflected, k: int, n: int, t0: float, lam, scale: float) -> NumericValue:
    power = (k - 1) / 2 + 0.6
    upper_sum = oracle_gamma_sum(upper, n, t0)
    reflected_sum = oracle_gamma_sum(reflected, k - 2 - n, t0)
    lower = lam * 1j**k * scale * reflected_sum
    bound = oracle_tail_estimate(upper, n, t0, power) + abs(scale) * oracle_tail_estimate(
        reflected, k - 2 - n, t0, power)
    return NumericValue(1j ** (n + 1) * (upper_sum + lower), bound)


def oracle_cusp_period(f, k: int, N: int, eps_N: int, n: int) -> NumericValue:
    scale = float(N) ** (k // 2 - n - 1)
    return oracle_split_period(f.coeffs, f.coeffs, k, n, 1 / math.sqrt(N), eps_N, scale)


def oracle_twisted_cusp_period(f, k: int, chi, n: int) -> NumericValue:
    chibar = chi.conjugate()
    twisted = [chi(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0 for m in range(f.prec)]
    twisted_bar = [chibar(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0 for m in range(f.prec)]
    w = embed_complex(gauss_sum(chi))
    wbar = embed_complex(gauss_sum(chibar))
    lam = (1 if chi.is_even() else -1) * w / wbar
    N = chi.modulus
    scale = float(N) ** (k - 2 * n - 2)
    return oracle_split_period(twisted, twisted_bar, k, n, 1.0 / N, lam, scale)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.floats(0, 300))
def test_incomplete_gammas_match_the_per_n_gamma(nmax, x):
    assert incomplete_gammas(nmax, x) == [oracle_incomplete_gamma(n, x) for n in range(nmax + 1)]


def _eigenform(N: int, k: int):
    """The certified rank-one weight-k eigenform at level N, its eps(N) and
    the character it was extracted with."""
    chi = trivial_character(1) if N == 1 else even_primitive_characters(N)[0]
    cp = cusp_form_periods(chi, k, 30)
    assert cp.rn, cp.checks
    return cp.extraction.eigenform, cp.eps, chi


@pytest.mark.parametrize("N, k", [(1, 12), (5, 4), (7, 4)])
def test_period_lists_equal_the_per_n_periods(N, k):
    # values and bounds bit for bit: f, and its twists by the quadratic
    # character mod 5 and, above level 1, by the character f was extracted
    # with and its conjugate (at level 5 all three are the quadratic one)
    f, eps, chi = _eigenform(N, k)
    want = [oracle_cusp_period(f, k, N, eps, n) for n in range(k - 1)]
    assert cusp_period(f, k, N, eps) == want
    twists = [quadratic_character(5)]
    for twist in [chi, chi.conjugate()] if N > 1 else []:
        if twist not in twists:
            twists.append(twist)
    assert len(twists) == (3 if N == 7 else 1)
    for twist in twists:
        want = [oracle_twisted_cusp_period(f, k, twist, n) for n in range(k - 1)]
        assert twisted_cusp_period(f, k, twist) == want, twist


def _relative(t: NumericValue) -> tuple:
    return t.value, t.bound / max(abs(t.value), 1e-300)


def _oracle_quotient(t0, tuv, tu, tv) -> NumericValue:
    denom = tu[0] * tv[0]
    if abs(denom) == 0:
        raise ConvergenceError("theta denominator vanished (pole)")
    value = t0[0] * tuv[0] / denom
    return NumericValue(value, abs(value) * (4e-15 + t0[1] + tuv[1] + tu[1] + tv[1]))


def per_shift_eval_F_chi(tau, u, v, chi) -> NumericValue:
    """eval_F_chi from theta'(0) and one NumericValue per theta of the passes
    at u, v and u + v, each unpacked to (value, relative error)."""
    chibar = chi.conjugate()
    w = embed_complex(gauss_sum(chibar))
    terms = [(h, embed_complex(cv)) for h, cv in enumerate(chibar.values) if cv]
    table = _ThetaTable(tau)
    u = embed_complex(u)
    v = embed_complex(v)
    t0 = _relative(table.theta_prime0())
    tu, tv, tuv = ([_relative(t) for t in per_shift_thetas(table, x, chi.modulus)] for x in (u, v, u + v))
    acc = 0j
    bound = 0.0
    for h, c in terms:
        f1 = _oracle_quotient(t0, tuv[h], tu[h], tv[0])
        f2 = _oracle_quotient(t0, tuv[h], tu[0], tv[h])
        acc = acc + c * (f1.value + f2.value)
        bound += f1.bound + f2.bound
    value = acc / (2 * w)
    return NumericValue(value, (bound + 1e-14 * abs(acc)) / (2 * abs(w)))


@pytest.mark.parametrize("N", [1, 5, 7, 13])
def test_eval_F_chi_equals_the_per_shift_sum(N):
    # values and bounds bit for bit, or the same error, at the law points, for
    # every even primitive character mod N
    chars = [trivial_character(1)] if N == 1 else even_primitive_characters(N)
    evaluated = 0
    for tau, u, v in _law_points(N, 6, 20240811 + N):
        for chi in chars:
            want = _outcome(per_shift_eval_F_chi, tau, u, v, chi)
            assert _outcome(eval_F_chi, tau, u, v, chi) == want, (tau, u, v, chi)
            evaluated += isinstance(want, NumericValue)
    assert evaluated > 0


# ---------------------------------------------------------------------------
# The batch evaluator against the scalar one it replaced, and the seeded law
# points against the pole distance as it was before its quotient was hoisted.

def _bits(outcome):
    """A NumericValue as the hex of its three floats (so -0.0 != 0.0), or the
    type and message of an exception."""
    if isinstance(outcome, NumericValue):
        return outcome.value.real.hex(), outcome.value.imag.hex(), outcome.bound.hex()
    if isinstance(outcome, ArithmeticError):
        return type(outcome), str(outcome)
    return outcome


@pytest.mark.parametrize("N", [1, 5, 7, 13, 17, 41])
def test_points_batch_matches_the_scalar_evaluator(N):
    # every law point of the level (base points, modular images, elliptic
    # shifts) in one call, for the first and the last even primitive
    # character: each value and bound bit for bit, or the exception (type
    # and message) that the scalar evaluator raises there
    chars = [trivial_character(1)] if N == 1 else even_primitive_characters(N)
    points = list(_law_points(N, 20, 20240811 + N))
    for chi in dict.fromkeys([chars[0], chars[-1]]):
        got = eval_F_chi_points(points, chi)
        assert len(got) == len(points)
        raised = []
        for point, outcome in zip(points, got):
            want = _bits(_outcome(scalar_eval_F_chi, *point, chi))
            assert _bits(outcome) == want, (point, chi)
            raised.append(isinstance(want[0], type))
        assert not all(raised)
        if N >= 13:
            # a point that raises sits between good ones in its batch
            batches = [raised[k:k + POINTS_BATCH] for k in range(0, len(raised), POINTS_BATCH)]
            assert any(True in b[1:] and not b[0] and False in b[b.index(True):] for b in batches)


def test_points_batch_isolates_a_point_that_raises_in_a_batched_stage():
    # a non-finite theta (the shift rows) and a vanishing denominator (the
    # character sum) are found across the batch; each point gets its own
    # exception and its neighbours their scalar values
    chi = even_primitive_characters(5)[0]
    tau = 0.1 + 1.1j
    good = (tau, 0.2 + 0.1j, -0.15 + 0.05j)
    overflow = (tau, 700 + 0.1j, -0.15 + 0.05j)  # theta at u overflows
    pole = (tau, 0j, -0.15 + 0.05j)  # theta(0) = 0
    points = [good, overflow, good, pole, good]
    got = [_bits(o) for o in eval_F_chi_points(points, chi)]
    assert got == [_bits(_outcome(scalar_eval_F_chi, *p, chi)) for p in points]
    assert got[1][0] is OverflowError and got[3][0] is ConvergenceError
    assert eval_F_chi_points([], chi) == []


def oracle_pole_distance(w: complex, tau: complex, N: int) -> float:
    best = float("inf")
    y = tau.imag
    span = int(abs(w) / (TWO_PI * y)) + 2
    for n in range(-span, span + 1):
        base = w / (2j * math.pi) - n * tau
        r = round(base.real * N) / N
        best = min(best, abs(complex(base.real - r, base.imag)) * TWO_PI)
    return best


@pytest.mark.parametrize("N", [1, 5, 7, 13, 41])
def test_seeded_law_points_are_unchanged(N):
    # _random_point's draws, with the pole distance of every candidate u and
    # v equal to the per-row quotient's, for both suites' seeds
    for seed in (LAW_SEED, LAW_SEED + 1):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(250):
            tau = complex(oracle_rng.uniform(-0.4, 0.4), oracle_rng.uniform(0.9, 1.3))
            while True:
                u = complex(oracle_rng.uniform(0.05, 0.35), oracle_rng.uniform(-0.3, 0.3))
                v = complex(oracle_rng.uniform(-0.35, -0.05), oracle_rng.uniform(-0.3, 0.3))
                du, dv = oracle_pole_distance(u, tau, N), oracle_pole_distance(v, tau, N)
                assert (pole_distance(u, tau, N), pole_distance(v, tau, N)) == (du, dv)
                if du > 0.02 and dv > 0.02:
                    break
            assert _random_point(rng, N) == (tau, u, v)
