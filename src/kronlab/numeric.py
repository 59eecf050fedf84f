"""Complex-numeric evaluation: theta functions, Kronecker series, slashed
Eisenstein series and critical L-values.

Every evaluator works in complex double precision and returns a
(value, bound) pair.  Theta's and theta'(0)'s bounds are their truncation
tails plus a rounding term, and eval_F_chi's adds up the relative bounds of
its thetas; the other bounds are tail estimates and cover truncation only.
Term n of theta's series is a running product of about n^2/2 roundings, so
the rounding term is THETA_ROUNDING_ULPS (n + 1)^2 ulps of the largest term,
n the number of terms summed.  Against 300-bit
sums the rounding needs at most 1.1 (n + 1)^2 such ulps: at the law points
of levels 5 to 41, their modular images and their elliptic shifts (n up to
29), at |q| up to 0.91 with |Re u| up to 8 (n up to 85) and at Im tau up
to 8 (n = 1).

Theta is summed from its Jacobi triple-product series, whose terms fall like
|q|^(n^2/2): about 20 terms where the product needs 120 to 280 factors
(|q| near 0.8).  One table per tau (`_ThetaTable`) holds q, |q| and q^(1/8).
A shift of u by 2 pi i h/N multiplies the series' n-th term by roots of
unity that depend on n mod N only, so one pass over the terms
(`_ThetaTable.bins`) gives theta at all N shifts (`_shift_values`) with the
one bound they share; `theta` is its N = 1 case.  F^chi takes theta'(0) and
three passes, at u, v and u + v, for its whole character sum.
`eval_F_chi_points` evaluates it at many points: each point runs its own
table, theta'(0) and term loops, and the shift rows, relative errors and
character sums run across a batch of POINTS_BATCH points as maps over
per-point columns, in the one-point order of operations, so that each value
and bound is the one the point gets alone.  `eval_F_chi` is its one-point
call and `eval_F` that at the trivial character.  A sum stops once the
ratio of consecutive terms is at most 1/2 and the next term is at most
THETA_TOL times the largest.

A period polynomial's coefficients r_0 .. r_(k-2) come from one call
(`cusp_period`, `twisted_cusp_period`): one pass over each coefficient list
embeds each coefficient once and reads Gamma(n+1, x) for every n from one
run of partial sums (`incomplete_gammas`).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, partial
from itertools import repeat
from operator import add, mul, truediv

from .arith import embed_complex
from .dirichlet import DirichletCharacter, gauss_sum, trivial_character
from .series import QSeries

TWO_PI = 2 * math.pi
THETA_TOL = 1e-15  # theta series truncation, relative to the largest term
THETA_ROUNDING_ULPS = 4  # theta's rounding, in ulps of its largest term per (terms + 1)^2 (1.1 measured)
_NMAX = 20000  # no finite growth needs 9,000 theta terms below |q| = 0.92
QSERIES_GROWTH = 3.0  # q-series tails assume |a_n| <= C n^QSERIES_GROWTH
POINTS_BATCH = 32  # points per batch of eval_F_chi_points (their bins and thetas stay small)


class ConvergenceError(ArithmeticError):
    """The requested tolerance is unreachable at this evaluation point."""


class NumericValue:
    """A double-precision value and a bound on its error."""

    __slots__ = ("value", "bound")

    def __init__(self, value: complex, bound: float):
        self.value, self.bound = value, bound

    def __eq__(self, other):
        if not isinstance(other, NumericValue):
            return NotImplemented
        return (self.value, self.bound) == (other.value, other.bound)

    __hash__ = None

    def __repr__(self):
        return f"NumericValue(value={self.value!r}, bound={self.bound!r})"


def pole_distance(w: complex, tau: complex, N: int) -> float:
    """Distance from w to the lattice 2 pi i ((1/N)Z + Z tau) (conservative)."""
    best = float("inf")
    y = tau.imag
    span = int(abs(w) / (TWO_PI * y)) + 2
    z = w / (2j * math.pi)
    for n in range(-span, span + 1):
        base = z - n * tau
        r = round(base.real * N) / N
        best = min(best, abs(complex(base.real - r, base.imag)) * TWO_PI)
    return best


@lru_cache(maxsize=None)
def _shift_rows(N: int) -> tuple:
    """Per h = 1..N-1, the row omega_h^(2r+1), omega_h^-(2r+1) over
    r = 0..N-1 (interleaved), omega_h = e^(pi i h/N): the factors of the bins
    C_r and -D_r in theta(u + 2 pi i h/N) (see `_ThetaTable.bins`); at h = 0
    every factor is 1.  The exponent h (2r+1) is reduced mod 2N before the
    exponential."""
    rows = []
    for h in range(1, N):
        row = []
        for r in range(N):
            z = cmath.exp(1j * math.pi * (h * (2 * r + 1) % (2 * N)) / N)
            row += (z, z.conjugate())
        rows.append(tuple(row))
    return tuple(rows)


class _ThetaTable:
    """The u-independent part of theta at one tau: q, |q| and q^(1/8).

    `bins(u, N)` sums the series' terms at u into the bins that give theta at
    the N shifts u + 2 pi i h/N (`_shift_values`), and `thetas(u, N)` reads
    those thetas.
    """

    __slots__ = ("q", "absq", "q8")

    def __init__(self, tau):
        tau = embed_complex(tau)
        self.q = cmath.exp(2 * 1j * math.pi * tau)
        self.absq = abs(self.q)
        self.q8 = cmath.exp(2 * 1j * math.pi * tau / 8)

    def _check_domain(self):
        if not self.absq < 0.92:  # a NaN |q| too
            raise ConvergenceError("Im(tau) too small for theta evaluation")

    def bins(self, u: complex, N: int) -> tuple[list, float]:
        """The bins C_r, -D_r (r = 0..N-1, interleaved) of the series at u and
        the one bound that theta shares at all N shifts; OverflowError where
        exp(u), exp(-u) or a term leaves the double range (cmath.exp raises
        for exp(u) itself).

        Term n is c_n - d_n, c_n = c_(n-1) a_n and d_n = d_(n-1) b_n from
        c_0 = xi^(1/2), d_0 = xi^(-1/2), with the running products
        a_n = -q^n xi and b_n = -q^n/xi, so no power of xi is formed.  m is
        max(|c_n|, |d_n|) and r = |q|^n max(|xi|, 1/|xi|) its ratio to the
        one before; both, and so the stopping point and the bound, are the
        same at every shift.  The shift by 2 pi i h/N multiplies c_n by
        omega_h^(2n+1) and d_n by its inverse, omega_h = e^(pi i h/N), which
        depend on n mod N only: the terms are summed into bins C_r, D_r
        (r = n mod N) once, and theta at shift h is
        q^(1/8) sum_r (omega_h^(2r+1) C_r + omega_h^-(2r+1) (-D_r)).  The
        list `terms` holds c_0, -d_0, c_1, -d_1, ... (d runs negated from
        -d_0 on: negation is exact, so only the signs of zeros can differ
        from negating each d_n, and sums from 0 drop those), and the bins and
        the rows of `_shift_rows` are interleaved the same way; with N terms
        or fewer the terms are their own bins.
        """
        xi = cmath.exp(u)
        grow = max(abs(xi), 1.0 / abs(xi)) if xi else math.inf
        if grow == math.inf:
            raise OverflowError("exp(-u) leaves the double range")
        self._check_domain()
        q, absq = self.q, self.absq
        c = cmath.exp(u / 2)
        d = -(1 / c)  # -d_0
        terms = [c, d]
        a = -xi  # -q^n xi
        b = -1 / xi  # -q^n / xi
        aqn = 1.0  # |q|^n
        m = top = math.sqrt(grow)
        for n in range(1, _NMAX):
            aqn *= absq
            r = aqn * grow
            m *= r
            if r <= 0.5 and not m > THETA_TOL * top:  # an overflowed m stops too
                break
            a = a * q
            b = b * q
            c = c * a
            d = d * b
            terms += (c, d)
            if m > top:
                top = m
        else:  # a NaN growth
            raise ConvergenceError("theta tolerance unreachable at this point")
        if N < len(terms) // 2:
            terms = [sum(terms[j::2 * N]) for j in range(2 * N)]
        # r falls from 1/2 on: the terms left out sum to under 2 (m + m/2 + ...);
        # rounding adds at most THETA_ROUNDING_ULPS (n + 1)^2 ulps of the largest term
        return terms, abs(self.q8) * (4 * m + THETA_ROUNDING_ULPS * (n + 1) ** 2 * 2.0**-52 * top)

    def thetas(self, u: complex, N: int) -> tuple[list, float]:
        """[theta(u + 2 pi i h/N) for h in 0..N-1] and the one bound they all
        share, from `bins` and `_shift_values` at this one point;
        OverflowError where `bins` raises it or a value is not finite."""
        bins, bound = self.bins(u, N)
        return [column[0] for column in _shift_values([self.q8], [bins], N)], bound

    def theta_prime0(self) -> NumericValue:
        """theta'(0): term n is (2n+1) p_n, p_n = p_(n-1) (-q^n); m is its
        modulus and r = |q|^n (2n+1)/(2n-1) its ratio to the one before.  The
        bound is the tail's plus THETA_ROUNDING_ULPS (n + 1)^2 ulps of the largest
        term, as for theta."""
        self._check_domain()
        q, absq = self.q, self.absq
        p = out = 1 + 0j
        qn = -1.0
        aqn = m = top = 1.0
        for n in range(1, _NMAX):
            qn = qn * q
            aqn *= absq
            r = aqn * (2 * n + 1) / (2 * n - 1)
            m *= r
            if r <= 0.5 and m <= THETA_TOL * top:
                break
            p = p * qn
            out = out + (2 * n + 1) * p
            if m > top:
                top = m
        bound = abs(self.q8) * (2 * m + THETA_ROUNDING_ULPS * (n + 1) ** 2 * 2.0**-52 * top)
        return NumericValue(self.q8 * out, bound)


def _shift_values(q8s, bins, N: int) -> list:
    """Per h = 0..N-1, the column q8 sum_r (row_h . bins) over the points
    whose q^(1/8) and bins are the entries of q8s and bins: theta at
    u + 2 pi i h/N, u each point's argument.  Each sum runs from 0 in r order,
    `sum(map(mul, row, bins))` point by point, so a point's thetas do not
    depend on the others in its batch.  At h = 0 the sum is `sum(bins)`:
    multiplying a finite bin by 1 changes at most the sign of a zero, which
    a sum from 0 drops, and a bin that is not finite leaves the value not
    finite either way.  OverflowError where a value is not finite."""
    columns = [list(map(mul, q8s, map(sum, bins)))]
    for row in _shift_rows(N):  # fewer than N terms fill fewer bins: map stops there
        columns.append(list(map(mul, q8s, map(sum, map(map, repeat(mul), repeat(row), bins)))))
    for column in columns:
        if not all(map(cmath.isfinite, column)):
            raise OverflowError("theta product leaves the double range")
    return columns


def theta(tau, u) -> NumericValue:
    """Jacobi theta via the triple-product series

    q^(1/8) sum_(n>=0) (-1)^n q^(n(n+1)/2) (xi^(n+1/2) - xi^(-(n+1/2))).
    """
    values, bound = _ThetaTable(tau).thetas(embed_complex(u), 1)
    return NumericValue(values[0], bound)


def theta_prime0(tau) -> NumericValue:
    """theta'(0) = q^(1/8) sum_(n>=0) (-1)^n (2n+1) q^(n(n+1)/2)."""
    return _ThetaTable(tau).theta_prime0()


def _theta_quotients(numerators: list, errors: list, tu, tv) -> tuple[list, list]:
    """F = theta'(0) theta(u+v) / (theta(u) theta(v)) and its bound at each
    point of a column: numerators holds theta'(0) theta(u+v), errors
    4e-15 plus the relative errors of those two thetas, and tu and tv are
    (values, relative errors) pairs of columns; ConvergenceError where a
    denominator vanishes (a pole)."""
    denoms = list(map(mul, tu[0], tv[0]))
    if 0.0 in map(abs, denoms):
        raise ConvergenceError("theta denominator vanished (pole)")
    values = list(map(truediv, numerators, denoms))
    # the relative errors of all four factors add (to first order)
    errors = map(add, map(add, errors, tu[1]), tv[1])
    return values, list(map(mul, map(abs, values), errors))


def eval_F(tau, u, v) -> NumericValue:
    """Untwisted Kronecker series: eval_F_chi at the trivial character."""
    return eval_F_chi(tau, u, v, trivial_character())


@lru_cache(maxsize=None)
def _character_sum_terms(chi: DirichletCharacter):
    """W(conj chi) and the pairs (h, conj(chi)(h)) over the h with
    conj(chi)(h) != 0, embedded in C."""
    chibar = chi.conjugate()
    terms = tuple((h, embed_complex(cv)) for h, cv in enumerate(chibar.values) if cv)
    return embed_complex(gauss_sum(chibar)), terms


def _batched(stage, rows: list, live: list, outcomes: list) -> tuple[list, list]:
    """The live points that `stage` evaluates and its outputs there.

    stage(rows) returns one output per row, rows[j] holding the inputs of the
    point live[j] (a list whose first entry is its index in outcomes).  Where
    the batch raises an ArithmeticError, each point runs alone: a point that
    raises gets its exception in outcomes and drops out, so every point
    raises what the stage raises at it alone, in the stage's own order of
    operations."""
    try:
        return live, stage(rows) if rows else []
    except ArithmeticError:
        pass
    kept, out = [], []
    for point, row in zip(live, rows):
        try:
            out += stage([row])
        except ArithmeticError as exc:
            outcomes[point[0]] = exc
        else:
            kept.append(point)
    return kept, out


def _pass_stage(rows: list, N: int) -> list:
    """Per point, a row (q^(1/8), bins, bound) of one pass: its thetas at the
    N shifts, then their relative errors, as one tuple; OverflowError where a
    value is not finite or its modulus leaves the double range."""
    q8s, bins, bounds = zip(*rows)
    values = _shift_values(q8s, bins, N)
    errors = []
    for column in values:
        sizes = list(map(abs, column))
        if min(sizes) < 1e-300:  # max(size, 1e-300) is the size itself from 1e-300 on
            sizes = list(map(max, sizes, repeat(1e-300)))
        errors.append(list(map(truediv, bounds, sizes)))
    return list(zip(*values, *errors))


def _character_sum_stage(points: list, w: complex, terms: tuple) -> list:
    """Per live point (see `_eval_F_chi_batch`), F^chi as a NumericValue.
    The sum runs over h in order, f1 before f2, as in the one-point sum."""
    t0, t0_err, *columns = list(zip(*points))[3:]
    N = len(columns) // 6
    # per pass, per shift h: the (values, relative errors) pair of columns
    tu, tv, tuv = ([(columns[k + h], columns[k + N + h]) for h in range(N)] for k in range(0, 6 * N, 2 * N))
    acc = [0j] * len(points)
    bound = [0.0] * len(points)
    t0_err = list(map(add, repeat(4e-15), t0_err))
    for h, c in terms:
        # both quotients at h share theta'(0) theta(u + v + 2 pi i h/N), its
        # errors and the order in which they are added
        numerators = list(map(mul, t0, tuv[h][0]))
        errors = list(map(add, t0_err, tuv[h][1]))
        f1, b1 = _theta_quotients(numerators, errors, tu[h], tv[0])
        f2, b2 = _theta_quotients(numerators, errors, tu[0], tv[h])
        acc = list(map(add, acc, map(mul, repeat(c), map(add, f1, f2))))
        bound = list(map(add, bound, map(add, b1, b2)))
    values = map(truediv, acc, repeat(2 * w))
    bounds = map(add, bound, map(mul, repeat(1e-14), map(abs, acc)))
    return list(map(NumericValue, values, map(truediv, bounds, repeat(2 * abs(w)))))


def eval_F_chi_points(points, chi: DirichletCharacter) -> list:
    """eval_F_chi at each (tau, u, v) of points: its NumericValue, or the
    ArithmeticError that eval_F_chi raises there, in the same order.

    The points run in batches of POINTS_BATCH.  Each point makes its own
    table, theta'(0) and the term loops of its passes at u, v and u + v
    (`_ThetaTable.bins`), and keeps only its bins; the shift rows, the
    relative errors and the character sum run once per batch, as maps over
    per-point columns in the one-point order of operations, so every value
    and bound is the one that a batch of one gives.  A point that raises
    drops out of the later stages, at the first error in the order: tau's
    domain, the pass at u, at v, at u + v, then a pole (f1 before f2 at each
    h).
    """
    points = list(points)
    out = []
    for start in range(0, len(points), POINTS_BATCH):
        out += _eval_F_chi_batch(points[start:start + POINTS_BATCH], chi)
    return out


def _eval_F_chi_batch(points: list, chi: DirichletCharacter) -> list:
    w, terms = _character_sum_terms(chi)
    N = chi.modulus
    outcomes = [None] * len(points)
    # a live point: [index, table, (u, v, u + v), theta'(0), its relative
    # error, then per pass at u, v and u + v its N thetas and their N
    # relative errors]
    live = []
    for i, (tau, u, v) in enumerate(points):
        try:
            table = _ThetaTable(tau)
            u = embed_complex(u)
            v = embed_complex(v)
            prime = table.theta_prime0()
        except ArithmeticError as exc:
            outcomes[i] = exc
        else:
            live.append([i, table, (u, v, u + v), prime.value, prime.bound / max(abs(prime.value), 1e-300)])
    for p in range(3):
        live = _pass(live, p, N, outcomes)
    live, values = _batched(partial(_character_sum_stage, w=w, terms=terms), live, live, outcomes)
    for point, value in zip(live, values):
        outcomes[point[0]] = value
    return outcomes


def _pass(live: list, p: int, N: int, outcomes: list) -> list:
    """The live points after their pass p (0, 1, 2: at u, v, u + v): each
    point's term loop, then `_pass_stage` over the batch; a point that
    raises gets its exception in outcomes and drops out."""
    rows, kept = [], []
    for point in live:
        table = point[1]
        try:
            bins, bound = table.bins(point[2][p], N)
        except ArithmeticError as exc:
            outcomes[point[0]] = exc
        else:
            rows.append((table.q8, bins, bound))
            kept.append(point)
    live, thetas = _batched(partial(_pass_stage, N=N), rows, kept, outcomes)
    for point, row in zip(live, thetas):
        point += row
    return live


def eval_F_chi(tau, u, v, chi: DirichletCharacter) -> NumericValue:
    """Twisted series by the character-sum average of shifted F values:

    (1 / 2 W(conj chi)) sum_h conj(chi)(h) [F(u + 2 pi i h/N, v) + F(u, v + 2 pi i h/N)].

    Every theta of the sum comes from theta'(0) and one pass each at u, v
    and u + v; both F's at shift h read theta(u + v + 2 pi i h/N) from the
    pass at u + v.  At N = 1 the sum is the untwisted theta quotient F(u, v).
    This is `eval_F_chi_points` at one point.
    """
    (outcome,) = eval_F_chi_points([(tau, u, v)], chi)
    if isinstance(outcome, ArithmeticError):
        raise outcome
    return outcome


def eval_qseries(f: QSeries, tau) -> NumericValue:
    """Evaluate a q-expansion at tau with a coefficient-growth tail bound.

    QSERIES_GROWTH bounds |a_n| by C n^QSERIES_GROWTH with C read off the
    computed range.
    """
    tau = embed_complex(tau)
    q = cmath.exp(2 * 1j * math.pi * tau)
    absq = abs(q)
    if absq >= 0.95:
        raise ConvergenceError("Im(tau) too small for q-series evaluation")
    acc = 0j
    qn = 1 + 0j
    cmax = 0.0
    for n in range(f.prec):
        c = f.coeffs[n]
        if c != 0:
            cc = embed_complex(c)
            acc = acc + cc * qn
            cmax = max(cmax, abs(cc) / max(n, 1) ** QSERIES_GROWTH)
        qn = qn * q
    n0 = f.prec
    ratio = absq * (1 + 1.0 / n0) ** QSERIES_GROWTH
    tail = cmax * n0**QSERIES_GROWTH * absq**n0 / max(1 - ratio, 1e-9)
    return NumericValue(acc, tail)


def eval_slashed(f: QSeries, k: int, gamma, tau) -> NumericValue:
    """(f |_k gamma)(tau) = det(gamma)^(k/2) (c tau + d)^(-k) f(gamma tau)."""
    (a, b), (c, d) = gamma
    det = a * d - b * c
    if det <= 0:
        raise ValueError("gamma must have positive determinant")
    if k % 2:
        raise ValueError("even weight required")
    tau = embed_complex(tau)
    denom = c * tau + d
    gt = (a * tau + b) / denom
    if float(gt.imag) <= 0:
        raise ConvergenceError("gamma tau left the upper half plane")
    inner = eval_qseries(f, gt)
    factor = complex(det) ** (k // 2) * denom ** (-k)
    value = factor * inner.value
    return NumericValue(value, abs(factor) * inner.bound)


def atkin_lehner_matrix(M: int, N: int):
    """An integral W_M = [[M, b], [N, M d]] with determinant M, for M | N."""
    if N % M:
        raise ValueError("M must divide N")
    if M == 1:
        return ((1, 0), (0, 1))
    if M == N:
        return ((0, -1), (N, 0))
    rest = N // M
    if math.gcd(M, rest) != 1:
        raise ValueError("requires gcd(M, N/M) = 1 (square-free N)")
    d = pow(M, -1, rest)
    b = (M * d - 1) // rest
    return ((M, b), (N, M * d))


# ---------------------------------------------------------------------------
# Period integrals via incomplete gamma sums

def incomplete_gammas(nmax: int, x: float) -> list:
    """[Gamma(n+1, x) for n in 0..nmax], read off one run of the partial sums
    of Gamma(n+1, x) = n! e^(-x) sum_{j<=n} x^j / j! (DLMF 8.4.8)."""
    e = math.exp(-x)
    term = acc = 1.0
    fact = 1
    out = [fact * e * acc]
    for j in range(1, nmax + 1):
        term = term * x / j
        acc += term
        fact *= j
        out.append(fact * e * acc)
    return out


def _gamma_sums(coeffs, nmax: int, t0: float, power: float) -> tuple[list, list]:
    """For n = 0..nmax, sum_m a_m Gamma(n+1, 2 pi m t0) / (2 pi m)^(n+1) and
    its next-term tail estimate with coefficient growth m^power, from one pass
    over the coefficients."""
    sums = [0j] * (nmax + 1)
    cmax = 0.0
    for m in range(1, len(coeffs)):
        if coeffs[m] == 0:
            continue
        c = embed_complex(coeffs[m])
        cmax = max(cmax, abs(c) / m**power)
        for n, g in enumerate(incomplete_gammas(nmax, TWO_PI * m * t0)):
            sums[n] = sums[n] + c * g / ((TWO_PI * m) ** (n + 1))
    M = len(coeffs)
    gammas = incomplete_gammas(nmax, TWO_PI * M * t0)
    tails = [3.0 * (cmax * M**power * g / (TWO_PI * M) ** (n + 1)) for n, g in enumerate(gammas)]
    return sums, tails


def _split_periods(upper, reflected, k: int, t0: float, lam, scales: list) -> list:
    """[int_0^inf g(it) t^n dt for n in 0..k-2] split at t0, where g has
    coefficients `upper` and the piece below t0 is lam i^k scales[n] times the
    upper integral of the form with coefficients `reflected`, at n -> k - 2 - n."""
    power = (k - 1) / 2 + 0.6
    upper_sums, upper_tails = _gamma_sums(upper, k - 2, t0, power)
    reflected_sums, reflected_tails = (
        (upper_sums, upper_tails) if reflected is upper else _gamma_sums(reflected, k - 2, t0, power))
    out = []
    for n, scale in enumerate(scales):
        lower = lam * 1j**k * scale * reflected_sums[k - 2 - n]
        bound = upper_tails[n] + abs(scale) * reflected_tails[k - 2 - n]
        # d tau = i dt contributes i^(n+1) relative to the real t-integral
        out.append(NumericValue(1j ** (n + 1) * (upper_sums[n] + lower), bound))
    return out


def cusp_period(f: QSeries, k: int, N: int, eps_N: int) -> list:
    """[r_n(f) for n in 0..k-2], r_n(f) = int_0^inf f(it) t^n dt, for a
    W_N-eigenform with sign eps_N.

    Split at t0 = 1/sqrt(N); the lower piece maps to an upper piece through
    f |_k W_N = eps_N f.
    """
    if f.coeffs[0] != 0:
        raise ValueError("cusp periods need a vanishing constant term")
    if eps_N not in (1, -1):
        raise ValueError("eigenvalue must be +-1")
    scales = [float(N) ** (k // 2 - n - 1) for n in range(k - 1)]
    return _split_periods(f.coeffs, f.coeffs, k, 1 / math.sqrt(N), eps_N, scales)


def twisted_cusp_period(f: QSeries, k: int, chi: DirichletCharacter) -> list:
    """[r_n(f_chi) for n in 0..k-2] for the conductor-N twist of a level-N
    form, N the modulus of chi (the twist has level N^2); uses
    f_chi |_k W_{N^2} = chi(-1) (W(chi)/W(conj chi)) f_{conj chi} with the
    split point t0 = 1/N.
    """
    chibar = chi.conjugate()
    twisted = [chi(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0 for m in range(f.prec)]
    twisted_bar = twisted if chibar == chi else [
        chibar(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0 for m in range(f.prec)]
    w = embed_complex(gauss_sum(chi))
    wbar = embed_complex(gauss_sum(chibar))
    lam = (1 if chi.is_even() else -1) * w / wbar
    N = chi.modulus
    scales = [float(N) ** (k - 2 * n - 2) for n in range(k - 1)]
    return _split_periods(twisted, twisted_bar, k, 1.0 / N, lam, scales)
