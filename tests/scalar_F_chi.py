"""The scalar evaluator of the twisted Kronecker series F^chi, one point per
call, kept as the oracle of numeric.eval_F_chi_points.

The bodies below are numeric's `_shift_rows`, `_ThetaTable` (its thetas
loop with its per-shift rows), `_theta_quotient`, `_character_sum_terms` and
`eval_F_chi` as they were before the points of a law suite were evaluated
in batches.  They share the package's constants and error types, so values,
bounds and exceptions can be compared with ==.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from operator import mul

from kronlab.arith import embed_complex
from kronlab.dirichlet import DirichletCharacter, gauss_sum
from kronlab.numeric import _NMAX, THETA_ROUNDING_ULPS, THETA_TOL, ConvergenceError, NumericValue


@lru_cache(maxsize=None)
def _shift_rows(N: int) -> tuple:
    """Per h = 0..N-1, the row omega_h^(2r+1), -omega_h^-(2r+1) over
    r = 0..N-1 (interleaved), omega_h = e^(pi i h/N): the factors of the bins
    C_r and D_r in theta(u + 2 pi i h/N) (see `_ThetaTable.thetas`).  The
    exponent h (2r+1) is reduced mod 2N before the exponential."""
    rows = []
    for h in range(N):
        row = []
        for r in range(N):
            z = cmath.exp(1j * math.pi * (h * (2 * r + 1) % (2 * N)) / N)
            row += (z, -z.conjugate())
        rows.append(tuple(row))
    return tuple(rows)


class _ThetaTable:
    """The u-independent part of theta at one tau: q, |q| and q^(1/8).

    `thetas(u, N)` reads theta at the N shifts u + 2 pi i h/N from one pass
    over the series' terms.
    """

    def __init__(self, tau):
        tau = embed_complex(tau)
        self.q = cmath.exp(2 * 1j * math.pi * tau)
        self.absq = abs(self.q)
        self.q8 = cmath.exp(2 * 1j * math.pi * tau / 8)

    def _check_domain(self):
        if not self.absq < 0.92:  # a NaN |q| too
            raise ConvergenceError("Im(tau) too small for theta evaluation")

    def thetas(self, u: complex, N: int) -> tuple[list, float]:
        """[theta(u + 2 pi i h/N) for h in 0..N-1] and the one bound they all
        share; OverflowError where exp(u), exp(-u) or a term leaves the double
        range (cmath.exp raises for exp(u) itself) or a value is not finite.

        Term n is c_n - d_n, c_n = c_(n-1) a_n and d_n = d_(n-1) b_n from
        c_0 = xi^(1/2), d_0 = xi^(-1/2), with the running products
        a_n = -q^n xi and b_n = -q^n/xi, so no power of xi is formed.  m is
        max(|c_n|, |d_n|) and r = |q|^n max(|xi|, 1/|xi|) its ratio to the
        one before; both, and so the stopping point and the bound, are the
        same at every shift.  The shift by 2 pi i h/N multiplies c_n by
        omega_h^(2n+1) and d_n by its inverse, omega_h = e^(pi i h/N), which
        depend on n mod N only: the terms are summed into bins C_r, D_r
        (r = n mod N) once, and theta at shift h is
        q^(1/8) sum_r (omega_h^(2r+1) C_r - omega_h^-(2r+1) D_r).  The list
        `terms` holds c_0, d_0, c_1, d_1, ..., and the bins and the rows of
        `_shift_rows` are interleaved the same way.
        """
        xi = cmath.exp(u)
        grow = max(abs(xi), 1.0 / abs(xi)) if xi else math.inf
        if grow == math.inf:
            raise OverflowError("exp(-u) leaves the double range")
        self._check_domain()
        q, absq = self.q, self.absq
        c = cmath.exp(u / 2)
        d = 1 / c
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
        q8 = self.q8
        # r falls from 1/2 on: the terms left out sum to under 2 (m + m/2 + ...);
        # rounding adds at most THETA_ROUNDING_ULPS (n + 1)^2 ulps of the largest term
        bound = abs(q8) * (4 * m + THETA_ROUNDING_ULPS * (n + 1) ** 2 * 2.0**-52 * top)
        values = []
        for row in _shift_rows(N):  # fewer than N terms fill fewer bins: map stops there
            value = q8 * sum(map(mul, row, terms))
            if not cmath.isfinite(value):
                raise OverflowError("theta product leaves the double range")
            values.append(value)
        return values, bound

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


def _theta_quotient(t0, tuv, tu, tv) -> tuple[complex, float]:
    """F = theta'(0) theta(u+v) / (theta(u) theta(v)) and its bound, from its
    four thetas, each a (value, relative error) pair."""
    denom = tu[0] * tv[0]
    if abs(denom) == 0:
        raise ConvergenceError("theta denominator vanished (pole)")
    value = t0[0] * tuv[0] / denom
    # the relative errors of all four factors add (to first order)
    return value, abs(value) * (4e-15 + t0[1] + tuv[1] + tu[1] + tv[1])


@lru_cache(maxsize=None)
def _character_sum_terms(chi: DirichletCharacter):
    """W(conj chi) and the pairs (h, conj(chi)(h)) over the h with
    conj(chi)(h) != 0, embedded in C."""
    chibar = chi.conjugate()
    terms = tuple((h, embed_complex(cv)) for h, cv in enumerate(chibar.values) if cv)
    return embed_complex(gauss_sum(chibar)), terms


def eval_F_chi(tau, u, v, chi: DirichletCharacter) -> NumericValue:
    """Twisted series by the character-sum average of shifted F values:

    (1 / 2 W(conj chi)) sum_h conj(chi)(h) [F(u + 2 pi i h/N, v) + F(u, v + 2 pi i h/N)].

    Every theta of the sum comes from theta'(0) and one pass each at u, v
    and u + v (`_ThetaTable.thetas`); both F's at shift h read
    theta(u + v + 2 pi i h/N) from the pass at u + v.  At N = 1 the sum is
    the untwisted theta quotient F(u, v).
    """
    w, terms = _character_sum_terms(chi)
    table = _ThetaTable(tau)
    u = embed_complex(u)
    v = embed_complex(v)
    prime = table.theta_prime0()
    t0 = prime.value, prime.bound / max(abs(prime.value), 1e-300)
    passes = []
    for x in (u, v, u + v):  # each theta of a pass as (value, relative error)
        values, err = table.thetas(x, chi.modulus)
        passes.append([(t, err / max(abs(t), 1e-300)) for t in values])
    tu, tv, tuv = passes
    acc = 0j
    bound = 0.0
    for h, c in terms:
        f1, b1 = _theta_quotient(t0, tuv[h], tu[h], tv[0])
        f2, b2 = _theta_quotient(t0, tuv[h], tu[0], tv[h])
        acc = acc + c * (f1 + f2)
        bound += b1 + b2
    value = acc / (2 * w)
    return NumericValue(value, (bound + 1e-14 * abs(acc)) / (2 * abs(w)))
