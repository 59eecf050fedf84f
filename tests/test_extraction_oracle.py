"""extract_rank_one_cusp, which sums every remainder of a slice in one
series.orbit_sums call, against a reference body that sums each orbit's
remainder on its own.

The oracle is that body: a Fraction lambda per orbit, each remainder its own
qs_sum, and a proportionality scan that cross-multiplies coefficients
(integer numerators over Q, Cyclotomic values otherwise).  It reads
slice_cusp_data through the module, so a test that replaces the cusp data
replaces it for both.  The outcomes compared are the rank, the
multipliers and r_poly on value and type, and the eigenform's JSON, or a
RankError's rank and message.
"""

from fractions import Fraction

import pytest

from kronlab import linalg, modforms
from kronlab.arith import Cyclotomic
from kronlab.dirichlet import enumerate_characters
from kronlab.kronecker import product_B
from kronlab.modforms import (
    ExtractionResult,
    RankError,
    eisenstein_g_eps,
    eisenstein_signs,
    extract_rank_one_cusp,
)
from kronlab.ntheory import divisors, euler_phi
from kronlab.periods import generating_C
from kronlab.series import QSeries, qs_scale, qs_sum, slice_orbits

KMAX = 8
PREC = 20

# every even primitive character up to conjugation, labelled by its --char index
LABELLED = {}
for N in (1, 5, 7, 11, 13, 15):
    for i, chi in enumerate(enumerate_characters(N)):
        if chi.is_even() and chi.is_primitive() and chi.conjugate() not in LABELLED.values():
            LABELLED[f"N{N}-char{i}"] = chi
CHARS, IDS = list(LABELLED.values()), list(LABELLED)


def _oracle_proportional(f, g):
    prec, phi = min(f.prec, g.prec), euler_phi(g.order)
    i = next((i for i, x in enumerate(g.ints[: prec * phi]) if x), None)
    if i is None:
        raise ValueError("g is zero below the precision")
    j = i // phi
    if f.order == 1 and g.order == 1:
        x, y = f.ints, g.ints
        return all(x[n] * y[j] == x[j] * y[n] for n in range(prec))
    xs, ys = f.coeffs, g.coeffs
    return all(xs[n] * ys[j] == xs[j] * ys[n] for n in range(prec))


def _oracle_extract_rank_one_cusp(slice_rows, k, chi, prec):
    N = chi.modulus
    eps_list = eisenstein_signs(N, k)
    forms = [eisenstein_g_eps(k, e, prec) for e in eps_list]
    ms = divisors(N)
    scales = [Fraction(1) / (len(ms) * form.coeff(0)) for form in forms]
    cusp_data = modforms.slice_cusp_data(k, chi)

    keys = set(slice_rows)
    for M in ms:
        keys |= set(cusp_data[M])
    values = {key: tuple(cusp_data[M].get(key, Fraction(0)) for M in ms) for key in sorted(keys)}
    orbit = slice_orbits({key: (slice_rows.get(key), d) for key, d in values.items()})
    multipliers = {e.label(): {} for e in eps_list}
    remainder_rows = {}
    for key, d in values.items():
        if orbit[key] != key:
            rep = orbit[key]
            for poly in multipliers.values():
                if rep in poly:
                    poly[key] = poly[rep]
            if rep in remainder_rows:
                remainder_rows[key] = remainder_rows[rep]
            continue
        if k == 2 and sum(d) != 0:
            raise RankError(-1, f"weight-2 cusp data at {key} does not sum to 0 over the W_M")
        terms = [(1, slice_rows.get(key, QSeries.zero(prec)), None)]
        for e, form, scale in zip(eps_list, forms, scales):
            lam_e = scale * sum(e(M) * d_M for M, d_M in zip(ms, d))
            if lam_e != 0:
                multipliers[e.label()][key] = lam_e
                terms.append((-lam_e, form, None))
        row = qs_sum(terms)
        if not row.is_zero():
            if row.coeff(0) != 0:
                raise RankError(-1, f"remainder at {key} has a constant term")
            remainder_rows[key] = row

    if not remainder_rows:
        return ExtractionResult(k, N, 0, multipliers)
    distinct = [row for key, row in remainder_rows.items() if orbit[key] == key]
    pivot = remainder_rows[min(remainder_rows)]
    if not all(_oracle_proportional(row, pivot) for row in distinct):
        rk = linalg.rank([list(q.coeffs) for q in distinct])
        raise RankError(rk, f"cusp remainder has rank {rk} > 1")
    a1 = pivot.coeff(1)
    if a1 == 0:
        raise RankError(1, "pivot cusp row has a(1) = 0")
    eigen = qs_scale(pivot, Fraction(1) / a1)
    r_poly = {key: row.coeff(1) for key, row in remainder_rows.items()}
    return ExtractionResult(k, N, 1, multipliers, eigen, r_poly)


def _typed(poly):
    return {key: (val, type(val)) for key, val in poly.items()}


def _outcome(fn, *args):
    """The fields of an ExtractionResult, or a RankError's rank and message."""
    try:
        res = fn(*args)
    except RankError as exc:
        return "RankError", exc.rank, str(exc)
    return (
        res.rank,
        {label: _typed(poly) for label, poly in res.multipliers.items()},
        res.eigenform.to_json() if res.eigenform else None,
        _typed(res.r_poly) if res.r_poly else None,
    )


def _scale_of(key, chi):
    """A nonzero scalar per monomial: a rational, times a root of unity of
    chi's order when chi is complex."""
    a, b = key
    c = Fraction(a + 2 * b + 7, 3)
    return c * Cyclotomic.zeta(chi.order, a - b) if chi.order > 2 else c


def _cusp(prec, coeffs):
    return QSeries(prec, [0, *coeffs])


def _slices(chi, k):
    """Slices of weight k that reach every outcome: the product slice, the
    same with one row doubled, with a constant added to one row, and with no
    rows; the Eisenstein part of C plus a cusp part that is rank one with
    a(1) != 0, rank one with a(1) = 0, and of rank two (once differing
    only in the last coefficient)."""
    rows = product_B(chi, KMAX, PREC).weights.get(k, {})
    out = [rows, {}]
    if rows:
        last = max(rows)
        out.append({**rows, last: qs_scale(rows[last], 2)})
        out.append({**rows, last: qs_sum([(1, rows[last], None), (1, QSeries.constant(1, PREC), None)])})
    cside = generating_C(k, chi, PREC).rows
    keys = sorted(set(cside) | {(0, k - 2), (k - 2, 0), (1, 1)})
    h1 = _cusp(PREC, [1, -24, 252, 0, 5])
    h0 = _cusp(PREC, [0, 1, 3, -2])
    h1_last = qs_sum([(1, h1, None), (1, _cusp(PREC, [0] * (PREC - 2) + [1]), None)])  # h1 but at q^(PREC-1)
    for parts in (
        {key: h1 for key in keys},
        {key: h0 for key in keys},
        {key: (h1 if key < keys[-1] else h0) for key in keys},
        {key: (h1 if key < keys[-1] else h1_last) for key in keys},
    ):
        slice_rows = {}
        for key, h in parts.items():
            terms = [(_scale_of(key, chi), h, None)]
            if key in cside:
                terms.append((1, cside[key], None))
            slice_rows[key] = qs_sum(terms)
        out.append(slice_rows)
    return out


@pytest.mark.parametrize("chi", CHARS, ids=IDS)
def test_extraction_matches_the_qs_sum_body(chi):
    seen = set()
    for k in range(2, KMAX + 1, 2):
        for slice_rows in _slices(chi, k):
            got = _outcome(extract_rank_one_cusp, slice_rows, k, chi, PREC)
            want = _outcome(_oracle_extract_rank_one_cusp, slice_rows, k, chi, PREC)
            assert got == want, (k, got, want)
            seen.add(got[0] if got[0] != "RankError" else got[2].split(" ")[0] + (" >1" if got[1] > 1 else ""))
    # rank 0, rank 1 and the errors: a constant term, a(1) = 0 and rank > 1
    assert {0, 1, "remainder", "pivot", "cusp >1"} <= seen, seen


@pytest.mark.parametrize("chi", [c for c in CHARS if c.modulus in (1, 5, 13)],
                         ids=[i for i, c in zip(IDS, CHARS) if c.modulus in (1, 5, 13)])
def test_extraction_matches_on_weight_2_cusp_data_that_does_not_cancel(chi, monkeypatch):
    # cusp data at k = 2 with a nonzero sum over the W_M, read by both
    real = modforms.slice_cusp_data

    def skewed(k, chi):
        data = {M: dict(row) for M, row in real(k, chi).items()}
        data[1][(0, 0)] = data[1].get((0, 0), 0) + 1
        return data

    monkeypatch.setattr(modforms, "slice_cusp_data", skewed)
    rows = product_B(chi, 2, PREC).weights[2]
    got = _outcome(extract_rank_one_cusp, rows, 2, chi, PREC)
    want = _outcome(_oracle_extract_rank_one_cusp, rows, 2, chi, PREC)
    assert got == want
    assert got[0] == "RankError" and got[2].startswith("weight-2 cusp data at (0, 0)")
