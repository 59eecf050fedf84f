from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kronlab.arith import Cyclotomic, RingMismatchError, scalar_to_json
from kronlab.modforms import eisenstein_g
from kronlab.ntheory import euler_phi
from kronlab.series import (
    BiJet,
    PrecisionError,
    QSeries,
    _kronecker_mul,
    _schoolbook_mul,
    bijet_substitute,
    qs_add,
    qs_mul,
    qs_rescale,
    qs_scale,
    theta_op,
    trigen_mul,
)


def test_mul_example():
    a = QSeries(3, [1, 1])      # 1 + q
    b = QSeries(3, [1, -1])     # 1 - q
    assert qs_mul(a, b) == QSeries(3, [1, 0, -1])


def test_g4_square_constant():
    g4 = eisenstein_g(4, 6).series
    sq = qs_mul(g4, g4)
    assert sq.coeffs[0] == Fraction(1, 57600)


def test_precision_law():
    a = QSeries(5, [1, 2, 3, 4, 5])
    b = QSeries(3, [1, 1, 1])
    assert qs_mul(a, b).prec == 3
    assert qs_add(a, b).prec == 3


def test_coeff_beyond_precision_raises():
    a = QSeries(4, [1, 2, 3, 4])
    with pytest.raises(PrecisionError):
        a.coeff(4)
    assert a.coeff(3) == 4


def test_theta_op():
    g4 = eisenstein_g(4, 5).series
    assert theta_op(g4, 0) == g4
    assert theta_op(g4, 1).coeffs[2] == 18
    q = QSeries(4, [0, 1])
    assert theta_op(q, 2) == q


def test_rescale():
    f = QSeries(6, [0, 1, 1])  # q + q^2
    assert qs_rescale(f, 1) == f
    assert qs_rescale(f, 2) == QSeries(6, [0, 0, 1, 0, 1])
    g4 = eisenstein_g(4, 8).series
    assert qs_rescale(g4, 5).coeffs[0] == Fraction(1, 240)


def test_ring_mismatch():
    from kronlab.arith import Cyclotomic

    a = QSeries(3, [Cyclotomic.zeta(5), 0, 0])
    b = QSeries(3, [0.5 + 0j, 0, 0])
    with pytest.raises(RingMismatchError):
        qs_mul(a, b)


def _simple_jet(prec=4, degree=3):
    entries = {
        (1, 0): QSeries(prec, [Fraction(1, 2), 1]),
        (0, 1): QSeries(prec, [Fraction(1, 2), 1]),
        (2, 1): QSeries(prec, [0, -1]),
        (1, 2): QSeries(prec, [0, -1]),
    }
    return BiJet(degree, prec, entries, polar_u=1, polar_v=1)


def test_substitute_monomials():
    jet = _simple_jet()
    a = bijet_substitute(jet, "XT_YT")
    # u^1 v^0 -> X T, carrying its q-series unchanged
    assert a.layers[1][(1, 0)] == jet.entries[(1, 0)]
    # polar slots land at T^(-1) as X^(-1) resp. Y^(-1) records
    assert a.layers[-1][(-1, 0)].coeffs[0] == 1
    b = bijet_substitute(jet, "T_-XYT")
    # u^0 v^1 -> -XY T
    assert b.layers[1][(1, 1)].coeffs[0] == Fraction(-1, 2)
    # polar 1/u -> T^(-1) record at (0, 0); 1/v -> -(XY)^(-1) T^(-1)
    assert b.layers[-1][(0, 0)].coeffs[0] == 1
    assert b.layers[-1][(-1, -1)].coeffs[0] == -1


def test_trigen_principal_from_polar_product():
    jet = _simple_jet()
    tri = trigen_mul(bijet_substitute(jet, "XT_YT"), bijet_substitute(jet, "T_-XYT"), 6)
    assert tri.principal == {(0, -1): 1, (-1, 0): 1, (-1, -2): -1, (-2, -1): -1}


def test_trigen_weight_bound():
    jet = _simple_jet()
    tri = trigen_mul(bijet_substitute(jet, "XT_YT"), bijet_substitute(jet, "T_-XYT"), 4)
    for k, row in tri.weights.items():
        assert 2 <= k <= 4
        for (a, b) in row:
            assert a <= k - 1 and b <= k - 1


def test_unsupported_substitution():
    with pytest.raises(ValueError):
        bijet_substitute(_simple_jet(), "YT_XT")


_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def _scalars(m):
    phi = euler_phi(m)
    cyclotomic = st.lists(_RATIONALS, min_size=phi, max_size=phi).map(
        lambda cs: Cyclotomic(m, cs)
    )
    return st.one_of(st.just(0), st.integers(-4, 4), _RATIONALS, cyclotomic)


_SCALARS = {m: _scalars(m) for m in (1, 3, 4, 5, 8, 12)}  # phi(m) up to 4


@st.composite
def _factor_pair(draw):
    """Two coefficient lists over Q(zeta_m) of lengths 1..12, sometimes with a
    forced cancellation: (x, -x) against (c, c) makes q^1 a sum that is zero."""
    scalars = _SCALARS[draw(st.sampled_from(sorted(_SCALARS)))]
    xs = draw(st.lists(scalars, min_size=1, max_size=12))
    ys = draw(st.lists(scalars, min_size=1, max_size=12))
    if draw(st.booleans()):
        x, c = draw(scalars), draw(scalars)
        xs, ys = [x, -x] + xs[2:], [c, c] + ys[2:]
    return xs, ys


_WEIGHTS = st.one_of(st.none(), st.integers(0, 12))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_factor_pair(), _WEIGHTS, _WEIGHTS)
def test_mul_matches_polynomial_oracle(pair, wa, wb):
    xs, ys = pair
    pa, pb = len(xs), len(ys)
    a = QSeries(pa, xs, wa)
    b = QSeries(pb, ys, wb)
    prod = qs_mul(a, b)
    prec = min(pa, pb)
    assert prod.prec == prec
    assert prod.weight == (None if wa is None or wb is None else wa + wb)
    oracle = _schoolbook_mul(a.coeffs[:prec], b.coeffs[:prec])
    for n in range(prec):
        got, want = prod.coeff(n), oracle[n]
        assert got == want
        assert got == sum(xs[i] * ys[n - i] for i in range(n + 1))
        assert type(got) is type(want)
        assert getattr(got, "order", None) == getattr(want, "order", None)
        assert scalar_to_json(got) == scalar_to_json(want)


def test_mul_mixed_orders_falls_back():
    z3, z4 = Cyclotomic.zeta(3), Cyclotomic.zeta(4)
    a = QSeries(3, [z3, 1])
    b = QSeries(3, [z4, Fraction(1, 2)])
    assert _kronecker_mul(a.coeffs, b.coeffs) is None
    prod = qs_mul(a, b)
    assert prod.coeffs == tuple(_schoolbook_mul(a.coeffs, b.coeffs))
    assert prod.coeffs[0].order == 12 and prod.coeffs[0] == Cyclotomic.zeta(12, 7)
    assert prod.coeffs[1] == z3 * Fraction(1, 2) + z4


def test_mul_float_falls_back():
    a = QSeries(3, [0.5, 1.0])
    b = QSeries(3, [Fraction(1, 2), 2])
    assert _kronecker_mul(a.coeffs, b.coeffs) is None
    assert qs_mul(a, b).coeffs == (0.25, 1.5, 2.0)
    with pytest.raises(RingMismatchError):
        qs_mul(QSeries(3, [Cyclotomic.zeta(5)]), QSeries(3, [0.5]))


def test_mul_cancelled_cyclotomic_zero_keeps_its_type():
    z = Cyclotomic.zeta(6)
    prod = qs_mul(QSeries(4, [z, -z]), QSeries(4, [1, 1]))
    assert prod.to_json()["coeffs"] == [
        {"order": 6, "coeffs": ["0/1", "1/1"]},
        {"order": 6, "coeffs": ["0/1", "0/1"]},  # z - z: a cancelled product
        {"order": 6, "coeffs": ["0/1", "-1/1"]},
        "0/1",  # no pair contributes
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(1, 3))
def test_precision_contract_fuzz(prec, d):
    f = QSeries(prec, list(range(1, prec + 1)))
    g = qs_rescale(f, d)
    assert g.prec == prec
    with pytest.raises(PrecisionError):
        g.coeff(prec)
    with pytest.raises(PrecisionError):
        qs_mul(f, QSeries(prec, [1])).coeff(prec)


def test_substitution_specializes_to_direct_product():
    # collapsing X = Y = 1 and T = u = v must reproduce the jet product values
    jet = _simple_jet()
    A = bijet_substitute(jet, "XT_YT")
    total_a = {}
    for t, rows in A.layers.items():
        for _, series in rows.items():
            total_a[t] = total_a.get(t, QSeries.zero(series.prec)) + series
    # sum over monomials at X=Y=1 equals the jet's own T-layer sums
    direct = {}
    for (r, s), series in jet.entries.items():
        t = r + s
        direct[t] = direct.get(t, QSeries.zero(series.prec)) + series
    direct[-1] = QSeries.constant(jet.polar_u + jet.polar_v, jet.prec)
    for t in direct:
        assert total_a[t] == direct[t]


def test_qseries_json_shape():
    q = QSeries(2, [Fraction(1, 2), 3])
    assert q.to_json() == {"prec": 2, "coeffs": ["1/2", "3/1"]}
