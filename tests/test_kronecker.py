import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from kronlab.arith import bernoulli_number
from kronlab import kronecker
from kronlab.checks import even_primitive_characters, quadratic_character, suite_identity
from kronlab.dirichlet import enumerate_characters, trivial_character
from kronlab.kronecker import (
    conjugate_jet,
    conv_g,
    eisenstein_combo,
    g_coefficient,
    g_km,
    kron_fourier,
    kron_laurent,
    product_B,
    rc_bracket_modified,
)
from kronlab.modforms import eisenstein_g
from kronlab.series import qs_add, qs_mul, qs_scale, theta_op


def test_polar_slots():
    assert kron_laurent(trivial_character(1), 6, 4).polar == 1
    assert kron_laurent(quadratic_character(5), 6, 4).polar == 0


def test_laurent_entry_10():
    chi = quadratic_character(5)
    jet = kron_laurent(chi, 10, 4)
    expect = qs_scale(eisenstein_combo(2, chi, 10), -1)
    assert jet.entry(1, 0) == expect
    # parity: even total degree entries vanish
    assert jet.entry(1, 1).is_zero()
    assert jet.entry(2, 0).is_zero()


def test_fourier_q0_axis_is_coth_at_level_one():
    # (1/2) coth(u/2) = 1/u + sum B_{r+1} u^r/(r+1)!
    jet = kron_fourier(trivial_character(1), 8, 7)
    for r in (1, 3, 5, 7):
        expect = bernoulli_number(r + 1) / Fraction(factorial(r + 1))
        assert jet.entry(r, 0).coeffs[0] == expect
        assert jet.entry(0, r).coeffs[0] == expect


def test_fourier_q1_coefficient():
    jet = kron_fourier(trivial_character(1), 6, 4)
    assert jet.entry(1, 0).coeffs[1] == -2


def test_cross_expansion_exact():
    for N in (1, 5):
        for chi in enumerate_characters(N):
            if chi.is_even() and chi.is_primitive():
                assert kron_laurent(chi, 14, 7) == kron_fourier(chi, 14, 7)


def test_conjugate_jet_is_the_jet_of_the_conjugate_character():
    # kron_fourier(conj(chi)) is the oracle: same entries, JSON, orders and
    # denominators, for every even primitive character mod N <= 41
    for N in range(1, 42):
        for chi in [trivial_character(1)] if N == 1 else even_primitive_characters(N):
            got = conjugate_jet(kron_fourier(chi, 16, 7))
            want = kron_fourier(chi.conjugate(), 16, 7)
            assert got.to_json() == want.to_json() and got.polar == want.polar
            assert sorted(got.entries) == sorted(want.entries)
            for key, f in want.entries.items():
                g = got.entries[key]
                assert (g.to_json(), g.order, g.den) == (f.to_json(), f.order, f.den), (chi, key)


def _sharing_characters() -> list:
    # N = 1, the quadratic characters mod 5 and 13, and every even primitive
    # character mod 13 (orders 2, 3 and 6)
    return [trivial_character(1), quadratic_character(5), *even_primitive_characters(13)]


def test_kron_fourier_builds_each_unordered_entry_once():
    for chi in _sharing_characters():
        F = kron_fourier(chi, 12, 7)
        for (r, s), f in F.entries.items():
            assert F.entries[(s, r)] is f, (chi, r, s)
        assert len({id(f) for f in F.entries.values()}) == sum(t // 2 + 1 for t in (1, 3, 5, 7))


def test_conjugate_jet_keeps_the_shared_entries():
    for chi in _sharing_characters():
        F = kron_fourier(chi, 12, 7)
        G = conjugate_jet(F)
        assert G.to_json() == kron_fourier(chi.conjugate(), 12, 7).to_json()
        for (r, s), g in G.entries.items():
            assert G.entries[(s, r)] is g, (chi, r, s)
        assert len({id(g) for g in G.entries.values()}) == len({id(f) for f in F.entries.values()})


def test_routes_give_the_same_product_json():
    # both routes give a row, possibly empty, for every even weight 2..kmax
    order20 = next(chi for chi in even_primitive_characters(41) if chi.order == 20)
    chis = [trivial_character(1), quadratic_character(5), quadratic_character(13),
            even_primitive_characters(13)[-1], order20]
    assert even_primitive_characters(13)[-1].order == 6
    for chi in chis:
        closed, jets = product_B(chi, 6, 8), product_B(chi, 6, 8, route="jets")
        assert closed.to_json() == jets.to_json(), chi
        assert sorted(jets.weights) == [2, 4, 6]


def test_jets_route_builds_one_fourier_jet(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0])
        return kron_fourier(*args)

    monkeypatch.setattr(kronecker, "kron_fourier", counted)
    real, complex_ = quadratic_character(13), even_primitive_characters(13)[-1]
    assert complex_.order == 6
    for chi in (trivial_character(1), real, complex_):
        calls.clear()
        jets, closed = product_B(chi, 6, 8, route="jets"), product_B(chi, 6, 8)
        assert calls == [chi]
        assert all(jets.weights.get(k, {}) == closed.weights.get(k, {}) for k in (2, 4, 6))
        assert jets.principal == closed.principal


def test_requires_even_primitive():
    odd3 = enumerate_characters(3)[1]
    with pytest.raises(ValueError):
        kron_laurent(odd3, 6, 4)
    imprimitive = enumerate_characters(5)[0]
    with pytest.raises(ValueError):
        kron_fourier(imprimitive, 6, 4)


def test_rc_bracket_m0_is_product():
    # chi(0) = 0 at N > 1, so the modified bracket is the plain one
    chi5 = quadratic_character(5)
    f = eisenstein_g(4, 10)
    g = eisenstein_g(6, 10)
    assert rc_bracket_modified(f, 4, g, 6, 0, chi5) == qs_mul(f, g)


def test_rc_bracket_antisymmetry():
    chi5 = quadratic_character(5)
    f = eisenstein_g(4, 12)
    g = eisenstein_g(6, 12)
    for m in (1, 2, 3):
        lhs = rc_bracket_modified(g, 6, f, 4, m, chi5)
        rhs = qs_scale(rc_bracket_modified(f, 4, g, 6, m, chi5), (-1) ** m)
        assert lhs == rhs


def test_rc_bracket_self_odd_vanishes():
    f = eisenstein_g(4, 12)
    assert rc_bracket_modified(f, 4, f, 4, 1, quadratic_character(5)).is_zero()


def test_modified_bracket_reduces_to_plain():
    chi5 = quadratic_character(5)
    f = eisenstein_g(4, 10)
    g = eisenstein_g(6, 10)
    # both weights > 2 kill the deltas even at N = 1, where chi(0) = 1
    triv = trivial_character(1)
    for m in (1, 2):
        assert rc_bracket_modified(f, 4, g, 6, m, triv) == rc_bracket_modified(f, 4, g, 6, m, chi5)


def test_modified_bracket_weight22_correction():
    # [f, g]_0 + chi(0)(theta f / 2 + theta g / 2) at k1 = k2 = 2
    triv = trivial_character(1)
    f = eisenstein_combo(2, triv, 12)
    out = rc_bracket_modified(f, 2, f, 2, 0, triv)
    expect = qs_add(qs_mul(f, f), theta_op(f, 1))
    assert out == expect
    # and the combination is the weight-4 Eisenstein series: (5/3) G_4 * 1!1!
    assert out == qs_scale(eisenstein_g(4, 12), Fraction(5, 3))


def test_modified_bracket_antisymmetry():
    triv = trivial_character(1)
    f = eisenstein_combo(2, triv, 12)
    g = eisenstein_combo(4, triv, 12)
    for m in (0, 1, 2):
        lhs = rc_bracket_modified(g, 4, f, 2, m, triv)
        rhs = qs_scale(rc_bracket_modified(f, 2, g, 4, m, triv), (-1) ** m)
        assert lhs == rhs


def test_g_coefficient_routes_small():
    triv = trivial_character(1)
    chi5 = quadratic_character(5)
    for chi in (triv, chi5):
        for k1, k2, m in [(2, 2, 0), (2, 2, 1), (4, 2, 0), (2, 4, 1), (4, 4, 0), (6, 2, 1)]:
            assert g_coefficient(k1, k2, m, chi, 14) == conv_g(k1, k2, m, chi, 14)


def test_g_coefficient_m0_n5_is_plain_product():
    chi = quadratic_character(5)
    got = g_coefficient(4, 6, 0, chi, 10)
    e1 = eisenstein_combo(4, chi, 10)
    e2 = eisenstein_combo(6, chi.conjugate(), 10)
    expect = qs_scale(qs_mul(e1, e2), Fraction(1, factorial(3) * factorial(5)))
    assert got == expect


def test_product_principal_part():
    tri = product_B(trivial_character(1), 6, 10)
    assert tri.principal == {(0, -1): 1, (-1, 0): 1, (-1, -2): -1, (-2, -1): -1}
    tri5 = product_B(quadratic_character(5), 6, 10)
    assert tri5.principal is None


def test_product_weight2_slice_vanishes_at_higher_level():
    tri5 = product_B(quadratic_character(5), 6, 10)
    assert tri5.weights.get(2, {}) == {}


def test_product_slice_symmetry():
    # every slice is symmetric under X <-> Y, on the jets route too, which
    # multiplies each monomial on its own: the closed route computes one row
    # per orbit and relies on it.  Every even primitive character up to
    # conjugation at N = 1, 5, 7, 13 and 17 (orders 1 to 8)
    chars = []
    for N in (1, 5, 7, 13, 17):
        for chi in enumerate_characters(N):
            if chi.is_even() and chi.is_primitive() and chi.conjugate() not in chars:
                chars.append(chi)
    assert len(chars) == 10
    for chi in chars:
        for route in ("closed", "jets"):
            tri = product_B(chi, 8, 12, route=route)
            for k, row in tri.weights.items():
                for (a, b), series in row.items():
                    assert (b, a) in row and row[(b, a)] == series, (chi, route, k, a, b)


def test_product_routes_match():
    from kronlab.checks import suite_product_routes

    for N in (1, 5):
        chi = trivial_character(1) if N == 1 else quadratic_character(5)
        rep = suite_product_routes(N, chi, 8, 16)
        assert rep["passed"], rep


def test_g_km_normalization():
    chi = quadratic_character(5)
    g = g_km(2, 0, chi, 8)
    assert g == qs_scale(eisenstein_combo(2, chi, 8), -1)


def test_bracket_routes_with_complex_character():
    chi = next(
        c for c in enumerate_characters(13)
        if c.is_even() and c.is_primitive() and c.order == 3
    )
    assert g_coefficient(2, 2, 0, chi, 12) == conv_g(2, 2, 0, chi, 12)
    assert g_coefficient(4, 2, 1, chi, 12) == conv_g(4, 2, 1, chi, 12)


@pytest.mark.parametrize("N", [1, 5, 7, 13])
def test_weight_products_match_one_qs_mul_per_key(N):
    # each weight's products come from one qs_sums call, for k1 <= k2 at
    # every character (conv_g reads k1 > k2 from the swapped pair); the
    # oracle is one qs_mul per pair, compared on value, field and JSON
    for chi in even_primitive_characters(N):
        chibar = chi.conjugate()
        for w in range(4, 15, 2):
            table = kronecker._weight_products(w, chi, 20)
            want_pairs = [
                (k1, k2) for k1 in range(2, w - 1, 2) for k2 in range(2, w - k1 + 1, 2) if k1 <= k2
            ]
            assert list(table) == want_pairs
            for (k1, k2), got in table.items():
                t = (w - k1 - k2) // 2
                want = qs_mul(theta_op(eisenstein_combo(k1, chi, 20), t), eisenstein_combo(k2, chibar, 20))
                assert got == want and got.order == want.order, (chi, k1, k2, t)
                assert got.to_json() == want.to_json()
                assert kronecker.theta_product(k1, k2, t, chi, 20) is got


def test_convolution_coefficient_is_vandermonde():
    # conv_g's c_t reads sum_{j<=t} C(t, j) C(w, j + k1 - 1) as C(w + t, t + k1 - 1)
    for k1 in range(2, 41, 2):
        for k2 in range(2, 41, 2):
            for m in range(16):
                w = m + k1 + k2 - 2
                for t in range(m + 1):
                    old = sum(comb(t, j) * comb(w, j + k1 - 1) for j in range(t + 1))
                    assert old == comb(w + t, t + k1 - 1), (k1, k2, m, t)


def _clear_kronlab_caches():
    for name, module in list(sys.modules.items()):
        if name == "kronlab" or name.startswith("kronlab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.mark.parametrize("N, char, kmax, prec", [(1, 0, 20, 60), (13, 6, 4, 30)])
def test_closed_route_shares_lone_rows_and_mutates_none(N, char, kmax, prec):
    # a row whose one term is a conv_g part with scale 1 is that object; the
    # identity suite reads these shared rows, and a recomputation from empty
    # caches gives equal rows, so no shared slot list was changed
    chi = enumerate_characters(N)[char]
    B = product_B(chi, kmax, prec)
    lone = B.weights[4][(1, 0)]
    assert lone is conv_g(2, 2, 0, chi, prec) and B.weights[4][(0, 1)] is lone
    before = B.to_json()
    suite_identity(N, chi, kmax, prec)
    _clear_kronlab_caches()
    fresh = product_B(chi, kmax, prec)
    assert fresh.weights[4][(1, 0)] is not lone
    assert fresh.weights == B.weights
    assert fresh.to_json() == B.to_json() == before
