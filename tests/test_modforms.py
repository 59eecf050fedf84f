import math
from fractions import Fraction

import pytest

from kronlab.arith import Cyclotomic
from kronlab.checks import delta_oracle, quadratic_character
from kronlab.dirichlet import enumerate_characters, gauss_sum, trivial_character
from kronlab.modforms import (
    SignCharacter,
    atkin_lehner_sign,
    cusp_limit,
    eisenstein_g,
    eisenstein_g_chi,
    eisenstein_g_eps,
    eisenstein_h_chi,
    hecke_Tp,
    level_raise,
    sign_characters,
)
from kronlab.series import QSeries, qs_scale


def test_eisenstein_g_values():
    g4 = eisenstein_g(4, 6)
    assert g4.coeffs[0] == Fraction(1, 240)
    assert g4.coeffs[2] == 9
    g2 = eisenstein_g(2, 4)
    assert g2.coeffs[0] == Fraction(-1, 24)


def test_eisenstein_g_chi():
    chi = quadratic_character(5)
    g = eisenstein_g_chi(2, chi, 8)
    assert g.coeffs[1] == 1
    assert g.coeffs[0] == Fraction(-1, 5)
    # N = 1 reduces to G_k
    triv = trivial_character(1)
    assert eisenstein_g_chi(6, triv, 10) == eisenstein_g(6, 10)
    assert eisenstein_h_chi(6, triv, 10) == eisenstein_g(6, 10)


def test_h_chi_at_level_one_is_g_chi_itself():
    # H_{k,1} = G_k at N = 1: one series, built once
    triv = trivial_character(1)
    for k in (2, 4, 12):
        assert eisenstein_h_chi(k, triv, 16) is eisenstein_g_chi(k, triv, 16)


def test_eisenstein_h_chi():
    chi = quadratic_character(5)
    h = eisenstein_h_chi(2, chi, 12)
    assert h.coeffs[0] == 0
    assert h.coeffs[1] == 1
    for p in (3, 7, 11):
        assert h.coeffs[p] == chi.scalar(p) + p


def test_h_chi_l_decomposition():
    # L(H_{k,chi}, s) = zeta(s-k+1) L(chi, s): Dirichlet coefficients are
    # the convolution of d^(k-1) with chi(d)
    chi = quadratic_character(5)
    k = 4
    h = eisenstein_h_chi(k, chi, 20)
    for n in range(1, 20):
        conv = sum(
            d ** (k - 1) * chi.scalar(n // d) for d in range(1, n + 1) if n % d == 0
        )
        assert h.coeffs[n] == conv


def test_h_multiplicativity():
    chi = quadratic_character(5)
    h = eisenstein_h_chi(4, chi, 30)
    for m in range(2, 30):
        for n in range(2, 30):
            if m * n < 30 and math.gcd(m, n) == 1:
                assert h.coeffs[m * n] == h.coeffs[m] * h.coeffs[n]


def test_parity_violation_flags_zero():
    chi3 = enumerate_characters(3)[1]  # odd
    form = eisenstein_g_chi(2, chi3, 6)
    assert form.is_zero()


def test_level_raise_examples():
    eps1 = sign_characters(1)[0]
    f = QSeries(8, [0, 1])
    assert level_raise(f, 4, eps1) == f
    eps5m = SignCharacter(5, ((5, -1),))
    assert level_raise(f, 4, eps5m) == QSeries(8, [0, 1, 0, 0, 0, -25])


def test_level_raise_group_law():
    # raising by coprime N2 then N3 equals raising by N2 N3 with the product sign
    f = eisenstein_g(4, 40)
    e2 = SignCharacter(2, ((2, -1),))
    e3 = SignCharacter(3, ((3, 1),))
    e6 = SignCharacter(6, ((2, -1), (3, 1)))
    via_steps = level_raise(level_raise(f, 4, e2), 4, e3)
    assert via_steps == level_raise(f, 4, e6)


def test_sign_character_rejects_non_unit_signs():
    with pytest.raises(ValueError):
        SignCharacter(5, ((5, 0),))
    with pytest.raises(ValueError):
        SignCharacter(12, ((2, 1), (3, 1)))  # 12 is not square-free


def test_sign_character_group_law():
    eps = SignCharacter(15, ((3, -1), (5, 1)))
    for n1 in (1, 3, 5, 15):
        for n2 in (1, 3, 5, 15):
            g = math.gcd(n1, n2)
            assert eps(n1 * n2 // (g * g)) == eps(n1) * eps(n2)
    assert eps(1) == 1


def test_hecke_examples():
    g4 = eisenstein_g(4, 20)
    t2 = hecke_Tp(g4, 4, 1, 2)
    assert t2 == qs_scale(g4.truncate(10), 9)
    f = QSeries(8, [0, 1, 5])
    assert hecke_Tp(f, 12, 1, 2).coeffs[1] == 5
    delta = delta_oracle(30)
    t2d = hecke_Tp(delta, 12, 1, 2)
    assert t2d == qs_scale(delta.truncate(15), -24)
    with pytest.raises(Exception):
        hecke_Tp(QSeries(2, [0, 1]), 12, 1, 3)


def hecke_Tp_oracle(f: QSeries, k: int, N: int, p: int) -> QSeries:
    """T_p coefficient by coefficient: a(np), plus p^(k-1) a(n/p) when p does not divide N."""
    out_prec = f.prec // p
    out = []
    for n in range(out_prec):
        c = f.coeffs[n * p]
        if N % p and n % p == 0:
            c = c + p ** (k - 1) * f.coeffs[n // p]
        out.append(c)
    return QSeries(out_prec, out)


def _hecke_inputs(N: int):
    """(f, k) pairs at level N: Eisenstein series of every character mod N
    whose parity suits k (Cyclotomic coefficients of orders up to 12),
    a list mixing Cyclotomic and rational coefficients, and Delta at N = 1."""
    prec = 40
    if N == 1:
        yield eisenstein_g(4, prec), 4
        yield delta_oracle(prec), 12
    for chi in enumerate_characters(N):
        k = 4 if chi.is_even() else 3
        yield eisenstein_g_chi(k, chi, prec), k
        yield eisenstein_h_chi(k, chi, prec), k
    z = Cyclotomic.zeta(max(N, 3))
    yield QSeries(prec, [z * n if n % 3 else Fraction(n, 7) for n in range(prec)]), 2


@pytest.mark.parametrize("N", [1, 5, 13])
def test_hecke_matches_coefficient_oracle(N):
    for f, k in _hecke_inputs(N):
        for p in (2, 3, 5, 13):  # p | N for (5, 5) and (13, 13)
            got = hecke_Tp(f, k, N, p)
            assert got.prec == f.prec // p
            assert got == hecke_Tp_oracle(f, k, N, p)


def test_cusp_limit_examples():
    chi = quadratic_character(5)
    assert cusp_limit("G", 2, chi, 1) == Fraction(-1, 5)
    assert cusp_limit("H", 2, chi, 1) == 0
    w = gauss_sum(chi)
    expect = w * Fraction(1, 5) * Fraction(4, 5) * Fraction(-1, 4)
    assert cusp_limit("H", 2, chi, 5) == expect
    with pytest.raises(ValueError):
        cusp_limit("G", 2, chi, 3)


def test_atkin_lehner_sign():
    assert atkin_lehner_sign(Fraction(-5), 4, 5) == 1
    assert atkin_lehner_sign(Fraction(5), 4, 5) == -1
    with pytest.raises(ValueError):
        atkin_lehner_sign(Fraction(3), 4, 5)
    # the eigenform of an order-3 character carries a_7 = -7 as a Cyclotomic
    assert atkin_lehner_sign(Cyclotomic.from_rational(-7, 3), 4, 7) == 1
    with pytest.raises(ValueError):
        atkin_lehner_sign(Cyclotomic.zeta(3), 4, 7)


def test_g_eps_constant():
    eps = SignCharacter(5, ((5, -1),))
    form = eisenstein_g_eps(4, eps, 8)
    assert form.coeffs[0] == Fraction(-1, 10)
    assert form.coeffs[1] == 1


def test_extraction_with_complex_character():
    # N = 13, chi of order 3.  k = 2: both sides vanish exactly.  k = 4: the
    # cusp space is multi-dimensional but every weight-4 R polynomial is
    # proportional, so the matrix factors at rank 1 while the quotient is not
    # a Hecke eigenform; the downstream eigen check is what catches it.
    from kronlab.dirichlet import enumerate_characters
    from kronlab.kronecker import product_B
    from kronlab.modforms import extract_rank_one_cusp
    from kronlab.series import qs_scale as scale

    chi = next(
        c for c in enumerate_characters(13)
        if c.is_even() and c.is_primitive() and c.order == 3
    )
    B = product_B(chi, 4, 20)
    ext2 = extract_rank_one_cusp(B.weights.get(2, {}), 2, chi, 20)
    assert ext2.rank == 0 and all(not p for p in ext2.multipliers.values())
    # the Eisenstein multipliers and q^0 consistency hold with cyclotomic scalars
    ext4 = extract_rank_one_cusp(B.weights[4], 4, chi, 20)
    assert ext4.rank == 1
    f = ext4.eigenform
    t2 = hecke_Tp(f, 4, 13, 2)
    assert t2 != scale(f.truncate(t2.prec), f.coeffs[2])
    # the multipliers still match the closed-form C side exactly
    from kronlab.periods import generating_C

    assert ext4.multipliers == generating_C(4, chi, 20).multipliers


def test_memo_keys_characters_by_value():
    # an equal character built separately hits the same memo entry
    chi = next(c for c in enumerate_characters(5) if c.order == 4)
    twin = chi.conjugate().conjugate()
    assert twin is not chi and twin == chi
    assert eisenstein_g_chi(3, twin, 12) is eisenstein_g_chi(3, chi, 12)
    assert gauss_sum(twin) is gauss_sum(chi)


def _extract_at(N, selector, k, prec=12):
    """extract_rank_one_cusp on the weight-k slice of product_B at level N."""
    from kronlab.checks import even_primitive_characters
    from kronlab.kronecker import product_B
    from kronlab.modforms import extract_rank_one_cusp

    if selector == "auto":
        chi = even_primitive_characters(N)[0]
    else:
        chi = enumerate_characters(N)[selector]
    B = product_B(chi, k, prec)
    return extract_rank_one_cusp(B.weights.get(k, {}), k, chi, prec)


@pytest.mark.parametrize(
    "N, selector, k, rank",
    [(1, 0, 24, 2), (5, 1, 8, 3), (7, "auto", 6, 3)],
)
def test_cusp_remainder_of_higher_rank_raises_with_its_rank(N, selector, k, rank):
    # the rows fail the proportionality check, so the exact rank is computed
    # and reported; it equals dim S_k(Gamma0(N)) at each of these weights
    from kronlab.modforms import RankError

    with pytest.raises(RankError, match=rf"^cusp remainder has rank {rank} > 1$") as err:
        _extract_at(N, selector, k)
    assert err.value.rank == rank


def test_rank_one_extraction_keeps_its_r_poly():
    import hashlib
    import json

    from kronlab.arith import scalar_to_json

    def dump(r_poly):
        return {f"X{a}_Y{b}": scalar_to_json(c) for (a, b), c in sorted(r_poly.items())}

    ext = _extract_at(5, 1, 4)
    assert ext.rank == 1
    assert dump(ext.r_poly) == {
        "X0_Y1": "-56/65", "X1_Y0": "-56/65", "X1_Y2": "56/65", "X2_Y1": "56/65",
    }
    # a rational value carried by order-3 Cyclotomic rows keeps its type
    ext = _extract_at(7, "auto", 4)
    third = {"order": 3, "coeffs": ["53/35", "0/1"]}
    minus = {"order": 3, "coeffs": ["-53/35", "0/1"]}
    assert dump(ext.r_poly) == {"X0_Y1": minus, "X1_Y0": minus, "X1_Y2": third, "X2_Y1": third}
    # Delta at level 1: 60 monomials, pinned by digest
    ext = _extract_at(1, 0, 12)
    text = json.dumps(dump(ext.r_poly), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fe6def31fde38c93fe2d0c3b43ae5567e3c90c02f33af2b73de9c60376c451c7"
    )
    assert [scalar_to_json(c) for c in ext.eigenform.coeffs[:5]] == [
        "0/1", "1/1", "-24/1", "252/1", "-1472/1",
    ]


@pytest.mark.parametrize("N", [1, 5, 15])
def test_weight_two_cusp_data_must_sum_to_zero(N, monkeypatch):
    # the trivial eps has no weight-2 form, so each monomial's cusp values
    # d_M sum to 0 over M | N; data that breaks this is refused by key
    from kronlab import modforms
    from kronlab.checks import even_primitive_characters

    chi = even_primitive_characters(N)[0]
    data = modforms.slice_cusp_data(2, chi)
    data[1] = {**data[1], (5, 5): Fraction(1)}
    monkeypatch.setattr(modforms, "slice_cusp_data", lambda k, c: data)
    with pytest.raises(modforms.RankError, match=r"weight-2 cusp data at \(5, 5\)") as exc:
        modforms.extract_rank_one_cusp({}, 2, chi, 10)
    assert exc.value.rank == -1
