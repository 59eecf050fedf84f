import ast
import copy
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kronlab.arith import Cyclotomic
from kronlab import linalg
from kronlab.linalg import rank, solve

# small entries with plenty of zeros, so rank-deficient matrices are common
entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def matrices(draw, tall=False):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(ncols if tall else 1, 5))
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


def matvec(A, x):
    return [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matrices())
def test_rank_of_transpose(A):
    before = copy.deepcopy(A)
    assert rank(A) == rank(transpose(A))
    assert A == before


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matrices(tall=True), st.data())
def test_solve_recovers_x(A, data):
    n = len(A[0])
    assume(rank(A) == n)
    x = data.draw(st.lists(entry, min_size=n, max_size=n))
    b = matvec(A, x)
    before = copy.deepcopy((A, b))
    assert solve(A, b) == x
    assert (A, b) == before


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(tall=True), st.data())
def test_solve_rejects_inconsistent_and_underdetermined(A, data):
    n = len(A[0])
    assume(rank(A) == n)
    x = data.draw(st.lists(entry, min_size=n, max_size=n))
    b = matvec(A, x)
    # a repeated row with a different right-hand side
    with pytest.raises(ValueError, match="inconsistent system"):
        solve(A + [A[0]], b + [b[0] + 1])
    # a repeated column leaves one unknown free
    A2 = [row + [row[0]] for row in A]
    with pytest.raises(ValueError, match="underdetermined system"):
        solve(A2, matvec(A2, x + [Fraction(0)]))


def test_solve_refuses_a_right_hand_side_of_another_row_count():
    # one entry of b per row of A; zip would drop the extra equations
    with pytest.raises(ValueError, match="rows"):
        solve([[1], [1]], [1])
    with pytest.raises(ValueError, match="rows"):
        solve([[1]], [1, 2])
    assert solve([[1], [1]], [1, 1]) == [1]


def test_cyclotomic_order_3():
    w = Cyclotomic.zeta(3)
    A = [[Fraction(1), w], [w * w, 1 + w]]  # determinant w
    x = [w, Fraction(2)]
    b = [A[0][0] * x[0] + A[0][1] * x[1], A[1][0] * x[0] + A[1][1] * x[1]]
    before = copy.deepcopy((A, b))
    assert rank(A) == 2
    assert solve(A, b) == x
    assert (A, b) == before
    assert rank([[Fraction(1), w], [w, w * w]]) == 1


def test_linalg_imports_nothing_from_kronlab():
    # Cyclotomic.inverse solves through linalg, so the dependency runs arith -> linalg
    with open(linalg.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("kronlab")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("kronlab") for alias in node.names)
