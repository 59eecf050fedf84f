"""The law suites against the serial loops they replaced.

suite_modular and suite_elliptic draw their points first and then evaluate
them in batches (numeric.eval_F_chi_points), in the calling process, through
checks._law_suite.  The oracles below are the old bodies, which drew and
evaluated one point at a time with the scalar evaluator that the batches
replaced (tests/scalar_F_chi.py).  Reports are compared on their JSON text,
so every float must agree to the bit; level 13 holds unsupported points in
both suites.
"""

import cmath
import json
import math
import random

import pytest

from kronlab import checks
from kronlab.arith import embed_complex, scalar_to_json
from kronlab.checks import (
    _UNSUPPORTED,
    _law_check,
    _law_report,
    _point_json,
    _random_point,
    _unsupported,
    even_primitive_characters,
    suite_elliptic,
    suite_modular,
)
from kronlab import numeric
from scalar_F_chi import eval_F_chi


def _oracle_modular(N, chi, npoints=20, seed=20240811, tol=1e-9):
    gammas = [((1, 0), (N, 1)), ((2, 1), (N, (N + 1) // 2))]
    gammas = [g for g in gammas if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1]
    rng = random.Random(seed)
    checks = []
    unsupported = []
    for i in range(npoints):
        point = tau, u, v = _random_point(rng, N)
        names = [f"modular_pt{i}_c{c}d{d}" for _, (c, d) in gammas]
        try:
            base = eval_F_chi(tau, u, v, chi).value
            sides = []
            for (a, b), (c, d) in gammas:
                denom = c * tau + d
                lhs = eval_F_chi((a * tau + b) / denom, u / denom, v / denom, chi).value
                factor = embed_complex(chi(d)) * denom * cmath.exp(
                    c * u * v / (2 * 1j * math.pi * denom)
                )
                sides.append((lhs, factor * base))
        except _UNSUPPORTED as exc:
            unsupported.extend(_unsupported(name, _point_json(point), exc) for name in names)
            continue
        for name, (lhs, rhs) in zip(names, sides):
            checks.append(_law_check(name, _point_json(point), lhs, rhs, tol))
    return _law_report("modular", checks, unsupported, level=N, tolerance=tol)


def _oracle_elliptic(N, chi, npoints=20, seed=20240812, tol=1e-9):
    rng = random.Random(seed)
    checks = []
    unsupported = []
    shifts = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    for i in range(npoints):
        point = tau, u, v = _random_point(rng, N)
        m, n = shifts[i % len(shifts)]
        name = f"elliptic_pt{i}_m{m}n{n}"
        q = cmath.exp(2 * 1j * math.pi * tau)
        xi = cmath.exp(u)
        eta = cmath.exp(v)
        s, r = (i % 2), ((i // 2) % 2)
        du = 2 * 1j * math.pi * (n * N * tau + s)
        dv = 2 * 1j * math.pi * (m * N * tau + r)
        try:
            multiplier = q ** (-(N**2) * m * n) * xi ** (-N * m) * eta ** (-N * n)
            base = eval_F_chi(tau, u, v, chi).value
            lhs = eval_F_chi(tau, u + du, v + dv, chi).value
            rhs = multiplier * base
        except _UNSUPPORTED as exc:
            unsupported.append(_unsupported(name, _point_json(point), exc))
            continue
        checks.append(_law_check(name, _point_json(point), lhs, rhs, tol))
    return _law_report("elliptic", checks, unsupported, level=N, tolerance=tol)


def _text(report) -> str:
    return json.dumps(report, sort_keys=True, default=scalar_to_json)


# the CLI's default 20 points at four levels, and more points at level 5 (250:
# the benchmark's)
CASES = [(1, 20), (5, 20), (7, 20), (13, 20), (5, 60), (5, 128), (5, 250)]


@pytest.mark.parametrize("suite, oracle", [(suite_modular, _oracle_modular),
                                           (suite_elliptic, _oracle_elliptic)],
                         ids=["modular", "elliptic"])
@pytest.mark.parametrize("N, npoints", CASES, ids=[f"N{N}-{n}pts" for N, n in CASES])
def test_law_suite_matches_serial_oracle(suite, oracle, N, npoints):
    chi = even_primitive_characters(N)[0]
    report = suite(N, chi, npoints=npoints)
    assert _text(report) == _text(oracle(N, chi, npoints=npoints))
    if N == 13:
        assert report["unsupported"]


def test_law_points_are_evaluated_in_the_calling_process(monkeypatch):
    # the benchmark's 250 points at level 5: three evaluations of F^chi per
    # modular point (tau and its two gamma images) and two per elliptic point,
    # every one of them counted here, all through the batch evaluator, one
    # call per block of POINTS_BATCH points and their images
    points = []
    images = 0  # per point, in the suite under test

    def counted(batch, chi):
        points.extend(batch)
        assert len(batch) <= (1 + images) * numeric.POINTS_BATCH
        return numeric.eval_F_chi_points(batch, chi)

    monkeypatch.setattr(checks, "eval_F_chi_points", counted)
    monkeypatch.setattr(numeric, "eval_F_chi", None)  # no one-point call
    chi = even_primitive_characters(5)[0]
    images = 2
    assert len(suite_modular(5, chi, npoints=250)["checks"]) == 500
    assert len(points) == 750
    points.clear()
    images = 1
    assert len(suite_elliptic(5, chi, npoints=250)["checks"]) == 250
    assert len(points) == 500


def test_law_suite_lists_the_first_error_of_each_point(monkeypatch):
    # three points with two images each: the law raises at point 0, F^chi at
    # point 1 itself (Im(tau) too small; its second image overflows too, after
    # it), and F^chi at the second image of point 2 (exp(u) overflows); each
    # lists its own first error for both its names, and point 0 evaluates no
    # F^chi
    chi = even_primitive_characters(5)[0]
    rng = random.Random(1)
    good = [_random_point(rng, 5) for _ in range(4)]
    points = [good[0], (complex(0.1, 0.001), *good[1][1:]), good[2]]
    overflows = (good[3][0], complex(800, 0), good[3][2])
    images = {1: [good[3], overflows], 2: [good[3], overflows]}

    def law(i):
        if i == 0:
            raise OverflowError("multiplier leaves the double range")
        return [(image, 1.0) for image in images[i]]

    evaluated = []

    def counted(batch, chi):
        evaluated.extend(batch)
        return numeric.eval_F_chi_points(batch, chi)

    monkeypatch.setattr(checks, "eval_F_chi_points", counted)
    names = [[f"pt{i}_a", f"pt{i}_b"] for i in range(3)]
    report = checks._law_suite("fake", points, names, law, chi, 1e-9)
    assert report["checks"] == [] and report["certified"] == 0
    reasons = ["OverflowError: multiplier leaves the double range",
               "ConvergenceError: Im(tau) too small for theta evaluation",
               "OverflowError: math range error"]
    assert [(u["name"], u["point"], u["reason"]) for u in report["unsupported"]] == [
        (name, _point_json(point), reason) for point, point_names, reason in zip(points, names, reasons)
        for name in point_names
    ]
    assert len(evaluated) == 6 and set(evaluated) == {points[1], points[2], *images[1], *images[2]}
    assert good[0] not in evaluated
