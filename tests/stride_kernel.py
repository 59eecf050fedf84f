"""The product kernel of series.qs_sums as it was before products were taken
by zeta-components, kept as the oracle of the package's version.

stride_sum_row(terms) is series._sum_row without the call's memo: every
coefficient's phi(m) slots are spread to a stride of 2 phi(m) - 1 (so the
product of two coefficients fits in one stride), each operand is packed into
one big int, the products of a row are multiplied and summed as big ints,
and the sum is unpacked once, prec (2 phi(m) - 1) slots, and reduced mod
Phi_m by arith's column-wise kernel.  The linear terms and the gcd
normalization are the package's.
"""

from __future__ import annotations

from math import gcd, lcm

from kronlab.arith import Cyclotomic, _reduce_rows, _spread, lift_slots, mul_slots
from kronlab.ntheory import euler_phi
from kronlab.series import _pack, _unpack


def stride_sum_row(terms) -> tuple:
    """(order, den, ints) of qs_sum(terms), its products by the stride kernel."""
    prec, m, live = None, 1, []
    for c, fa, fb in terms:
        p = fa.prec if fb is None else min(fa.prec, fb.prec)
        prec = p if prec is None else min(prec, p)
        if not c:
            continue
        live.append((c, fa, fb))
        for order in (fa.order, 1 if fb is None else fb.order, c.order if isinstance(c, Cyclotomic) else 1):
            m = lcm(m, order)
    phi = euler_phi(m)

    def slots(f):
        return lift_slots(f.ints[: prec * euler_phi(f.order)], f.order, m)

    prepared = []
    for c, fa, fb in live:
        va, den = slots(fa), fa.den
        if isinstance(c, Cyclotomic):
            va = mul_slots(va, lift_slots(c.nums, c.order, m), m)
            den, num = den * c.den, 1
        else:
            num, den = c.numerator, den * c.denominator
        vb = None
        if fb is not None:
            vb, den = slots(fb), den * fb.den
        prepared.append((num, den, va, vb))
    d = lcm(*(den for _, den, _, _ in prepared))
    ints = [0] * (prec * phi)

    products = [(num * (d // den), va, vb) for num, den, va, vb in prepared if vb is not None]
    if products:
        stride = 2 * phi - 1
        bits = max(s.bit_length() + max(map(int.bit_length, va)) + max(map(int.bit_length, vb))
                   for s, va, vb in products)
        bits += (prec * phi).bit_length() + len(products).bit_length() + 1
        wb = (bits + 7) // 8
        acc = 0
        for s, va, vb in products:
            acc += s * _pack(_spread(va, phi, stride), wb) * _pack(_spread(vb, phi, stride), wb)
        ints = _reduce_rows(m, _unpack(acc, wb, prec * stride), stride)

    for num, den, va, vb in prepared:
        if vb is None:
            s = num * (d // den)
            ints = [x + s * y for x, y in zip(ints, va)]
    if not any(ints):
        return m, 1, ints
    g = gcd(d, *ints)
    return m, d // g, [x // g for x in ints]
