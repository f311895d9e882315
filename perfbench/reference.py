"""Plain-Fraction reference for the known answers of the benchmark.

Nothing here imports interlab: the expected verdicts are computed from the
same plain inputs the program receives, with ``fractions.Fraction`` for
finite values and ``float('inf')`` / ``float('-inf')`` for the infinities
(Python orders the two kinds against each other correctly).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

INF = float("inf")
NEG_INF = float("-inf")


def val(x):
    """Read a plain scalar: an int, a "p/q" string, or "+inf" / "-inf"."""
    if x == "+inf":
        return INF
    if x == "-inf":
        return NEG_INF
    return Fraction(x)


def plain(x) -> object:
    """Write a reference value back as a plain scalar."""
    if x == INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def from_report(v):
    """Read a scalar as the JSON reports encode it (int, float, "p/q", "±inf")."""
    if isinstance(v, str):
        return val(v)
    if isinstance(v, float):
        return Fraction(Decimal(repr(v)))
    return Fraction(v)


def _parts(weights, values):
    """Integrals of the positive and the negative part; 0 * inf = 0."""
    plus = minus = Fraction(0)
    for w, v in zip(weights, values):
        if w == 0 or v == 0:
            continue
        if v > 0:
            plus = INF if v == INF or plus == INF else plus + w * v
        else:
            minus = INF if v == NEG_INF or minus == INF else minus + w * -v
    return plus, minus


def extended_lebesgue(weights, values):
    plus, minus = _parts(weights, values)
    if plus == INF and minus == INF:
        raise ValueError("not semi-integrable")
    if plus == INF:
        return INF
    if minus == INF:
        return NEG_INF
    return plus - minus


def outer(weights, values):
    plus, minus = _parts(weights, values)
    if plus == INF:
        return INF
    return NEG_INF if minus == INF else plus - minus


def inner(weights, values):
    plus, minus = _parts(weights, values)
    if minus == INF:
        return NEG_INF
    return INF if plus == INF else plus - minus


def ess_sup(weights, values):
    return max((v for w, v in zip(weights, values) if w != 0), default=NEG_INF)


def choquet(weights, values, capacity):
    """Layer cake over the distinct positive finite levels of a function that
    is nonnegative on the positive-weight atoms.

    ``capacity`` maps frozensets of atom indices to values.  The layer above
    level v_(k-1) is {f >= v_k}; atoms at +inf form a plateau that makes the
    integral +inf exactly when its capacity is positive.
    """
    if any(v < 0 for w, v in zip(weights, values) if w != 0):
        raise ValueError("choquet reference covers nonnegative functions only")
    levels = sorted({v for v in values if 0 < v < INF})
    total, prev = Fraction(0), Fraction(0)
    for v in levels:
        c = capacity[frozenset(i for i, fv in enumerate(values) if fv >= v)]
        if c == INF:
            total = INF
        elif total != INF:
            total += (v - prev) * c
        prev = v
    plateau = frozenset(i for i, fv in enumerate(values) if fv == INF)
    if plateau and capacity[plateau] > 0:
        return INF
    return total


def pointwise_min(family):
    return [min(col) for col in zip(*family)]


def interchange(phi, family):
    """(min over members of Phi, Phi of the pointwise minimum)."""
    return min(phi(x) for x in family), phi(pointwise_min(family))
