import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from interlab.errors import DomainError, InputError
from interlab.extreal import (
    NEG_INF,
    POS_INF,
    add,
    as_scalar,
    ext,
    lower_add,
    scalar_mul,
    to_jsonable,
    upper_add,
)
from interlab.fnlattice import FnClass
from interlab.integrals import part_integrals
from interlab.measure import MeasureSpace

from oracle_helpers import (
    from_model,
    model_add,
    model_lower_add,
    model_scalar_mul,
    model_upper_add,
    to_model,
)

finite = st.fractions(max_denominator=64).map(ext)
extreals = st.one_of(finite, st.sampled_from([POS_INF, NEG_INF]))
BACKINGS = ("rational", "float")


def test_lower_add_examples():
    assert lower_add(POS_INF, NEG_INF) == NEG_INF
    assert lower_add(NEG_INF, POS_INF) == NEG_INF
    assert lower_add(ext(3), ext(4)) == ext(7)
    assert lower_add(POS_INF, POS_INF) == POS_INF


def test_upper_add_examples():
    assert upper_add(POS_INF, NEG_INF) == POS_INF
    assert upper_add(ext(-5), NEG_INF) == NEG_INF
    assert upper_add(ext(0), ext(0)) == 0


def test_scalar_mul_examples():
    assert scalar_mul(0, POS_INF) == 0
    assert scalar_mul(0, NEG_INF) == 0
    assert scalar_mul(-2, POS_INF) == NEG_INF
    assert scalar_mul(-2, NEG_INF) == POS_INF
    assert scalar_mul(3, ext(4)) == ext(12)


def _parts(x):
    """(max(0, x), max(0, -x)) as the part integrals on one atom of weight 1."""
    return part_integrals(FnClass(MeasureSpace(["a"], [1]), [x]))


def test_parts_and_neg_examples():
    assert _parts(NEG_INF) == (0, POS_INF)
    assert -POS_INF == NEG_INF
    assert _parts(ext(3)) == (3, 0)


def test_plain_add_rejects_conflicting_infinities():
    with pytest.raises(DomainError):
        add(POS_INF, NEG_INF)
    assert add(POS_INF, ext(1)) == POS_INF
    assert add(NEG_INF, NEG_INF) == NEG_INF


def test_nan_and_inf_floats_rejected():
    with pytest.raises(InputError):
        ext(float("nan"))
    with pytest.raises(InputError):
        as_scalar(float("inf"))
    # ext() accepts infinite floats as a convenience.
    assert ext(float("inf")) == POS_INF
    assert ext(float("-inf")) == NEG_INF


@pytest.mark.parametrize("backing", BACKINGS)
@pytest.mark.parametrize("x", [True, False, "x", "1/x", "1/0", "nan", "", None, [1]])
def test_bools_and_unparseable_strings_rejected(backing, x):
    with pytest.raises(InputError):
        as_scalar(x, backing)
    with pytest.raises(InputError):
        ext(x, backing)


def test_total_order():
    assert NEG_INF < ext(-(10 ** 12)) < ext(0) < ext(10 ** 12) < POS_INF
    assert not POS_INF < POS_INF
    assert NEG_INF <= NEG_INF


@given(extreals, extreals)
def test_lower_below_upper_with_exact_equality_condition(a, b):
    lo, hi = lower_add(a, b), upper_add(a, b)
    assert lo <= hi
    conflicting = {a, b} == {POS_INF, NEG_INF}
    assert (lo == hi) == (not conflicting)


@given(extreals, extreals)
def test_additions_commute(a, b):
    assert lower_add(a, b) == lower_add(b, a)
    assert upper_add(a, b) == upper_add(b, a)


@given(extreals, extreals, extreals)
def test_additions_associative(a, b, c):
    assert lower_add(lower_add(a, b), c) == lower_add(a, lower_add(b, c))
    assert upper_add(upper_add(a, b), c) == upper_add(a, upper_add(b, c))


@given(extreals)
def test_zero_is_identity(a):
    assert lower_add(a, ext(0)) == a
    assert upper_add(a, ext(0)) == a


@given(extreals, extreals, extreals)
def test_additions_monotone(a, a2, b):
    if a <= a2:
        assert lower_add(a, b) <= lower_add(a2, b)
        assert upper_add(a, b) <= upper_add(a2, b)


@given(extreals)
def test_pos_neg_decomposition(a):
    p, n = _parts(a)
    assert p >= 0 and n >= 0
    assert p == 0 or n == 0
    assert add(p, -n) == a


@given(extreals, extreals)
def test_neg_swaps_the_additions(a, b):
    assert -lower_add(a, b) == upper_add(-a, -b)


@given(extreals)
def test_scalar_mul_sign_rules(a):
    assert scalar_mul(1, a) == a
    assert scalar_mul(-1, a) == -a
    assert scalar_mul(0, a) == 0


def _assert_backing_form(v, backing):
    """A finite result is a float under float backing, and under rational
    backing an int when integral and a Fraction otherwise."""
    if v in (POS_INF, NEG_INF):
        assert type(v) is float
    elif backing == "float":
        assert type(v) is float, type(v)
    else:
        assert type(v) in (int, Fraction), type(v)
        assert (type(v) is int) == (Fraction(v).denominator == 1)


def _outcome(thunk):
    try:
        return "value", thunk()
    except (DomainError, InputError) as e:
        return "error", type(e)


def _assert_matches_model(got, expected, backing):
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] is expected[1], (got, expected)
        return
    v, w = got[1], expected[1]
    _assert_backing_form(v, backing)
    assert type(v) is type(w) and v == w, (v, w)
    if isinstance(v, float):
        assert v.hex() == w.hex(), (v, w)


# Finite values of every backing form, both infinities, signed zeros and
# floats near the top of the float range, so that float sums and products
# overflow.
RAW_SCALARS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["+inf", "-inf", 0, -0.0, 1e308, -1e308, 1.5e308]),
)


@settings(max_examples=500, deadline=None)
@given(backing=st.sampled_from(BACKINGS), a=RAW_SCALARS, b=RAW_SCALARS)
def test_operations_match_the_kind_value_model(backing, a, b):
    x, y = ext(a, backing), ext(b, backing)
    mx, my = to_model(x), to_model(y)
    for op, model in ((lower_add, model_lower_add), (upper_add, model_upper_add),
                      (add, model_add)):
        _assert_matches_model(_outcome(lambda: op(x, y)),
                              _outcome(lambda: from_model(model(mx, my), backing)), backing)
    if my[0] == 0:
        _assert_matches_model(_outcome(lambda: scalar_mul(y, x)),
                              _outcome(lambda: from_model(model_scalar_mul(y, mx), backing)),
                              backing)


@pytest.mark.parametrize("backing", BACKINGS)
def test_model_edge_cases(backing):
    zero = ext(0, backing)
    for inf in (POS_INF, NEG_INF):
        assert scalar_mul(zero, inf) == 0
        _assert_backing_form(scalar_mul(zero, inf), backing)
    with pytest.raises(DomainError):
        add(POS_INF, NEG_INF)
    with pytest.raises(DomainError):
        add(NEG_INF, POS_INF)
    _assert_backing_form(lower_add(zero, zero), backing)
    big = ext(1e308, backing)
    if backing == "float":
        for op in (lower_add, upper_add, add):
            with pytest.raises(InputError):
                op(big, big)
        with pytest.raises(InputError):
            scalar_mul(ext(10, backing), big)
    else:
        assert lower_add(big, big) == 2 * Fraction(10) ** 308
    assert lower_add(big, POS_INF) == POS_INF


def test_rational_backing_is_exact_for_decimal_floats():
    assert ext(0.7) == Fraction(7, 10)
    assert ext(0.1) + ext(0.2) == Fraction(3, 10)


def test_float_backing_roundtrip():
    v = ext(0.25, "float")
    assert isinstance(v, float)
    assert to_jsonable(v) == 0.25


@given(extreals)
def test_json_roundtrip_is_exact(a):
    encoded = json.loads(json.dumps(to_jsonable(a)))
    assert ext(encoded) == a


def test_json_special_encodings():
    assert to_jsonable(POS_INF) == "+inf"
    assert to_jsonable(NEG_INF) == "-inf"
    assert to_jsonable(ext(Fraction(1, 3))) == "1/3"
    assert ext("1/3") == ext(Fraction(1, 3))
    assert to_jsonable(ext(Fraction(7, 10))) == 0.7


@pytest.mark.parametrize("sign", [1, -1])
def test_json_encodes_values_beyond_the_float_range_as_fractions(sign):
    a = ext(Fraction(sign * 10**400, 3))
    assert to_jsonable(a) == f"{sign * 10**400}/3"
    assert ext(json.loads(json.dumps(to_jsonable(a)))) == a


def test_float_conversion():
    assert float(POS_INF) == math.inf
    assert float(ext(Fraction(1, 2))) == 0.5
