"""The per-atom kernels against naive term-by-term folds, under both backings.

``part_integrals`` and ``pointwise_inf`` fold the atoms in one native pass;
the integrals built on them must equal, bit for bit under float backing,
the fold that adds one extended real per atom in atom order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from interlab.errors import DomainError, InputError
from interlab.extreal import NEG_INF, POS_INF, exact_codes, ext, weighted_parts
from interlab.fnlattice import FnClass, pointwise_inf
from interlab.functionals import make_builtin
from interlab.integrals import (
    inner_integral,
    lebesgue_extended,
    outer_integral,
    part_integrals,
)
from interlab.measure import MeasureSpace

from oracle_helpers import (
    naive_integral,
    naive_part_integrals,
    naive_pointwise_inf,
)

# Non-dyadic floats (0.1, 0.7, 0.3) make float sums depend on their order.
WEIGHTS = [0, 0, 1, 2, "1/3", "1/2", 0.1, 0.7, 3]
FINITE = [0, 0, 1, -1, 2, "1/3", "-1/3", "5/2", 0.1, -0.7, 0.3, 1e-3, -2.5]
FLOAT_ZEROS = [0.0, -0.0]
INTEGRALS = {
    "extended_lebesgue": lebesgue_extended,
    "outer": outer_integral,
    "inner": inner_integral,
}


def assert_rational_form(v) -> None:
    """A finite value is an int when integral and a Fraction otherwise."""
    if v not in (POS_INF, NEG_INF):
        assert type(v) in (int, Fraction), type(v)
        assert (type(v) is int) == (Fraction(v).denominator == 1)


def same(a, b) -> bool:
    """Equal values; under float backing also equal bits, sign of zero included."""
    finite = a not in (POS_INF, NEG_INF) and b not in (POS_INF, NEG_INF)
    if finite and (isinstance(a, float) or isinstance(b, float)):
        return float(a).hex() == float(b).hex()
    return a == b


@st.composite
def families(draw):
    backing = draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = draw(st.integers(1, 40), label="atoms")
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                            max_size=n_atoms), label="weights")
    # No infinities, or about 1 value in 7 or 5 in 13 infinite.
    pool = (FINITE + (FLOAT_ZEROS if backing == "float" else [])
            + ["+inf", "-inf"] * draw(st.sampled_from([0, 1, 4]), label="infs"))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=n_atoms,
                                  max_size=n_atoms), min_size=1, max_size=5), label="rows")
    return backing, weights, rows


@settings(max_examples=300, deadline=None)
@given(case=families())
def test_kernels_match_naive_folds(case):
    backing, weights, rows = case
    space = MeasureSpace([f"a{i}" for i in range(len(weights))], weights, backing=backing)
    members = [FnClass(space, row) for row in rows]
    inf = pointwise_inf(members)
    naive_inf = naive_pointwise_inf(members)
    assert all(x is y for x, y in zip(inf.values, naive_inf))
    for f in members + [inf]:
        parts = part_integrals(f)
        naive_parts = naive_part_integrals(f)
        assert all(same(a, b) for a, b in zip(parts, naive_parts)), (parts, naive_parts)
        for kind, integral in INTEGRALS.items():
            try:
                expected = naive_integral(kind, f)
            except DomainError:
                with pytest.raises(DomainError):
                    integral(f)
                continue
            got = integral(f)
            assert same(got, expected), (kind, got, expected)
            if backing == "rational":
                assert_rational_form(got)
        if backing == "rational":
            for v in list(f.values) + list(parts):
                assert_rational_form(v)


@pytest.mark.parametrize("x, stored", [
    (3, 3), (Fraction(6, 2), 3), ("6/2", 3), ("2.0", 2), (2.0, 2), (-0.0, 0),
    ("-7", -7), ("1/3", Fraction(1, 3)), (0.7, Fraction(7, 10)), ("-0.25", Fraction(-1, 4)),
])
def test_rational_backing_stores_integral_values_as_int(x, stored):
    v = ext(x)
    assert type(v) is type(stored) and v == stored
    assert_rational_form(v)


@pytest.mark.parametrize("weights, values, plus", [
    ([1, 1e308, 1e308], ["+inf", 1, 1], "+inf"),
    ([1e308, 1e308, 1], [1, 1, "+inf"], "+inf"),
    ([1e308, 1e308], [1, 1], None),
])
def test_float_overflow_raises_only_for_a_finite_part(weights, values, plus):
    space = MeasureSpace([f"a{i}" for i in range(len(weights))], weights, backing="float")
    f = FnClass(space, values)
    if plus is None:
        with pytest.raises(InputError):
            part_integrals(f)
    else:
        assert part_integrals(f)[0] == ext(plus)


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
DENOMINATORS = [1, 1, 1] + PRIMES + [2**k for k in range(2, 11)] + [3**k for k in range(2, 7)]


def exact_scalars(least):
    """ints and Fractions over many denominators, stored as ``ext`` stores them."""
    return st.tuples(st.integers(least, 60), st.sampled_from(DENOMINATORS)).map(
        lambda t: ext(Fraction(*t)))


@st.composite
def exact_rows(draw):
    n_atoms = draw(st.one_of(st.integers(1, 12), st.integers(13, 400)), label="atoms")
    weights = draw(st.lists(exact_scalars(0), min_size=n_atoms, max_size=n_atoms),
                   label="weights")
    values = draw(st.lists(exact_scalars(-60), min_size=n_atoms, max_size=n_atoms),
                  label="values")
    index = st.integers(0, n_atoms - 1)
    for i in draw(st.lists(index, max_size=4), label="null atoms"):
        weights[i] = 0
    for i, inf in draw(st.lists(st.tuples(index, st.sampled_from([POS_INF, NEG_INF])),
                                max_size=4), label="infinities"):
        values[i] = inf
    return weights, values


@settings(max_examples=120, deadline=None)
@given(case=exact_rows())
def test_exact_parts_match_naive_folds(case):
    """Under rational backing the regrouped exact sums equal the term-by-term
    fold in value and in form (int when integral)."""
    weights, values = case
    space = MeasureSpace([f"a{i}" for i in range(len(weights))], weights)
    f = FnClass.from_ext(space, tuple(values))
    parts = part_integrals(f)
    expected = naive_part_integrals(f)
    assert [type(p) for p in parts] == [type(e) for e in expected], (parts, expected)
    assert parts == expected
    for p in parts:
        assert_rational_form(p)



@st.composite
def code_rows(draw):
    """Exact weights, some null, rows of exact values and infinities, and one
    value picked from each row."""
    n_atoms = draw(st.integers(1, 12), label="atoms")
    weights = draw(st.lists(st.one_of(st.just(0), exact_scalars(0)), min_size=n_atoms,
                            max_size=n_atoms), label="weights")
    value = st.one_of(exact_scalars(-60), st.sampled_from([POS_INF, NEG_INF]))
    rows = draw(st.lists(st.lists(value, min_size=1, max_size=4), min_size=n_atoms,
                         max_size=n_atoms), label="rows")
    picks = [draw(st.integers(0, len(row) - 1), label="pick") for row in rows]
    return weights, rows, picks


def _outcome(run):
    """(type, value) of what ``run`` returns, or (error class, text)."""
    try:
        value = run()
    except DomainError as e:
        return DomainError, str(e)
    return type(value), value


@settings(max_examples=300, deadline=None)
@given(case=code_rows())
def test_exact_codes_decode_as_each_integral_combines_its_parts(case):
    """Under rational backing a sum of one exact code per row decodes to each
    integral of the picked values, in value, type, error class and text, as
    its ``Functional.parts`` combines ``weighted_parts``; in a row of positive
    weight the codes order like the values."""
    weights, rows, picks = case
    codes = exact_codes(weights, rows)
    values = [row[j] for row, j in zip(rows, picks)]
    code = sum(row[j] for row, j in zip(codes.rows, picks))
    for combine in [make_builtin(k).parts for k in ("extended_lebesgue", "outer", "inner")]:
        assert (_outcome(lambda: codes.value(code, combine))
                == _outcome(lambda: combine(*weighted_parts(weights, values))))
    assert codes.infinite == any(w and abs(x) == POS_INF for w, row in zip(weights, rows)
                                 for x in row)
    for w, row, row_codes in zip(weights, rows, codes.rows):
        assert all((a < b, a == b) == ((x < y, x == y) if w else (False, True))
                   for x, a in zip(row, row_codes) for y, b in zip(row, row_codes))
