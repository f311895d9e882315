import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from interlab.errors import DomainError, InputError
from interlab.extreal import NEG_INF, POS_INF, coerce_all, common_numerators, ext, to_jsonable
from interlab.fnlattice import (
    FnClass,
    ess_sup_value,
    fn_add,
    fn_neg,
    mu_leq,
)
from interlab.functionals import make_builtin
from interlab.integrals import (
    Capacity,
    choquet,
    inner_integral,
    lebesgue_extended,
    outer_integral,
)
from interlab.measure import MeasureSpace, iter_atom_subsets
from interlab.oracle import random_capacity, random_semi_integrable, random_space
from interlab.scenario import read_capacity, write_check
from oracle_helpers import (
    additive_capacity,
    choquet_riemann,
    constant,
    dominating_psi_infimum,
    in_l1_minus,
    in_l1_plus,
    naive_choquet,
    naive_distortion_table,
    scale,
    semi_integrable,
    shift,
    simple_function_sup,
)


def fn(space, *values):
    return FnClass(space, list(values))


@pytest.fixture
def unit2():
    return MeasureSpace(["a", "b"], [1, 1])


# Nonnegative functions: the simple-function supremum -----------------------
# On a mu-a.e. nonnegative function the extended Lebesgue and the outer
# integral are the supremum of the integrals of dominated simple functions.

def test_nonneg_examples_against_simple_function_oracle():
    w12 = MeasureSpace(["a", "b"], [1, 2])
    f = fn(w12, 3, "+inf")
    assert simple_function_sup(f) == POS_INF
    assert lebesgue_extended(f) == outer_integral(f) == POS_INF

    w10 = MeasureSpace(["a", "b"], [1, 0])
    g = fn(w10, 3, "+inf")
    assert simple_function_sup(g) == ext(3)
    assert lebesgue_extended(g) == outer_integral(g) == ext(3)

    assert lebesgue_extended(constant(w12, 0)) == outer_integral(constant(w12, 0)) == 0


def test_nonneg_matches_oracle_on_random_grid_functions():
    rng = random.Random(2)
    grid = [0, Fraction(1, 4), Fraction(1, 2), 1, 2, 3, "+inf"]
    for _ in range(40):
        space = MeasureSpace(
            ["a", "b", "c"], [rng.choice([0, 1, 2, Fraction(1, 2)]) for _ in range(3)]
        )
        f = FnClass(space, [ext(rng.choice(grid)) for _ in range(3)])
        assert lebesgue_extended(f) == outer_integral(f) == simple_function_sup(f)


def test_negative_values_on_null_atoms_add_nothing():
    null = MeasureSpace(["a", "b"], [1, 0])
    assert lebesgue_extended(fn(null, 2, -5)) == outer_integral(fn(null, 2, -5)) == ext(2)


# Extended Lebesgue integral ------------------------------------------------

def test_lebesgue_extended_examples(unit2):
    # Oracle: integral of the positive part is 5, of the negative part +inf.
    assert lebesgue_extended(fn(unit2, 5, "-inf")) == NEG_INF
    assert lebesgue_extended(fn(unit2, 1, -2)) == ext(-1)
    with pytest.raises(DomainError):
        lebesgue_extended(fn(unit2, "-inf", "+inf"))


# Outer and inner integrals --------------------------------------------------

def test_outer_inner_on_the_conflicting_pair(unit2):
    f = fn(unit2, "+inf", "-inf")
    assert outer_integral(f) == POS_INF
    assert inner_integral(f) == NEG_INF


def test_outer_matches_extended_on_semi_integrable(unit2):
    assert outer_integral(fn(unit2, 5, "-inf")) == NEG_INF
    assert outer_integral(constant(unit2, 0)) == 0
    assert inner_integral(fn(unit2, 1, 2)) == ext(3)


def test_inner_is_negated_outer_of_negation_randomly():
    rng = random.Random(3)
    grid = ["-inf", -2, -1, 0, 1, 3, "+inf"]
    for _ in range(300):
        space = random_space(rng, 4)
        f = FnClass(space, [ext(rng.choice(grid)) for _ in space.atoms])
        assert inner_integral(f) == -outer_integral(fn_neg(f))
        assert inner_integral(f) <= outer_integral(f)
        if semi_integrable(f):
            assert outer_integral(f) == lebesgue_extended(f)
            assert inner_integral(f) == lebesgue_extended(f)


def test_outer_definition_oracle_finite_case():
    space = MeasureSpace(["a", "b", "c"], [1, 2, 0])
    f = fn(space, 1, -2, "+inf")  # integrable: the +inf sits on a null atom
    grid = [-3, -2, -1, 0, 1, 2, 3]
    value, empty = dominating_psi_infimum(f, grid)
    assert not empty
    assert value == outer_integral(f) == ext(-3)


def test_outer_definition_oracle_empty_when_positive_part_diverges():
    space = MeasureSpace(["a", "b"], [1, 1])
    f = fn(space, "+inf", -1)
    _, empty = dominating_psi_infimum(f, list(range(-5, 6)))
    assert empty  # no integrable function dominates f
    assert outer_integral(f) == POS_INF


def test_outer_definition_oracle_unbounded_below_when_negative_part_diverges():
    space = MeasureSpace(["a", "b"], [1, 1])
    f = fn(space, 2, "-inf")
    small, _ = dominating_psi_infimum(f, list(range(-10, 11)))
    smaller, _ = dominating_psi_infimum(f, list(range(-100, 101)))
    assert smaller < small  # no stabilization: the infimum diverges
    assert outer_integral(f) == NEG_INF


# Monotonicity ---------------------------------------------------------------

def _raise_some(rng, f, grid):
    values = []
    for v in f.values:
        higher = [g for g in grid if ext(g) >= v]
        values.append(ext(rng.choice(higher)) if higher and rng.random() < 0.7 else v)
    return FnClass(f.space, values)


def test_every_integral_is_monotone_on_random_pairs():
    rng = random.Random(4)
    grid = ["-inf", -2, -1, 0, 1, 3, "+inf"]
    leb = make_builtin("extended_lebesgue")
    clip = make_builtin("post_compose", base=leb, mapping=lambda v: min(max(v, -1), 1))
    for k in range(300):
        space = random_space(rng, 4)
        f = FnClass(space, [ext(rng.choice(grid)) for _ in space.atoms])
        g = _raise_some(rng, f, grid)
        assert mu_leq(f, g)
        assert outer_integral(f) <= outer_integral(g)
        assert inner_integral(f) <= inner_integral(g)
        assert ess_sup_value(f) <= ess_sup_value(g)
        functionals = [leb, clip]
        if space.total_mass() > 0:
            cap = Capacity.distortion(space, (0.5, 0.8, 2)[k % 3])
            functionals.append(make_builtin("choquet", capacity=cap))
        for phi in functionals:
            try:
                ordered = phi(f) <= phi(g)
            except DomainError:
                continue
            assert ordered, phi


# Additivity, negation, homogeneity (spot checks; bulk runs in acceptance) ---

def test_additivity_within_each_cone():
    rng = random.Random(5)
    for _ in range(300):
        space = random_space(rng, 4)
        f = random_semi_integrable(rng, space)
        g = random_semi_integrable(rng, space)
        if in_l1_plus(f) and in_l1_plus(g):
            s = fn_add(f, g, mode="lower")  # no +inf on non-null atoms
            assert lebesgue_extended(s) == ext_add(
                lebesgue_extended(f), lebesgue_extended(g)
            )
        if in_l1_minus(f) and in_l1_minus(g):
            s = fn_add(f, g, mode="upper")
            assert lebesgue_extended(s) == ext_add(
                lebesgue_extended(f), lebesgue_extended(g)
            )


def ext_add(a, b):
    from interlab.extreal import add

    return add(a, b)


def test_negation_identity_on_semi_integrable():
    rng = random.Random(6)
    for _ in range(300):
        space = random_space(rng, 4)
        f = random_semi_integrable(rng, space)
        assert lebesgue_extended(fn_neg(f)) == -lebesgue_extended(f)


def test_homogeneity_on_semi_integrable():
    rng = random.Random(7)
    lams = [-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 3]
    for _ in range(200):
        space = random_space(rng, 4)
        f = random_semi_integrable(rng, space)
        lam = rng.choice(lams)
        scaled = scale(lam, f)
        if lam == 0:
            assert lebesgue_extended(scaled) == 0
        else:
            from interlab.extreal import scalar_mul

            assert lebesgue_extended(scaled) == scalar_mul(lam, lebesgue_extended(f))


# Extended monotone convergence ----------------------------------------------

def test_extended_mct_rate_on_shifted_sequences():
    rng = random.Random(8)
    for _ in range(40):
        space = random_space(rng, 4)
        f = random_semi_integrable(rng, space)
        if not in_l1_plus(f):
            f = fn_neg(f)
        base = lebesgue_extended(f)
        mass = space.total_mass()
        for n in range(12):
            fn_n = shift(f, Fraction(1, n + 1))
            val = lebesgue_extended(fn_n)
            if abs(base) != POS_INF:
                assert val - base == mass * Fraction(1, n + 1)
            else:
                assert val == base == NEG_INF


# Capacities -----------------------------------------------------------------

def test_capacity_validation():
    space = MeasureSpace(["a", "b"], [1, 1])
    table = {s: ext(len(s)) for s in iter_atom_subsets(space)}
    Capacity(space, table)

    bad_empty = dict(table)
    bad_empty[frozenset()] = ext(1)
    with pytest.raises(InputError):
        Capacity(space, bad_empty)

    non_monotone = dict(table)
    non_monotone[frozenset({"a", "b"})] = ext(Fraction(1, 2))
    with pytest.raises(InputError):
        Capacity(space, non_monotone)

    negative = dict(table)
    negative[frozenset({"a"})] = ext(-1)
    with pytest.raises(InputError):
        Capacity(space, negative)

    missing = {frozenset(): 0}
    with pytest.raises(InputError):
        Capacity(space, missing)


def test_capacity_errors_come_in_iter_atom_subsets_order():
    """The first missing set and the first drop are those of
    ``iter_atom_subsets`` order, the smaller set first and then the added
    atom in space order, not of bitmask order, where {a, b} (0b011) comes
    before {c} (0b100)."""
    space = MeasureSpace(["a", "b", "c"], [1, 1, 1])
    table = {frozenset(): 0, frozenset("a"): 1, frozenset("b"): 1, frozenset("c"): 3,
             frozenset("ab"): 4, frozenset("ac"): "5/2", frozenset("bc"): "11/4",
             frozenset("abc"): "7/2"}
    # Two drops at {c}, to {a, c} and to {b, c}, and one at {a, b}, to {a, b, c}.
    with pytest.raises(InputError, match=re.escape(
            "capacity is not monotone: c({c}) = 3 > c({a, c}) = 5/2")):
        Capacity(space, table)
    with pytest.raises(InputError, match=re.escape(
            "capacity is not monotone: c({a, b}) = 4 > c({a, b, c}) = 7/2")):
        Capacity(space, {**table, frozenset("ac"): 3, frozenset("bc"): 3})
    holes = {s: v for s, v in table.items() if s not in (frozenset("c"), frozenset("ab"))}
    with pytest.raises(InputError, match=re.escape("capacity table misses the set {c}")):
        Capacity(space, holes)
    # A bad value before the first missing set is read first; one after it is not.
    with pytest.raises(InputError, match="cannot interpret 'x'"):
        Capacity(space, {**holes, frozenset("b"): "x"})
    with pytest.raises(InputError, match=re.escape("misses the set {c}")):
        Capacity(space, {**holes, frozenset("bc"): "x"})
    # Floats that tie are compared exactly: 1 + 10^-30 rounds to 1.0.
    with pytest.raises(InputError, match=r"c\(\{a\}\) = 1000000000000000000000000000001/"):
        Capacity(MeasureSpace(["a", "b"], [1, 1]), {
            frozenset(): 0, frozenset("a"): f"{10**30 + 1}/{10**30}", frozenset("b"): 0,
            frozenset("ab"): 1})
    # A key outside the space is reported before anything else.
    with pytest.raises(InputError, match=re.escape("set {a, z} is not over this capacity's")):
        Capacity(space, {frozenset(): 1, frozenset({"z", "a"}): 0})


def test_additive_capacity_makes_choquet_additive(unit2):
    cap = additive_capacity(unit2)
    f = fn(unit2, 2, 5)
    assert choquet(f, cap) == lebesgue_extended(f)


def test_distortion_capacity_monotone_and_serializable():
    space = MeasureSpace(["a", "b", "c"], [1, 2, 1])
    cap = Capacity.distortion(space, 0.8)
    assert cap.of(set()) == 0
    assert cap.of({"a"}) <= cap.of({"a", "b"}) <= cap.of({"a", "b", "c"})
    back = read_capacity({"kind": "distortion", "of_measure": True, "gamma": 0.8}, space)
    for s in iter_atom_subsets(space):
        assert back.of(s) == cap.of(s)


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_capacity_table_values_are_converted_once(monkeypatch, backing):
    import interlab.extreal
    import interlab.integrals

    batches, parsed = [], []

    def counting_coerce_all(values, *args, **kwargs):
        batches.append((len(values), args, kwargs))
        return coerce_all(values, *args, **kwargs)

    def counting_ext(*args):
        parsed.append(args)
        return ext(*args)

    monkeypatch.setattr(interlab.integrals, "coerce_all", counting_coerce_all)
    monkeypatch.setattr(interlab.extreal, "ext", counting_ext)
    space = MeasureSpace(["a", "b", "c", "d"], [1, 1, 1, 1], backing=backing)
    values = {"{" + ",".join(sorted(s)) + "}": str(len(s)) for s in iter_atom_subsets(space)}
    cap = read_capacity({"kind": "table", "values": values}, space)
    # One conversion of the 16 values in the space's backing, which parses
    # each of the five distinct strings once.
    assert batches == [(16, (backing,), {})]
    assert sorted(parsed) == [(str(k), backing) for k in range(5)]
    assert cap.of({"a", "b"}) == 2 and type(cap.of({"a", "b"})) is type(space.weights[0])


# Non-dyadic weights (1/3, 0.1, 0.7, 1.3) make float sums depend on their order.
DISTORTION_WEIGHTS = [0, 0, 1, 2, "1/3", "2/7", 0.1, 0.7, 1.3, 3.3e-3]


@st.composite
def distortions(draw):
    backing = draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = draw(st.integers(1, 10), label="atoms")
    weights = draw(st.lists(st.sampled_from(DISTORTION_WEIGHTS), min_size=n_atoms,
                            max_size=n_atoms), label="weights")
    if not any(weights):
        weights[-1] = "1/3"
    gamma = draw(st.floats(0.2, 4), label="gamma")
    return backing, weights, gamma


@settings(max_examples=150, deadline=None)
@given(case=distortions())
def test_distortion_matches_dense_table_bit_for_bit(case):
    backing, weights, gamma = case
    space = MeasureSpace([f"a{i}" for i in range(len(weights))], weights, backing=backing)
    cap = Capacity.distortion(space, gamma)
    for s, expected in naive_distortion_table(space, gamma).items():
        got = cap.of(s)
        assert got == expected, (sorted(s), got, expected)
        assert float(got).hex() == float(expected).hex()


def test_distortion_rejects_sets_outside_its_space():
    space = MeasureSpace(["a0", "a1", "a2"], ["1/3", 0, 0.7])
    cap = Capacity.distortion(space, 0.8)
    with pytest.raises(InputError, match=r"set \{x\} is not over this capacity's space"):
        cap.of({"x"})
    with pytest.raises(InputError, match=r"set \{a0, a2, x\} is not over"):
        cap.of({"x", "a2", "a0"})


def test_distortion_rejects_a_float_sum_beyond_the_float_range():
    import sys

    # The exact total rounds to the largest float; the float weights'
    # sum, 2^970 added to it, rounds up to +inf.
    space = MeasureSpace(["a", "b"], [int(sys.float_info.max), 2**970 - 1])
    assert float(space.total_mass()) == sys.float_info.max
    with pytest.raises(InputError, match="float range"):
        Capacity.distortion(space, 0.5)


def test_distortion_rejects_a_value_beyond_the_float_range():
    # 0.1 + 0.2 rounds above the total 3/10, so c(Omega) = ratio ** 1e300
    # overflows; that is found when the capacity is built.
    space = MeasureSpace(["a", "b"], [0.1, 0.2])
    with pytest.raises(InputError, match="float range"):
        Capacity.distortion(space, 1e300)
    Capacity.distortion(space, 1e3)


def test_choquet_rejects_a_distortion_that_grows_on_a_shrinking_level_set(monkeypatch):
    space = MeasureSpace(["a0", "a1", "a2"], ["1/3", 1, 0.7])
    cap = Capacity.distortion(space, 0.8)
    f = fn(space, 1, 2, 3)
    choquet(f, cap)
    reads = []

    def growing(self, mask):  # c(A) = 10 - |A|, read on an atom bitmask
        reads.append({a for i, a in enumerate(space.atoms) if mask >> i & 1})
        return ext(10 - mask.bit_count())

    monkeypatch.setattr(type(cap), "_value", growing)
    with pytest.raises(InputError, match=r"c\(\{a1, a2\}\) = 8 > c\(\{a0, a1, a2\}\) = 7"):
        choquet(f, cap)
    # It raises at the second read, before the third level set.
    assert reads == [{"a0", "a1", "a2"}, {"a1", "a2"}]
    # The plateau is the last, innermost level set read.
    reads.clear()
    with pytest.raises(InputError, match=r"c\(\{a2\}\) = 9 > c\(\{a1, a2\}\) = 8"):
        choquet(fn(space, 0, 1, "+inf"), cap)
    assert reads == [{"a1", "a2"}, {"a2"}]


def test_capacity_table_json_roundtrip(unit2):
    cap = worked_capacity(unit2)
    back = read_capacity(write_check(unit2, [], "choquet", cap)["functional"]["capacity"], unit2)
    for s in iter_atom_subsets(unit2):
        assert back.of(s) == cap.of(s)


@pytest.mark.parametrize("atom", ["b,c", "{b", "b}", "", " b", "b "])
def test_capacity_table_keys_name_only_atoms_that_read_back(atom):
    space = MeasureSpace(["a", atom], [1, 1])
    cap = Capacity(space, {s: len(s) for s in iter_atom_subsets(space)})
    with pytest.raises(InputError, match=f"atom id {atom!r} cannot appear in a capacity table key"):
        write_check(space, [], "choquet", cap)
    with pytest.raises(InputError, match=r"capacity key 'a' must look like '\{a,b\}'"):
        read_capacity({"kind": "table", "values": {" a ": 1}}, space)


# Choquet integral ------------------------------------------------------------

def worked_capacity(space):
    return Capacity(space, {frozenset(): 0, frozenset({"a"}): 0.5, frozenset({"b"}): 0.7,
                            frozenset({"a", "b"}): 1})


def test_choquet_worked_example_is_exactly_17_tenths(unit2):
    cap = worked_capacity(unit2)
    assert choquet(fn(unit2, 1, 2), cap) == ext(Fraction(17, 10))


def test_choquet_constants(unit2):
    cap = worked_capacity(unit2)
    assert choquet(constant(unit2, 1), cap) == ext(1)
    assert choquet(constant(unit2, 0), cap) == 0


def test_choquet_infinite_plateau(unit2):
    cap = worked_capacity(unit2)
    assert choquet(fn(unit2, "+inf", 1), cap) == POS_INF
    # A capacity that ignores atom a turns the plateau off.
    cap0 = Capacity(unit2, {frozenset(): 0, frozenset({"a"}): 0, frozenset({"b"}): 1,
                            frozenset({"a", "b"}): 1})
    assert choquet(fn(unit2, "+inf", 1), cap0) == ext(1)


def test_choquet_nonpositive_via_negation(unit2):
    cap = worked_capacity(unit2)
    x = fn(unit2, -1, -2)
    assert choquet(x, cap) == -choquet(fn_neg(x), cap)
    assert choquet(x, cap) == ext(Fraction(-17, 10))


def test_choquet_mixed_sign_rejected(unit2):
    cap = worked_capacity(unit2)
    with pytest.raises(DomainError):
        choquet(fn(unit2, 1, -1), cap)


def test_choquet_negative_only_on_null_atoms_is_fine():
    space = MeasureSpace(["a", "b"], [1, 0])
    cap = additive_capacity(space)
    assert choquet(fn(space, 2, -7), cap) == ext(2)


def test_choquet_matches_riemann_oracle_spot():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 4)
        space = MeasureSpace(
            [f"w{i}" for i in range(n)],
            [rng.choice([0, 1, 2, Fraction(1, 2)]) for _ in range(n)],
        )
        cap = random_capacity(rng, space, allow_infinite=False)
        f = FnClass(space, [Fraction(rng.randrange(0, 301), 100) for _ in range(n)])
        closed = choquet(f, cap)
        riemann = choquet_riemann(f, cap)
        assert abs(float(closed) - riemann) <= 1e-6


def test_choquet_monotone_and_homogeneous_on_nonneg():
    rng = random.Random(10)
    grid = [0, Fraction(1, 2), 1, 2, 3]
    for _ in range(150):
        space = random_space(rng, 4)
        cap = random_capacity(rng, space)
        f = FnClass(space, [ext(rng.choice(grid)) for _ in space.atoms])
        g = FnClass(
            space,
            [ext(rng.choice([v for v in grid if ext(v) >= fv])) for fv in f.values],
        )
        assert choquet(f, cap) <= choquet(g, cap)
        lam = rng.choice([Fraction(1, 2), 2, 3])
        from interlab.extreal import scalar_mul

        assert choquet(scale(lam, f), cap) == scalar_mul(lam, choquet(f, cap))


def test_choquet_monotone_pointwise_convergence():
    # f_n = (1 + 1/(n+1)) * f decreases pointwise to f; by positive
    # homogeneity the Choquet values converge to the Choquet integral of f.
    rng = random.Random(11)
    for _ in range(30):
        space = random_space(rng, 3)
        cap = random_capacity(rng, space, allow_infinite=False)
        f = FnClass(space, [ext(rng.choice([0, 1, 2])) for _ in space.atoms])
        base = choquet(f, cap)
        prev = None
        for n in range(10):
            val = choquet(scale(1 + Fraction(1, n + 1), f), cap)
            assert val >= base
            if prev is not None:
                assert val <= prev
            prev = val
        gap = prev - base
        assert gap <= Fraction(1, 10) * max(base, 1)


def test_choquet_capacity_space_mismatch(unit2):
    other = MeasureSpace(["x", "y"], [1, 1])
    cap = additive_capacity(other)
    with pytest.raises(InputError):
        choquet(constant(unit2, 1), cap)


# Two Fractions whose denominators, 2108 and 2106 bits, are coprime: each
# alone keeps a common denominator within ``extreal._KEY_BITS``, and both
# together pass it, so that the level keys, or a table's codes, fall back to
# the Fractions themselves.
BIG3, BIG5 = Fraction(1, 3 ** 1330), Fraction(1, 5 ** 907)

# Values with ties, infinities, mixed denominators, Fractions that are not
# dyadic or far apart, so that float sums round, and the two above.
CHOQUET_VALUES = ["-inf", -3, "-1/3", -1, 0, "0.1", "1/3", "1/2", "5/7", 1, 3, "1e16", "+inf",
                  BIG3, 2 + BIG5]
CHOQUET_INCREMENTS = [0, 0, "0.1", "1/3", "1/2", 1, "7/10", "+inf", BIG3, BIG5]


@st.composite
def table_choquet_cases(draw):
    """A space, a monotone table with its keys written out of space order and
    listed out of ``iter_atom_subsets`` order, and a function whose sign
    pattern is drawn: nonnegative, nonpositive, zero on the atoms of positive
    weight, or free."""
    backing = draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = draw(st.integers(1, 6), label="atoms")
    weights = draw(st.lists(st.sampled_from([0, "1/2", 1, 2]), min_size=n_atoms,
                            max_size=n_atoms), label="weights")
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    raw = {}
    for s in iter_atom_subsets(space):
        floor = max([raw[s - {a}] for a in s], default=0)
        raw[s] = floor + ext(draw(st.sampled_from(CHOQUET_INCREMENTS)), "rational") if s else 0
    keys = draw(st.permutations(list(raw)), label="key order")
    written = {"{" + ",".join(draw(st.permutations(sorted(s)))) + "}": to_jsonable(raw[s])
               for s in keys}
    palette = draw(st.lists(st.sampled_from(CHOQUET_VALUES), min_size=1, max_size=5),
                   label="palette")
    sign = draw(st.sampled_from(["nonneg", "nonneg", "nonpos", "zero", "free"]), label="sign")
    values = []
    for w in weights:
        x = ext(draw(st.sampled_from(palette)), "rational")
        if w and sign == "nonneg":
            x = abs(x)
        elif w and sign == "nonpos":
            x = -abs(x)
        elif w and sign == "zero":
            x = 0
        values.append(x)
    return space, written, FnClass(space, [to_jsonable(x) for x in values])


@settings(max_examples=400, deadline=None)
@given(case=table_choquet_cases())
def test_table_choquet_matches_the_frozenset_layer_cake(case):
    """The level keys and table codes against the plain layer cake that
    reads the table by frozensets of atom names, on values and table values
    of mixed denominators, with common denominators within and past
    ``extreal``'s bit cap, +inf values and +inf capacities: the same value
    and type, floats bit for bit (a zero +0.0), or the same error."""
    space, written, f = case
    cap = read_capacity({"kind": "table", "values": written}, space)
    table = {frozenset(a.strip() for a in key[1:-1].split(",") if a): ext(v, space.backing)
             for key, v in written.items()}
    try:
        expected = naive_choquet(f, table)
    except DomainError as e:
        with pytest.raises(DomainError, match=f"^{re.escape(str(e))}$"):
            choquet(f, cap)
        return
    got = choquet(f, cap)
    assert (got, type(got)) == (expected, type(expected))
    if type(got) is float:
        assert got.hex() == expected.hex()


def test_table_choquet_past_the_bit_cap_reads_the_fractions_themselves():
    """Level keys, table codes, or both, whose common denominator passes
    ``extreal._KEY_BITS`` are the Fractions themselves over 1, and the
    integral is still the plain layer cake, in value and type, under both
    signs."""
    space = MeasureSpace(["a", "b", "c"], [1, "1/2", 2])
    assert common_numerators([[BIG3, BIG5]]) is None
    plain = {s: len(s) + Fraction(len(s), 2) for s in iter_atom_subsets(space)}
    big = {s: len(s) * BIG3 + ("b" in s) * BIG5 + ("c" in s) for s in iter_atom_subsets(space)}
    assert Capacity(space, plain)._den == 2
    big_cap = Capacity(space, big)
    assert big_cap._den == 1 and big_cap._codes is big_cap._values
    small_f, big_f = fn(space, "1/3", 2, "+inf"), fn(space, BIG3, 1 + BIG5, 0)
    for table in (plain, big):
        cap = Capacity(space, table)
        for f in (small_f, big_f, fn_neg(small_f), fn_neg(big_f)):
            got, expected = choquet(f, cap), naive_choquet(f, table)
            assert (got, type(got)) == (expected, type(expected))


def test_float_choquet_adds_its_levels_in_order():
    """The terms 1, 1 and 1e16 in level order: 2 + 1e16 is a float, while
    1e16 + 1 rounds back to 1e16."""
    space = MeasureSpace(["a", "b", "c"], [1, 1, 1], backing="float")
    cap = Capacity(space, {s: 1 if "c" in s else 0 for s in iter_atom_subsets(space)})
    assert choquet(fn(space, 1, 2, 1e16 + 2), cap) == 1e16 + 2
    assert choquet(fn(space, -1, -2, -1e16 - 2), cap) == -1e16 - 2


@pytest.mark.parametrize("backing", ["rational", "float"])
def test_table_choquet_of_no_positive_level_is_the_backings_zero(backing):
    space = MeasureSpace(["a", "b", "c"], [1, 0, 2], backing=backing)
    cap = additive_capacity(space)
    zero = choquet(fn(space, 0, -5, 0), cap)  # a negative value on the null atom only
    assert (zero, type(zero)) == ((0, int) if backing == "rational" else (0.0, float))
    # Nonpositive through negation, which leaves a zero cake +0.0 under float.
    null = Capacity(space, {s: 0 for s in iter_atom_subsets(space)})
    negated = choquet(fn(space, -1, 0, -2), null)
    assert negated == 0 and type(negated) is type(zero)
    assert backing == "rational" or negated.hex() == "0x0.0p+0"


def test_float_choquet_is_inf_when_a_term_overflows_beside_an_infinite_capacity():
    """Under float backing a finite term beyond the float range adds nothing
    to a layer cake that an earlier level's +inf capacity has made +inf; the
    term-by-term fold of extended additions used to raise there.  A cake
    without a +inf level still raises, before the plateau is read."""
    space = MeasureSpace(["a", "b"], [1, 1], backing="float")
    infinite = Capacity(space, {frozenset(): 0, frozenset("a"): 0, frozenset("b"): 1e10,
                                frozenset("ab"): "+inf"})
    assert choquet(fn(space, 1, 1e300), infinite) == POS_INF
    assert choquet(fn(space, -1, -1e300), infinite) == NEG_INF
    finite = Capacity(space, {frozenset(): 0, frozenset("a"): 0, frozenset("b"): 1,
                              frozenset("ab"): 1e10})
    with pytest.raises(InputError, match=r"expected a finite scalar, got \+inf"):
        choquet(fn(space, 1e300, "+inf"), finite)
