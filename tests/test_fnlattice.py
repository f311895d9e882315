import random
from fractions import Fraction
from itertools import product

import pytest

from interlab.errors import InputError
from interlab.extreal import NEG_INF, POS_INF, ext
from interlab.fnlattice import (
    FnClass,
    IntegrabilityTag,
    classify,
    ess_sup_value,
    fn_add,
    fn_neg,
    lp_norm,
    mu_leq,
    pointwise_inf,
)
from interlab.integrals import part_integrals
from interlab.measure import MeasureSpace
from oracle_helpers import constant, in_l1_plus

GRID = ["-inf", -2, 0, 1, "+inf"]


def fn(space, *values):
    return FnClass(space, list(values))


@pytest.fixture
def space2():
    return MeasureSpace(["a", "b"], [1, 1])


def random_fn(rng, space, grid=GRID):
    return FnClass(space, [ext(rng.choice(grid)) for _ in space.atoms])


# mu-pointwise order -------------------------------------------------------

def test_mu_leq_examples():
    space = MeasureSpace(["a", "b"], [1, 0])
    assert mu_leq(fn(space, 0, 5), fn(space, 0, -1))  # disagreement only on null atom
    unit = MeasureSpace(["a", "b"], [1, 1])
    assert not mu_leq(fn(unit, 0, 1), fn(unit, 1, 0))
    f = fn(unit, 2, 3)
    assert mu_leq(f, f)


def test_mu_leq_space_mismatch():
    s1 = MeasureSpace(["a"], [1])
    s2 = MeasureSpace(["b"], [1])
    with pytest.raises(InputError):
        mu_leq(fn(s1, 0), fn(s2, 0))


def test_mu_leq_is_partial_order_on_random_triples():
    rng = random.Random(11)
    space = MeasureSpace(["a", "b", "c"], [1, 0, Fraction(1, 2)])
    fns = [random_fn(rng, space) for _ in range(60)]
    for f in fns:
        assert mu_leq(f, f)
    for f, g, h in zip(fns, fns[1:], fns[2:]):
        if mu_leq(f, g) and mu_leq(g, f):
            assert f == g  # antisymmetry modulo the null-atom equivalence
        if mu_leq(f, g) and mu_leq(g, h):
            assert mu_leq(f, h)


def test_class_equality_ignores_null_atoms():
    space = MeasureSpace(["a", "b"], [1, 0])
    assert fn(space, 1, 99) == fn(space, 1, "-inf")
    assert hash(fn(space, 1, 99)) == hash(fn(space, 1, "-inf"))
    assert fn(space, 1, 0) != fn(space, 2, 0)


# pointwise infimum --------------------------------------------------------

def test_pointwise_inf_examples(space2):
    assert pointwise_inf([fn(space2, 0, 1), fn(space2, 1, 0)]) == fn(space2, 0, 0)
    f = fn(space2, 3, -1)
    assert pointwise_inf([f]) == f
    assert pointwise_inf([fn(space2, "-inf", 2), fn(space2, 3, "-inf")]) == fn(
        space2, "-inf", "-inf"
    )


def test_pointwise_inf_empty_family_rejected():
    with pytest.raises(InputError):
        pointwise_inf([])


def test_pointwise_inf_is_greatest_lower_bound_exhaustively():
    # Candidate enumeration over a value grid on a 3-atom space with a null
    # atom: the infimum must dominate every grid lower bound.
    space = MeasureSpace(["a", "b", "c"], [1, 0, 2])
    grid = [ext(v) for v in GRID]
    all_fns = [FnClass(space, vals) for vals in product(grid, repeat=3)]
    rng = random.Random(3)
    for _ in range(40):
        members = [rng.choice(all_fns) for _ in range(rng.randint(1, 3))]
        inf = pointwise_inf(members)
        assert all(mu_leq(inf, m) for m in members)
        for g in all_fns:
            if all(mu_leq(g, m) for m in members):
                assert mu_leq(g, inf)


# parts, classification ----------------------------------------------------

def test_part_integrals_examples():
    # Weights 1 and 10 tell the atoms apart: (-2, 3) has parts (0, 3) and (2, 0).
    space = MeasureSpace(["a", "b"], [1, 10])
    assert part_integrals(fn(space, -2, 3)) == (30, 2)
    assert part_integrals(fn(space, "-inf", 0)) == (0, POS_INF)
    assert part_integrals(constant(space, 0)) == (0, 0)


def test_classify_examples(space2):
    # Weighted-sum oracle: integral of the positive part of (+inf, 0) with
    # unit weights is +inf, of the negative part 0.
    assert classify(fn(space2, "+inf", 0)) is IntegrabilityTag.L1_MINUS
    assert classify(fn(space2, "-inf", "+inf")) is IntegrabilityTag.L0_ONLY
    assert classify(fn(space2, 1, -2)) is IntegrabilityTag.L1_FULL
    assert classify(fn(space2, "-inf", 0)) is IntegrabilityTag.L1_PLUS


def test_classify_ignores_null_atoms():
    space = MeasureSpace(["a", "b"], [1, 0])
    assert classify(fn(space, 1, "+inf")) is IntegrabilityTag.L1_FULL


def test_negation_swaps_the_semi_integrable_cones():
    rng = random.Random(5)
    space = MeasureSpace(["a", "b", "c"], [1, 1, 0])
    swap = {
        IntegrabilityTag.L1_PLUS: IntegrabilityTag.L1_MINUS,
        IntegrabilityTag.L1_MINUS: IntegrabilityTag.L1_PLUS,
        IntegrabilityTag.L1_FULL: IntegrabilityTag.L1_FULL,
        IntegrabilityTag.L0_ONLY: IntegrabilityTag.L0_ONLY,
    }
    for _ in range(200):
        f = random_fn(rng, space)
        assert classify(fn_neg(f)) is swap[classify(f)]


def test_semi_integrable_members_give_semi_integrable_infima():
    # The L1-plus cone is closed under finite pointwise infima.
    rng = random.Random(6)
    space = MeasureSpace(["a", "b", "c"], [1, 2, 1])
    plus_grid = ["-inf", -2, 0, 1, 3]
    for _ in range(150):
        members = [random_fn(rng, space, plus_grid) for _ in range(rng.randint(1, 4))]
        assert all(in_l1_plus(m) for m in members)
        assert in_l1_plus(pointwise_inf(members))


# norms, essential supremum ------------------------------------------------

def test_lp_norm_examples():
    space = MeasureSpace(["a", "b"], [Fraction(1, 2), Fraction(1, 2)])
    assert lp_norm(fn(space, 1, -1), 2) == ext(1)
    assert lp_norm(constant(space, 0), 3) == 0
    assert lp_norm(fn(space, 3, 4), 1) == ext(Fraction(7, 2))


def test_lp_norm_infinite_value_flags_plus_inf():
    space = MeasureSpace(["a", "b"], [1, 1])
    assert lp_norm(fn(space, "+inf", 0), 2) == POS_INF
    null = MeasureSpace(["a", "b"], [1, 0])
    assert lp_norm(fn(null, 1, "+inf"), 2) == ext(1)


def test_lp_norm_requires_p_at_least_one(space2):
    with pytest.raises(InputError):
        lp_norm(constant(space2, 1), Fraction(1, 2))


def test_ess_sup_ignores_null_atoms():
    space = MeasureSpace(["a", "b"], [1, 0])
    assert ess_sup_value(fn(space, 0, 5)) == 0
    all_null = MeasureSpace(["a"], [0])
    assert ess_sup_value(fn(all_null, 7)) == NEG_INF


def test_fn_add_modes(space2):
    f = fn(space2, "+inf", 1)
    g = fn(space2, "-inf", 2)
    assert fn_add(f, g, mode="lower") == fn(space2, "-inf", 3)
    assert fn_add(f, g, mode="upper") == fn(space2, "+inf", 3)
    with pytest.raises(Exception):
        fn_add(f, g, mode="plain")
