import random
from fractions import Fraction

import pytest

from interlab.errors import DomainError, InputError
from interlab.extreal import NEG_INF, ext
from interlab.fnlattice import FnClass, mu_leq
from interlab.functionals import Functional, make_builtin
from interlab.integrals import Capacity, lebesgue_extended
from interlab.interchange import Family, verify_interchange
from interlab.measure import MeasureSpace
from oracle_helpers import additive_capacity, constant


def fn(space, *values):
    return FnClass(space, list(values))


@pytest.fixture
def unit2():
    return MeasureSpace(["a", "b"], [1, 1])


def test_builtin_examples(unit2):
    phi = make_builtin("extended_lebesgue")
    assert phi(fn(unit2, 1, -2)) == ext(-1)

    cap = Capacity(unit2, {frozenset(): 0, frozenset({"a"}): 0.5, frozenset({"b"}): 0.7,
                           frozenset({"a", "b"}): 1})
    cho = make_builtin("choquet", capacity=cap)
    assert cho(constant(unit2, 1)) == ext(1)

    ess = make_builtin("ess_sup")
    null = MeasureSpace(["a", "b"], [1, 0])
    assert ess(fn(null, 0, 5)) == 0


def test_builtin_flags():
    for kind in ("extended_lebesgue", "ess_sup", "outer", "inner"):
        assert make_builtin(kind).order_preserving


def test_choquet_requires_capacity():
    with pytest.raises(InputError):
        make_builtin("choquet")


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        make_builtin("nope")


def test_builtins_raise_their_own_domain_error(unit2):
    leb = make_builtin("extended_lebesgue")
    assert leb(fn(unit2, 1, "-inf")) == NEG_INF
    with pytest.raises(DomainError):
        leb(fn(unit2, "+inf", "-inf"))
    cho = make_builtin("choquet", capacity=additive_capacity(unit2))
    assert cho(fn(unit2, 0, 2)) == ext(2)
    with pytest.raises(DomainError):
        cho(fn(unit2, -1, 2))


def test_every_registered_builtin_passes_order_check():
    space = MeasureSpace(["a", "b", "c"], [1, 0, Fraction(1, 2)])
    functionals = [make_builtin(k) for k in ("extended_lebesgue", "outer", "inner", "ess_sup")]
    functionals.append(
        make_builtin("choquet", capacity=Capacity.distortion(space, 0.8))
    )
    grid = [ext(v) for v in ("-inf", -2, -1, 0, 1, 3, "+inf")]
    for seed in (0, 1, 12345):
        rng = random.Random(seed)
        for _ in range(150):
            f = FnClass(space, [rng.choice(grid) for _ in space.atoms])
            g = FnClass(space, [rng.choice([w for w in grid if w >= v]) for v in f.values])
            assert mu_leq(f, g)
            for phi in functionals:
                try:
                    ordered = phi(f) <= phi(g)
                except DomainError:
                    continue
                assert ordered, (phi, f.values, g.values)


def test_broken_functional_reports_witness(unit2):
    broken = Functional(
        "minus_integral",
        lambda f: -lebesgue_extended(f),
        order_preserving=False,
    )
    report = verify_interchange(Family([fn(unit2, 0, 1), fn(unit2, 1, 0)]), broken)
    # Phi(inf X) = 0 exceeds min Phi = -1, attained first by member 0.
    assert report.notes[-1] == (
        "order preservation not declared; it fails on this family: K = inf of "
        "members [0] has inf X <= K but Phi(K) = -1 < Phi(inf X) = 0"
    )


def test_constant_functional_has_no_violations(unit2):
    const = Functional("const", lambda f: ext(7), order_preserving=False)
    report = verify_interchange(Family([fn(unit2, 0, 1), fn(unit2, 1, 0)]), const)
    assert report.holds and report.phi_inf_directed == "yes"
    assert report.notes[-1] == (
        "order preservation not declared; verdict and scan agree without it"
    )


def test_post_compose_monotone_map(unit2):
    leb = make_builtin("extended_lebesgue")
    clip = make_builtin(
        "post_compose", base=leb,
        mapping=lambda v: min(max(v, ext(-1)), ext(1)),
    )
    assert clip(fn(unit2, 5, 5)) == ext(1)
    assert clip(fn(unit2, -5, -5)) == ext(-1)
    assert clip.order_preserving


def test_post_compose_rejects_non_monotone(unit2):
    leb = make_builtin("extended_lebesgue")
    with pytest.raises(InputError):
        make_builtin(
            "post_compose", base=leb,
            mapping=lambda v: -v,
        )
