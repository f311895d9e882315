import random
from fractions import Fraction

import pytest

from interlab.errors import InputError
from interlab.extreal import ext
from interlab.fnlattice import FnClass, mu_leq
from interlab.functionals import Functional, make_builtin, parameterless_builtins
from interlab.integrals import Capacity, lebesgue_extended
from interlab.interchange import Family, verify_interchange
from interlab.measure import MeasureSpace


def fn(space, *values):
    return FnClass(space, list(values))


@pytest.fixture
def unit2():
    return MeasureSpace(["a", "b"], [1, 1])


def test_builtin_examples(unit2):
    phi = make_builtin("extended_lebesgue")
    assert phi(fn(unit2, 1, -2)) == ext(-1)

    cap = Capacity.from_json_dict(
        {"kind": "table", "values": {"{}": 0, "{a}": 0.5, "{b}": 0.7, "{a,b}": 1}},
        unit2,
    )
    cho = make_builtin("choquet", capacity=cap)
    assert cho(FnClass.constant(unit2, 1)) == ext(1)

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


def test_defined_on(unit2):
    leb = make_builtin("extended_lebesgue")
    assert leb.defined_on(fn(unit2, 1, "-inf"))
    assert not leb.defined_on(fn(unit2, "+inf", "-inf"))
    cap = Capacity.from_measure(unit2)
    cho = make_builtin("choquet", capacity=cap)
    assert cho.defined_on(fn(unit2, 0, 2))
    assert not cho.defined_on(fn(unit2, -1, 2))


def test_cone_domain_tags(unit2):
    plus_only = Functional("plus", "L1_PLUS", lebesgue_extended)
    assert plus_only.defined_on(fn(unit2, 1, "-inf"))
    assert not plus_only.defined_on(fn(unit2, "+inf", 0))
    assert plus_only.defined_on(fn(unit2, 1, 2))  # L1_FULL is in both cones
    full_only = Functional("full", "L1_FULL", lebesgue_extended)
    assert full_only.defined_on(fn(unit2, 1, 2))
    assert not full_only.defined_on(fn(unit2, 1, "-inf"))


def test_every_registered_builtin_passes_order_check():
    space = MeasureSpace(["a", "b", "c"], [1, 0, Fraction(1, 2)])
    functionals = parameterless_builtins()
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
                if phi.defined_on(f) and phi.defined_on(g):
                    assert phi(f) <= phi(g), (phi, f.values, g.values)


def test_broken_functional_reports_witness(unit2):
    broken = Functional(
        "minus_integral", "semi_integrable",
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
    const = Functional("const", "all", lambda f: ext(7), order_preserving=False)
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
