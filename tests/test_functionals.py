from fractions import Fraction

import pytest

from interlab.errors import InputError
from interlab.extreal import ext
from interlab.fnlattice import FnClass
from interlab.functionals import (
    Functional,
    check_order_preserving,
    make_builtin,
    parameterless_builtins,
)
from interlab.integrals import Capacity, lebesgue_extended
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
    leb = make_builtin("extended_lebesgue")
    assert leb.order_preserving and leb.seq_inf_continuous
    ess = make_builtin("ess_sup")
    assert ess.order_preserving and not ess.seq_inf_continuous
    outer = make_builtin("outer")
    assert outer.order_preserving and not outer.seq_inf_continuous


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
    report = check_order_preserving(plus_only, unit2, trials=100, seed=1)
    assert report.ok


def test_every_registered_builtin_passes_order_check(unit2):
    space = MeasureSpace(["a", "b", "c"], [1, 0, Fraction(1, 2)])
    functionals = parameterless_builtins()
    functionals.append(
        make_builtin("choquet", capacity=Capacity.distortion(space, 0.8))
    )
    for phi in functionals:
        for seed in (0, 1, 12345):
            report = check_order_preserving(phi, space, trials=150, seed=seed)
            assert report.ok, report.summary()


def test_broken_functional_reports_witness(unit2):
    broken = Functional(
        "minus_integral", "semi_integrable",
        lambda f: -lebesgue_extended(f),
        order_preserving=False,
    )
    report = check_order_preserving(broken, unit2, trials=300, seed=0)
    assert not report.ok
    f, g, vf, vg = report.violations[0]
    assert not vf <= vg  # the witness pair really is a violation


def test_constant_functional_has_no_violations(unit2):
    const = Functional("const", "all", lambda f: ext(7), order_preserving=False)
    report = check_order_preserving(const, unit2, trials=100, seed=3)
    assert report.ok


def test_post_compose_monotone_map(unit2):
    leb = make_builtin("extended_lebesgue")
    clip = make_builtin(
        "post_compose", base=leb,
        mapping=lambda v: min(max(v, ext(-1)), ext(1)),
    )
    assert clip(fn(unit2, 5, 5)) == ext(1)
    assert clip(fn(unit2, -5, -5)) == ext(-1)
    assert clip.order_preserving
    report = check_order_preserving(clip, unit2, trials=150, seed=0)
    assert report.ok


def test_post_compose_rejects_non_monotone(unit2):
    leb = make_builtin("extended_lebesgue")
    with pytest.raises(InputError):
        make_builtin(
            "post_compose", base=leb,
            mapping=lambda v: -v,
        )
