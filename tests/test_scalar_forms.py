"""Every finite value a computation returns is in its backing's form, and
the two backings never mix.

Extended reals are plain scalars and nothing re-coerces an intermediate
result, so each operation must return its finite results in the backing's
form itself: under rational backing an int when integral and a Fraction
otherwise, never a float; under float backing a float, including empty
sums, zero gaps and 0 * inf.

The backing belongs to a measure space, so objects on spaces of different
backings are on different spaces: combining them raises InputError, and no
call, not even an in-process float run of the CLI, changes the backing of
a space built later.
"""

import dataclasses
import importlib
import random
from fractions import Fraction

import pytest

from interlab.cli import main
from interlab.decomposable import Integrand, SelectionSet, verify_rw_interchange
from interlab.errors import InputError
from interlab.extreal import NEG_INF, POS_INF, Report, ext, to_json, to_jsonable
from interlab.fnlattice import FnClass, fn_add, fn_neg, lp_norm, pointwise_inf, pos_neg_parts
from interlab.functionals import make_builtin
from interlab.integrals import Capacity, choquet, part_integrals
from interlab.interchange import Family, SequenceSpec, check_seq_inf_continuity, verify_interchange
from interlab.measure import MeasureSpace, measure
from interlab.oracle import random_instance

from test_golden import INTERCHANGE_CASES, SELECTION_CASES

BACKINGS = ("rational", "float")


def assert_backing_form(values, backing):
    for v in values:
        if v is None or v in (POS_INF, NEG_INF):
            continue
        if backing == "float":
            assert type(v) is float, (v, type(v))
        else:
            assert type(v) in (int, Fraction), (v, type(v))
            assert (type(v) is int) == (Fraction(v).denominator == 1), v


@pytest.fixture(params=BACKINGS)
def backing(request):
    return request.param


def test_oracle_campaign_keeps_the_backing_form(backing):
    rng = random.Random(11)
    seen = []
    for _ in range(200):
        instance = random_instance(rng, backing=backing)
        members = list(instance.family.members)
        members.append(pointwise_inf(members))
        for f in members:
            seen += f.values
            seen += part_integrals(f)
            seen += [v for g in pos_neg_parts(f) + (fn_neg(f),) for v in g.values]
            seen.append(lp_norm(f, 1))
            if instance.functional.defined_on(f):
                seen.append(instance.functional(f))
        report = verify_interchange(instance.family, instance.functional)
        seen += [report.lhs, report.rhs]
    assert_backing_form(seen, backing)


def test_empty_sums_and_zero_gaps_keep_the_backing_form(backing):
    space = MeasureSpace(["a", "b"], [1, 0], backing=backing)
    zero = FnClass(space, [0, 0])
    cap = Capacity.from_measure(space)
    seen = [measure(space, []), choquet(zero, cap), lp_norm(zero, 1)]
    # A total of Fraction weights that is integral is an int.
    seen.append(MeasureSpace(["a", "b"], ["1/2", "1/2"], backing=backing).total_mass())
    seen += part_integrals(zero) + part_integrals(FnClass(space, [1, "-inf"]))
    for f in (zero, FnClass(space, ["+inf", 0]), FnClass(space, [3, 1])):
        report = check_seq_inf_continuity(
            make_builtin("outer"), SequenceSpec(generator=lambda n, f=f: f, prefix_len=3))
        assert report.gaps == [0, 0, 0]
        seen += report.gaps + report.prefix_values + [report.rhs]
    integrand = Integrand(space, [[0], [1]], [[0, "+inf"], [0, 0]])
    rw = verify_rw_interchange(integrand, SelectionSet.full_product(2, 2))
    seen += [rw.lhs, rw.rhs]
    assert_backing_form(seen, backing)


def test_reported_values_keep_the_backing_form(backing, monkeypatch, tmp_path):
    # Every extended real a report prints is a field annotated Scalar or a
    # list in a sequence report's prefix, and every other value printed goes
    # through to_jsonable: record them all.
    seen = []

    def recording(x):
        seen.append(x)
        return to_jsonable(x)

    def recording_report(report):
        for f in dataclasses.fields(report):
            value = getattr(report, f.name)
            if "Scalar" in str(f.type):
                seen.extend(value if isinstance(value, list) else [value])
            elif f.name == "prefix" and value is not None:
                seen.extend(v for vs in value.values() if isinstance(vs, list) for v in vs)
        return to_json(report)

    for name in ("extreal", "fnlattice", "integrals", "measure", "scenario"):
        monkeypatch.setattr(importlib.import_module(f"interlab.{name}"), "to_jsonable",
                            recording)
    monkeypatch.setattr(Report, "to_json_dict", recording_report)
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    cases = {**SELECTION_CASES, **INTERCHANGE_CASES,
             "oracle": ["oracle", "--trials", "50", "--seed", "2"]}
    for name, argv in cases.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
    assert len(seen) > 300
    assert_backing_form(seen, backing)


class Ratio(Fraction):
    """A Fraction subclass, as an API caller may pass one."""


@pytest.mark.parametrize("raw", [0, 3, "1/2", 0.7, 10 ** 20, "+inf", "-inf",
                                 Ratio(1, 3), Ratio(3, 1)])
def test_ext_keeps_the_backing_form(backing, raw):
    assert_backing_form([ext(raw, backing)], backing)


# Mixing ---------------------------------------------------------------------

def thirds(backing):
    """The function (1/3, 1/3) on two atoms of weight 1."""
    return FnClass(MeasureSpace(["a", "b"], [1, 1], backing=backing), ["1/3", "1/3"])


def test_a_float_cli_run_leaves_new_spaces_exact(monkeypatch, tmp_path):
    monkeypatch.setenv("INTERLAB_BACKING", "float")
    assert main(["gallery", "giner-pair", "--out", str(tmp_path / "r.json")]) == 0
    monkeypatch.delenv("INTERLAB_BACKING")
    weight = MeasureSpace(["a"], ["1/3"]).weights[0]
    assert type(weight) is Fraction and weight == Fraction(1, 3)


def test_spaces_of_different_backings_differ():
    exact, approx = thirds("rational").space, thirds("float").space
    assert exact != approx
    assert len({exact, approx}) == 2


def test_a_family_across_backings_raises():
    with pytest.raises(InputError):
        verify_interchange(Family([thirds("float"), thirds("rational")]),
                           make_builtin("extended_lebesgue"))


def test_fn_add_across_backings_raises():
    with pytest.raises(InputError):
        fn_add(thirds("float"), thirds("rational"))


def test_choquet_across_backings_raises():
    with pytest.raises(InputError):
        choquet(thirds("float"), Capacity.from_measure(thirds("rational").space))


def test_a_float_tolerance_is_read_exactly_by_a_rational_verify():
    # The gap min Phi(X) - Phi(inf X) is the binary value of the float 0.1,
    # just above 1/10: the tolerance 0.1, read as 1/10, does not cover it.
    gap = Fraction(0.1)
    assert gap > Fraction(1, 10)
    space = MeasureSpace(["a", "b"], [1, 1])
    family = Family([FnClass(space, [0, gap]), FnClass(space, [gap, 0])])
    leb = make_builtin("extended_lebesgue")
    assert verify_interchange(family, leb, tolerance=0.1).interchange_holds == "fails"
    assert verify_interchange(family, leb, tolerance=gap).interchange_holds == "holds"
