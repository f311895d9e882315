"""Every finite value a computation returns is in its backing's form.

Extended reals are plain scalars and nothing re-coerces an intermediate
result, so each operation must return its finite results in the backing's
form itself: under rational backing an int when integral and a Fraction
otherwise, never a float; under float backing a float, including empty
sums, zero gaps and 0 * inf.
"""

import importlib
import random
from fractions import Fraction

import pytest

from interlab.cli import main
from interlab.decomposable import Integrand, SelectionSet, verify_rw_interchange
from interlab.extreal import NEG_INF, POS_INF, ext, set_backing, to_jsonable
from interlab.fnlattice import FnClass, fn_neg, lp_norm, pointwise_inf, pos_neg_parts
from interlab.functionals import make_builtin
from interlab.integrals import Capacity, choquet, part_integrals
from interlab.interchange import SequenceSpec, check_seq_inf_continuity, verify_interchange
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
    set_backing(request.param)
    yield request.param
    set_backing("rational")


def test_oracle_campaign_keeps_the_backing_form(backing):
    rng = random.Random(11)
    seen = []
    for _ in range(200):
        instance = random_instance(rng)
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
    space = MeasureSpace(["a", "b"], [1, 0])
    zero = FnClass(space, [0, 0])
    cap = Capacity.from_measure(space)
    seen = [measure(space, []), choquet(zero, cap), lp_norm(zero, 1)]
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
    # Every value a report prints goes through to_jsonable: record them all.
    seen = []

    def recording(x):
        seen.append(x)
        return to_jsonable(x)

    for name in ("decomposable", "fnlattice", "integrals", "interchange", "measure",
                 "scenario"):
        monkeypatch.setattr(importlib.import_module(f"interlab.{name}"), "to_jsonable",
                            recording)
    monkeypatch.setenv("INTERLAB_BACKING", backing)
    cases = {**SELECTION_CASES, **INTERCHANGE_CASES,
             "oracle": ["oracle", "--trials", "50", "--seed", "2"]}
    for name, argv in cases.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
    assert len(seen) > 300
    assert_backing_form(seen, backing)


@pytest.mark.parametrize("raw", [0, 3, "1/2", 0.7, 10 ** 20, "+inf", "-inf"])
def test_ext_keeps_the_backing_form(backing, raw):
    assert_backing_form([ext(raw)], backing)
