import random
from fractions import Fraction

import pytest

from interlab.errors import InputError
from interlab.extreal import ext
from interlab.measure import MeasureSpace, is_null, iter_atom_subsets, measure


@pytest.fixture
def space():
    return MeasureSpace(["a", "b", "c"], [1, 0, 2])


def test_measure_examples(space):
    assert measure(space, {"a", "c"}) == ext(3)
    assert measure(space, set()) == ext(0)
    assert measure(space, {"b"}) == ext(0)


def test_is_null_examples(space):
    assert is_null(space, {"b"})
    assert is_null(space, set())
    assert not is_null(space, {"a"})


def test_unknown_atom_rejected(space):
    with pytest.raises(InputError):
        measure(space, {"z"})


def test_constructor_validation():
    with pytest.raises(InputError):
        MeasureSpace([], [])
    with pytest.raises(InputError):
        MeasureSpace(["a", "a"], [1, 1])
    with pytest.raises(InputError):
        MeasureSpace(["a"], [-1])
    with pytest.raises(InputError):
        MeasureSpace(["a"], [1, 2])


def test_additivity_and_monotonicity_random():
    rng = random.Random(7)
    space = MeasureSpace(list("abcd"), [rng.choice([0, 1, 2, Fraction(1, 2)]) for _ in range(4)])
    subsets = list(iter_atom_subsets(space))
    for s in subsets:
        for t in subsets:
            if not s & t:
                assert (
                    measure(space, s | t)
                    == measure(space, s) + measure(space, t)
                )
            if s <= t:
                assert measure(space, s) <= measure(space, t)


def test_total_mass_and_null_atoms(space):
    assert space.total_mass() == 3
    assert list(space.non_null_indices()) == [0, 2]
    assert space.is_null_atom(1)


def test_json_roundtrip():
    space = MeasureSpace(["x", "y"], [Fraction(1, 3), 1], truncation_of="demo")
    d = space.to_json_dict()
    assert d["weights"][0] == "1/3"
    back = MeasureSpace.from_json_dict(d)
    assert back == space


def test_iter_atom_subsets_counts(space):
    assert len(list(iter_atom_subsets(space))) == 8


HASH_SEED_PROBE = """
from interlab.integrals import Capacity
from interlab.measure import MeasureSpace, measure
space = MeasureSpace(["a", "b", "c", "d"], [0.1, 0.2, 0.3, 0.7], backing="float")
print(repr(measure(space, {"a", "b", "c", "d"})), repr(measure(space, {"d", "c", "b"})))
print(repr(Capacity.from_measure(space).of({"a", "b", "c"})))
"""


def test_float_measure_does_not_depend_on_hash_seed():
    # Weights are added in atom order: 0.1 + 0.2 + 0.3 + 0.7, not in the
    # order of a frozenset, which the hash seed decides.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import interlab

    src = str(Path(interlab.__file__).resolve().parent.parent)
    outputs = set()
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    in_atom_order = (0.1 + 0.2 + 0.3 + 0.7, 0.2 + 0.3 + 0.7, 0.1 + 0.2 + 0.3)
    assert outputs == {"%r %r\n%r\n" % in_atom_order}
