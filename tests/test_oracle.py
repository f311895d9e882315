import json
import random

import interlab.oracle as oracle_mod
from interlab.cli import main
from interlab.fnlattice import classify
from interlab.functionals import make_builtin
from interlab.interchange import Family, is_phi_inf_directed, verify_interchange
from interlab.oracle import (
    OracleInstance,
    random_capacity,
    random_instance,
    random_semi_integrable,
    random_space,
    run_campaign,
    shrink_instance,
)


def test_campaign_is_clean_and_deterministic():
    a = run_campaign(150, seed=5)
    b = run_campaign(150, seed=5)
    assert a.violations == 0
    assert a.to_json_dict() == b.to_json_dict()
    assert sum(a.by_functional.values()) == 150


def test_random_semi_integrable_is_semi_integrable():
    rng = random.Random(0)
    for _ in range(300):
        space = random_space(rng, 6)
        assert classify(random_semi_integrable(rng, space)).semi_integrable


def test_random_capacity_is_monotone_by_construction():
    rng = random.Random(1)
    for _ in range(50):
        space = random_space(rng, 4)
        random_capacity(rng, space)  # Capacity.__init__ validates monotonicity


def test_minimal_scenario_round_trips_through_check(tmp_path):
    rng = random.Random(3)
    for _ in range(20):
        inst = random_instance(rng, max_atoms=4, max_family=3)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_scenario_dict()))
        assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_shrinker_reaches_a_minimal_instance(monkeypatch):
    rng = random.Random(4)
    space = random_space(rng, 1)
    while len(space.atoms) < 4:
        space = random_space(rng, 4)
    phi = make_builtin("ess_sup")
    members = [random_semi_integrable(rng, space) for _ in range(4)]
    instance = OracleInstance(space, Family(members), phi, "ess_sup")

    def fake_violation(inst):
        # Pretend the bug needs at least 2 members and 2 atoms.
        if len(inst.family.members) >= 2 and len(inst.space.atoms) >= 2:
            return "boom"
        return None

    monkeypatch.setattr(oracle_mod, "_violates", fake_violation)
    minimal = shrink_instance(instance)
    assert len(minimal.family.members) == 2
    assert len(minimal.space.atoms) == 2


def test_shortcut_agrees_across_random_corpus():
    rng = random.Random(6)
    for _ in range(200):
        inst = random_instance(rng, max_atoms=5, max_family=4)
        res = is_phi_inf_directed(inst.family, inst.functional)
        assert res.shortcut_agrees is True


def test_verify_interchange_under_float_backing():
    rng = random.Random(7)
    for _ in range(100):
        inst = random_instance(rng, max_atoms=4, max_family=3, backing="float")
        report = verify_interchange(inst.family, inst.functional)
        directed = is_phi_inf_directed(inst.family, inst.functional)
        assert (report.interchange_holds == "holds") == directed.directed
