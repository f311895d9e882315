"""Randomized verification campaigns for the interchange equivalence.

Every instance draws a small space, a family inside the functional's
domain, and one of the registered functionals, then asks the verifier to
cross-check the interchange verdict against the directedness scan (the
verifier raises InvariantError on any disagreement).  Under rational
backing all comparisons are exact, so the expected violation count is zero.

A failing instance is greedily shrunk (drop members, then atoms) to a
minimal instance, which the summary reports as the ``check`` scenario that
``scenario.write_check`` writes for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from .errors import InterlabError, InvariantError
from .extreal import NEG_INF, POS_INF, Report, Scalar, ext
from .fnlattice import FnClass
from .functionals import Functional, make_builtin
from .integrals import Capacity
from .interchange import Family, verify_interchange
from .measure import MeasureSpace, iter_atom_subsets
from .scenario import write_check

WEIGHT_GRID = [0, "1/2", 1, 2]
FINITE_VALUE_GRID = [-2, -1, 0, "1/2", 1, 3]
NONNEG_VALUE_GRID = [0, "1/2", 1, 2, 3]
CAPACITY_INCREMENTS = [0, "1/4", "1/2", 1]

FUNCTIONAL_KINDS = ("extended_lebesgue", "choquet", "ess_sup")


def random_space(rng: random.Random, max_atoms: int, backing: str = "rational") -> MeasureSpace:
    n = rng.randint(1, max_atoms)
    weights = [rng.choice(WEIGHT_GRID) for _ in range(n)]
    return MeasureSpace([f"w{i}" for i in range(n)], weights, backing=backing)


def random_semi_integrable(rng: random.Random, space: MeasureSpace) -> FnClass:
    # One infinity sign per member on non-null atoms keeps it semi-integrable;
    # null atoms may carry anything, including the opposite infinity.
    sign = rng.choice([POS_INF, NEG_INF])
    values = []
    for i in range(len(space.atoms)):
        if space.is_null_atom(i) and rng.random() < 0.2:
            values.append(rng.choice([POS_INF, NEG_INF]))
        elif rng.random() < 0.15:
            values.append(sign)
        else:
            values.append(rng.choice(FINITE_VALUE_GRID))
    return FnClass(space, values)


def random_nonneg(rng: random.Random, space: MeasureSpace) -> FnClass:
    values = []
    for i in range(len(space.atoms)):
        if space.is_null_atom(i) and rng.random() < 0.2:
            values.append(-1)
        elif rng.random() < 0.08:
            values.append(POS_INF)
        else:
            values.append(rng.choice(NONNEG_VALUE_GRID))
    return FnClass(space, values)


def random_any(rng: random.Random, space: MeasureSpace) -> FnClass:
    grid = FINITE_VALUE_GRID + ["+inf", "-inf"]
    return FnClass(space, [rng.choice(grid) for _ in space.atoms])


def random_capacity(
    rng: random.Random, space: MeasureSpace, allow_infinite: bool = True
) -> Capacity:
    # Build monotone values size layer by size layer; rare +inf plateaus.
    table: Dict[frozenset, Scalar] = {}
    for s in iter_atom_subsets(space):
        if not s:
            table[s] = 0
            continue
        floor = max(table[s - {a}] for a in s)
        if floor == POS_INF or (allow_infinite and rng.random() < 0.03):
            table[s] = POS_INF
        else:
            table[s] = floor + ext(rng.choice(CAPACITY_INCREMENTS), space.backing)
    return Capacity(space, table)


def random_family(
    rng: random.Random, space: MeasureSpace, max_family: int, domain: str
) -> Family:
    n = rng.randint(1, max_family)
    draw = {
        "semi_integrable": random_semi_integrable,
        "nonnegative": random_nonneg,
        "all": random_any,
    }[domain]
    return Family([draw(rng, space) for _ in range(n)])


@dataclass
class OracleInstance:
    space: MeasureSpace
    family: Family
    functional: Functional
    kind: str
    capacity: Optional[Capacity] = None


def random_instance(
    rng: random.Random, max_atoms: int = 6, max_family: int = 5, backing: str = "rational"
) -> OracleInstance:
    space = random_space(rng, max_atoms, backing)
    kind = rng.choice(FUNCTIONAL_KINDS)
    if kind == "choquet":
        cap = random_capacity(rng, space)
        phi = make_builtin("choquet", capacity=cap)
        fam = random_family(rng, space, max_family, "nonnegative")
        return OracleInstance(space, fam, phi, kind, capacity=cap)
    phi = make_builtin(kind)
    domain = "semi_integrable" if kind == "extended_lebesgue" else "all"
    fam = random_family(rng, space, max_family, domain)
    return OracleInstance(space, fam, phi, kind)


def _violates(instance: OracleInstance) -> Optional[str]:
    try:
        verify_interchange(instance.family, instance.functional)
    except InvariantError as e:
        return str(e)
    except InterlabError as e:  # domain/input problems are generator bugs here
        return f"unexpected error: {e}"
    return None


def shrink_instance(instance: OracleInstance) -> OracleInstance:
    """Greedy shrink: drop members, then atoms, while the violation persists."""
    current = instance
    changed = True
    while changed:
        changed = False
        members = list(current.family.members)
        if len(members) > 1:
            for i in range(len(members)):
                trial_members = members[:i] + members[i + 1:]
                trial = OracleInstance(
                    current.space, Family(trial_members), current.functional,
                    current.kind, current.capacity,
                )
                if _violates(trial):
                    current, changed = trial, True
                    break
        if changed:
            continue
        atoms = current.space.atoms
        if len(atoms) > 1:
            for i in range(len(atoms)):
                keep = [j for j in range(len(atoms)) if j != i]
                space = MeasureSpace(
                    [atoms[j] for j in keep],
                    [current.space.weights[j] for j in keep],
                    backing=current.space.backing,
                )
                fam = Family(
                    [FnClass(space, [m.values[j] for j in keep])
                     for m in current.family.members]
                )
                if current.capacity is not None:
                    cap = Capacity(
                        space,
                        {s: current.capacity.of(s) for s in iter_atom_subsets(space)},
                    )
                    phi = make_builtin("choquet", capacity=cap)
                else:
                    cap = None
                    phi = current.functional
                trial = OracleInstance(space, fam, phi, current.kind, cap)
                if _violates(trial):
                    current, changed = trial, True
                    break
    return current


@dataclass
class CampaignSummary(Report):
    trials: int
    seed: int
    violations: int = 0
    by_functional: Dict[str, int] = field(default_factory=dict)
    first_violation: Optional[dict] = None


def run_campaign(
    trials: int, seed: int, max_atoms: int = 6, max_family: int = 5, backing: str = "rational"
) -> CampaignSummary:
    rng = random.Random(seed)
    summary = CampaignSummary(trials=trials, seed=seed)
    for _ in range(trials):
        instance = random_instance(rng, max_atoms, max_family, backing)
        summary.by_functional[instance.kind] = (
            summary.by_functional.get(instance.kind, 0) + 1
        )
        message = _violates(instance)
        if message is not None:
            summary.violations += 1
            if summary.first_violation is None:
                minimal = shrink_instance(instance)
                summary.first_violation = {
                    "message": message,
                    "scenario": write_check(minimal.space, minimal.family.members,
                                            minimal.kind, minimal.capacity),
                }
    return summary
