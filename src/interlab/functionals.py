"""Order-preserving functionals from the function lattice to the extended reals.

A Functional bundles an evaluation map with its validity domain and two
declared property flags: order preservation and sequential-inf continuity.
The flags are declarations backed by sampling (``check_order_preserving``),
not proofs; the interchange verifier annotates its reports accordingly.

Built-ins: extended Lebesgue integral (semi-integrable functions), outer and
inner integrals (all functions), Choquet integral for a given capacity
(one-signed functions), essential supremum, and post-composition with a
nondecreasing scalar map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import InputError
from .extreal import POS_INF, Scalar, ext, to_text
from .fnlattice import FnClass, IntegrabilityTag, classify, ess_sup_value
from .integrals import (
    Capacity,
    choquet,
    inner_integral,
    lebesgue_extended,
    outer_integral,
)
from .measure import MeasureSpace

DOMAIN_SEMI_INTEGRABLE = "semi_integrable"
DOMAIN_NONNEGATIVE = "nonnegative"
DOMAIN_ALL = "all"
# A domain may also name one integrability cone: "L1_FULL", "L1_PLUS",
# "L1_MINUS" (cone membership, so L1_FULL functions belong to both).


@dataclass(frozen=True)
class Functional:
    """A named map Phi from functions to extended reals.

    ``eval_fn`` must be a pure function of the representative values of its
    argument: the directedness scan scores each distinct infimum once and
    reuses that score for every subset with the same infimum.
    """

    name: str
    domain: str
    eval_fn: Callable[[FnClass], Scalar]
    order_preserving: bool = True
    seq_inf_continuous: bool = False

    def __call__(self, f: FnClass) -> Scalar:
        return self.eval_fn(f)

    def defined_on(self, f: FnClass) -> bool:
        if self.domain == DOMAIN_ALL:
            return True
        if self.domain == DOMAIN_SEMI_INTEGRABLE:
            return classify(f).semi_integrable
        if self.domain == DOMAIN_NONNEGATIVE:
            return all(f.values[i] >= 0 for i in f.space.non_null_indices())
        if self.domain == "L1_FULL":
            return classify(f) is IntegrabilityTag.L1_FULL
        if self.domain == "L1_PLUS":
            return classify(f).in_l1_plus
        if self.domain == "L1_MINUS":
            return classify(f).in_l1_minus
        return True

    def __repr__(self) -> str:
        return f"Functional({self.name!r})"


_PROBE_GRID = ["-inf", -3, -1, "-1/2", 0, "1/2", 1, 3, "+inf"]


def _validate_nondecreasing(mapping: Callable[[Scalar], Scalar]) -> None:
    probes = [ext(x) for x in _PROBE_GRID]
    images = [mapping(p) for p in probes]
    for a, b in zip(images, images[1:]):
        if not a <= b:
            raise InputError(
                f"post-composition map is not nondecreasing on the probe grid "
                f"({to_text(a)} > {to_text(b)})"
            )


def make_builtin(
    kind: str,
    capacity: Optional[Capacity] = None,
    base: Optional[Functional] = None,
    mapping: Optional[Callable[[Scalar], Scalar]] = None,
    name: Optional[str] = None,
) -> Functional:
    """Construct one of the registered functional kinds.

    ``choquet`` needs a capacity; ``post_compose`` needs a base functional
    and a nondecreasing map on the extended reals (checked on a probe grid).
    """
    if kind == "extended_lebesgue":
        return Functional(
            "extended_lebesgue", DOMAIN_SEMI_INTEGRABLE, lebesgue_extended,
            order_preserving=True, seq_inf_continuous=True,
        )
    if kind == "outer":
        return Functional("outer", DOMAIN_ALL, outer_integral,
                          order_preserving=True, seq_inf_continuous=False)
    if kind == "inner":
        return Functional("inner", DOMAIN_ALL, inner_integral,
                          order_preserving=True, seq_inf_continuous=False)
    if kind == "ess_sup":
        return Functional("ess_sup", DOMAIN_ALL, ess_sup_value,
                          order_preserving=True, seq_inf_continuous=False)
    if kind == "choquet":
        if capacity is None:
            raise InputError("choquet functional needs a capacity")
        cap = capacity
        return Functional(
            name or "choquet", DOMAIN_NONNEGATIVE, lambda f: choquet(f, cap),
            order_preserving=True, seq_inf_continuous=True,
        )
    if kind == "post_compose":
        if base is None or mapping is None:
            raise InputError("post_compose needs a base functional and a mapping")
        _validate_nondecreasing(mapping)
        return Functional(
            name or f"post({base.name})", base.domain,
            lambda f: mapping(base.eval_fn(f)),
            order_preserving=base.order_preserving, seq_inf_continuous=False,
        )
    raise InputError(f"unknown builtin functional kind {kind!r}")


def parameterless_builtins() -> List[Functional]:
    return [make_builtin(k) for k in ("extended_lebesgue", "outer", "inner", "ess_sup")]


@dataclass
class OrderCheckReport:
    functional: str
    trials: int
    violations: List[Tuple[FnClass, FnClass, Scalar, Scalar]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"order-preservation check for {self.functional}: {self.trials} trials, {state}"


_DEFAULT_VALUE_GRID = ["-inf", -2, -1, 0, "1/2", 1, 3, "+inf"]


def _random_in_domain(
    rng: random.Random, phi: Functional, space: MeasureSpace, grid: Sequence[Scalar]
) -> FnClass:
    pool = (
        [v for v in grid if v >= 0]
        if phi.domain == DOMAIN_NONNEGATIVE
        else list(grid)
    )
    for attempt in range(500):
        if attempt == 200:
            pool = [v for v in pool if abs(v) != POS_INF]  # cheap fallback domain
        f = FnClass(space, [rng.choice(pool) for _ in space.atoms])
        if phi.defined_on(f):
            return f
    raise InputError(
        f"could not sample the domain {phi.domain!r} from the value grid"
    )


def _raise_values(
    rng: random.Random, f: FnClass, grid: Sequence[Scalar]
) -> FnClass:
    values = []
    for v in f.values:
        higher = [g for g in grid if g >= v]
        values.append(rng.choice(higher) if higher else v)
    return FnClass(f.space, values)


def check_order_preserving(
    phi: Functional,
    space: MeasureSpace,
    trials: int = 200,
    seed: int = 0,
    value_grid: Optional[Sequence] = None,
) -> OrderCheckReport:
    """Sample mu-comparable pairs in the domain and test monotonicity.

    Pairs are built by raising values atomwise (so f <= g pointwise, hence
    also mu-a.e.); pairs falling outside the domain are resampled.  Any
    violation is reported together with the witness pair.
    """
    grid = [ext(v, space.backing) for v in (value_grid or _DEFAULT_VALUE_GRID)]
    rng = random.Random(seed)
    report = OrderCheckReport(phi.name, trials)
    for _ in range(trials):
        for _attempt in range(50):
            f = _random_in_domain(rng, phi, space, grid)
            g = _raise_values(rng, f, grid)
            if phi.defined_on(g):
                break
        else:
            continue
        vf, vg = phi(f), phi(g)
        if not vf <= vg:
            report.violations.append((f, g, vf, vg))
    return report
