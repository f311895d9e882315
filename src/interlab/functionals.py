"""Order-preserving functionals from the function lattice to the extended reals.

A Functional bundles an evaluation map with a declared order-preservation
flag.  The flag is a declaration, not a proof: the interchange verifier
checks it on each family it is given, where the theorem uses it, and raises
InvariantError when a counterexample contradicts it.

Built-ins: extended Lebesgue integral, outer and inner integrals, Choquet
integral for a given capacity, essential supremum, and post-composition with
a nondecreasing scalar map.  No domain is declared: each integral raises
DomainError on a function it is not defined on (the extended Lebesgue
integral on one whose parts both diverge, Choquet on one of mixed sign), and
post-composition raises what its base raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .errors import InputError
from .extreal import Scalar, ext, to_text
from .fnlattice import FnClass, ess_sup_value
from .integrals import (
    Capacity,
    choquet,
    inner_integral,
    lebesgue_extended,
    outer_integral,
)


@dataclass(frozen=True)
class Functional:
    """A named map Phi from functions to extended reals.

    ``eval_fn`` must be a pure function of the representative values of its
    argument: the directedness scan scores each distinct infimum once and
    reuses that score for every subset with the same infimum, and a
    sequence prefix reuses the previous term's score when a member lowers
    the running infimum nowhere.  For the built-in integrals and ess_sup
    the scan may judge an infimum with the rank table that
    ``integrals.RANK_TABLES`` keeps for ``eval_fn`` instead of calling it,
    and under rational backing a sequence prefix scores the built-in
    integrals from running parts (``integrals.RunningParts``), so a table
    must agree with ``eval_fn`` on whether each infimum it judges passes
    the scan's bound, and running parts in value and in type on every
    function they score.
    """

    name: str
    eval_fn: Callable[[FnClass], Scalar]
    order_preserving: bool = True

    def __call__(self, f: FnClass) -> Scalar:
        return self.eval_fn(f)

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
        return Functional("extended_lebesgue", lebesgue_extended)
    if kind == "outer":
        return Functional("outer", outer_integral)
    if kind == "inner":
        return Functional("inner", inner_integral)
    if kind == "ess_sup":
        return Functional("ess_sup", ess_sup_value)
    if kind == "choquet":
        if capacity is None:
            raise InputError("choquet functional needs a capacity")
        cap = capacity
        return Functional(name or "choquet", lambda f: choquet(f, cap))
    if kind == "post_compose":
        if base is None or mapping is None:
            raise InputError("post_compose needs a base functional and a mapping")
        _validate_nondecreasing(mapping)
        return Functional(
            name or f"post({base.name})", lambda f: mapping(base.eval_fn(f)),
            order_preserving=base.order_preserving,
        )
    raise InputError(f"unknown builtin functional kind {kind!r}")


def parameterless_builtins() -> List[Functional]:
    return [make_builtin(k) for k in ("extended_lebesgue", "outer", "inner", "ess_sup")]
