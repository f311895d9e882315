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

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .errors import InputError
from .extreal import Scalar, ext, to_text
from .fnlattice import FnClass, ess_sup_table, ess_sup_value
from .integrals import LEBESGUE_KINDS, Capacity, _integral_table, choquet


@dataclass(frozen=True)
class Functional:
    """A named map Phi from functions to extended reals.

    ``eval_fn`` must be a pure function of the representative values of its
    argument: the directedness scan scores each distinct infimum once and
    reuses that score for every subset with the same infimum, and a
    sequence prefix reuses the previous term's score when a member lowers
    the running infimum nowhere.

    ``parts`` and ``rank_table`` are optional fast paths, which
    ``make_builtin`` sets; without them Phi takes the generic path, to the
    same output.  ``parts`` combines an integral's part integrals (integral
    of f+, integral of f-) into its value: under rational backing a
    sequence prefix then scores Phi from running parts
    (``integrals.RunningParts``), and ``decomposable``'s selection fold
    from exact codes.  ``rank_table(space, fields, lhs, tol)`` builds None
    or a table that maps the key of a subset infimum to whether
    ``_leq_within(lhs, Phi(infimum), tol)`` holds, or to None where
    ``eval_fn`` must run (``interchange._scan_subsets``).  Each must agree
    with ``eval_fn``: parts in value and in type on every function they
    score, a table on every infimum it judges.  Neither takes part in
    equality or hashing.
    """

    name: str
    eval_fn: Callable[[FnClass], Scalar]
    order_preserving: bool = True
    parts: Optional[Callable[[Scalar, Scalar], Scalar]] = field(default=None, compare=False)
    rank_table: Optional[Callable] = field(default=None, compare=False)

    def __call__(self, f: FnClass) -> Scalar:
        return self.eval_fn(f)

    def __repr__(self) -> str:
        return f"Functional({self.name!r})"


# The parameterless built-ins, with their fast paths; frozen, so shared.
_PARAMETERLESS = {
    **{kind: Functional(kind, integral, parts=combine,
                        rank_table=partial(_integral_table, combine))
       for kind, (integral, combine) in LEBESGUE_KINDS.items()},
    "ess_sup": Functional("ess_sup", ess_sup_value, rank_table=ess_sup_table),
}


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
    if kind in _PARAMETERLESS:
        return _PARAMETERLESS[kind]
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
