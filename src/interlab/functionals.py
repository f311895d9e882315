"""Order-preserving functionals from the function lattice to the extended reals.

A Functional bundles an evaluation map with its validity domain and a
declared order-preservation flag.  The flag is a declaration, not a proof:
the interchange verifier checks it on each family it is given, where the
theorem uses it, and raises InvariantError when a counterexample
contradicts it.

Built-ins: extended Lebesgue integral (semi-integrable functions), outer and
inner integrals (all functions), Choquet integral for a given capacity
(one-signed functions), essential supremum, and post-composition with a
nondecreasing scalar map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .errors import InputError
from .extreal import Scalar, ext, to_text
from .fnlattice import FnClass, IntegrabilityTag, classify, ess_sup_value
from .integrals import (
    Capacity,
    choquet,
    inner_integral,
    lebesgue_extended,
    outer_integral,
)

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
    domain: str
    eval_fn: Callable[[FnClass], Scalar]
    order_preserving: bool = True

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
        return Functional("extended_lebesgue", DOMAIN_SEMI_INTEGRABLE, lebesgue_extended)
    if kind == "outer":
        return Functional("outer", DOMAIN_ALL, outer_integral)
    if kind == "inner":
        return Functional("inner", DOMAIN_ALL, inner_integral)
    if kind == "ess_sup":
        return Functional("ess_sup", DOMAIN_ALL, ess_sup_value)
    if kind == "choquet":
        if capacity is None:
            raise InputError("choquet functional needs a capacity")
        cap = capacity
        return Functional(name or "choquet", DOMAIN_NONNEGATIVE, lambda f: choquet(f, cap))
    if kind == "post_compose":
        if base is None or mapping is None:
            raise InputError("post_compose needs a base functional and a mapping")
        _validate_nondecreasing(mapping)
        return Functional(
            name or f"post({base.name})", base.domain,
            lambda f: mapping(base.eval_fn(f)),
            order_preserving=base.order_preserving,
        )
    raise InputError(f"unknown builtin functional kind {kind!r}")


def parameterless_builtins() -> List[Functional]:
    return [make_builtin(k) for k in ("extended_lebesgue", "outer", "inner", "ess_sup")]
