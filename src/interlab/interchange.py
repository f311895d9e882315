"""Interchange of minimization and monotone functionals.

The central check: a family X is Phi-inf-directed when, for every finite
subset S of X,

    min over x in X of Phi(x)  <=  Phi(pointwise inf of S),

and for an order-preserving Phi with the family's infimum available this is
equivalent to the interchange formula

    min over x in X of Phi(x)  =  Phi(pointwise inf of X).

``verify_interchange`` computes both sides, runs the directedness scan, and
cross-checks the equivalence; a disagreement is raised as InvariantError,
never reported silently, unless it comes with a counterexample to the order
preservation of a functional that does not declare it.  For
order-preserving functionals there is a shortcut: on a finite family the
subset condition for S = X implies all the others, and the scan asserts
agreement with it.  Each subset is judged
within the report's tolerance, the same one the verdict uses.

Lazily truncated families (finite prefixes of infinite sequences) go through
``verify_interchange_sequence``, which watches the prefix trend of both
sides and declares divergence to -inf once a monotone run crosses the
configured threshold; verdicts then refer to the limit, not the prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, InputError, InvariantError
from .extreal import (
    NEG_INF,
    POS_INF,
    Scalar,
    as_scalar,
    lower_add,
    to_jsonable,
    to_text,
)
from .fnlattice import (
    FnClass,
    IntegrabilityTag,
    classify,
    fn_add,
    fn_neg,
    mu_leq,
    pointwise_inf,
)
from .functionals import Functional
from .integrals import lebesgue_extended

DEFAULT_SUBSET_BUDGET = 12
DEFAULT_DIVERGENCE_THRESHOLD = 10**9
DEFAULT_SAMPLED_SUBSETS = 64


def default_tolerance(backing: str = "rational") -> Scalar:
    return 0 if backing == "rational" else 1e-9


def _tolerance(tolerance: Optional[Scalar], backing: str) -> Scalar:
    """A given tolerance in ``backing``, else that backing's default."""
    tol = default_tolerance(backing) if tolerance is None else as_scalar(tolerance, backing)
    if tol < 0:
        raise InputError(f"tolerance must be nonnegative, got {to_text(tol)}")
    return tol


def _eq_within(a: Scalar, b: Scalar, tol: Scalar) -> bool:
    if NEG_INF < a < POS_INF and NEG_INF < b < POS_INF:
        return abs(lower_add(a, -b)) <= tol
    return a == b


def _leq_within(a: Scalar, b: Scalar, tol: Scalar) -> bool:
    return a <= b or _eq_within(a, b, tol)


@dataclass(frozen=True)
class Family:
    """A nonempty finite family of functions on one shared space."""

    members: Tuple[FnClass, ...]

    def __init__(self, members: Sequence[FnClass]):
        members = tuple(members)
        if not members:
            raise InputError("a family must be nonempty")
        for m in members[1:]:
            if m.space != members[0].space:
                raise InputError("family members live on different spaces")
        object.__setattr__(self, "members", members)

    @property
    def space(self):
        return self.members[0].space


@dataclass
class SequenceSpec:
    """A lazily generated sequence inspected through a finite prefix.

    ``exhaustive`` marks the prefix as the entire sequence (a finite family
    in sequence clothing); otherwise the prefix is a truncation and verdicts
    about the limit rely on trend detection against the divergence
    threshold.
    """

    generator: Callable[[int], FnClass]
    prefix_len: int
    declared_limit: Optional[FnClass] = None
    divergence_threshold: Scalar = DEFAULT_DIVERGENCE_THRESHOLD
    exhaustive: bool = False

    def prefix(self) -> List[FnClass]:
        if self.prefix_len < 1:
            raise InputError("prefix_len must be at least 1")
        members = [self.generator(i) for i in range(self.prefix_len)]
        for m in members[1:]:
            if m.space != members[0].space:
                raise InputError("sequence terms must share one aligned space")
        return members


@dataclass
class DirectednessResult:
    directed: Optional[bool]
    witness: Optional[Tuple[int, ...]]
    mode: str  # "exhaustive" or "sampled"
    shortcut_agrees: Optional[bool] = None

    @property
    def verdict(self) -> str:
        if self.directed is None:
            return "inconclusive"
        return "yes" if self.directed else "no"


@dataclass
class InterchangeReport:
    functional: str
    lhs: Scalar
    rhs: Scalar
    phi_inf_directed: str
    interchange_holds: str
    witness: Optional[Tuple[int, ...]] = None
    notes: List[str] = field(default_factory=list)
    mode: str = "family"
    prefix: Optional[Dict] = None

    @property
    def holds(self) -> bool:
        return self.interchange_holds in ("holds", "holds-in-limit")

    def to_json_dict(self) -> dict:
        d = {
            "functional": self.functional,
            "lhs": to_jsonable(self.lhs),
            "rhs": to_jsonable(self.rhs),
            "phi_inf_directed": self.phi_inf_directed,
            "interchange_holds": self.interchange_holds,
            "witness": list(self.witness) if self.witness is not None else None,
            "notes": list(self.notes),
            "mode": self.mode,
        }
        if self.prefix is not None:
            d["prefix"] = {
                k: ([to_jsonable(v) for v in vs] if isinstance(vs, list) else vs)
                for k, vs in self.prefix.items()
            }
        return d


def is_inf_directed(family: Family) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Every pair must have a lower bound inside the family (mu-order)."""
    members = family.members
    for i, j in combinations(range(len(members)), 2):
        found = any(
            mu_leq(m, members[i]) and mu_leq(m, members[j]) for m in members
        )
        if not found:
            return False, (i, j)
    return True, None


def _nonempty_subsets(n: int):
    for k in range(1, n + 1):
        yield from combinations(range(n), k)


def _sampled_subsets(n: int, seed: int, samples: int):
    seen = set()
    for i in range(n):
        seen.add((i,))
    for pair in combinations(range(n), 2):
        seen.add(pair)
    seen.add(tuple(range(n)))
    rng = random.Random(seed)
    for _ in range(samples):
        subset = tuple(i for i in range(n) if rng.random() < 0.5)
        if subset:
            seen.add(subset)
    return sorted(seen, key=lambda s: (len(s), s))


def _scan_subsets(
    members: Sequence[FnClass],
    score: Callable[[FnClass], Scalar],
    holds: Callable[[Scalar], bool],
    subset_budget: int,
    seed: int,
    samples: int,
    known: Dict[Tuple[int, ...], Scalar],
) -> Tuple[Optional[Tuple[int, ...]], bool, Callable[[Sequence[int]], Scalar]]:
    """Find the first subset S whose infimum fails ``holds(score(inf S))``.

    Subsets come from ``_nonempty_subsets`` while the family is within
    ``subset_budget`` and from ``_sampled_subsets`` beyond it, smallest
    first, so the witness is a smallest violating subset.

    The infimum of a subset takes every atom's value from some member, so
    it is named exactly by one rank per atom: the rank of its value among
    that atom's distinct member values.  Rank r is stored as r one-bits in
    the atom's field of an int (a thermometer code), which turns the
    per-atom minimum into a bitwise AND: a subset's infimum is the AND of
    its members' ints.  ``score`` runs once per distinct infimum, on the
    decoded function; ``known`` gives scores already computed, keyed by
    member indices.  Returns the witness (None when every subset holds),
    whether the scan was exhaustive, and the memoized score of the infimum
    of any index tuple.
    """
    space = members[0].space
    rows = [0] * len(members)
    fields = []  # (distinct values of an atom, bit offset, field mask)
    offset = 0
    for column in zip(*(m.values for m in members)):
        level = sorted(set(column))
        rank = {v: r for r, v in enumerate(level)}
        for j, v in enumerate(column):
            rows[j] |= ((1 << rank[v]) - 1) << offset
        fields.append((level, offset, (1 << (len(level) - 1)) - 1))
        offset += len(level) - 1
    memo: Dict[int, Scalar] = {}
    passed = set()

    def inf_key(idx: Sequence[int]) -> int:
        key = -1
        for i in idx:
            key &= rows[i]
        return key

    def score_key(key: int) -> Scalar:
        value = memo.get(key)
        if value is None:
            values = tuple([lv[((key >> off) & mask).bit_count()]
                            for lv, off, mask in fields])
            value = memo[key] = score(FnClass.from_ext(space, values))
        return value

    for idx, value in known.items():
        memo[inf_key(idx)] = value
    n = len(members)
    exhaustive = n <= subset_budget
    subsets = _nonempty_subsets(n) if exhaustive else _sampled_subsets(n, seed, samples)
    witness = None
    for idx in subsets:
        key = inf_key(idx)
        if key in passed:
            continue
        if not holds(score_key(key)):
            witness = idx
            break
        passed.add(key)
    return witness, exhaustive, lambda idx: score_key(inf_key(idx))


def is_phi_inf_directed(
    family: Family,
    phi: Functional,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLED_SUBSETS,
    *,
    phi_values: Optional[Sequence[Scalar]] = None,
    phi_inf: Optional[Scalar] = None,
    tolerance: Optional[Scalar] = None,
) -> DirectednessResult:
    """Scan finite subsets for the directedness condition.

    A subset S passes when min Phi(X) <= Phi(inf S) within ``tolerance``
    (the default of the family's backing when None), the tolerance of the interchange
    verdict: by monotonicity Phi(inf S) >= Phi(inf X), so the scan agrees
    with the verdict at any tolerance.

    Exhaustive over all 2^n - 1 nonempty subsets while the family size is
    within ``subset_budget``; beyond that, singletons, pairs, the full
    family, and ``samples`` random subsets are checked and the result is
    labeled "sampled".  Subsets are visited smallest first, so the witness
    on failure is a smallest violating subset.

    A subset costs one bitwise AND per member and one set lookup, plus one
    Phi evaluation if its infimum is new: Phi is evaluated once per
    distinct subset infimum, and not at all on the members or on the
    infimum of the whole family when their values are passed as
    ``phi_values`` and ``phi_inf``.  The memo holds at most one entry per subset scanned (2^n - 1 when
    exhaustive) plus the members, and is freed on return.
    """
    tol = _tolerance(tolerance, family.space.backing)
    members = family.members
    n = len(members)
    if phi_values is None:
        phi_values = [phi(x) for x in members]
    lhs = min(phi_values)
    known = {(j,): v for j, v in enumerate(phi_values)}
    if phi_inf is not None:
        known[tuple(range(n))] = phi_inf
    witness, exhaustive, score_inf = _scan_subsets(
        members, phi, lambda v: _leq_within(lhs, v, tol), subset_budget, seed,
        samples, known,
    )
    directed = witness is None
    result = DirectednessResult(
        directed=directed,
        witness=witness,
        mode="exhaustive" if exhaustive else "sampled",
    )
    if exhaustive:
        shortcut = _leq_within(lhs, score_inf(range(n)), tol)
        result.shortcut_agrees = shortcut == directed
        if phi.order_preserving and shortcut != directed:
            _counterexample(family, phi, witness, score_inf(range(n)))
    return result


def _counterexample(
    family: Family, phi: Functional, idx: Optional[Tuple[int, ...]], phi_inf: Scalar
) -> str:
    """Re-check K = inf of the members ``idx``: inf X <= K and, Phi evaluated
    afresh, Phi(K) < ``phi_inf`` = Phi(inf X), else a program fault.  K
    contradicts a declared order-preserving Phi; otherwise returns its note.
    """
    members = family.members
    k = None if idx is None else pointwise_inf([members[i] for i in idx])
    phi_k = None if k is None else phi(k)
    if k is None or not (mu_leq(pointwise_inf(members), k) and phi_k < phi_inf):
        raise InvariantError(
            f"interchange verdict disagrees with the Phi-inf-directedness scan "
            f"for {phi.name}, and members {idx} give no counterexample to "
            f"order preservation"
        )
    found = (
        f"K = inf of members {list(idx)} has inf X <= K but "
        f"Phi(K) = {to_text(phi_k)} < Phi(inf X) = {to_text(phi_inf)}"
    )
    if phi.order_preserving:
        raise InvariantError(f"{phi.name} is declared order-preserving, but {found}")
    return found


def verify_interchange(
    family: Family,
    phi: Functional,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    tolerance: Optional[Scalar] = None,
    seed: int = 0,
    *,
    phi_values: Optional[Sequence[Scalar]] = None,
    phi_inf: Optional[Scalar] = None,
) -> InterchangeReport:
    """Compute both sides of the interchange formula and cross-check.

    The theorem uses monotonicity only as Phi(inf X) <= Phi(K) for K a meet
    of members, so a disagreement comes with such a K violating it: a member
    attaining min Phi(X) when Phi(inf X) exceeds it (checked before the
    scan), else the scan's witness.  See ``_counterexample``.
    ``phi_values`` and ``phi_inf``, when given, are Phi on the members and
    on their infimum, already computed by the caller.  Either way the scan
    reuses them, so Phi runs once per member and once on the infimum.
    """
    tol = _tolerance(tolerance, family.space.backing)
    notes = [
        "existence hypotheses hold automatically: finite family on an atomic space"
    ]
    values = [phi(x) for x in family.members] if phi_values is None else phi_values
    lhs = min(values)
    rhs = phi(pointwise_inf(family.members)) if phi_inf is None else phi_inf
    holds = _eq_within(lhs, rhs, tol)

    found = None
    if not _leq_within(rhs, lhs, tol):
        found = _counterexample(family, phi, (values.index(lhs),), rhs)
    directed = is_phi_inf_directed(
        family, phi, subset_budget, seed=seed, phi_values=values, phi_inf=rhs,
        tolerance=tol,
    )
    if found is None and holds != directed.directed:
        # A "yes" covers S = X, so past the member check only a "no" disagrees.
        found = _counterexample(family, phi, directed.witness, rhs)
    if not phi.order_preserving:
        notes.append(
            "order preservation not declared; "
            + (f"it fails on this family: {found}" if found else
               "verdict and scan agree without it")
        )
    if directed.mode == "sampled":
        notes.append("directedness scan sampled (family larger than subset budget)")
    return InterchangeReport(
        functional=phi.name,
        lhs=lhs,
        rhs=rhs,
        phi_inf_directed=directed.verdict,
        interchange_holds="holds" if holds else "fails",
        witness=directed.witness,
        notes=notes,
        mode="family",
    )


def _classify_prefix_limit(
    values: Sequence[Scalar], threshold: Scalar, backing: str
) -> Tuple[str, Scalar]:
    """Trend of a prefix: ("stabilized"|"diverging"|"inconclusive", value)."""
    last = values[-1]
    if abs(last) == POS_INF:
        return "stabilized", last
    if len(values) == 1:
        return "stabilized", last
    window = max(2, len(values) // 4)
    tail = values[-window:]
    if all(v == last for v in tail):
        return "stabilized", last
    bound = abs(as_scalar(threshold, backing))
    nonincreasing = all(a >= b for a, b in zip(values, values[1:]))
    if nonincreasing and last <= -bound:
        return "diverging", NEG_INF
    nondecreasing = all(a <= b for a, b in zip(values, values[1:]))
    if nondecreasing and last >= bound:
        return "diverging", POS_INF
    return "inconclusive", last


def verify_interchange_sequence(
    spec: SequenceSpec,
    phi: Functional,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    tolerance: Optional[Scalar] = None,
    seed: int = 0,
) -> InterchangeReport:
    """Interchange verdict for a sequence seen through a finite prefix."""
    members = spec.prefix()
    backing = members[0].space.backing
    tol = _tolerance(tolerance, backing)

    phi_values = [phi(x) for x in members]
    prefix_lhs: List[Scalar] = []
    running = phi_values[0]
    for v in phi_values:
        running = min(running, v)
        prefix_lhs.append(running)
    prefix_infs: List[FnClass] = []
    acc = members[0]
    for m in members:
        acc = pointwise_inf([acc, m])
        prefix_infs.append(acc)
    prefix_rhs = [phi(x) for x in prefix_infs]

    prefix_data: Dict = {
        "phi_values": list(phi_values),
        "prefix_lhs": list(prefix_lhs),
        "prefix_rhs": list(prefix_rhs),
        "prefix_len": spec.prefix_len,
    }

    if spec.exhaustive:
        base = verify_interchange(
            Family(members), phi, subset_budget, tolerance, seed,
            phi_values=phi_values, phi_inf=prefix_rhs[-1],
        )
        base.mode = "sequence"
        base.prefix = prefix_data
        base.notes.append("prefix is exhaustive: verdicts are exact, not limits")
        return base

    notes: List[str] = []
    lhs_trend, lhs = _classify_prefix_limit(prefix_lhs, spec.divergence_threshold, backing)
    prefix_data["lhs_trend"] = lhs_trend

    if spec.declared_limit is not None:
        limit = spec.declared_limit
        if not mu_leq(limit, prefix_infs[-1]):
            raise InputError(
                "declared limit is not below the prefix infimum (mu-a.e.)"
            )
        rhs_trend = "declared"
        rhs = phi(limit)
        if limit == prefix_infs[-1]:
            notes.append("declared limit witnessed by the prefix infimum")
        else:
            notes.append(
                "hypothesis unverified: declared limit not witnessed by the prefix"
            )
    else:
        rhs_trend, rhs = _classify_prefix_limit(
            prefix_rhs, spec.divergence_threshold, backing)
    prefix_data["rhs_trend"] = rhs_trend

    if lhs_trend == "diverging":
        directed_verdict = "diverging"
        witness = None
        notes.append(
            "lhs diverges to -inf: Phi-inf-directedness condition vacuously "
            "satisfied in the limit"
        )
    elif lhs_trend == "inconclusive":
        directed_verdict = "inconclusive"
        witness = None
        notes.append("prefix lhs neither stabilizes nor crosses the threshold")
    else:
        directed = is_phi_inf_directed(
            Family(members), phi, subset_budget, seed=seed,
            phi_values=phi_values, phi_inf=prefix_rhs[-1], tolerance=tol,
        )
        directed_verdict = directed.verdict
        witness = directed.witness
        notes.append("directedness checked on the prefix family")

    if lhs_trend == "inconclusive" or rhs_trend == "inconclusive":
        holds = "inconclusive"
        notes.append("no stabilization and no monotone threshold crossing; no guess")
    elif lhs_trend == "diverging":
        if rhs == NEG_INF:
            holds = "holds-in-limit"
            notes.append("interchange holds in the limit (-inf = -inf)")
        else:
            holds = "fails-in-limit"
    else:
        holds = "holds" if _eq_within(lhs, rhs, tol) else "fails"

    return InterchangeReport(
        functional=phi.name,
        lhs=lhs,
        rhs=rhs,
        phi_inf_directed=directed_verdict,
        interchange_holds=holds,
        witness=witness,
        notes=notes,
        mode="sequence",
        prefix=prefix_data,
    )


@dataclass
class SeqContinuityReport:
    functional: str
    prefix_values: List[Scalar]
    rhs: Scalar
    verdict: str  # "holds" or "fails"
    exact: bool
    diverging: bool
    gaps: List[Optional[Scalar]]
    notes: List[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "functional": self.functional,
            "prefix_values": [to_jsonable(v) for v in self.prefix_values],
            "rhs": to_jsonable(self.rhs),
            "verdict": self.verdict,
            "exact": self.exact,
            "diverging": self.diverging,
            "gaps": [None if g is None else to_jsonable(g) for g in self.gaps],
            "notes": list(self.notes),
        }


def check_seq_inf_continuity(
    phi: Functional,
    spec: SequenceSpec,
    tolerance: Optional[Scalar] = None,
) -> SeqContinuityReport:
    """Check min over n of Phi(x_n) <= Phi(limit) along a nonincreasing prefix.

    The limit is the declared one when given, otherwise the prefix infimum
    (its last term, since the sequence is nonincreasing).  A monotone run of
    Phi-values crossing the divergence threshold counts as -inf, which
    satisfies the inequality against any right-hand side.
    """
    members = spec.prefix()
    backing = members[0].space.backing
    tol = _tolerance(tolerance, backing)
    for a, b in zip(members, members[1:]):
        if not mu_leq(b, a):
            raise InputError("sequence prefix is not nonincreasing (mu-a.e.)")
    values = [phi(x) for x in members]
    limit = spec.declared_limit if spec.declared_limit is not None else members[-1]
    if spec.declared_limit is not None and not mu_leq(limit, members[-1]):
        raise InputError("declared limit is not below the prefix (mu-a.e.)")
    rhs = phi(limit)
    notes: List[str] = []

    gaps: List[Optional[Scalar]] = []
    for v in values:
        if NEG_INF < v < POS_INF and NEG_INF < rhs < POS_INF:
            gaps.append(lower_add(v, -rhs))
        elif v == rhs:
            gaps.append(as_scalar(0, backing))
        else:
            gaps.append(None)

    kind, lhs_limit = _classify_prefix_limit(values, spec.divergence_threshold, backing)
    if kind == "diverging" and lhs_limit == NEG_INF:
        notes.append("prefix Phi-values diverge to -inf")
        return SeqContinuityReport(
            phi.name, values, rhs, "holds", exact=False, diverging=True,
            gaps=gaps, notes=notes,
        )
    last = values[-1]
    exact = last <= rhs
    verdict = "holds" if _leq_within(last, rhs, tol) else "fails"
    if verdict == "holds" and not exact:
        notes.append("inequality holds within tolerance at the prefix end")
    return SeqContinuityReport(
        phi.name, values, rhs, verdict, exact=exact, diverging=False,
        gaps=gaps, notes=notes,
    )


def giner_gap_directed(
    family: Family,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    seed: int = 0,
) -> DirectednessResult:
    """Integrably-inf-directed check in gap form.

    For every finite subset S: min over x in X of the integral of
    (x - inf S) must be <= 0.  Only evaluated on integrable families whose
    members are finite mu-a.e.; the subtraction convention for infinite
    values is deliberately not guessed (the direct condition covers those).

    Shares the scan of ``is_phi_inf_directed``: one bitwise AND per member
    of a subset, the gap evaluated once per distinct subset infimum, and a
    memo of at most one entry per subset scanned, freed on return.
    """
    members = family.members
    for m in members:
        if classify(m) is not IntegrabilityTag.L1_FULL:
            raise DomainError(
                "gap form needs an integrable, mu-a.e. finite family; "
                "use the direct Phi-inf-directedness condition instead"
            )

    def gap(m: FnClass) -> Scalar:
        return min(
            lebesgue_extended(fn_add(x, fn_neg(m), mode="lower")) for x in members
        )

    witness, exhaustive, _ = _scan_subsets(
        members, gap, lambda g: g <= 0, subset_budget, seed,
        DEFAULT_SAMPLED_SUBSETS, {},
    )
    return DirectednessResult(
        directed=witness is None,
        witness=witness,
        mode="exhaustive" if exhaustive else "sampled",
    )
