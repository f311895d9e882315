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
Its prefix infima are one running infimum, lowered member by member, or
only on the atoms a term changes when the sequence declares its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, compress, count
from math import comb, copysign
from operator import lt
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError, InvariantError
from .extreal import (
    JSON_UNLESS_NONE,
    NEG_INF,
    POS_INF,
    Report,
    Scalar,
    _eq_within,
    _leq_within,
    as_scalar,
    common_numerators,
    to_text,
)
from .fnlattice import FnClass, mu_leq, pointwise_inf
from .functionals import Functional
from .integrals import RANK_TABLES, RunningParts

DEFAULT_SUBSET_BUDGET = 12
DEFAULT_DIVERGENCE_THRESHOLD = 10**9


def default_tolerance(backing: str = "rational") -> Scalar:
    return 0 if backing == "rational" else 1e-9


def _tolerance(tolerance: Optional[Scalar], backing: str) -> Scalar:
    """A given tolerance in ``backing``, else that backing's default."""
    tol = default_tolerance(backing) if tolerance is None else as_scalar(tolerance, backing)
    if tol < 0:
        raise InputError(f"tolerance must be nonnegative, got {to_text(tol)}")
    return tol


def _check_subset_budget(subset_budget) -> None:
    """InputError unless ``subset_budget`` is an integer >= 0 (not a bool)."""
    if (isinstance(subset_budget, bool) or not isinstance(subset_budget, int)
            or subset_budget < 0):
        raise InputError(
            f"subset_budget must be a nonnegative integer, got {subset_budget!r}")


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

    The prefix is a truncation: verdicts about the limit rely on trend
    detection against the divergence threshold.  A finite family is checked
    by ``verify_interchange`` instead.

    ``generator(k)`` is the k-th term and stays the reference.  ``step``, when
    given, declares what changes from one term to the next: ``step(k)``, for
    k >= 1, maps the atom indices where term k differs from term k - 1 to
    term k's values there, in backing form (as ``FnClass.from_ext`` takes
    them).  The prefix is then followed atom change by atom change (see
    ``_prefix_terms``), without building the N dense terms.
    """

    generator: Callable[[int], FnClass]
    prefix_len: int
    declared_limit: Optional[FnClass] = None
    divergence_threshold: Scalar = DEFAULT_DIVERGENCE_THRESHOLD
    step: Optional[Callable[[int], Mapping[int, Scalar]]] = None

    def first(self) -> FnClass:
        """The first term; InputError when the prefix length is below 1."""
        if self.prefix_len < 1:
            raise InputError("prefix_len must be at least 1")
        return self.generator(0)

    def prefix(self) -> List[FnClass]:
        members = [self.first()] + [self.generator(i) for i in range(1, self.prefix_len)]
        for m in members[1:]:
            if m.space != members[0].space:
                raise InputError("sequence terms must share one aligned space")
        return members


@dataclass
class DirectednessResult:
    directed: Optional[bool]
    witness: Optional[Tuple[int, ...]]
    mode: str  # "exhaustive" or "sampled"
    shortcut_agrees: bool

    @property
    def verdict(self) -> str:
        if self.directed is None:
            return "inconclusive"
        return "yes" if self.directed else "no"


@dataclass
class InterchangeReport(Report):
    functional: str
    lhs: Scalar
    rhs: Scalar
    phi_inf_directed: str
    interchange_holds: str
    witness: Optional[Tuple[int, ...]] = None
    notes: List[str] = field(default_factory=list)
    mode: str = "family"
    prefix: Optional[Dict] = field(default=None, metadata=JSON_UNLESS_NONE)

    @property
    def holds(self) -> bool:
        return self.interchange_holds in ("holds", "holds-in-limit")


def _nonempty_subsets(n: int):
    for k in range(1, n + 1):
        yield from combinations(range(n), k)


def _sampled_subsets(n: int):
    """Every subset of 1, 2, n - 1 or n members, smallest first."""
    for k in sorted({1, 2, n - 1, n} & set(range(1, n + 1))):
        yield from combinations(range(n), k)


def _rank_code(members: Sequence[FnClass]) -> Tuple[List[int], List[Tuple]]:
    """The members' values as per-atom ranks packed into one int each.

    A member's rank at an atom is the rank of its value among that atom's
    distinct member values.  Rank r is stored as r one-bits in the atom's
    field of the int (a thermometer code), which turns the per-atom minimum
    into a bitwise AND: the infimum of some members is named by the AND of
    their ints, its key.  Returns the members' ints and, per atom, the
    field ``(distinct values in increasing order, bit offset, field mask)``.

    Under rational backing the values are ranked by their integer codes
    (``extreal.common_numerators``), which order like the values,
    while their common denominator has at most ``extreal._KEY_BITS`` bits:
    an int hashes and compares in a fraction of the time of a Fraction.
    The levels are the values themselves, so the rows and fields are those
    of ranking the values directly.
    """
    values = [m.values for m in members]
    rational = members[0].space.backing == "rational"
    found = rational and common_numerators(values)
    keys = found[1] if found else values
    rows = [0] * len(members)
    fields = []
    offset = 0
    # One column at a time: the members' values are held once, as rows.
    for column, column_keys in zip(zip(*values), zip(*keys)):
        order = sorted(set(column_keys))
        rank = {k: r for r, k in enumerate(order)}
        for j, k in enumerate(column_keys):
            rows[j] |= ((1 << rank[k]) - 1) << offset
        if keys is values:
            level = order
        else:
            value_of = dict(zip(column_keys, column))
            level = [value_of[k] for k in order]
        fields.append((level, offset, (1 << (len(level) - 1)) - 1))
        offset += len(level) - 1
    return rows, fields


def _level_keys(rows: Sequence[int]):
    """The keys of the subsets ``_nonempty_subsets(len(rows))`` draws, in its
    order, one list per subset size; ``rows`` are the members' rank codes.

    That order is size by size and, within a size, lexicographic: by first
    member, then by the rest, a subset of the later members.  The k-subsets
    of the members after f are the last C(n - 1 - f, k) of the k-subsets,
    in order, so each (k + 1)-subset's key is one AND of its first member's
    row with a key of the size below.  Only the first n - k members have a
    k-subset after them, so only their rows are read.  A size's list is
    built from the one before when its first key is read, so at most two
    sizes are held, at most C(n, n // 2) keys in one.
    """
    n = len(rows)
    keys = rows
    for k in range(1, n + 1):
        yield keys
        keys = [rows[f] & key for f in range(n - k) for key in keys[-comb(n - 1 - f, k):]]


def _scan_subsets(
    members: Sequence[FnClass],
    score: Callable[[FnClass], Scalar],
    lhs: Scalar,
    tol: Scalar,
    exhaustive: bool,
    known: Dict[Tuple[int, ...], Scalar],
    eval_fn: Optional[Callable] = None,
) -> Tuple[Optional[Tuple[int, ...]], Callable[[Sequence[int]], Scalar]]:
    """Find the first subset S whose infimum fails min Phi(X) = ``lhs`` <=
    ``score(inf S)`` within ``tol`` (``_leq_within``).

    Subsets come from ``_nonempty_subsets`` when ``exhaustive`` and from
    the fixed ``_sampled_subsets`` otherwise, smallest first, so the witness
    is a smallest violating subset among those scanned.  Either way the
    whole family is scanned last.  At ``lhs`` = -inf every subset passes,
    and ``is_phi_inf_directed`` answers without calling this scan.

    A subset's infimum is named by its key under ``_rank_code``.  One loop
    reads (subset, key) pairs: an exhaustive scan takes the keys from
    ``_level_keys``, one AND per subset, in step with the subsets it draws,
    and a sampled scan ANDs the rows of each subset's members as it draws
    the subset, so each scan draws its subsets once.  Each
    distinct key is judged once; ``known`` gives scores already computed,
    keyed by member indices.  A new key is judged by ``score`` on the
    decoded function, or by the rank table that ``integrals.RANK_TABLES``
    keeps for ``eval_fn``, the function ``score`` evaluates: built from the
    fields and the bound (lhs, tol), it tells from the key alone whether
    the infimum passes, or gives None where ``score`` must run.  A table
    costs about as much as one generic evaluation per entry per atom, so a
    scan builds it only after it has made that many generic evaluations,
    and a scan that meets few distinct infima never does.
    A witness that a table failed is scored once more by ``score``, and
    ``InvariantError`` is raised if it passes.  Returns the witness (None
    when every subset holds), whether the scan was exhaustive, and the
    memoized score of the infimum of any index tuple.

    When ``known`` scores every nonempty subset, as it does for one or two
    members with the whole family's score given, the scan reads it and
    builds no rank code.
    """
    n = len(members)
    subsets = _nonempty_subsets(n) if exhaustive else _sampled_subsets(n)

    def holds(value: Scalar) -> bool:
        return _leq_within(lhs, value, tol)

    if all(idx in known for k in range(1, n + 1) for idx in combinations(range(n), k)):
        witness = next((idx for idx in subsets if not holds(known[idx])), None)
        return witness, lambda idx: known[tuple(idx)]
    space = members[0].space
    rows, fields = _rank_code(members)
    memo: Dict[int, Scalar] = {}
    passed = set()
    table = None
    # Entries over atoms: one entry per bit of the code and one per atom.
    generic_left = 1 + (fields[-1][1] + fields[-1][2].bit_length()) / len(fields)

    def inf_key(idx: Sequence[int]) -> int:
        key = -1
        for i in idx:
            key &= rows[i]
        return key

    def score_key(key: int) -> Scalar:
        nonlocal table, eval_fn, generic_left
        value = memo.get(key)
        if value is None:
            values = tuple([lv[((key >> off) & mask).bit_count()] for lv, off, mask in fields])
            value = memo[key] = score(FnClass.from_ext(space, values))
            if eval_fn is not None:
                generic_left -= 1
                if generic_left <= 0:
                    # Looked up by identity: an eval_fn need not be hashable.
                    build = next((b for f, b in RANK_TABLES.items() if f is eval_fn), None)
                    table = build and build(space, fields, lhs, tol)
                    eval_fn = None
        return value

    for idx, value in known.items():
        memo[inf_key(idx)] = value
    if exhaustive:
        pairs = zip(subsets, chain.from_iterable(_level_keys(rows)))
    else:
        pairs = ((idx, inf_key(idx)) for idx in subsets)
    witness = None
    for idx, key in pairs:
        if key in passed:
            continue
        ok = None if table is None or key in memo else table(key)
        if not (holds(score_key(key)) if ok is None else ok):
            witness = idx
            break
        passed.add(key)
    if witness is not None and key not in memo and holds(score_key(key)):
        raise InvariantError(
            f"the rank table of the directedness scan fails the infimum of members "
            f"{list(witness)}, but Phi gives {to_text(memo[key])}, which passes "
            f"min Phi(X) = {to_text(lhs)}")
    return witness, lambda idx: score_key(inf_key(idx))


def is_phi_inf_directed(
    family: Family,
    phi: Functional,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
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
    within ``subset_budget``; beyond that, every subset of 1, 2, n - 1 or n
    members is checked and the result is labeled "sampled".  Subsets are
    visited smallest first, so the witness on failure is a smallest
    violating subset among those scanned.  Both modes scan the whole family
    X, so ``shortcut_agrees`` compares the verdict with the shortcut
    condition min Phi(X) <= Phi(inf X) in both, and for an
    order-preserving Phi, where that condition decides directedness, the
    sampled verdict is exact too.

    When min Phi(X) = -inf every subset passes, whatever Phi gives on the
    infima: the answer is "yes" with no witness, from the member values
    alone, after the same input checks and with the mode that the family
    size gives ("sampled" beyond ``subset_budget``), and no rank code, rank
    table or Phi call on an infimum is made.  A disagreement there, Phi(inf
    X) > -inf, is the member check of ``verify_interchange``.

    In an exhaustive scan a subset costs one bitwise AND, of its first
    member's rank code with the key of the rest (``_level_keys``), and one
    set lookup; in a sampled scan, one AND per member and the lookup.  A
    subset whose infimum is new is judged once more: by one Phi evaluation
    and one comparison with min Phi(X), or, once the scan has built the rank
    table that ``integrals.RANK_TABLES`` keeps for ``phi.eval_fn`` (see
    ``_scan_subsets``), by integers alone.  The built-in integrals add one
    integer code per atom of positive weight and compare the sum with one
    integer computed from min Phi(X) and the tolerance, under exact weights,
    values and bound, infinite values included; ess_sup ANDs the key with
    one mask, the bits of the ranks whose values pass, found by one
    bisection of one global rank of the atoms' values.  So Phi is evaluated
    at most once per distinct subset infimum, and once more on a witness
    that a table failed, and not at all on the members or on the infimum
    of the whole family when their values are passed as ``phi_values`` and
    ``phi_inf``.  Before the first subset the scan ranks every member value
    once (``_rank_code``), on integer keys under rational backing.  The
    memo and the set of passing keys hold at most one entry per subset
    scanned (2^n - 1 when exhaustive) plus the members, the level lists at
    most 2 C(n, n // 2) keys, and all are freed on return.

    With n <= 2 members and both ``phi_values`` and ``phi_inf`` given, as
    ``verify_interchange`` gives them, every subset is a member or the
    whole family: the scan compares the given values and builds no rank
    code, so a subset costs one comparison.  The verdict, witness and mode
    are those of the full scan; a failing pair's witness is (0, 1).
    """
    tol = _tolerance(tolerance, family.space.backing)
    _check_subset_budget(subset_budget)
    _check_phi_values(phi_values, family)
    members = family.members
    n = len(members)
    if phi_values is None:
        phi_values = [phi(x) for x in members]
    lhs = min(phi_values)
    exhaustive = n <= subset_budget
    mode = "exhaustive" if exhaustive else "sampled"
    if lhs == NEG_INF:
        # -inf <= Phi(inf S) for every S, X included: nothing to scan.
        return DirectednessResult(directed=True, witness=None, mode=mode, shortcut_agrees=True)
    known = {(j,): v for j, v in enumerate(phi_values)}
    if phi_inf is not None:
        known[tuple(range(n))] = phi_inf
    witness, score_inf = _scan_subsets(
        members, phi, lhs, tol, exhaustive, known, phi.eval_fn)
    directed = witness is None
    shortcut = _leq_within(lhs, score_inf(range(n)), tol)
    if phi.order_preserving and shortcut != directed:
        _counterexample(family, phi, witness, score_inf(range(n)))
    return DirectednessResult(
        directed=directed,
        witness=witness,
        mode=mode,
        shortcut_agrees=shortcut == directed,
    )


def _check_phi_values(phi_values: Optional[Sequence[Scalar]], family: Family) -> None:
    """InputError unless the given ``phi_values`` hold one value per member."""
    if phi_values is not None and len(phi_values) != len(family.members):
        raise InputError(
            f"phi_values has {len(phi_values)} values for {len(family.members)} members")


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
    on their infimum, already computed by the caller; ``phi_values`` of
    another length than the family is an InputError.  Either way the scan
    reuses them, so Phi runs once per member and once on the infimum.
    """
    tol = _tolerance(tolerance, family.space.backing)
    _check_phi_values(phi_values, family)
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
        family, phi, subset_budget, phi_values=values, phi_inf=rhs, tolerance=tol,
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


def _same_entries(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> bool:
    """Equal entry by entry in value and type, and in the sign of a float zero."""
    return (tuple(xs) == tuple(ys) and list(map(type, xs)) == list(map(type, ys))
            and all(copysign(1, x) == copysign(1, y)
                    for x, y in zip(xs, ys) if type(x) is float and x == 0))


def _check_term(what: str, phi: Functional, f: FnClass, term: Scalar) -> None:
    """InvariantError unless Phi evaluated on ``f`` is ``term`` in value and type."""
    check = phi(f)
    if check != term or type(check) is not type(term):
        raise InvariantError(
            f"running {phi.name} of the last {what} is {to_text(term)} "
            f"({type(term).__name__}), but Phi gives {to_text(check)} "
            f"({type(check).__name__})"
        )


def _prefix_terms(
    spec: SequenceSpec, phi: Functional, first: FnClass,
) -> Tuple[List[Scalar], List[Scalar], List[Scalar], FnClass]:
    """Phi on each of the N terms of ``spec``, its running minimum, Phi on
    the infimum of each prefix, and the last of those infima.

    ``first`` is term 0.  The terms are never held together: with
    ``spec.step`` term k is term k - 1 with the declared changes, and
    without it ``spec.generator(k)`` is called once per term.

    One running infimum is kept.  Term k can lower it only on the atoms
    where it differs from term k - 1, since acc <= x_{k-1}: the keys of
    ``step(k)``, or, without steps, the atoms where x_k < acc found in one
    C-level comparison pass.  The comparison is strict, so ties keep acc's
    entry, as ``pointwise_inf`` does.  The built-in integrals under
    rational backing keep exact parts (``integrals.RunningParts``) of the
    infimum, and with steps of the term itself, updated on the atoms that
    change; any other functional, and float backing, evaluates Phi on the
    dense function.  A function that did not change repeats its previous
    term, since ``eval_fn`` is pure.

    Cross-checks, each an ``InvariantError``: the step-built last term must
    equal ``spec.generator(N - 1)`` on every atom, in value and type; and
    Phi evaluated generically on the last term and on the last infimum must
    equal the running terms in value and type, where running parts made
    them.  A fault in an earlier term only is left to the golden reports.
    """
    space = first.space
    n_atoms = len(space.atoms)
    step = spec.step
    acc = list(first.values)
    parts = RunningParts.of(space, phi.eval_fn, acc)
    value = score = phi(first)
    phi_values, prefix_rhs = [value], [score]
    if step is not None:
        member = list(acc)
        member_parts = RunningParts.of(space, phi.eval_fn, member)
    for k in range(1, spec.prefix_len):
        if step is not None:
            changes = step(k)
            for i, x in changes.items():
                if not (type(i) is int and 0 <= i < n_atoms):
                    raise InputError(
                        f"step {k} changes atom {i!r}, outside 0..{n_atoms - 1}")
                if member_parts:
                    member_parts.move(i, member[i], x)
                member[i] = x
            if changes:
                value = (member_parts.value() if member_parts
                         else phi(FnClass.from_ext(space, tuple(member))))
            drops = [i for i in changes if member[i] < acc[i]]
            new = member
        else:
            m = spec.generator(k)
            if m.space != space:
                raise InputError("sequence terms must share one aligned space")
            value = phi(m)
            new = m.values
            drops = list(compress(count(), map(lt, new, acc)))
        phi_values.append(value)
        if drops:
            for i in drops:
                if parts:
                    parts.move(i, acc[i], new[i])
                acc[i] = new[i]
            score = parts.value() if parts else phi(FnClass.from_ext(space, tuple(acc)))
        prefix_rhs.append(score)
    last = FnClass.from_ext(space, tuple(acc))
    if step is not None:
        reference = spec.generator(spec.prefix_len - 1)
        if reference.space != space:
            raise InputError("sequence terms must share one aligned space")
        if not _same_entries(member, reference.values):
            i = next(i for i, (x, y) in enumerate(zip(member, reference.values))
                     if not _same_entries((x,), (y,)))
            raise InvariantError(
                f"the steps build {to_text(member[i])} ({type(member[i]).__name__}) "
                f"on atom {i} of the last term, but the generator gives "
                f"{to_text(reference.values[i])} ({type(reference.values[i]).__name__})")
        if member_parts:
            _check_term("term", phi, reference, value)
    if parts:
        _check_term("prefix infimum", phi, last, score)
    return phi_values, list(accumulate(phi_values, min)), prefix_rhs, last


def verify_interchange_sequence(
    spec: SequenceSpec,
    phi: Functional,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    tolerance: Optional[Scalar] = None,
) -> InterchangeReport:
    """Interchange verdict for a sequence seen through a finite prefix.

    The N terms and the N prefix infima are not stored (see
    ``_prefix_terms``): one running infimum is kept, and a term costs one
    comparison pass over the atoms, or a look at the atoms its step
    changes.  For the built-in integrals under rational backing a term of
    either kind is updated exactly on the atoms that change, and Phi is
    evaluated generically only on the first term and, as cross-checks, on
    the last term and the last infimum.  Every other functional, and float
    backing, evaluates Phi in full on each function that changed.  A
    directedness scan of the prefix family builds the N terms with
    ``spec.prefix()``, unless the lhs stabilized at -inf: every subset then
    passes, as in ``is_phi_inf_directed``, and the verdict is "yes" without
    the terms.  The prefix is a truncation, so the verdicts refer to the
    limit; a finite family goes to ``verify_interchange``.
    """
    first = spec.first()
    backing = first.space.backing
    tol = _tolerance(tolerance, backing)
    _check_subset_budget(subset_budget)
    phi_values, prefix_lhs, prefix_rhs, last_inf = _prefix_terms(spec, phi, first)

    prefix_data: Dict = {
        "phi_values": phi_values,
        "prefix_lhs": prefix_lhs,
        "prefix_rhs": prefix_rhs,
        "prefix_len": spec.prefix_len,
    }

    notes: List[str] = []
    lhs_trend, lhs = _classify_prefix_limit(prefix_lhs, spec.divergence_threshold, backing)
    prefix_data["lhs_trend"] = lhs_trend

    if spec.declared_limit is not None:
        limit = spec.declared_limit
        if not mu_leq(limit, last_inf):
            raise InputError(
                "declared limit is not below the prefix infimum (mu-a.e.)"
            )
        rhs_trend = "declared"
        rhs = phi(limit)
        if limit == last_inf:
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
        witness = None
        if lhs == NEG_INF:
            # Every subset passes, as in is_phi_inf_directed: no terms to build.
            directed_verdict = "yes"
        else:
            directed = is_phi_inf_directed(
                Family(spec.prefix()), phi, subset_budget,
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
