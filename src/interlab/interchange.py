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
from fractions import Fraction
from itertools import accumulate, combinations, compress, count
from math import copysign, lcm
from operator import lt
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DomainError, InputError, InvariantError
from .extreal import (
    JSON_UNLESS_NONE,
    NEG_INF,
    POS_INF,
    Report,
    Scalar,
    as_scalar,
    lower_add,
    to_text,
)
from .fnlattice import FnClass, IntegrabilityTag, classify, mu_leq, pointwise_inf
from .functionals import Functional, make_builtin
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

    ``generator(k)`` is the k-th term and stays the reference.  ``step``, when
    given, declares what changes from one term to the next: ``step(k)``, for
    k >= 1, maps the atom indices where term k differs from term k - 1 to
    term k's values there, in backing form (as ``FnClass.from_ext`` takes
    them).  A non-exhaustive prefix is then followed atom change by atom
    change (see ``_prefix_terms``), without building the N dense terms.
    """

    generator: Callable[[int], FnClass]
    prefix_len: int
    declared_limit: Optional[FnClass] = None
    divergence_threshold: Scalar = DEFAULT_DIVERGENCE_THRESHOLD
    exhaustive: bool = False
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

    Under rational backing every finite value is an int or a Fraction and
    only the infinities are floats, so the values are ranked by integer
    sort keys: each finite value's numerator over the least common
    denominator of the family's values, each infinity itself, as long as
    that denominator has at most ``_KEY_BITS`` bits.  An int
    hashes and compares in a fraction of the time of a Fraction, which
    hashes with a modular inverse.  Equal values have equal keys, and the
    levels are the values themselves, so the rows and fields are those of
    ranking the values directly, as the float backing's columns are.
    """
    columns = list(zip(*(m.values for m in members)))
    keys = _exact_keys(columns) if members[0].space.backing == "rational" else columns
    rows = [0] * len(members)
    fields = []
    offset = 0
    for column, column_keys in zip(columns, keys):
        order = sorted(set(column_keys))
        rank = {k: r for r, k in enumerate(order)}
        for j, k in enumerate(column_keys):
            rows[j] |= ((1 << rank[k]) - 1) << offset
        if column_keys is column:
            level = order
        else:
            value_of = dict(zip(column_keys, column))
            level = [value_of[k] for k in order]
        fields.append((level, offset, (1 << (len(level) - 1)) - 1))
        offset += len(level) - 1
    return rows, fields


# Integer keys still beat Fractions on a common denominator just below this
# many bits; past it the lcm of many large denominators grows toward their
# product, whose keys cost far more to build than the Fractions to compare.
_KEY_BITS = 4096


def _exact_keys(columns: List[Tuple]) -> List:
    """Integer sort keys of columns of ints, Fractions and infinities: a
    finite value's numerator over the least common denominator of all the
    Fractions, an infinity itself.  Without a Fraction, or with a common
    denominator of more than ``_KEY_BITS`` bits, the columns are their own
    keys."""
    dens = {v.denominator for column in columns for v in column if type(v) is Fraction}
    if not dens:
        return columns
    den = 1
    for d in dens:
        den = lcm(den, d)
        if den.bit_length() > _KEY_BITS:
            return columns
    scale = {d: den // d for d in dens}
    return [[v.numerator * scale[v.denominator] if type(v) is Fraction
             else v * den if type(v) is int else v for v in column]
            for column in columns]


def _scan_subsets(
    members: Sequence[FnClass],
    score: Callable[[FnClass], Scalar],
    holds: Callable[[Scalar], bool],
    subset_budget: int,
    known: Dict[Tuple[int, ...], Scalar],
    eval_fn: Optional[Callable] = None,
) -> Tuple[Optional[Tuple[int, ...]], bool, Callable[[Sequence[int]], Scalar]]:
    """Find the first subset S whose infimum fails ``holds(score(inf S))``.

    Subsets come from ``_nonempty_subsets`` while the family is within
    ``subset_budget`` and from the fixed ``_sampled_subsets`` beyond it,
    smallest first, so the witness is a smallest violating subset among
    those scanned.  Either way the whole family is scanned last.

    A subset's infimum is named by its key under ``_rank_code``, and is
    scored once per distinct key; ``known`` gives scores already computed,
    keyed by member indices.  A new key is scored by ``score`` on the
    decoded function, or by the rank table that ``integrals.RANK_TABLES``
    keeps for ``eval_fn``, the function ``score`` evaluates: built from the
    fields, it maps a key straight to its score, or to None where ``score``
    must run.  A table costs about as much as one generic evaluation per
    entry per atom, so a scan builds it only after it has made that many
    generic evaluations, and a scan that meets few distinct infima never
    does.  Returns the witness (None when every subset holds), whether the
    scan was exhaustive, and the memoized score of the infimum of any
    index tuple.

    When ``known`` scores every nonempty subset, as it does for one or two
    members with the whole family's score given, the scan reads it and
    builds no rank code.
    """
    n = len(members)
    exhaustive = n <= subset_budget
    subsets = _nonempty_subsets(n) if exhaustive else _sampled_subsets(n)
    if all(idx in known for k in range(1, n + 1) for idx in combinations(range(n), k)):
        witness = next((idx for idx in subsets if not holds(known[idx])), None)
        return witness, exhaustive, lambda idx: known[tuple(idx)]
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
            if table is None or (value := table(key)) is None:
                values = tuple([lv[((key >> off) & mask).bit_count()]
                                for lv, off, mask in fields])
                value = score(FnClass.from_ext(space, values))
                if eval_fn is not None:
                    generic_left -= 1
                    if generic_left <= 0:
                        # Looked up by identity: an eval_fn need not be hashable.
                        build = next((b for f, b in RANK_TABLES.items() if f is eval_fn), None)
                        table = build and build(space, fields)
                        eval_fn = None
            memo[key] = value
        return value

    for idx, value in known.items():
        memo[inf_key(idx)] = value
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

    A subset costs one bitwise AND per member and one set lookup, plus one
    score if its infimum is new.  A score is one Phi evaluation, or a read
    of the rank table of ``phi.eval_fn`` when ``integrals.RANK_TABLES``
    has one and the scan has built it (see ``_scan_subsets``): the built-in
    integrals add one integer numerator per atom of positive weight and
    reduce once, under exact weights and values and away from infinite
    values on atoms of positive weight; ess_sup tests the key's bits in
    the order of one global rank of the atoms' values.  So Phi is evaluated
    at most once per distinct subset infimum, and not at all on the members
    or on the infimum of the whole family when their values are passed as
    ``phi_values`` and ``phi_inf``.  Before the first subset the scan
    ranks every member value once (``_rank_code``), on integer keys under
    rational backing.  The memo holds at most one entry per subset scanned
    (2^n - 1 when exhaustive) plus the members, and is freed on return.

    With n <= 2 members and both ``phi_values`` and ``phi_inf`` given, as
    ``verify_interchange`` gives them, every subset is a member or the
    whole family: the scan compares the given values and builds no rank
    code, so a subset costs one comparison.  The verdict, witness and mode
    are those of the full scan; a failing pair's witness is (0, 1).
    """
    tol = _tolerance(tolerance, family.space.backing)
    _check_subset_budget(subset_budget)
    members = family.members
    n = len(members)
    if phi_values is None:
        phi_values = [phi(x) for x in members]
    lhs = min(phi_values)
    known = {(j,): v for j, v in enumerate(phi_values)}
    if phi_inf is not None:
        known[tuple(range(n))] = phi_inf
    witness, exhaustive, score_inf = _scan_subsets(
        members, phi, lambda v: _leq_within(lhs, v, tol), subset_budget, known,
        phi.eval_fn,
    )
    directed = witness is None
    shortcut = _leq_within(lhs, score_inf(range(n)), tol)
    if phi.order_preserving and shortcut != directed:
        _counterexample(family, phi, witness, score_inf(range(n)))
    return DirectednessResult(
        directed=directed,
        witness=witness,
        mode="exhaustive" if exhaustive else "sampled",
        shortcut_agrees=shortcut == directed,
    )


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
    members: Optional[Sequence[FnClass]] = None,
) -> Tuple[List[Scalar], List[Scalar], List[Scalar], FnClass]:
    """Phi on each of the N terms of ``spec``, its running minimum, Phi on
    the infimum of each prefix, and the last of those infima.

    ``first`` is term 0; ``members`` is the whole prefix when the caller
    holds it (an exhaustive spec), and is read in place of the generator.
    Otherwise the terms are never held together: with ``spec.step`` term k
    is term k - 1 with the declared changes, and without it
    ``spec.generator(k)`` is called once per term.

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
    step = spec.step if members is None else None
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
            m = members[k] if members is not None else spec.generator(k)
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
    backing, evaluates Phi in full on each function that changed.  An
    exhaustive prefix, and a directedness scan of the prefix family, build
    the N terms with ``spec.prefix()``.
    """
    members = spec.prefix() if spec.exhaustive else None
    first = members[0] if members else spec.first()
    backing = first.space.backing
    tol = _tolerance(tolerance, backing)
    _check_subset_budget(subset_budget)
    phi_values, prefix_lhs, prefix_rhs, last_inf = _prefix_terms(spec, phi, first, members)

    prefix_data: Dict = {
        "phi_values": phi_values,
        "prefix_lhs": prefix_lhs,
        "prefix_rhs": prefix_rhs,
        "prefix_len": spec.prefix_len,
    }

    if spec.exhaustive:
        base = verify_interchange(
            Family(members), phi, subset_budget, tolerance,
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


@dataclass
class SeqContinuityReport(Report):
    functional: str
    prefix_values: List[Scalar]
    rhs: Scalar
    verdict: str  # "holds" or "fails"
    exact: bool
    diverging: bool
    gaps: List[Optional[Scalar]]
    notes: List[str] = field(default_factory=list)


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
) -> DirectednessResult:
    """Giner's integrably-inf-directed condition in gap form: for every
    finite subset S, min over x in X of the integral of (x - inf S) <= 0.

    For a family that is integrable and finite mu-a.e. the integral is
    additive, so the integral of (x - inf S) is the integral of x minus
    that of inf S, and the gap condition is exactly Phi-inf-directedness
    with Phi the extended Lebesgue integral, at tolerance 0: a corollary of
    the general interchange theorem (arXiv 2107.05903).  So this is that
    scan, after a DomainError on any other family, whose subtraction
    convention for infinite values is deliberately not guessed (the
    direct condition covers those).
    """
    for m in family.members:
        if classify(m) is not IntegrabilityTag.L1_FULL:
            raise DomainError(
                "gap form needs an integrable, mu-a.e. finite family; "
                "use the direct Phi-inf-directedness condition instead"
            )
    return is_phi_inf_directed(
        family, make_builtin("extended_lebesgue"), subset_budget, tolerance=0)
