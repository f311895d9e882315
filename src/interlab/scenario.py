"""Scenario files: one reader per CLI command, and the report envelopes.

A scenario is a JSON object.  ``read_check``, ``read_rw`` and
``read_shapiro`` each read one command's scenario and check every
container shape once: required keys are present, JSON arrays stand where
arrays are due (atoms, weights, family members, integrand controls and
table rows, selections, admissible sets, ``declared_gflat``), atom ids are
JSON strings, integer options are integers, and tolerances and divergence
thresholds are finite numbers.  Any failure, of a shape or of a value the
library constructors reject, is a ``ScenarioError`` (exit 2).  Each scalar
is converted once, by those constructors.  Unknown top-level keys are
ignored.

``flags`` maps option names (``tolerance``, ``seed``, ``subset_budget``,
``prefix``, ``divergence_threshold``, and the oracle's ``trials``,
``max_atoms`` and ``max_family``) to their command-line values, None when
not given, and ``backing`` to the scalar backing of the spaces the readers
build.  ``check_flags`` checks every given flag, whether or not the
command reads it.  A given flag overrides the scenario entry of the same
name (a sequence family's ``prefix`` and ``divergence_threshold`` sit in
its ``family`` object, where the latter may also be given at the top
level).

Extended reals serialize as JSON numbers, "p/q" strings for rationals a
float cannot round-trip, or the strings "+inf"/"-inf".  Reports are emitted
with sorted keys so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from typing import Optional, Tuple

from . import __version__
from .decomposable import Integrand, SelectionSet, ShapiroScenario, check_selection
from .errors import InterlabError, ScenarioError
from .extreal import Scalar, as_scalar, to_jsonable, too_long_to_print
from .fnlattice import FnClass
from .functionals import Functional, make_builtin
from .integrals import Capacity
from .interchange import DEFAULT_SUBSET_BUDGET, Family, SequenceSpec, default_tolerance
from .measure import MeasureSpace


@contextmanager
def _bad(what: str):
    """Re-raise a library error met while reading ``what`` as a ScenarioError."""
    try:
        yield
    except ScenarioError:
        raise
    except InterlabError as e:
        raise ScenarioError(f"bad {what}: {e}") from e


def _need(obj, key: str, what: str):
    """``obj[key]``, where ``obj`` must be a JSON object that has ``key``."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {obj!r:.60}")
    if key not in obj:
        raise ScenarioError(f"{what} needs {key!r}")
    return obj[key]


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a JSON array, got {value!r:.60}")
    return value


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read scenario {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {e}") from e
    except ValueError as e:  # an integer literal past the int-string limit
        raise ScenarioError(f"scenario {path!r} holds a number too long to read: {e}") from e
    if not isinstance(obj, dict):
        raise ScenarioError("a scenario must be a JSON object")
    return obj


# Options -------------------------------------------------------------------

# The least value of each numeric flag; argparse has made it an int or a float.
_FLAG_LEAST = {"seed": 0, "subset_budget": 0, "trials": 0, "tolerance": 0, "prefix": 1,
               "max_atoms": 1, "max_family": 1, "divergence_threshold": -math.inf}


def check_flags(flags: dict) -> None:
    """Reject a given flag value that is not finite or is below its least
    value, whether or not the command reads that flag."""
    for key, least in _FLAG_LEAST.items():
        value = flags.get(key)
        if value is not None and not (least <= value and abs(value) < math.inf):
            raise ScenarioError(f"{key} must be a finite number of at least {least}, "
                                f"got {value!r}")


def read_int(sc: dict, flags: dict, key: str, default: int) -> int:
    """The flag ``key``, else the scenario's entry, else ``default``: an
    integer >= 0."""
    value = flags.get(key)
    if value is None:
        value = sc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError(f"{key} must be a nonnegative integer, got {value!r}")
    return value


def read_tolerance(sc: dict, flags: dict) -> Scalar:
    """``--tolerance``, else the scenario's ``"tolerance"``, else the default."""
    value = flags.get("tolerance")
    if value is None:
        value = sc.get("tolerance")
    if value is None:
        return default_tolerance(flags["backing"])
    with _bad("tolerance"):
        tol = as_scalar(value, flags["backing"])
    if tol < 0:
        raise ScenarioError(f"tolerance must be nonnegative, got {value!r}")
    return tol


# Spaces, families and functionals ------------------------------------------

def build_space(obj, backing: str) -> MeasureSpace:
    atoms = _array(_need(obj, "atoms", "space"), "space atoms")
    _array(_need(obj, "weights", "space"), "space weights")
    if not all(isinstance(a, str) for a in atoms):
        raise ScenarioError("atom ids must be JSON strings")
    if not isinstance(obj.get("truncation_of", ""), str):
        raise ScenarioError("a space's 'truncation_of' label must be a JSON string")
    with _bad("space"):
        return MeasureSpace.from_json_dict(obj, backing)


def build_functional(obj, space: MeasureSpace) -> Functional:
    kind = _need(obj, "kind", "functional")
    with _bad("functional"):
        if kind == "choquet":
            cap = Capacity.from_json_dict(obj.get("capacity", {}), space)
            return make_builtin("choquet", capacity=cap)
        if kind in ("extended_lebesgue", "outer", "inner", "ess_sup"):
            return make_builtin(kind)
    raise ScenarioError(f"unknown functional kind {kind!r}")


def build_family(obj, space: MeasureSpace) -> Family:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError("a literal family must be a nonempty JSON array")
    with _bad("family"):
        return Family([FnClass(space, _array(m, "a family member")) for m in obj])


# Named sequence generators: name -> (prefix, params, backing) -> (space, SequenceSpec).

def _unit_spikes(height, prefix: int, params: dict,
                 backing: str) -> Tuple[MeasureSpace, SequenceSpec]:
    """x_k = height(k) on atom I{k+1} and 0 elsewhere, k from 0.

    Atom I{n} stands for the interval (n, n+1) of the Lebesgue line, n from
    1 to the prefix length; every atom has weight 1.  Term k differs from
    term k - 1 on two atoms only, which the spec declares as its steps.
    """
    with _bad("divergence_threshold"):
        threshold = as_scalar(params.get("divergence_threshold", 50), backing)
    space = MeasureSpace(
        [f"I{n}" for n in range(1, prefix + 1)],
        [1] * prefix,
        truncation_of="Lebesgue on R, unit intervals (n,n+1), n <= N",
        backing=backing,
    )

    zero = as_scalar(0, backing)

    def gen(k: int) -> FnClass:
        values = [zero] * prefix
        values[k] = as_scalar(height(k), backing)
        return FnClass.from_ext(space, tuple(values))

    def step(k: int) -> dict:
        return {k - 1: zero, k: as_scalar(height(k), backing)}

    return space, SequenceSpec(
        generator=gen,
        prefix_len=prefix,
        divergence_threshold=threshold,
        exhaustive=False,
        step=step,
    )


def _example_2_6(prefix: int, params: dict, backing: str) -> Tuple[MeasureSpace, SequenceSpec]:
    """The diverging gallery family x_n = -n on the unit interval (n, n+1).

    Phi(x_N) = -N and Phi(inf over n <= N of x_n) = -N(N+1)/2 under the
    Lebesgue integral: both sides tend to -inf, and the interchange holds in
    the limit.
    """
    return _unit_spikes(lambda k: -(k + 1), prefix, params, backing)


def _moving_bump(prefix: int, params: dict, backing: str) -> Tuple[MeasureSpace, SequenceSpec]:
    """The failing classic x_n = -1 on the unit interval (n, n+1), 0 elsewhere.

    Under the Lebesgue integral min over n <= N of Phi(x_n) = -1 for every
    N, while Phi(inf over n <= N of x_n) = -N tends to -inf: the
    interchange fails in the limit, and no two terms have a lower bound in
    the family.
    """
    return _unit_spikes(lambda k: -1, prefix, params, backing)


SEQUENCE_GENERATORS = {"example-2-6": _example_2_6, "moving-bump": _moving_bump}


def build_sequence(obj: dict, default_prefix: int = 100,
                   backing: str = "rational") -> Tuple[MeasureSpace, SequenceSpec]:
    name = obj.get("generator")
    if not isinstance(name, str) or name not in SEQUENCE_GENERATORS:
        raise ScenarioError(f"unknown sequence generator {name!r}")
    prefix = obj.get("prefix", default_prefix)
    if isinstance(prefix, bool) or not isinstance(prefix, int) or prefix < 1:
        raise ScenarioError(f"prefix must be an integer of at least 1, got {prefix!r}")
    return SEQUENCE_GENERATORS[name](prefix, obj, backing)


def read_check(sc: dict, flags: dict):
    """(family or sequence spec, functional, subset budget, tolerance, seed)
    of a ``check`` scenario.  The verifiers use no randomness: the seed,
    ``--seed`` over the scenario's ``"seed"`` and 0 without either, is
    checked and returned only for the environment echo."""
    tol = read_tolerance(sc, flags)
    budget = read_int(sc, flags, "subset_budget", DEFAULT_SUBSET_BUDGET)
    seed = read_int(sc, flags, "seed", 0)
    family = _need(sc, "family", "scenario")
    # Checked even where no family reads it: a literal family, or a
    # sequence that gives its own.
    with _bad("divergence_threshold"):
        as_scalar(sc.get("divergence_threshold", 0), flags["backing"])
    if isinstance(family, dict):
        spec = dict(family)
        if "divergence_threshold" in sc:
            spec.setdefault("divergence_threshold", sc["divergence_threshold"])
        for key in ("prefix", "divergence_threshold"):
            if flags.get(key) is not None:
                spec[key] = flags[key]
        space, members = build_sequence(spec, backing=flags["backing"])
    else:
        space = build_space(_need(sc, "space", "scenario"), flags["backing"])
        members = build_family(family, space)
    phi = build_functional(sc.get("functional", {}), space)
    return members, phi, budget, tol, seed


# Integrands and selection sets ---------------------------------------------

def read_integrand(obj, space: MeasureSpace) -> Integrand:
    controls = _array(_need(obj, "controls", "integrand"), "integrand controls")
    table = _array(_need(obj, "table", "integrand"), "integrand table")
    with _bad("integrand"):
        return Integrand(space, controls, [_array(row, "an integrand row") for row in table])


def read_selection_set(obj, n_atoms: int, n_controls: int) -> SelectionSet:
    """An explicit or product selection set; ``{"kind": "product"}`` without
    ``"admissible"`` is the full product."""
    kind = _need(obj, "kind", "selection set")
    with _bad("selection set"):
        if kind == "explicit":
            selections = _array(_need(obj, "selections", "selection set"), "selections")
            return SelectionSet.explicit(selections, n_atoms, n_controls)
        if kind == "product":
            if "admissible" not in obj:
                return SelectionSet.full_product(n_atoms, n_controls)
            admissible = [_array(s, "an admissible set")
                          for s in _array(obj["admissible"], "admissible")]
            return SelectionSet("product", n_atoms, n_controls, admissible=admissible)
    raise ScenarioError(f"unknown selection-set kind {kind!r}")


def read_rw(sc: dict, flags: dict):
    """(integrand, selection set, tolerance, seed) of an ``rw-check``
    scenario; the selection set defaults to the full product.  The
    selection-set commands use no randomness: the seed is ``--seed``, only
    echoed, or None."""
    space = build_space(_need(sc, "space", "rw scenario"), flags["backing"])
    integrand = read_integrand(_need(sc, "integrand", "rw scenario"), space)
    u_set = read_selection_set(sc.get("selection_set", {"kind": "product"}),
                               len(space.atoms), integrand.n_controls)
    return integrand, u_set, read_tolerance(sc, flags), flags.get("seed")


def read_shapiro(sc: dict, flags: dict) -> Tuple[ShapiroScenario, Optional[int]]:
    """(scenario, seed) of a ``shapiro-check`` scenario; without a
    ``"selection_set"`` the prefix is the feasible set."""
    space = build_space(_need(sc, "space", "shapiro scenario"), flags["backing"])
    integrand = read_integrand(_need(sc, "integrand", "shapiro scenario"), space)
    phi = build_functional(_need(sc, "functional", "shapiro scenario"), space)
    n, k = len(space.atoms), integrand.n_controls
    prefix = _array(_need(sc, "selection_prefix", "shapiro scenario"), "selection_prefix")
    with _bad("selection_prefix"):
        prefix = [check_selection(s, n, k) for s in prefix]
    declared = None
    if "declared_gflat" in sc:
        with _bad("declared_gflat"):
            declared = FnClass(space, _array(sc["declared_gflat"], "declared_gflat"))
    with _bad("p"):
        p = as_scalar(sc.get("p", 1), space.backing)
    u_set = read_selection_set(sc["selection_set"], n, k) if "selection_set" in sc else None
    scenario = ShapiroScenario(
        functional=phi,
        p=p,
        integrand=integrand,
        selection_prefix=prefix,
        declared_gflat=declared,
        selection_set=u_set,
        tolerance=read_tolerance(sc, flags),
    )
    return scenario, flags.get("seed")


# Report envelopes ----------------------------------------------------------

def environment_echo(command: str, seed: Optional[int], tolerance: Scalar,
                     backing: str) -> dict:
    return {
        "package": f"interlab {__version__}",
        "backing": backing,
        "command": command,
        "seed": seed,
        "tolerance": to_jsonable(as_scalar(tolerance, backing)),
    }


def render_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``json`` encodes with its pure-Python encoder whenever it indents; this
    one writes each leaf with the C string escaper or the number's repr and
    a list of leaves in one join.  The payload holds only dicts with string
    keys, lists, tuples, strings, ints, floats, bools and None, matched by
    exact type, as ``to_json`` emits them; any other value raises
    ``TypeError``.  An int past the int-string limit raises ``DomainError``.
    """
    chunks: list = []
    try:
        _encode(payload, "\n", chunks)
    except ValueError as e:  # from int.__repr__
        raise too_long_to_print(e) from None
    chunks.append("\n")
    return "".join(chunks)


def _float_text(x: float) -> str:
    """A float as ``json`` writes it, allowing NaN and the infinities."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The JSON text of a leaf, by exact type.
_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(obj, newline: str, chunks: list) -> None:
    """Append the text of ``obj``, indented as ``json`` indents by 2 at the
    depth ``newline`` ends with, to ``chunks``."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        chunks.append(leaf(obj))
        return
    t = type(obj)
    inner = newline + "  "
    if t is dict:
        if not obj:
            chunks.append("{}")
            return
        head = "{" + inner
        for key in sorted(obj):
            chunks.append(head)
            chunks.append(encode_basestring_ascii(key))
            chunks.append(": ")
            _encode(obj[key], inner, chunks)
            head = "," + inner
        chunks.append(newline + "}")
    elif t is list or t is tuple:
        if not obj:
            chunks.append("[]")
            return
        try:
            texts = [_LEAF[type(x)](x) for x in obj]
        except KeyError:  # a container among the items
            head = "[" + inner
            for x in obj:
                chunks.append(head)
                _encode(x, inner, chunks)
                head = "," + inner
        else:
            chunks.append("[" + inner + ("," + inner).join(texts))
        chunks.append(newline + "]")
    else:
        raise TypeError(f"{t.__name__} is not a report value")


def _flatten(prefix: str, value, lines) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}{k}.", value[k], lines)
        return
    if isinstance(value, list) and len(value) > 12:
        value = f"[{len(value)} entries; first={value[0]!r}, last={value[-1]!r}]"
    lines.append(f"{prefix.rstrip('.')}: {value}")


def render_text(payload: dict) -> str:
    """One ``key.path: value`` line per leaf; an int past the int-string
    limit raises ``DomainError``."""
    lines: list = []
    try:
        _flatten("", payload, lines)
    except ValueError as e:  # from int.__repr__
        raise too_long_to_print(e) from None
    return "\n".join(lines) + "\n"
