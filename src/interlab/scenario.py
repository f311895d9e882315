"""Scenario files and report envelopes for the CLI.

A scenario is a JSON object with a measure space, a family (literal list of
functions, or a named sequence generator with a prefix length), a functional
spec, and optional budgets/tolerances.  Extended reals serialize as JSON
numbers, "p/q" strings for rationals a float cannot round-trip, or the
strings "+inf"/"-inf".  Reports are emitted with sorted keys so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Tuple

from . import __version__
from .errors import InterlabError, ScenarioError
from .extreal import Scalar, as_scalar, ext, get_backing, to_jsonable
from .fnlattice import FnClass
from .functionals import Functional, make_builtin
from .integrals import Capacity
from .interchange import Family, SequenceSpec
from .measure import MeasureSpace


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ScenarioError("a scenario must be a JSON object")
    return obj


def build_space(obj: dict) -> MeasureSpace:
    try:
        return MeasureSpace.from_json_dict(obj)
    except InterlabError as e:
        raise ScenarioError(f"bad space: {e}") from e


def build_functional(obj: dict, space: MeasureSpace) -> Functional:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError("functional spec needs a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "choquet":
            cap = Capacity.from_json_dict(obj.get("capacity", {}), space)
            return make_builtin("choquet", capacity=cap)
        if kind in ("extended_lebesgue", "outer", "inner", "ess_sup"):
            return make_builtin(kind)
    except InterlabError as e:
        raise ScenarioError(f"bad functional: {e}") from e
    raise ScenarioError(f"unknown functional kind {kind!r}")


def build_family(obj, space: MeasureSpace) -> Family:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError("a literal family must be a nonempty JSON array")
    try:
        return Family([FnClass(space, values) for values in obj])
    except InterlabError as e:
        raise ScenarioError(f"bad family: {e}") from e


# Named sequence generators: name -> (prefix, params) -> (space, SequenceSpec).

def _example_2_6(prefix: int, params: dict) -> Tuple[MeasureSpace, SequenceSpec]:
    """The diverging gallery family x_n = -n on the unit interval (n, n+1).

    Atom I{n} stands for the interval (n, n+1) of the Lebesgue line, n from
    1 to the prefix length; every atom has weight 1.
    """
    if prefix < 1:
        raise ScenarioError("example-2-6 needs a prefix of at least 1")
    space = MeasureSpace(
        [f"I{n}" for n in range(1, prefix + 1)],
        [1] * prefix,
        truncation_of="Lebesgue on R, unit intervals (n,n+1), n <= N",
    )

    zero = ext(0)

    def gen(k: int) -> FnClass:
        values = [zero] * prefix
        values[k] = ext(-(k + 1))
        return FnClass.from_ext(space, tuple(values))

    threshold = params.get("divergence_threshold", 50)
    return space, SequenceSpec(
        generator=gen,
        prefix_len=prefix,
        divergence_threshold=as_scalar(threshold),
        exhaustive=False,
    )


SEQUENCE_GENERATORS: Dict[str, Callable[[int, dict], Tuple[MeasureSpace, SequenceSpec]]] = {
    "example-2-6": _example_2_6,
}


def build_sequence(obj: dict, default_prefix: int = 100) -> Tuple[MeasureSpace, SequenceSpec]:
    name = obj.get("generator")
    if name not in SEQUENCE_GENERATORS:
        raise ScenarioError(f"unknown sequence generator {name!r}")
    prefix = obj.get("prefix", default_prefix)
    if isinstance(prefix, bool) or not isinstance(prefix, int):
        raise ScenarioError(f"prefix must be an integer, got {prefix!r}")
    return SEQUENCE_GENERATORS[name](prefix, obj)


def environment_echo(command: str, seed: Optional[int], tolerance: Scalar) -> dict:
    return {
        "package": f"interlab {__version__}",
        "backing": get_backing(),
        "command": command,
        "seed": seed,
        "tolerance": to_jsonable(as_scalar(tolerance)),
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value, lines) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}{k}." if prefix == "" else f"{prefix}{k}.", value[k], lines)
        return
    if isinstance(value, list) and len(value) > 12:
        value = f"[{len(value)} entries; first={value[0]!r}, last={value[-1]!r}]"
    lines.append(f"{prefix.rstrip('.')}: {value}")


def render_text(payload: dict) -> str:
    lines: list = []
    _flatten("", payload, lines)
    return "\n".join(lines) + "\n"
