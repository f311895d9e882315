"""Command-line front end.

Subcommands: ``check`` (run a scenario file), ``gallery`` (named built-in
examples), ``oracle`` (randomized equivalence campaign), ``rw-check`` and
``shapiro-check`` (decomposable-set scenarios).

Each scenario command reads its file with its reader in ``scenario``,
verifies, and emits the report.  A gallery example is a built-in scenario
dict run by the command it names, exactly as that command runs a file,
except that the echo names ``gallery NAME`` and the seed echoes 0 when
``--seed`` is not given.

``main`` reads the scalar backing from the ``INTERLAB_BACKING`` environment
variable (``rational`` when unset or empty, or ``float``) on each call and
hands it to the readers, the oracle and the environment echo; it sets no
state beyond the call.

``build_parser`` builds the argument parser on its first call (the first
``main``) and returns that same parser afterwards, so ``main`` may be called
repeatedly in one process and pays only for parsing and its verdict.  The
parser holds no per-call state: every ``parse_args`` returns a fresh
namespace, and the gallery's seed default is written to that namespace only.
``set_defaults(func=...)`` binds the ``_cmd_*`` functions when the parser is
built, so patching one of them afterwards does not change what ``main``
runs.

Exit codes: 0 for any completed verdict (a failing interchange is a result,
not an error), 2 for schema errors, 3 for domain errors, 4 for internal
invariant failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

from .decomposable import verify_rw_argmin, verify_rw_interchange, verify_shapiro
from .errors import DomainError, InputError, InvariantError, ScenarioError
from .extreal import BACKINGS, NEG_INF, POS_INF
from .interchange import (
    Family,
    default_tolerance,
    verify_interchange,
    verify_interchange_sequence,
)
from .oracle import run_campaign
from .scenario import (
    check_flags,
    environment_echo,
    load_scenario,
    read_check,
    read_int,
    read_rw,
    read_shapiro,
    render_json,
    render_text,
)

_SHAPIRO_VALUES = ["1/%d" % n for n in range(1, 9)] + [0]

# name -> (command, scenario): each example runs as its command runs a file.
GALLERY = {
    "giner-pair": ("check", {
        "space": {"atoms": ["a", "b"], "weights": [1, 1]},
        "family": [[0, 1], [1, 0]],
        "functional": {"kind": "extended_lebesgue"},
    }),
    "chain": ("check", {
        "space": {"atoms": ["a", "b", "c"], "weights": [1, "1/2", 0]},
        "family": [[2, 2, 5], [1, 1, -1], [0, 0, 7]],
        "functional": {"kind": "extended_lebesgue"},
    }),
    "example-2-6": ("check", {
        "family": {"generator": "example-2-6"},
        "functional": {"kind": "extended_lebesgue"},
    }),
    "moving-bump": ("check", {
        "family": {"generator": "moving-bump"},
        "functional": {"kind": "extended_lebesgue"},
    }),
    "choquet-demo": ("check", {
        "space": {"atoms": ["a", "b", "c"], "weights": [1, 1, 1]},
        "family": [[1, 2, 0], [2, 0, 1], [0, 1, 2]],
        "functional": {"kind": "choquet", "capacity": {"kind": "table", "values": {
            "{}": 0, "{a}": "1/2", "{b}": "1/2", "{c}": "1/2",
            "{a,b}": "3/4", "{a,c}": "3/4", "{b,c}": "3/4", "{a,b,c}": 1}}},
    }),
    "rw-demo": ("rw-check", {
        "space": {"atoms": ["a", "b"], "weights": [1, 1]},
        "integrand": {"controls": [[0], [1]], "table": [[0, 1], [1, 0]]},
    }),
    "shapiro-demo": ("shapiro-check", {
        "space": {"atoms": ["a", "b"], "weights": ["1/2", "1/2"]},
        "integrand": {"controls": [[v] for v in _SHAPIRO_VALUES],
                      "table": [_SHAPIRO_VALUES, _SHAPIRO_VALUES]},
        "functional": {"kind": "extended_lebesgue"},
        "p": 2,
        "selection_prefix": [[n, n] for n in range(len(_SHAPIRO_VALUES))],
        "selection_set": {"kind": "product"},
    }),
}
GALLERY_NAMES = tuple(GALLERY)


def _check(sc: dict, flags: dict):
    members, phi, budget, tol, seed = read_check(sc, flags)
    verify = verify_interchange if isinstance(members, Family) else verify_interchange_sequence
    return verify(members, phi, budget, tol).to_json_dict(), seed, tol


def _rw_check(sc: dict, flags: dict):
    integrand, u_set, tol, seed = read_rw(sc, flags)
    inter = verify_rw_interchange(integrand, u_set, tolerance=tol)
    report = {"interchange": inter.to_json_dict()}
    if NEG_INF < inter.lhs < POS_INF:
        report["argmin"] = verify_rw_argmin(integrand, u_set, interchange=inter).to_json_dict()
    return report, seed, tol


def _shapiro_check(sc: dict, flags: dict):
    scenario, seed = read_shapiro(sc, flags)
    return verify_shapiro(scenario).to_json_dict(), seed, scenario.tolerance


# command -> (scenario, flags) -> (report, seed echo, tolerance)
COMMANDS = {"check": _check, "rw-check": _rw_check, "shapiro-check": _shapiro_check}


def _emit(args, payload: dict) -> None:
    text = render_json(payload) if args.format == "json" else render_text(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ScenarioError(f"cannot write report to {args.out!r}: {e}") from e
    else:
        sys.stdout.write(text)


def _run(args, command: str, sc: dict, echo: str) -> int:
    report, seed, tol = COMMANDS[command](sc, vars(args))
    _emit(args, {"report": report, "environment": environment_echo(echo, seed, tol, args.backing)})
    return 0


def _cmd_scenario(args) -> int:
    return _run(args, args.command, load_scenario(args.scenario), args.command)


def _cmd_gallery(args) -> int:
    command, sc = GALLERY[args.name]
    if args.seed is None:
        args.seed = 0
    return _run(args, command, sc, f"gallery {args.name}")


def _cmd_oracle(args) -> int:
    seed = read_int({}, vars(args), "seed", 0)
    summary = run_campaign(args.trials, seed, args.max_atoms, args.max_family, args.backing)
    # The campaign verifies at the backing's default tolerance, not --tolerance.
    tol = default_tolerance(args.backing)
    _emit(args, {
        "report": summary.to_json_dict(),
        "environment": environment_echo("oracle", seed, tol, args.backing),
    })
    return 4 if summary.violations else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--prefix", type=int, default=None)
    parser.add_argument("--divergence-threshold", type=float, default=None,
                        dest="divergence_threshold")
    parser.add_argument("--subset-budget", type=int, default=None,
                        dest="subset_budget")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every ``main`` call; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="interlab",
        description="verify interchange of minimization and monotone integration "
                    "on finite measure spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name: str, help_text: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario")
        _add_common(p)
        p.set_defaults(func=_cmd_scenario)

    scenario_command("check", "run a scenario file")

    p = sub.add_parser("gallery", help="run a named built-in example")
    p.add_argument("name", choices=GALLERY_NAMES)
    _add_common(p)
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("oracle", help="randomized equivalence campaign")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-atoms", type=int, default=6, dest="max_atoms")
    p.add_argument("--max-family", type=int, default=5, dest="max_family")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    scenario_command("rw-check", "decomposable-set interchange scenario")
    scenario_command("shapiro-check", "norm-convergence interchange scenario")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    backing = os.environ.get("INTERLAB_BACKING") or "rational"
    if backing not in BACKINGS:
        sys.stderr.write(f"error: unknown backing {backing!r}; expected one of {BACKINGS}\n")
        return 2
    args = build_parser().parse_args(argv)
    args.backing = backing
    try:
        check_flags(vars(args))
        return args.func(args)
    except ScenarioError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return 2
    except (InputError, DomainError) as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 3
    except InvariantError as e:
        sys.stderr.write(f"invariant failure: {e}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
