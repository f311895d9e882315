"""Command-line front end.

Subcommands: ``check`` (run a scenario file), ``gallery`` (named built-in
examples), ``oracle`` (randomized equivalence campaign), ``rw-check`` and
``shapiro-check`` (decomposable-set scenarios).

Exit codes: 0 for any completed verdict (a failing interchange is a result,
not an error), 2 for schema errors, 3 for domain errors, 4 for internal
invariant failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .errors import (
    DomainError,
    InputError,
    InterlabError,
    InvariantError,
    ScenarioError,
)
from .extreal import NEG_INF, POS_INF, as_scalar, ext, set_backing
from .fnlattice import FnClass
from .decomposable import (
    Integrand,
    SelectionSet,
    ShapiroScenario,
    check_selection,
    verify_rw_argmin,
    verify_rw_interchange,
    verify_shapiro,
)
from .functionals import make_builtin
from .integrals import Capacity
from .interchange import (
    DEFAULT_SUBSET_BUDGET,
    Family,
    default_tolerance,
    verify_interchange,
    verify_interchange_sequence,
)
from .measure import MeasureSpace
from .oracle import run_campaign
from .scenario import (
    build_family,
    build_functional,
    build_sequence,
    build_space,
    environment_echo,
    load_scenario,
    render_json,
    render_text,
)

GALLERY_NAMES = ("giner-pair", "chain", "example-2-6", "choquet-demo",
                 "rw-demo", "shapiro-demo")


def _emit(args, payload: dict) -> None:
    text = render_json(payload) if args.format == "json" else render_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tolerance(args, sc: Optional[dict] = None):
    """``--tolerance``, else the scenario's ``"tolerance"``, else the default."""
    value = args.tolerance if args.tolerance is not None else (sc or {}).get("tolerance")
    if value is None:
        return default_tolerance()
    try:
        tol = as_scalar(value)
    except InputError as e:
        raise ScenarioError(f"bad tolerance {value!r}: {e}") from e
    if tol < 0:
        raise ScenarioError(f"tolerance must be nonnegative, got {value!r}")
    return tol


def _int_option(args, key: str, default: int, sc: Optional[dict] = None,
                positive: bool = False) -> int:
    """``--key``, else the scenario's entry, else ``default``: an int >= 0,
    or >= 1 when ``positive``."""
    value = getattr(args, key)
    if value is None:
        value = (sc or {}).get(key, default)
    least, kind = (1, "positive") if positive else (0, "nonnegative")
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ScenarioError(f"{key} must be a {kind} integer, got {value!r}")
    return value


def _echo_seed(args) -> Optional[int]:
    """``--seed`` checked like ``check``'s, or None when not given; the
    selection-set commands use no randomness and only echo it."""
    return None if args.seed is None else _int_option(args, "seed", 0)


def _cmd_check(args) -> int:
    sc = load_scenario(args.scenario)
    tol = _tolerance(args, sc)
    budget = _int_option(args, "subset_budget", DEFAULT_SUBSET_BUDGET, sc)
    seed = _int_option(args, "seed", 0, sc)
    fam_obj = sc.get("family")
    if fam_obj is None:
        raise ScenarioError("scenario needs a 'family' entry")
    if isinstance(fam_obj, dict):
        prefix = _int_option(args, "prefix", 100, fam_obj, positive=True)
        fam_obj = dict(fam_obj, prefix=prefix)
        if args.divergence_threshold is not None:
            fam_obj = dict(fam_obj, divergence_threshold=args.divergence_threshold)
        elif "divergence_threshold" in sc:
            fam_obj.setdefault("divergence_threshold", sc["divergence_threshold"])
        space, seq = build_sequence(fam_obj, prefix)
        phi = build_functional(sc.get("functional", {}), space)
        report = verify_interchange_sequence(seq, phi, budget, tol, seed)
    else:
        if "space" not in sc:
            raise ScenarioError("scenario needs a 'space' entry")
        space = build_space(sc["space"])
        family = build_family(fam_obj, space)
        phi = build_functional(sc.get("functional", {}), space)
        report = verify_interchange(family, phi, budget, tol, seed)
    _emit(args, {
        "report": report.to_json_dict(),
        "environment": environment_echo("check", seed, tol),
    })
    return 0


def _gallery_giner_pair():
    space = MeasureSpace(["a", "b"], [1, 1])
    family = Family([FnClass(space, [0, 1]), FnClass(space, [1, 0])])
    return family, make_builtin("extended_lebesgue")


def _gallery_chain():
    space = MeasureSpace(["a", "b", "c"], [1, "1/2", 0])
    family = Family([
        FnClass(space, [2, 2, 5]),
        FnClass(space, [1, 1, -1]),
        FnClass(space, [0, 0, 7]),
    ])
    return family, make_builtin("extended_lebesgue")


def _gallery_choquet_demo():
    space = MeasureSpace(["a", "b", "c"], [1, 1, 1])
    table = {}
    from .measure import iter_atom_subsets

    for s in iter_atom_subsets(space):
        table[s] = {0: 0, 1: "1/2", 2: "3/4", 3: 1}[len(s)]
    cap = Capacity(space, table)
    family = Family([
        FnClass(space, [1, 2, 0]),
        FnClass(space, [2, 0, 1]),
        FnClass(space, [0, 1, 2]),
    ])
    return family, make_builtin("choquet", capacity=cap)


def _cmd_gallery(args) -> int:
    name = args.name
    seed = _int_option(args, "seed", 0)
    tol = _tolerance(args)
    budget = _int_option(args, "subset_budget", DEFAULT_SUBSET_BUDGET)
    if name == "example-2-6":
        prefix = _int_option(args, "prefix", 100, positive=True)
        params = {}
        if args.divergence_threshold is not None:
            params["divergence_threshold"] = args.divergence_threshold
        space, seq = build_sequence({"generator": "example-2-6", **params}, prefix)
        phi = make_builtin("extended_lebesgue")
        report = verify_interchange_sequence(seq, phi, budget, tol, seed)
        payload = {"report": report.to_json_dict()}
    elif name in ("giner-pair", "chain", "choquet-demo"):
        family, phi = {
            "giner-pair": _gallery_giner_pair,
            "chain": _gallery_chain,
            "choquet-demo": _gallery_choquet_demo,
        }[name]()
        report = verify_interchange(family, phi, budget, tol, seed)
        payload = {"report": report.to_json_dict()}
    elif name == "rw-demo":
        space = MeasureSpace(["a", "b"], [1, 1])
        integrand = Integrand(space, [[0], [1]], [[0, 1], [1, 0]])
        u_set = SelectionSet.full_product(2, 2)
        inter = verify_rw_interchange(integrand, u_set)
        argmin = verify_rw_argmin(integrand, u_set, interchange=inter)
        payload = {"report": {
            "interchange": inter.to_json_dict(),
            "argmin": argmin.to_json_dict(),
        }}
    elif name == "shapiro-demo":
        space = MeasureSpace(["a", "b"], ["1/2", "1/2"])
        controls = [[ext("1/%d" % n)] for n in range(1, 9)] + [[0]]
        values = [c[0] for c in controls]
        integrand = Integrand(space, controls, [values, values])
        prefix = [(n, n) for n in range(len(controls))]
        scenario = ShapiroScenario(
            functional=make_builtin("extended_lebesgue"),
            p=2,
            integrand=integrand,
            selection_prefix=prefix,
            selection_set=SelectionSet.full_product(2, len(controls)),
            tolerance=tol,
        )
        payload = {"report": verify_shapiro(scenario).to_json_dict()}
    else:
        raise InputError(f"unknown gallery name {name!r}; choose from {GALLERY_NAMES}")
    payload["environment"] = environment_echo(f"gallery {name}", seed, tol)
    _emit(args, payload)
    return 0


def _cmd_oracle(args) -> int:
    tol = _tolerance(args)
    seed = _int_option(args, "seed", 0)
    summary = run_campaign(args.trials, seed, args.max_atoms, args.max_family)
    _emit(args, {
        "report": summary.to_json_dict(),
        "environment": environment_echo("oracle", seed, tol),
    })
    return 4 if summary.violations else 0


def _cmd_rw_check(args) -> int:
    sc = load_scenario(args.scenario)
    if "space" not in sc or "integrand" not in sc:
        raise ScenarioError("rw scenario needs 'space' and 'integrand'")
    space = build_space(sc["space"])
    try:
        integrand = Integrand.from_json_dict(sc["integrand"], space)
        sel = sc.get("selection_set", {"kind": "product"})
        if isinstance(sel, dict) and sel.get("kind") == "product" and "admissible" not in sel:
            u_set = SelectionSet.full_product(len(space.atoms), integrand.n_controls)
        else:
            u_set = SelectionSet.from_json_dict(
                sel, len(space.atoms), integrand.n_controls
            )
    except InterlabError as e:
        raise ScenarioError(f"bad rw scenario: {e}") from e
    tol = _tolerance(args, sc)
    seed = _echo_seed(args)
    inter = verify_rw_interchange(integrand, u_set, tolerance=tol)
    payload = {"interchange": inter.to_json_dict()}
    if NEG_INF < inter.lhs < POS_INF:
        payload["argmin"] = verify_rw_argmin(
            integrand, u_set, interchange=inter
        ).to_json_dict()
    _emit(args, {
        "report": payload,
        "environment": environment_echo("rw-check", seed, tol),
    })
    return 0


def _cmd_shapiro_check(args) -> int:
    sc = load_scenario(args.scenario)
    for key in ("space", "integrand", "functional", "selection_prefix"):
        if key not in sc:
            raise ScenarioError(f"shapiro scenario needs {key!r}")
    space = build_space(sc["space"])
    try:
        integrand = Integrand.from_json_dict(sc["integrand"], space)
        phi = build_functional(sc["functional"], space)
        prefix = sc["selection_prefix"]
        if not isinstance(prefix, list):
            raise InputError("selection_prefix must be a list of selections")
        prefix = [check_selection(s, len(space.atoms), integrand.n_controls)
                  for s in prefix]
        declared = (
            FnClass(space, sc["declared_gflat"]) if "declared_gflat" in sc else None
        )
        sel = sc.get("selection_set")
        u_set = (
            SelectionSet.from_json_dict(sel, len(space.atoms), integrand.n_controls)
            if sel else None
        )
        p = as_scalar(sc.get("p", 1))
    except InterlabError as e:
        raise ScenarioError(f"bad shapiro scenario: {e}") from e
    tol = _tolerance(args, sc)
    seed = _echo_seed(args)
    scenario = ShapiroScenario(
        functional=phi,
        p=p,
        integrand=integrand,
        selection_prefix=prefix,
        declared_gflat=declared,
        selection_set=u_set,
        tolerance=tol,
    )
    report = verify_shapiro(scenario)
    _emit(args, {
        "report": report.to_json_dict(),
        "environment": environment_echo("shapiro-check", seed, tol),
    })
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlab",
        description="verify interchange of minimization and monotone integration "
                    "on finite measure spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a scenario file")
    p.add_argument("scenario")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

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

    p = sub.add_parser("rw-check", help="decomposable-set interchange scenario")
    p.add_argument("scenario")
    _add_common(p)
    p.set_defaults(func=_cmd_rw_check)

    p = sub.add_parser("shapiro-check", help="norm-convergence interchange scenario")
    p.add_argument("scenario")
    _add_common(p)
    p.set_defaults(func=_cmd_shapiro_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    backing = os.environ.get("INTERLAB_BACKING")
    if backing:
        try:
            set_backing(backing)
        except InputError as e:
            sys.stderr.write(f"error: {e}\n")
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
