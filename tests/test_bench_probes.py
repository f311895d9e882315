"""Every name that a probe of ``tools/bench.py`` reads, or may fall back on,
exists in this checkout.

A probe tests a name with ``hasattr``, imports it inside ``try/except
ImportError``, or assigns to it as a module attribute, so that it also runs
against older parent checkouts.  Once such a name has gone from this
checkout, the probe times its fallback or patches an attribute nothing
reads, and still runs.  Any other name it imports or reads from a module
fails the probe when it is gone, in the bench run, long after the change
that removed it."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench

# The names the probes fall back on today; the parse below must find them.
KNOWN = {
    "interlab.decomposable._min_of_folds",
    "oracle_helpers.reference_rank_code",
    "interlab.interchange._rank_code",
    "interlab.functionals.Functional.__call__",
}
# Some names the probes read today; the parse below must find them.
READ = {
    "interlab.cli.main",
    "interlab.interchange.is_phi_inf_directed",
    "interlab.scenario.build_family",
    "workloads.plan_wide_atoms",
}


def _dotted(node, bound):
    """The dotted name of ``a.b.c``, with ``a`` spelled as the import that
    bound it, or None when ``a`` was not bound by an import."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(parts)])
    return None


def _catches_import_error(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in ("ImportError", "ModuleNotFoundError")
               for n in names)


def _bound(tree):
    """Each name an import of ``tree`` binds, to what it imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def read_names(source):
    """The dotted names that ``source`` imports, and the attributes it reads
    from them."""
    tree = ast.parse(source)
    bound = _bound(tree)
    found = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(_dotted(node, bound))
    return found - {None}


def fallback_names(source):
    """The dotted names that ``source`` tests with ``hasattr``, imports
    inside ``try/except ImportError`` or assigns to as attributes."""
    tree = ast.parse(source)
    bound, found = _bound(tree), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "hasattr" and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant)):
            owner = _dotted(node.args[0], bound)
            if owner:
                found.add(f"{owner}.{node.args[1].value}")
        elif isinstance(node, ast.Try) and any(map(_catches_import_error, node.handlers)):
            for inner in node.body:
                if isinstance(inner, ast.ImportFrom):
                    found.update(f"{inner.module}.{alias.name}" for alias in inner.names)
                elif isinstance(inner, ast.Import):
                    found.update(alias.name for alias in inner.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found.update(name for t in ast.walk(target)
                             if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                             and (name := _dotted(t, bound)))
    return found


def exists(dotted):
    """Whether ``dotted`` names a module, or an attribute path from the
    longest importable module prefix of it."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_every_name_a_probe_falls_back_on_exists():
    found = set().union(*map(fallback_names, bench.probe_sources().values()))
    assert KNOWN <= found
    assert sorted(name for name in found if not exists(name)) == []


def test_every_name_a_probe_reads_exists(monkeypatch):
    # A probe runs with src, perfbench and tests on its path.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    found = set().union(*map(read_names, bench.probe_sources().values()))
    assert READ <= found
    assert sorted(name for name in found if not exists(name)) == []
