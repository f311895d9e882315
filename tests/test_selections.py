"""Selection-set verdicts against naive references, and the single enumeration."""

import json
from itertools import product

from hypothesis import given, settings, strategies as st

from interlab.cli import main
from interlab.decomposable import (
    Integrand,
    SelectionSet,
    is_decomposable,
    verify_rw_argmin,
    verify_rw_interchange,
)
from interlab.errors import InterlabError
from interlab.extreal import NEG_INF
from interlab.interchange import default_tolerance
from interlab.measure import MeasureSpace

from oracle_helpers import naive_is_decomposable, naive_rw

WEIGHTS = [0, 1, "1/2", 2, 0.1]
VALUES = [-2, -1, "-1/3", 0, 0.1, 0.7, "1/3", 1, 3, "+inf", "-inf"]
# Largest control count per atom count that keeps the product at 81
# selections, so the naive patch enumeration stays cheap.
MAX_CONTROLS = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}


@st.composite
def explicit_selections(draw, n_atoms, n_controls):
    """Subsets of a product of per-atom admissible sets, in random order:
    the full product, the product minus one selection, or any subset."""
    admissible = [
        draw(st.lists(st.integers(0, n_controls - 1), min_size=1, max_size=n_controls,
                      unique=True))
        for _ in range(n_atoms)
    ]
    sels = draw(st.permutations(list(product(*admissible))))
    shape = draw(st.sampled_from(["full", "minus-one", "subset"]))
    if shape == "minus-one" and len(sels) > 1:
        sels = sels[:-1]
    elif shape == "subset":
        keep = draw(st.lists(st.booleans(), min_size=len(sels), max_size=len(sels)))
        sels = [s for s, k in zip(sels, keep) if k] or sels[:1]
    return sels


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_patch_closure_matches_full_patch_enumeration(data):
    n_atoms = data.draw(st.integers(1, 5), label="atoms")
    n_controls = data.draw(st.integers(1, MAX_CONTROLS[n_atoms]), label="controls")
    sels = data.draw(explicit_selections(n_atoms, n_controls), label="selections")
    u_set = SelectionSet.explicit(sels, n_atoms, n_controls)
    report = is_decomposable(u_set)
    assert (report.decomposable, report.witness_patch) == naive_is_decomposable(u_set)


def _outcome(fn):
    try:
        return fn()
    except InterlabError as e:  # the error type is part of the verdict
        return type(e)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rw_verdicts_match_naive_reference(data):
    backing = data.draw(st.sampled_from(["rational", "float"]), label="backing")
    n_atoms = data.draw(st.integers(1, 4), label="atoms")
    n_controls = data.draw(st.integers(1, 3), label="controls")
    weights = data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_atoms,
                                 max_size=n_atoms), label="weights")
    table = data.draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=n_controls,
                                        max_size=n_controls),
                               min_size=n_atoms, max_size=n_atoms), label="table")
    kind = data.draw(st.sampled_from(["product", "admissible", "explicit"]), label="kind")
    if kind == "explicit":
        sels = data.draw(explicit_selections(n_atoms, n_controls), label="selections")
    elif kind == "admissible":
        admissible = [data.draw(st.lists(st.integers(0, n_controls - 1), min_size=1,
                                         max_size=n_controls, unique=True))
                      for _ in range(n_atoms)]
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights, backing=backing)
    integrand = Integrand(space, [[c] for c in range(n_controls)], table)
    if kind == "explicit":
        u_set = SelectionSet.explicit(sels, n_atoms, n_controls)
    elif kind == "admissible":
        u_set = SelectionSet("product", n_atoms, n_controls, admissible=admissible)
    else:
        u_set = SelectionSet.full_product(n_atoms, n_controls)
    expected = _outcome(lambda: naive_rw(integrand, u_set, default_tolerance(backing)))
    report = _outcome(lambda: verify_rw_interchange(integrand, u_set))
    if isinstance(report, type):
        assert report is expected
        assert _outcome(lambda: verify_rw_argmin(integrand, u_set)) is expected
        return
    argmin = verify_rw_argmin(integrand, u_set, interchange=report)
    alone = verify_rw_argmin(integrand, u_set)
    lhs, rhs, minimizers, pointwise = expected
    assert (report.lhs, report.rhs, report.minimizers) == (lhs, rhs, minimizers)
    assert set(report.pointwise_argmin) == pointwise
    assert argmin.to_json_dict() == alone.to_json_dict()
    if lhs == NEG_INF:
        assert not argmin.applicable
    else:
        assert argmin.characterization_holds == (set(minimizers) == pointwise)
        assert argmin.argmin_selections == minimizers


def test_rw_check_enumerates_the_selection_set_once(tmp_path, monkeypatch, capsys):
    calls = []
    iter_selections = SelectionSet.iter_selections

    def counted(self, *args, **kwargs):
        calls.append(self.kind)
        return iter_selections(self, *args, **kwargs)

    monkeypatch.setattr(SelectionSet, "iter_selections", counted)
    for sel in ({"kind": "product"},
                {"kind": "explicit", "selections": [[0, 0], [0, 1], [1, 0], [1, 1]]}):
        path = tmp_path / "rw.json"
        path.write_text(json.dumps({
            "space": {"atoms": ["a", "b"], "weights": [1, 1]},
            "integrand": {"controls": [[0], [1]], "table": [[0, 1], [1, 0]]},
            "selection_set": sel,
        }))
        calls.clear()
        assert main(["rw-check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["argmin"]["characterization_holds"]
        assert calls == [sel["kind"]]
