"""The JSON form of reports that no golden file covers, and the fields a
report's JSON form leaves out."""

from interlab.decomposable import (
    Integrand,
    SelectionSet,
    is_decomposable,
    verify_rw_interchange,
)
from interlab.fnlattice import FnClass
from interlab.functionals import make_builtin
from interlab.interchange import (
    Family,
    SequenceSpec,
    check_seq_inf_continuity,
    verify_interchange,
    verify_interchange_sequence,
)
from interlab.measure import MeasureSpace

LEB = make_builtin("extended_lebesgue")
SPACE = MeasureSpace(["a", "b"], [1, "1/2"])


def test_seq_continuity_report_json():
    terms = [FnClass(SPACE, ["+inf", 1]), FnClass(SPACE, [1, 1]),
             FnClass(SPACE, ["2/3", "1/3"])]
    seq = SequenceSpec(generator=lambda n: terms[n], prefix_len=3,
                       declared_limit=FnClass(SPACE, ["2/3", "1/6"]))
    report = check_seq_inf_continuity(LEB, seq, tolerance="1/10")
    assert report.to_json_dict() == {
        "functional": "extended_lebesgue",
        "prefix_values": ["+inf", 1.5, "5/6"],
        "rhs": 0.75,
        "verdict": "holds",
        "exact": False,
        "diverging": False,
        "gaps": [None, 0.75, "1/12"],
        "notes": ["inequality holds within tolerance at the prefix end"],
    }


def test_decomposability_report_json_with_witness_patch():
    u_set = SelectionSet.explicit([(0, 0, 1), (1, 1, 0)], n_atoms=3, n_controls=2)
    assert is_decomposable(u_set).to_json_dict() == {
        "decomposable": False,
        "witness_patch": {"base": [0, 0, 1], "atoms": [0], "values": [1],
                          "patched": [1, 0, 1]},
        "notes": [],
    }


def test_only_a_sequence_report_has_a_prefix_key():
    f = FnClass(SPACE, [0, 1])
    family = verify_interchange(Family([f, FnClass(SPACE, [1, 0])]), LEB)
    assert family.prefix is None and "prefix" not in family.to_json_dict()
    seq = SequenceSpec(generator=lambda n: f, prefix_len=2, exhaustive=True)
    sequence = verify_interchange_sequence(seq, LEB).to_json_dict()
    assert sequence["prefix"] == {"phi_values": [0.5, 0.5], "prefix_lhs": [0.5, 0.5],
                                  "prefix_rhs": [0.5, 0.5], "prefix_len": 2}


def test_rw_report_json_leaves_out_pointwise_argmin():
    integrand = Integrand(SPACE, [[0], [1]], [[0, 1], [1, 0]])
    report = verify_rw_interchange(integrand, SelectionSet.full_product(2, 2))
    assert report.pointwise_argmin == [(0, 1)]
    assert report.to_json_dict() == {
        "lhs": 0, "rhs": 0, "equal": True, "decomposable": True,
        "hypothesis_notes": ["product form: decomposable by construction"],
        "minimizers": [[0, 1]],
    }
