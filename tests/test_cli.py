"""Command-line interface: reports, DOT output, exit codes, determinism."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricnccr import FGGroup, is_nccr, parse_element
from toricnccr.cli import main
from conftest import build_context

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write_doc(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return path


class TestValidate:
    def test_valid_file(self, capsys):
        code, report = run_json(capsys, "validate", INPUTS / "ca4.json")
        assert code == 0
        assert report["command"] == "validate"
        assert report["validation"]["p"] == "(5)"
        assert report["validation"]["H"] == "Z"
        assert report["format"].startswith("toricnccr-report/")

    def test_bad_sum_exit_2(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            {"group": {"free_rank": 1, "torsion": []}, "weights": [[1], [2], [-1], [-1]]},
        )
        code, report = run_json(capsys, "validate", path)
        assert code == 2
        assert report["error"]["type"] == "NotGorenstein"

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = run_json(capsys, "validate", path)
        assert code == 2
        assert report["error"]["type"] == "ParseError"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, report = run_json(capsys, "validate", tmp_path / "absent.json")
        assert code == 2
        assert report["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "group,weights",
        [
            ({"free_rank": 1, "torsion": []}, [[1.7], [1], [-1], [-1.7]]),
            ({"free_rank": 1, "torsion": []}, [[True], [1], [-1], [-1]]),
            ({"free_rank": 1, "torsion": []}, [["x"], [1], [-1], [-1]]),
            ({"free_rank": 1.0, "torsion": []}, [[1], [1], [-1], [-1]]),
            ({"free_rank": True, "torsion": []}, [[1], [1], [-1], [-1]]),
            ({"free_rank": 1, "torsion": [2.0]}, [[1, 0], [1, 1], [-1, 0], [-1, 1]]),
            ({"free_rank": 1, "torsion": ["2"]}, [[1, 0], [1, 1], [-1, 0], [-1, 1]]),
            ({"free_rank": 1, "torsion": []}, 5),
            ({"free_rank": 1, "torsion": []}, None),
        ],
        ids=[
            "float",
            "bool",
            "string",
            "float-rank",
            "bool-rank",
            "float-torsion",
            "string-torsion",
            "int-weights",
            "null-weights",
        ],
    )
    def test_non_integer_entries_exit_2(self, capsys, tmp_path, group, weights):
        path = write_doc(tmp_path, {"group": group, "weights": weights})
        code, report = run_json(capsys, "validate", path)
        assert code == 2
        assert report["error"]["type"] == "ParseError"


# values of the wrong JSON type for any slot of an input document
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-6, 6),
    st.text(max_size=3),
    st.integers(-6, 6),
    st.lists(st.integers(-6, 6), max_size=3),
    st.dictionaries(st.sampled_from(["free_rank", "torsion", "x"]), st.integers(-6, 6), max_size=2),
)


@st.composite
def malformed_documents(draw):
    """Input documents with wrong types, wrong vector lengths and missing keys
    at every level; small integers only (|x| <= 6, invariant factors <= 4).
    Each fault is drawn with probability about 1/5, so that most documents
    get past the top level and some are valid."""

    def rare():
        return draw(st.integers(0, 4)) == 3

    def slot(value):
        return draw(JUNK) if rare() else value

    torsion = slot(draw(st.lists(st.sampled_from([2, 2, 3, 4, 1]), max_size=2)))
    group = slot({"free_rank": slot(draw(st.sampled_from([1, 1, 1, 0, 2]))), "torsion": torsion})
    length = 1 + len(torsion) if isinstance(torsion, list) else 1
    if rare():
        length = draw(st.integers(0, 3))
    vector = st.lists(st.integers(-6, 6), min_size=length, max_size=length)
    vecs = draw(st.lists(vector, min_size=2, max_size=5))
    vecs.append([-sum(col) for col in zip(*vecs)] if vecs[0] else [])  # zero sum
    if rare():
        vecs[draw(st.integers(0, len(vecs) - 1))] = draw(JUNK)
    doc = {"group": group, "weights": slot(vecs)}
    for mapping, keys in ((group, ["free_rank", "torsion"]), (doc, ["group", "weights"])):
        if isinstance(mapping, dict) and rare():
            mapping.pop(draw(st.sampled_from(keys)), None)
    return slot(doc)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(malformed_documents())
    def test_validate_exits_0_or_2(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["validate", str(path)])
        assert code in (0, 2)


class TestClassify:
    def test_a1_single_class(self, capsys):
        code, report = run_json(capsys, "classify", INPUTS / "a1.json")
        assert code == 0
        assert report["count"] == 1
        assert report["classes"][0]["rim"] == ["(0)", "(1)"]
        assert report["classes"][0]["vertex_count"] == 2

    def test_report_round_trip(self, capsys):
        code, report = run_json(capsys, "classify", INPUTS / "z4.json")
        assert code == 0
        ctx = build_context("z4")
        G = FGGroup(1, (4,))
        for cls in report["classes"]:
            degrees = [parse_element(G, text) for text in cls["summand_degrees"]]
            assert is_nccr(ctx, degrees)

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "classify", INPUTS / "z3.json")
        _, second = run(capsys, "classify", INPUTS / "z3.json")
        assert first == second


class TestQuiver:
    def test_class_json(self, capsys):
        code, report = run_json(capsys, "quiver", INPUTS / "ca4.json", "--class", 0)
        assert code == 0
        assert report["is_nccr"] is True
        assert report["quiver"]["arrow_count"] == 11
        assert report["quiver"]["loop_count"] == 1
        labels = [a["monomial"] for a in report["quiver"]["arrows"]]
        assert "x2*x4" in labels

    def test_class_dot(self, capsys):
        code, out = run(capsys, "quiver", INPUTS / "a1.json", "--class", 0, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph quiver {")
        assert '"(0)" -> "(1)" [label="x1"];' in out

    def test_degrees_inspection(self, capsys):
        code, report = run_json(
            capsys, "quiver", INPUTS / "a1.json", "--degrees", "0 1", "--bound", "6"
        )
        assert code == 0
        assert report["is_modifying"] is True
        assert report["is_nccr"] is True
        assert report["quiver"]["arrow_count"] == 4

    def test_non_modifying_degrees_exit_2(self, capsys):
        code, report = run_json(capsys, "quiver", INPUTS / "a1.json", "--degrees", "0 2")
        assert code == 2

    def test_unknown_class_exit_2(self, capsys):
        code, report = run_json(capsys, "quiver", INPUTS / "a1.json", "--class", 5)
        assert code == 2
        assert report["error"]["type"] == "UnknownClass"

    def test_zero_bound_exit_2(self, capsys):
        code, report = run_json(
            capsys, "quiver", INPUTS / "ca4.json", "--class", 0, "--bound", 0
        )
        assert code == 2
        assert report["error"]["type"] == "InputError"

    def test_empty_degree_set_gives_empty_quiver(self, capsys):
        code, report = run_json(capsys, "quiver", INPUTS / "ca4.json", "--degrees", "")
        assert code == 0
        assert report["quiver"]["vertices"] == [] and report["quiver"]["arrow_count"] == 0

    @pytest.mark.parametrize("bound", ["10", "11", "64"])
    def test_bound_at_or_above_proven_matches_default(self, capsys, bound):
        # ca4 class 0: span 4 over the vertices, M = 3, so the proven bound is 10
        _, default = run(capsys, "quiver", INPUTS / "ca4.json", "--class", 0)
        code, capped = run(capsys, "quiver", INPUTS / "ca4.json", "--class", 0, "--bound", bound)
        assert code == 0
        assert capped == default
        assert json.loads(capped)["warnings"] == []

    def test_small_bound_warning_lands_in_report(self, capsys):
        code, report = run_json(
            capsys, "quiver", INPUTS / "ca4.json", "--class", 0, "--bound", 1
        )
        assert code == 0
        assert report["warnings"]
        assert "bound" in report["warnings"][0]

    def test_bound_just_below_proven_warns(self, capsys):
        code, report = run_json(
            capsys, "quiver", INPUTS / "ca4.json", "--class", 0, "--bound", 9
        )
        assert code == 0
        assert report["warnings"] == [
            "search bound 9 is below the proven degree bound 10; arrows may be missing"
        ]


class TestMutate:
    def test_golden_move(self, capsys):
        code, report = run_json(
            capsys, "mutate", INPUTS / "ca4.json", "--class", 0, "--at", "(1)"
        )
        assert code == 0
        assert report["result_class"] == 1
        assert report["mutated_summands"] == ["(0)", "(2)", "(3)", "(4)", "(6)"]
        assert report["certificate"]["plus_steps"] == 1
        assert report["certificate"]["minus_steps"] == 1

    def test_not_minimal_exit_2(self, capsys):
        code, report = run_json(
            capsys, "mutate", INPUTS / "ca4.json", "--class", 0, "--at", "(3)"
        )
        assert code == 2
        assert report["error"]["type"] == "NotMinimal"


class TestExchangeGraph:
    def test_ca4_json(self, capsys):
        code, report = run_json(capsys, "exchange-graph", INPUTS / "ca4.json")
        assert code == 0
        assert report["verdict"] == "CONNECTED"
        assert len(report["nodes"]) == 2
        cross = [(e["from"], e["to"]) for e in report["edges"] if e["from"] != e["to"]]
        assert (0, 1) in cross and (1, 0) in cross

    def test_dot(self, capsys):
        code, out = run(capsys, "exchange-graph", INPUTS / "a1.json", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph exchange {")
        assert '"class0" -> "class0"' in out


class TestOracle:
    def test_a1_agreement_summary(self, capsys):
        code, report = run_json(
            capsys, "oracle", INPUTS / "a1.json", "--range", "-10..10", "--window", "12"
        )
        assert code == 0
        assert report["summary"] == "agree: 21/21, mismatches: 0"
        assert report["mismatches"] == []

    def test_bad_range_exit_2(self, capsys):
        code, report = run_json(
            capsys, "oracle", INPUTS / "a1.json", "--range", "oops", "--window", "12"
        )
        assert code == 2

    def test_empty_range_exit_2(self, capsys):
        code, report = run_json(
            capsys, "oracle", INPUTS / "a1.json", "--range", "5..-5", "--window", "12"
        )
        assert code == 2
        assert report["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("window", ["0", "2"])
    def test_insufficient_window_exit_2(self, capsys, window):
        code, report = run_json(
            capsys, "oracle", INPUTS / "ca4.json", "--range", "-20..20", "--window", window
        )
        assert code == 2
        assert report["error"]["type"] == "InputError"
        assert "sufficiency bound" in report["error"]["detail"]

    def test_internal_mismatch_exit_3(self, capsys, monkeypatch):
        import toricnccr.nccr

        monkeypatch.setattr(toricnccr.nccr, "is_mcm", lambda ctx, g: True)
        code = main(["oracle", str(INPUTS / "a1.json"), "--range=-5..5", "--window", "12"])
        captured = capsys.readouterr()
        assert code == 3
        assert "internal check failed" in captured.err
        report = json.loads(captured.out)
        assert report["mismatches"]


class TestMcKay:
    def test_z2_json(self, capsys):
        code, report = run_json(capsys, "mckay", INPUTS / "mckay_z2.json")
        assert code == 0
        assert len(report["quiver"]["vertices"]) == 2
        assert report["quiver"]["arrow_count"] == 4

    def test_dot(self, capsys):
        code, out = run(capsys, "mckay", INPUTS / "mckay_z3.json", "--format", "dot")
        assert code == 0
        assert out.count("->") == 9

    def test_rank_one_input_exit_2(self, capsys):
        code, report = run_json(capsys, "mckay", INPUTS / "a1.json")
        assert code == 2
        assert report["error"]["type"] == "InfiniteGroup"

    def test_classify_on_finite_group_exit_2(self, capsys):
        code, report = run_json(capsys, "classify", INPUTS / "mckay_z2.json")
        assert code == 2
