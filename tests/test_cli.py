"""Command-line interface: reports, DOT output, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricnccr.oracle
from toricnccr import FGGroup, exchange_graph, grading_context, is_nccr, parse_element
from toricnccr.cli import COMMANDS, cmd_classify, cmd_mutate, load_document, main, parse_args
from toricnccr.uppersets import _classes
from toricnccr.weights import validate
from conftest import (
    LADDER,
    SYSTEM_SPECS,
    TORSION_LADDER,
    build_context,
    classify_classes_by_elements,
    count_element_constructions,
    kernel_systems,
    ladder_context,
    mcm_everywhere,
    torsion_ladder_context,
)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"
SRC = ROOT / "src"


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

    def test_huge_torsion_exit_0(self, capsys, tmp_path):
        doc = {
            "group": {"free_rank": 1, "torsion": [1009]},
            "weights": [[1, 0], [1, 1], [-1, 0], [-1, -1]],
        }
        code, report = run_json(capsys, "validate", write_doc(tmp_path, doc))
        assert code == 0
        assert report["validation"]["H"] == "Z x Z/1009"

    def test_least_code_table_over_budget_exit_2(self, capsys, tmp_path):
        # every generator of least E = 10007 has torsion of full order: N ~ 1.0e8
        doc = {
            "group": {"free_rank": 1, "torsion": [10007]},
            "weights": [[1, 1], [1, 2], [-1, -1], [-1, -2]],
        }
        start = time.perf_counter()
        code, report = run_json(capsys, "validate", write_doc(tmp_path, doc))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert report["error"]["type"] == "SearchBudgetExceeded"
        assert "100140049" in report["error"]["detail"]
        assert str(1 << 24) in report["error"]["detail"]

    def test_huge_invariant_factor_exit_2(self, capsys, tmp_path):
        # Z + Z/2^27: the cap is checked before the |T|-entry step table of p is built
        doc = {
            "group": {"free_rank": 1, "torsion": [1 << 27]},
            "weights": [[1, 0], [1, 1], [-1, 0], [-1, -1]],
        }
        start = time.perf_counter()
        code, report = run_json(capsys, "validate", write_doc(tmp_path, doc))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert report["error"]["type"] == "SearchBudgetExceeded"
        assert str(1 << 27) in report["error"]["detail"]

    def test_least_code_table_under_budget_exit_0(self, capsys, tmp_path):
        # same weights over Z/1009: N = 1009^2 = 1,018,081 entries still build
        doc = {
            "group": {"free_rank": 1, "torsion": [1009]},
            "weights": [[1, 1], [1, 2], [-1, -1], [-1, -2]],
        }
        code, report = run_json(capsys, "validate", write_doc(tmp_path, doc))
        assert code == 0
        assert report["validation"]["H"] == "Z x Z/1009"

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["exchange-graph"], ["mutate", "--class", "0", "--at", "(0)"],
         ["quiver", "--class", "0"]],
        ids=["classify", "exchange-graph", "mutate", "quiver"],
    )
    def test_orbit_tables_over_budget_exit_2(self, capsys, tmp_path, argv):
        # N = 1, but k = 20,001 orbits: the k x k tables would need 400,040,001 entries
        doc = {"group": {"free_rank": 1, "torsion": []}, "weights": [[20000], [1], [-20000], [-1]]}
        start = time.perf_counter()
        code, report = run_json(capsys, argv[0], write_doc(tmp_path, doc), *argv[1:])
        assert time.perf_counter() - start < 2
        assert code == 2
        assert report["error"]["type"] == "SearchBudgetExceeded"
        assert "400040001" in report["error"]["detail"]
        assert str(1 << 24) in report["error"]["detail"]

    # the torsion weight (0;1) spans Z/(2^24 + 1), so H = Z and |T_G| is just over the cap
    HUGE_KERNEL = {
        "group": {"free_rank": 1, "torsion": [(1 << 24) + 1]},
        "weights": [[1, 0], [1, 1], [-1, 0], [-1, -2], [0, 1]],
    }

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["mutate", "--class", "0", "--at", "(0)"], ["quiver", "--class", "0"]],
        ids=["classify", "mutate", "quiver"],
    )
    def test_quotient_tables_over_budget_exit_2(self, capsys, tmp_path, argv):
        start = time.perf_counter()
        code, report = run_json(capsys, argv[0], write_doc(tmp_path, self.HUGE_KERNEL), *argv[1:])
        assert time.perf_counter() - start < 2
        assert code == 2
        assert report["error"]["type"] == "SearchBudgetExceeded"
        assert str((1 << 24) + 1) in report["error"]["detail"]
        assert str(1 << 24) in report["error"]["detail"]

    def test_huge_kernel_validates(self, capsys, tmp_path):
        # validate builds neither quotient table
        start = time.perf_counter()
        code, report = run_json(capsys, "validate", write_doc(tmp_path, self.HUGE_KERNEL))
        assert time.perf_counter() - start < 2
        assert code == 0
        assert (report["validation"]["H"], report["validation"]["p"]) == ("Z", "(2)")

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
    def test_every_command_exits_0_or_2(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            for argv in FUZZED_COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([argv[0], str(path), *argv[1:]])
                assert code in (0, 2), argv

    @pytest.mark.parametrize("factor", [1 << 25, 1 << 31, 10 ** 12])
    @pytest.mark.parametrize("free_rank", [0, 1])
    def test_huge_invariant_factor_exits_0_or_2_fast(self, tmp_path, free_rank, factor):
        # one invariant factor above every cap; factors from 10^6 to 2^24 are
        # admitted and take seconds, so they stay out of this test
        weights = ([[1, 0], [1, 1], [-1, 0], [-1, -1]] if free_rank
                   else [[0, 1], [0, 1], [0, factor - 2]])
        path = write_doc(tmp_path, {"group": {"free_rank": free_rank, "torsion": [factor]},
                                    "weights": weights})
        for argv in FUZZED_COMMANDS:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([argv[0], str(path), *argv[1:]])
            assert time.perf_counter() - start < 1, argv
            assert code in (0, 2), argv


FUZZED_COMMANDS = [
    ["validate"],
    ["classify"],
    ["exchange-graph"],
    ["quiver", "--class", "0"],
    ["oracle", "--range", "-3..3", "--window", "6"],
    ["mckay"],
]


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

    @pytest.mark.parametrize("key", [*SYSTEM_SPECS, *LADDER, "torsion"])
    def test_classes_match_the_element_route(self, key):
        if key == "torsion":
            ctx = torsion_ladder_context()
        else:
            ctx = ladder_context(key) if key in LADDER else build_context(key)
        report = cmd_classify(SimpleNamespace(), ctx.weights)
        assert report["classes"] == classify_classes_by_elements(ctx)
        assert report["count"] == len(report["classes"])

    @settings(max_examples=25, deadline=None)
    @given(kernel_systems())
    def test_classes_match_the_element_route_with_a_kernel(self, ws):
        report = cmd_classify(SimpleNamespace(), ws)
        ctx = grading_context(ws)
        assert ctx.q.kernel_order > 1
        assert report["classes"] == classify_classes_by_elements(ctx)

    @pytest.mark.parametrize("command", ["classify", "exchange-graph"])
    def test_one_element_per_distinct_code(self, capsys, monkeypatch, tmp_path, command):
        # on the 146-class system, beyond what validate builds, only one
        # element per distinct code printed: none per class or per entry
        path = write_doc(tmp_path, TORSION_LADDER)
        built = count_element_constructions(monkeypatch)
        assert run(capsys, "validate", path)[0] == 0
        baseline = len(built)
        built.clear()
        code, report = run_json(capsys, command, path)
        assert code == 0
        if command == "classify":
            texts = [{t for c in report["classes"] for t in c[field]}
                     for field in ("rim", "summand_degrees")]
        else:
            texts = [{t for node in report["nodes"] for t in node["rim"]}]
        assert len(built) <= baseline + sum(map(len, texts))


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

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("degrees", ["", "   "], ids=["empty", "blank"])
    def test_empty_degree_set_exit_2(self, capsys, degrees, fmt):
        code, out = run(
            capsys, "quiver", INPUTS / "z3.json", "--degrees", degrees, "--format", fmt
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_empty_free_coordinate_exit_2(self, capsys):
        code, report = run_json(capsys, "quiver", INPUTS / "z3.json", "--degrees", "(;0) (0;1)")
        assert code == 2
        assert report["error"]["type"] == "ParseError"

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

    def test_small_bound_warning_goes_to_stderr_with_dot(self, capsys):
        # DOT has no place for the warning; stdout keeps exactly the DOT text
        code = main(["quiver", str(INPUTS / "ca4.json"), "--class", "0", "--bound", "1", "--format", "dot"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("digraph quiver {")
        assert captured.out.count("->") == 10
        assert captured.err == (
            "warning: search bound 1 is below the proven degree bound 10; arrows may be missing\n"
        )

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

    def test_result_outside_class_list_exit_3(self, capsys, monkeypatch):
        import toricnccr.cli

        # the stray rim {0, 1, 2, 3, 9} goes through the lookup the exchange
        # graph shares, in place of the mutated rim
        real = toricnccr.cli._class_of
        monkeypatch.setattr(toricnccr.cli, "_class_of",
                            lambda ctx, index, rim: real(ctx, index, (0, 1, 2, 3, 9)))
        code = main(["mutate", str(INPUTS / "ca4.json"), "--class", "0", "--at", "(1)"])
        captured = capsys.readouterr()
        assert code == 3
        assert "InternalInconsistency" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("at", ["()", "(;)"])
    def test_empty_free_coordinate_exit_2(self, capsys, at):
        code, report = run_json(capsys, "mutate", INPUTS / "ca4.json", "--class", 0, "--at", at)
        assert code == 2
        assert report["error"]["type"] == "ParseError"

    def test_bad_at_refused_before_enumeration(self, capsys, monkeypatch):
        import toricnccr.cli

        def enumerate_classes(ctx):
            raise AssertionError("the classes were enumerated")

        monkeypatch.setattr(toricnccr.cli, "_classes", enumerate_classes)
        code, report = run_json(
            capsys, "mutate", INPUTS / "ca4.json", "--class", 0, "--at", "(bad"
        )
        assert code == 2
        assert report["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("key", [*SYSTEM_SPECS, "w2525", "w3535", "torsion"])
    def test_result_class_is_exchange_graph_target(self, key, monkeypatch):
        # every (class, minimal element) edge, not only each class's first
        import toricnccr.cli

        if key == "torsion":
            ctx = torsion_ladder_context()
        else:
            ctx = ladder_context(key) if key in LADDER else build_context(key)
        classes = _classes(ctx)
        # one context and one enumeration serve every call; the lookup is mutate's own
        monkeypatch.setattr(toricnccr.cli, "grading_context", lambda ws: ctx)
        monkeypatch.setattr(toricnccr.cli, "_classes", lambda ctx: classes)
        edges = exchange_graph(ctx).edges
        assert len(edges) >= len(classes)
        for i, j, m in edges:
            report = cmd_mutate(SimpleNamespace(klass=i, at=str(m)), ctx.weights)
            assert (report["class"], report["at"], report["result_class"]) == (i, str(m), j)

    def test_no_element_per_class(self, capsys, monkeypatch, tmp_path):
        # on the 146-class system, elements are built for the chosen class,
        # its summands and the mutated set, never for every class
        ctx = torsion_ladder_context()
        path = write_doc(tmp_path, TORSION_LADDER)
        bound = 8 * ctx.orbit_count * ctx.q.kernel_order
        built = count_element_constructions(monkeypatch)
        for argv in (["mutate", path, "--class", 0, "--at", "(0;0)"],
                     ["quiver", path, "--class", 3]):
            built.clear()
            code, _ = run(capsys, *argv)
            assert code == 0
            assert len(built) <= bound, argv[0]

    def test_mutation_giving_no_nccr_exit_3(self, capsys, monkeypatch):
        # rim_of refuses a non-NCCR with NotNCCR, an InputError; after a
        # mutation that is a broken theorem, not bad input
        import toricnccr.cli

        real = toricnccr.cli.mutate_nccr

        def drop_one(ctx, summands, m):
            mutated, cert = real(ctx, summands, m)
            return list(mutated)[1:], cert

        monkeypatch.setattr(toricnccr.cli, "mutate_nccr", drop_one)
        code = main(["mutate", str(INPUTS / "ca4.json"), "--class", "0", "--at", "(1)"])
        captured = capsys.readouterr()
        assert code == 3
        assert "InternalInconsistency" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


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

    def test_huge_window_is_bounded_by_cap(self, capsys):
        # only coefficients that fit under the cap are tried, whatever the window
        start = time.perf_counter()
        code, huge = run(
            capsys, "oracle", INPUTS / "a1.json", "--range", "-2..2", "--window", "1000000"
        )
        assert code == 0
        assert time.perf_counter() - start < 2
        code, small = run(capsys, "oracle", INPUTS / "a1.json", "--range", "-2..2", "--window", "12")
        assert code == 0
        assert '"window": 1000000,' in huge
        assert huge.replace('"window": 1000000,', '"window": 12,') == small

    def test_oversized_range_exits_2_fast(self, capsys):
        # the witness table's work is bounded before it is built; ±3·10⁶
        # fits under the cap, ±10⁸ does not
        start = time.perf_counter()
        code, report = run_json(
            capsys, "oracle", INPUTS / "a1.json", "--range", "-100000000..100000000",
            "--window", "100000001",
        )
        assert time.perf_counter() - start < 2
        assert code == 2
        assert report["error"]["type"] == "SearchBudgetExceeded"
        assert "witness table needs" in report["error"]["detail"]

    def test_no_element_per_degree(self, capsys, monkeypatch):
        # elements are built per job, never per degree checked; each run
        # builds its own two witness tables
        built = count_element_constructions(monkeypatch)
        counts = []
        for span in ("-6..6", "-60..60"):
            toricnccr.oracle._witness_table.cache_clear()
            built.clear()
            code, _ = run(capsys, "oracle", INPUTS / "z4.json", "--range", span, "--window", "60")
            assert code == 0
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_internal_mismatch_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(toricnccr.oracle, "_mcm_sets", mcm_everywhere)
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

    def test_proper_subgroup_exit_2(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, {"group": {"free_rank": 0, "torsion": [4]}, "weights": [[0, 2], [0, 2]]}
        )
        code, report = run_json(capsys, "mckay", path)
        assert code == 2
        assert report["error"] == {
            "type": "GenerationFailure",
            "detail": "the weights generate a proper subgroup of Z/4",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["quiver", "--class", "0"],
            ["mutate", "--class", "0", "--at", "(0)"],
            ["exchange-graph"],
            ["oracle", "--range", "-2..2", "--window", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_graded_command_on_finite_group_exit_2(self, capsys, argv):
        # the library refuses the rank-zero system once, in GradedContext;
        # an exception escaping main() would fail the test
        code, report = run_json(capsys, argv[0], INPUTS / "mckay_z2.json", *argv[1:])
        assert code == 2
        assert report["error"]["type"] == "RankZeroGroup"


A1, CA4 = str(INPUTS / "a1.json"), str(INPUTS / "ca4.json")

# id -> (the report's command, argv)
MALFORMED = {
    "empty": (None, []),
    "unknown-command": (None, ["frob", A1]),
    "flag-first": (None, ["--class", "0", "quiver", CA4]),
    "non-integer": ("quiver", ["quiver", CA4, "--class", "x"]),
    "unknown-format": ("quiver", ["quiver", CA4, "--class", "0", "--format", "svg"]),
    "missing-required-flag": ("oracle", ["oracle", A1, "--range", "-2..2"]),
    "unknown-flag": ("validate", ["validate", A1, "--frob", "1"]),
    "abbreviated-flag": ("quiver", ["quiver", CA4, "--cl", "0"]),
    "help-after-command": ("validate", ["validate", A1, "--help"]),
    "repeated-flag": ("quiver", ["quiver", CA4, "--class", "0", "--class", "1"]),
    "repeated-joined-flag": ("exchange-graph", ["exchange-graph", A1, "--format=dot", "--format", "dot"]),
    "flag-without-value": ("quiver", ["quiver", CA4, "--class"]),
    "second-file": ("validate", ["validate", A1, A1]),
    "missing-file": ("validate", ["validate"]),
    "missing-file-with-flags": ("mutate", ["mutate", "--class", "0", "--at", "(0)"]),
}


def call(argv):
    """Exit code, stdout and stderr of one in-process call; a SystemExit fails."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) escaped main({argv!r})")
    return code, out.getvalue(), err.getvalue()


class TestParser:
    @pytest.mark.parametrize("command,argv", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_command_line_exit_2(self, command, argv):
        code, out, err = call(argv)
        assert code == 2
        assert err == ""
        report = json.loads(out)
        assert list(report) == ["format", "command", "error"]
        assert report["command"] == command
        assert report["error"]["type"] == "ParseError"
        assert report["error"]["detail"]

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["oracle", "--range", "5..1", "--window", "3"], "--range"),
            (["oracle", "--range", "oops", "--window", "3"], "--range"),
            (["quiver", "--degrees", " "], "--degrees"),
        ],
        ids=["empty-range", "bad-range", "empty-degrees"],
    )
    def test_bad_flag_value_refused_before_the_file_is_read(self, argv, flag):
        code, out, err = call([argv[0], "/nonexistent/input.json", *argv[1:]])
        assert (code, err) == (2, "")
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert flag in error["detail"] and "cannot read" not in error["detail"]

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage_exit_0(self, flag):
        code, out, err = call([flag])
        assert (code, err) == (0, "")
        assert out.startswith("usage: toricnccr ")
        synopsis = [line.split() for line in out.splitlines() if line.startswith("  ") and "FILE" in line]
        assert [line[0] for line in synopsis] == list(COMMANDS)
        for line, (_, _, flags) in zip(synopsis, COMMANDS.values()):
            assert [t.strip("[") for t in line if t.startswith(("--", "[--"))] == list(flags)

    @pytest.mark.parametrize(
        "spaced,joined",
        [
            (["oracle", A1, "--range", "-10..10", "--window", "12"],
             ["oracle", A1, "--range=-10..10", "--window=12"]),
            (["quiver", CA4, "--class", "0", "--bound", "3"], ["quiver", CA4, "--class=0", "--bound=3"]),
            (["quiver", CA4, "--class", "1", "--format", "dot"], ["quiver", "--format=dot", "--class=1", CA4]),
            (["mutate", CA4, "--class", "0", "--at", "(1)"], ["mutate", CA4, "--at=(1)", "--class", "0"]),
        ],
        ids=["range", "class-bound", "file-last", "mutate"],
    )
    def test_joined_flags_give_the_same_bytes(self, spaced, joined):
        first, second = call(spaced), call(joined)
        assert first == second
        assert first[0] == 0


class TestHandlers:
    """Each handler returns its report payload or DOT text and writes nothing;
    ``main`` alone loads the input, writes stdout and sets the exit code."""

    CALLS = [
        ["validate", INPUTS / "ca4.json"],
        ["validate", INPUTS / "mckay_z2.json"],
        ["classify", INPUTS / "z3.json"],
        ["quiver", INPUTS / "ca4.json", "--class", "0", "--bound", "1"],
        ["quiver", INPUTS / "a1.json", "--degrees", "0 1", "--format", "dot"],
        ["mutate", INPUTS / "ca4.json", "--class", "0", "--at", "(1)"],
        ["exchange-graph", INPUTS / "z2.json"],
        ["exchange-graph", INPUTS / "z2.json", "--format", "dot"],
        ["oracle", INPUTS / "a1.json", "--range", "-4..4", "--window", "6"],
        ["mckay", INPUTS / "mckay_z3.json"],
        ["mckay", INPUTS / "mckay_z3.json", "--format", "dot"],
    ]

    @pytest.mark.parametrize("argv", CALLS, ids=lambda argv: " ".join(map(str, argv[:1] + argv[2:])))
    def test_handler_returns_output_and_writes_nothing(self, capsys, argv):
        args = parse_args([str(a) for a in argv])
        ws = validate(*load_document(args.file))
        with warnings.catch_warnings(record=True):  # the --bound 1 quiver warns
            warnings.simplefilter("always")
            output = COMMANDS[args.command][0](args, ws)
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")
        if getattr(args, "format", None) == "dot":
            assert isinstance(output, str) and output.startswith("digraph ")
        else:
            assert isinstance(output, dict)
            assert not {"format", "command", "warnings", "error"} & set(output)

    def test_every_command_is_covered(self):
        assert {argv[0] for argv in self.CALLS} == set(COMMANDS)


FLAGS = sorted({flag for _, _, flags in COMMANDS.values() for flag in flags})
INTS = st.integers(-1, 12).map(str)
LABELS = st.sampled_from(["(0)", "(1)", "(3)", "(0;1)", "0 1", "0 2", "x"])
VALUES = {
    "--format": st.sampled_from(["json", "dot", "svg"]),
    "--range": st.sampled_from(["-3..3", "2..1", "x"]),
    "--degrees": LABELS,
    "--at": LABELS,
}
TOKENS = st.one_of(
    st.sampled_from(list(COMMANDS) + FLAGS + ["-h", "--help", "--cl", "-", A1]),
    INTS,
    *VALUES.values(),
)


@st.composite
def command_lines(draw):
    """A command, FILE (a1) and some of its flags, each with a drawn value,
    spaced or joined by ``=``; then none, one or three tokens (command words,
    flags, integers, formats, element labels, a1's path) inserted anywhere,
    and sometimes one token dropped.  Many lines run; most are malformed."""
    word = draw(st.sampled_from(list(COMMANDS)))
    tokens = [word, A1]
    for flag in COMMANDS[word][2]:
        if draw(st.integers(0, 3)):
            value = draw(VALUES.get(flag, INTS))
            tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(TOKENS))
    if draw(st.integers(0, 4)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return tokens


class TestParserFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(command_lines())
    def test_every_command_line_exits_0_or_2(self, argv):
        code, _, _ = call(argv)
        assert code in (0, 2), argv


def run_in_subprocess(argv, code="import sys; from toricnccr.cli import main; sys.exit(main(sys.argv[1:]))", **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, **kwargs)


class TestOneParserPerProcess:
    """A sequence of calls in one process prints what separate processes do.

    No parser is cached any more: ``parse_args`` reads each argv afresh
    against ``cli.COMMANDS``, and this keeps anything from carrying over
    between calls."""

    CALLS = [
        ["quiver", INPUTS / "z3.json", "--class", "2", "--format", "dot"],
        ["quiver", INPUTS / "z3.json", "--class", "1"],
        ["quiver", INPUTS / "ca4.json", "--degrees", "(0) (1) (2)", "--bound", "3"],
        ["quiver", INPUTS / "ca4.json", "--class", "0"],
        ["exchange-graph", INPUTS / "a1.json", "--format", "dot"],
        ["exchange-graph", INPUTS / "ca4.json"],
        ["mutate", INPUTS / "ca4.json", "--class", "0", "--at", "(3)"],
        ["oracle", INPUTS / "z2.json", "--range", "-4..4", "--window", "6"],
        ["classify", INPUTS / "mckay_z2.json"],
        ["validate", INPUTS / "z4.json"],
    ]

    def test_sequence_matches_separate_processes(self, capsys):
        in_process = [run(capsys, *argv) for argv in self.CALLS]
        for argv, (code, out) in zip(self.CALLS, in_process):
            alone = run_in_subprocess([str(a) for a in argv], capture_output=True, text=True)
            assert (code, out) == (alone.returncode, alone.stdout), argv
        assert {code for code, _ in in_process} == {0, 2}


class TestClosedStdout:
    """A reader that is gone before the report is written costs the report,
    not the exit code; no traceback."""

    ORACLE = ["oracle", str(INPUTS / "z4.json"), "--range", "-60..60", "--window", "60"]

    def run_with_closed_stdout(self, argv, **kwargs):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            return run_in_subprocess(argv, stdout=write_end, stderr=subprocess.PIPE, text=True, **kwargs)
        finally:
            os.close(write_end)

    def test_success_exits_0(self):
        done = self.run_with_closed_stdout(self.ORACLE)
        assert done.returncode == 0
        assert "Traceback" not in done.stderr and "BrokenPipe" not in done.stderr

    def test_dot_output_exits_0(self):
        done = self.run_with_closed_stdout(["quiver", str(INPUTS / "z3.json"), "--class", "0", "--format", "dot"])
        assert done.returncode == 0
        assert "Traceback" not in done.stderr and "BrokenPipe" not in done.stderr

    def test_failed_check_exits_3(self):
        done = self.run_with_closed_stdout(
            self.ORACLE,
            code="import sys, toricnccr.oracle; toricnccr.oracle._mcm_sets = "
            "lambda ctx, cap: ([(1 << cap + 1) - 1] * ctx.source_codes.order,) * 2; "
            "from toricnccr.cli import main; sys.exit(main(sys.argv[1:]))",
        )
        assert done.returncode == 3
        assert "internal check failed" in done.stderr
        assert "Traceback" not in done.stderr and "BrokenPipe" not in done.stderr


def test_import_loads_no_dataclasses():
    # every CLI call pays its imports; `@dataclass` execs generated source per
    # class and imports `inspect`, so the value classes must not use it
    code = ("import sys; before = 'dataclasses' in sys.modules; import toricnccr.cli; "
            "print(before, 'dataclasses' in sys.modules)")
    done = run_in_subprocess([], code=code, capture_output=True, text=True, check=True)
    before, after = done.stdout.split()
    if before == "True":
        pytest.skip("dataclasses is loaded at interpreter start-up here")
    assert after == "False"


def test_import_loads_no_random():
    # the package proves its certificates and samples nothing; -S skips the
    # site hooks, some of which (certifi's) import random at start-up
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import toricnccr.cli; "
            "print('random' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]


def test_cli_call_loads_no_argparse():
    # the command line is read against cli.COMMANDS; building argparse parsers
    # once cost about a third of a batch of small calls
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import toricnccr.cli; "
            f"code = toricnccr.cli.main(['validate', {A1!r}]); "
            "print(code, 'argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1].split() == ["0", "False"]


def test_readme_usage_matches_command_table():
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line.split() for line in block.splitlines() if line.startswith("toricnccr ")]
    assert ["toricnccr", "--help"] in lines
    synopses = [line[1:] for line in lines if line[1] != "--help"]
    assert {line[0] for line in synopses} == set(COMMANDS)
    named = {(line[0], t.strip("[]")) for line in synopses for t in line if t.strip("[").startswith("--")}
    assert named == {(word, flag) for word, (_, _, flags) in COMMANDS.items() for flag in flags}
