"""Byte-for-byte golden CLI reports on the seven systems in ``inputs/``.

``golden_reports.json`` holds, for each command line, its exit code and the
sha256 of its stdout; any change to a report's bytes fails the test.  The
last lines are refused inputs, so the bytes of exit-2 error reports are
pinned too, escapes in their detail text included.  Two oracle lines
before them check every degree of free part -2000..2000.  After an
intended report change, re-record with::

    PYTHONPATH=src python3 tests/test_golden_reports.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from toricnccr.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).with_name("golden_reports.json")
RANK_ONE = ("a1", "ca4", "z2", "z3", "z4")
FINITE = ("mckay_z2", "mckay_z3")
# exit 2: an unknown class, a finite group where a rank-one system is needed, a
# non-minimal element, bad element texts (non-ASCII; a quote and a backslash),
# an infinite group for the McKay quiver and an empty range
ERROR_LINES = [
    ["quiver", "inputs/z3.json", "--class", "99"],
    ["classify", "inputs/mckay_z2.json"],
    ["mutate", "inputs/z3.json", "--class", "0", "--at", "(9;9)"],
    ["quiver", "inputs/z3.json", "--degrees", "(0;0) (1;\u00e9)"],
    ["mutate", "inputs/z3.json", "--class", "0", "--at", '(0;"\\)'],
    ["mckay", "inputs/z3.json"],
    ["oracle", "inputs/z4.json", "--range", "5..1", "--window", "3"],
]
# wide oracle ranges, whose MCM and witness sets span thousands of bits
WIDE_LINES = [
    ["oracle", f"inputs/{n}.json", "--range", "-2000..2000", "--window", "2001"] for n in ("z3", "z4")
]


def run(argv):
    """Exit code and stdout of one CLI call, run from the repository root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def command_lines():
    """Every golden command line; mutations start at each class's first edge."""
    lines = [["validate", f"inputs/{n}.json"] for n in sorted(RANK_ONE + FINITE)]
    for n in RANK_ONE:
        f = f"inputs/{n}.json"
        lines += [["classify", f], ["exchange-graph", f], ["exchange-graph", f, "--format", "dot"]]
        graph = json.loads(run(["exchange-graph", f])[1])
        for node in graph["nodes"]:
            k = node["index"]
            lines.append(["quiver", f, "--class", str(k)])
            edge = next((e for e in graph["edges"] if e["from"] == k), None)
            if edge is not None:
                lines.append(["mutate", f, "--class", str(k), "--at", edge["at"]])
        lines.append(["quiver", f, "--class", "0", "--format", "dot"])
        lines.append(["oracle", f, "--range", "-20..20", "--window", "24"])
    for n in FINITE:
        f = f"inputs/{n}.json"
        lines += [["mckay", f], ["mckay", f, "--format", "dot"]]
    return lines + WIDE_LINES + ERROR_LINES


def record():
    os.chdir(ROOT)
    golden = []
    for argv in command_lines():
        code, out = run(argv)
        golden.append(
            {"argv": argv, "exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
        )
    DATA.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


GOLDEN = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_report_bytes_unchanged(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run(case["argv"])
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_golden_set_is_complete(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert [c["argv"] for c in GOLDEN] == command_lines()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
