"""Batch command line: validate, classify, draw quivers, mutate, crosscheck.

Input files are JSON documents::

    {"group": {"free_rank": 1, "torsion": [4]},
     "weights": [[1, 0], [1, 1], [-1, 0], [-1, 3], [0, 2]]}

Every weight vector lists the free coordinate first, then one residue per
torsion invariant (a zero free coordinate is required for rank-zero groups).
Reports are JSON on stdout; ``--format dot`` switches graph commands to DOT,
and then each warning goes to stderr as one ``warning: ...`` line.
Exit codes: 0 success, 2 bad input (any ``InputError``, a malformed command
line included), 3 internal assertion failure (a theorem was violated, a bug).
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from types import SimpleNamespace

from . import __version__
from .errors import (
    InputError,
    InternalCheckError,
    InternalInconsistency,
    NotNCCR,
    OracleMismatch,
    ParseError,
    UnknownClass,
)
from .groups import FGGroup, indented_json, parse_element
from .nccr import is_modifying, is_nccr, mutate_nccr, preimage_summands, rim_of
from .oracle import crosscheck_range
from .poset import grading_context
from .quivers import emit_dot, endomorphism_quiver, mckay_quiver, quiver_payload
from .uppersets import Rim, _class_of, _classes, exchange_graph
from .weights import validate

REPORT_FORMAT = f"toricnccr-report/{__version__}"


def load_document(path: str):
    """Parse an input file into a group and its raw weight elements."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "group" not in doc or "weights" not in doc:
        raise ParseError(f"{path}: expected an object with 'group' and 'weights'")
    if not isinstance(doc["weights"], list):
        raise ParseError(f"{path}: 'weights' must be a list, got {doc['weights']!r}")
    gspec = doc["group"]
    try:
        free_rank, torsion = gspec["free_rank"], gspec.get("torsion", [])
        if not _json_ints([free_rank, *torsion]):
            raise ParseError("free_rank and torsion must be JSON integers")
        group = FGGroup(free_rank, tuple(torsion))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad group spec {gspec!r}: {exc}") from exc
    weights = []
    for vec in doc["weights"]:
        if not isinstance(vec, list) or not _json_ints(vec):
            raise ParseError(f"{path}: weight {vec!r} is not a list of JSON integers")
        weights.append(group.from_vector(vec))
    return group, weights


def _json_ints(values) -> bool:
    # bool is a subclass of int, so test the exact type
    return all(type(v) is int for v in values)


def _validation_summary(ws, ctx=None):
    summary = {
        "group": str(ws.group),
        "weights": [str(w) for w in ws.weights],
        "permutation": list(ws.permutation),
        "positives": ws.positives,
        "negatives": ws.negatives,
        "ring_dimension": ws.ring_dimension,
    }
    if ctx is not None:
        summary["H"] = str(ctx.group)
        summary["p"] = str(ctx.p)
        summary["orbit_count"] = ctx.orbit_count
    return summary


def _write(*parts):
    # parts are written apart, not joined into a copy; once the reader has
    # gone, the rest goes to the null device, and the exit code is kept
    try:
        sys.stdout.writelines(parts)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _class_summands(ctx, classes, k):
    """The NCCR summands of class ``k`` of the code-tuple class list."""
    if not 0 <= k < len(classes):
        raise UnknownClass(f"class {k} out of range 0..{len(classes) - 1}")
    return preimage_summands(ctx, Rim(tuple(map(ctx.codes.element, classes[k][0]))))


# every handler takes the parsed flags and the validated weight system and
# returns a report payload (a dict) or DOT text; ``main`` writes it


def cmd_validate(args, ws):
    ctx = None if ws.is_finite else grading_context(ws)
    return {"validation": _validation_summary(ws, ctx)}


def cmd_classify(args, ws):
    ctx = grading_context(ws)
    rims = [rim for rim, _ in _classes(ctx)]
    summands = [ctx.preimage_codes(rim) for rim in rims]
    # one text per distinct code: a class list repeats a few codes many times
    rim_text, degree_text = (
        {c: str(g) for c, g in codes.elements(x for row in rows for x in row).items()}
        for codes, rows in ((ctx.codes, rims), (ctx.source_codes, summands)))
    return {
        "validation": _validation_summary(ws, ctx),
        "count": len(rims),
        "classes": [
            {"index": i, "rim": [rim_text[h] for h in rim],
             "summand_degrees": [degree_text[g] for g in degrees], "vertex_count": len(degrees)}
            for i, (rim, degrees) in enumerate(zip(rims, summands))
        ],
    }


def cmd_quiver(args, ws):
    ctx = grading_context(ws)
    if (args.klass is None) == (args.degrees is None):
        raise InputError("give exactly one of --class or --degrees")
    if args.klass is not None:
        summands = _class_summands(ctx, _classes(ctx), args.klass)
    else:
        summands = [parse_element(ws.group, t) for t in args.degrees]
    modifying = is_modifying(ctx, summands)
    if args.klass is None and not modifying:
        raise InputError("the degree set is not modifying; no quiver")
    quiver = endomorphism_quiver(ctx, summands, args.bound)
    if args.format == "dot":
        return emit_dot(quiver)
    payload = {
        "validation": _validation_summary(ws, ctx),
        "is_modifying": modifying,
        "is_nccr": bool(is_nccr(ctx, summands)),
        "quiver": quiver_payload(quiver),
    }
    if args.klass is not None:
        payload["class"] = args.klass
    return payload


def cmd_mutate(args, ws):
    ctx = grading_context(ws)
    m = parse_element(ctx.group, args.at)  # a bad --at is refused before the enumeration
    classes = _classes(ctx)
    mutated, cert = mutate_nccr(ctx, _class_summands(ctx, classes, args.klass), m)
    try:
        rim = rim_of(ctx, mutated)
    except NotNCCR as exc:  # mutation keeps the NCCR property: a bug, not bad input
        raise InternalInconsistency(f"mutation gave no NCCR: {exc}") from None
    index = {r: i for i, (r, _) in enumerate(classes)}
    target_index = _class_of(ctx, index, tuple(sorted(map(ctx.codes.code, rim))))
    return {
        "validation": _validation_summary(ws, ctx),
        "class": args.klass,
        "at": str(m),
        "mutated_summands": [str(g) for g in mutated],
        "result_class": target_index,
        "certificate": {
            "fixed_degrees": [str(g) for g in cert.fixed_part],
            "removed_orbit": str(cert.removed_orbit),
            "plus_steps": cert.plus_steps,
            "minus_steps": cert.minus_steps,
        },
    }


def cmd_exchange_graph(args, ws):
    ctx = grading_context(ws)
    graph = exchange_graph(ctx)
    # the nodes and edges share one element object per code: one text per object
    elements = {id(h): h for node in graph.nodes for h in node.rim}
    text = dict(zip(elements, map(str, elements.values()))).__getitem__
    if args.format == "dot":
        lines = ["digraph exchange {"]
        for i, node in enumerate(graph.nodes):
            lines.append(f'  "class{i}" [label="{{{", ".join(map(text, map(id, node.rim)))}}}"];')
        for a, b, m in graph.edges:
            lines.append(f'  "class{a}" -> "class{b}" [label="{text(id(m))}"];')
        lines.append("}\n")
        return "\n".join(lines)
    return {
        "validation": _validation_summary(ws, ctx),
        "nodes": [
            {"index": i, "rim": list(map(text, map(id, node.rim)))}
            for i, node in enumerate(graph.nodes)
        ],
        "edges": [{"from": a, "to": b, "at": text(id(m))} for a, b, m in graph.edges],
        # exchange_graph raised DisconnectedGraph (exit 3) if it was not
        "connected": True,
        "verdict": "CONNECTED",
    }


def cmd_oracle(args, ws):
    ctx = grading_context(ws)
    lo, hi = args.range
    try:
        report = crosscheck_range(ctx, lo, hi, args.window)
    except OracleMismatch as exc:  # report the disagreement; main then exits 3
        report = exc.report
    return {
        "validation": _validation_summary(ws, ctx),
        "range": f"{lo}..{hi}",
        "window": args.window,
        "checked": report.checked,
        "agree": report.agreements,
        "mismatches": [
            {"degree": str(g), "is_mcm": mcm, "witness": list(w) if w else None}
            for g, mcm, w in report.mismatches
        ],
        "summary": report.summary(),
    }


def cmd_mckay(args, ws):
    quiver = mckay_quiver(ws)
    if args.format == "dot":
        return emit_dot(quiver)
    return {
        "group": str(ws.group),
        "weights": [str(w) for w in ws.weights],
        "quiver": quiver_payload(quiver),
    }


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParseError("expected LO..HI, like -10..10") from None
    if lo > hi:
        raise ParseError("the range is empty")
    return lo, hi


def _parse_degrees(text: str) -> list[str]:
    labels = text.split()
    if not labels:
        raise ParseError("no degree labels")
    return labels


def _format(text: str) -> str:
    if text not in ("json", "dot"):
        raise ParseError("expected json or dot")
    return text


_FORMAT = ("format", _format, False)

# command word -> (handler, help, {flag: (destination, converter, required)});
# every command also takes one FILE, and an absent flag reads as None
COMMANDS = {
    "validate": (cmd_validate, "check a weight system file", {}),
    "classify": (cmd_classify, "enumerate NCCR translation classes", {}),
    "quiver": (cmd_quiver, "quiver of one class or a raw degree set", {
        "--class": ("klass", int, False), "--degrees": ("degrees", _parse_degrees, False),
        "--bound": ("bound", int, False), "--format": _FORMAT}),
    "mutate": (cmd_mutate, "Iyama-Wemyss mutation of a class",
               {"--class": ("klass", int, True), "--at": ("at", str, True)}),
    "exchange-graph": (cmd_exchange_graph, "mutation graph of all classes", {"--format": _FORMAT}),
    "oracle": (cmd_oracle, "crosscheck the Cohen-Macaulay criterion",
               {"--range": ("range", _parse_range, True), "--window": ("window", int, True)}),
    "mckay": (cmd_mckay, "McKay quiver for a finite grading group", {"--format": _FORMAT}),
}


def usage() -> str:
    """The synopsis of every command in ``COMMANDS``, printed by ``--help``."""
    lines = ["usage: toricnccr COMMAND FILE [--flag VALUE | --flag=VALUE ...]",
             "       toricnccr --help"]
    for word, (_, help_, flags) in COMMANDS.items():
        spec = "".join(f" {f} {f[2:].upper()}" if req else f" [{f} {f[2:].upper()}]"
                       for f, (_, _, req) in flags.items())
        lines += [f"  {word} FILE{spec}", f"      {help_}"]
    return "\n".join(lines + ["FORMAT is json (the default) or dot; RANGE looks like -10..10.", ""])


def parse_args(argv) -> SimpleNamespace:
    """Read ``COMMAND FILE`` and that command's flags, as ``--flag VALUE`` or
    ``--flag=VALUE``, in one pass; the token after a flag is its value even
    when it starts with ``-``.  A malformed command line raises ``ParseError``."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        raise ParseError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    flags = COMMANDS[command][2]
    args = SimpleNamespace(command=command, file=None, **{d: None for d, _, _ in flags.values()})
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if args.file is not None:
                raise ParseError(f"{command} takes one FILE, got a second: {token!r}")
            args.file = token
            continue
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ParseError(f"{command} has no flag {flag}")
        dest, convert, _ = flags[flag]
        if getattr(args, dest) is not None:
            raise ParseError(f"{flag} is given twice")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ParseError(f"{flag} needs a value")
        try:
            setattr(args, dest, convert(value))
        except ValueError as exc:  # int's, or the format check's ParseError
            raise ParseError(f"bad {flag} {value!r}: {exc}") from None
    if args.file is None:
        raise ParseError(f"{command} needs a FILE")
    missing = [f for f, (d, _, required) in flags.items() if required and getattr(args, d) is None]
    if missing:
        raise ParseError(f"{command} needs {' and '.join(missing)}")
    return args


def main(argv=None) -> int:
    """Run one command line; return 0, 2 (an ``InputError``) or 3 (an
    ``InternalCheckError``).  Only here is the input read and stdout written."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] in (["-h"], ["--help"]):
        _write(usage())
        return 0
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = parse_args(argv)
        ws = validate(*load_document(args.file))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            output = COMMANDS[command][0](args, ws)
        notes = [str(w.message) for w in caught]
        if isinstance(output, str):  # DOT text has no place for warnings
            for note in notes:
                print(f"warning: {note}", file=sys.stderr)
            _write(output)
        else:
            _write(indented_json({"format": REPORT_FORMAT, "command": command, **output,
                                  "warnings": notes}), "\n")
            if output.get("mismatches"):  # an oracle disagreement, reported in full above
                raise InternalCheckError(output["summary"])
        return 0
    except InputError as exc:
        error = {"type": type(exc).__name__, "detail": str(exc)}
        _write(indented_json({"format": REPORT_FORMAT, "command": command, "error": error}), "\n")
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
