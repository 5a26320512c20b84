"""Batch command line: validate, classify, draw quivers, mutate, crosscheck.

Input files are JSON documents::

    {"group": {"free_rank": 1, "torsion": [4]},
     "weights": [[1, 0], [1, 1], [-1, 0], [-1, 3], [0, 2]]}

Every weight vector lists the free coordinate first, then one residue per
torsion invariant (a zero free coordinate is required for rank-zero groups).
Reports are JSON on stdout; ``--format dot`` switches graph commands to DOT.
Exit codes: 0 success, 2 bad input, 3 internal assertion failure (a theorem
was violated, i.e. a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings as warnings_module

from . import __version__
from .errors import InputError, InternalCheckError, ParseError, UnknownClass
from .groups import FGGroup, parse_element
from .nccr import (
    is_modifying,
    is_nccr,
    mutate_nccr,
    nccr_classes,
    preimage_summands,
    rim_of,
)
from .oracle import crosscheck_mcm, sufficient_window
from .poset import grading_context
from .quivers import emit_dot, endomorphism_quiver, mckay_quiver, monomial_label
from .uppersets import exchange_graph, normalize, translation_classes
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
            raise ValueError("free_rank and torsion must be JSON integers")
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


def _report(command, payload, warnings_=()):
    report = {"format": REPORT_FORMAT, "command": command}
    report.update(payload)
    report["warnings"] = list(warnings_)
    return report


def _emit(report):
    print(json.dumps(report, indent=2))


def _class_payload(ctx, index, rim, summands):
    return {
        "index": index,
        "rim": [str(h) for h in rim],
        "summand_degrees": [str(g) for g in summands],
        "vertex_count": len(summands),
    }


def _quiver_payload(quiver):
    return {
        "vertices": [str(v) for v in quiver.vertices],
        "arrows": [
            {
                "source": str(quiver.vertices[a.source]),
                "target": str(quiver.vertices[a.target]),
                "monomial": monomial_label(a.exponents),
                "exponents": list(a.exponents),
            }
            for a in quiver.arrows
        ],
        "arrow_count": len(quiver.arrows),
        "loop_count": len(quiver.loops()),
    }


def _context_for(path):
    group, raw = load_document(path)
    ws = validate(group, raw)
    if ws.is_finite:
        raise InputError(
            "this command needs a rank-one system; use 'mckay' for finite groups"
        )
    return ws, grading_context(ws)


def _pick_class(classes, k):
    if not 0 <= k < len(classes):
        raise UnknownClass(f"class {k} out of range 0..{len(classes) - 1}")
    return classes[k]


def cmd_validate(args):
    group, raw = load_document(args.file)
    ws = validate(group, raw)
    ctx = None if ws.is_finite else grading_context(ws)
    _emit(_report("validate", {"validation": _validation_summary(ws, ctx)}))
    return 0


def cmd_classify(args):
    ws, ctx = _context_for(args.file)
    classes = translation_classes(ctx)
    payload = {
        "validation": _validation_summary(ws, ctx),
        "count": len(classes),
        "classes": [
            _class_payload(ctx, i, c.rim, preimage_summands(ctx, c.rim))
            for i, c in enumerate(classes)
        ],
    }
    _emit(_report("classify", payload))
    return 0


def cmd_quiver(args):
    ws, ctx = _context_for(args.file)
    if (args.klass is None) == (args.degrees is None):
        raise InputError("give exactly one of --class or --degrees")
    if args.bound is not None and args.bound < 1:
        raise InputError(f"--bound must be at least 1, got {args.bound}")
    if args.klass is not None:
        summands = preimage_summands(ctx, _pick_class(translation_classes(ctx), args.klass).rim)
    else:
        degrees = [parse_element(ws.group, t) for t in args.degrees.split()]
        summands = degrees
        if not is_modifying(ctx, degrees):
            raise InputError("the degree set is not modifying; no quiver")
    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        quiver = endomorphism_quiver(ctx, summands, args.bound)
    if args.format == "dot":
        sys.stdout.write(emit_dot(quiver))
        return 0
    payload = {
        "validation": _validation_summary(ws, ctx),
        "is_modifying": bool(is_modifying(ctx, summands)),
        "is_nccr": bool(is_nccr(ctx, summands)),
        "quiver": _quiver_payload(quiver),
    }
    if args.klass is not None:
        payload["class"] = args.klass
    _emit(_report("quiver", payload, [str(w.message) for w in caught]))
    return 0


def cmd_mutate(args):
    ws, ctx = _context_for(args.file)
    classes = translation_classes(ctx)
    node = _pick_class(classes, args.klass)
    m = parse_element(ctx.group, args.at)
    summands = preimage_summands(ctx, node.rim)
    mutated, cert = mutate_nccr(ctx, summands, m)
    target = normalize(ctx, rim_of(ctx, mutated))
    target_index = next(
        i for i, c in enumerate(classes) if c.rim.serialized() == target.serialized()
    )
    payload = {
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
    _emit(_report("mutate", payload))
    return 0


def cmd_exchange_graph(args):
    ws, ctx = _context_for(args.file)
    graph = exchange_graph(ctx)
    if args.format == "dot":
        lines = ["digraph exchange {"]
        for i, node in enumerate(graph.nodes):
            lines.append(f'  "class{i}" [label="{node.rim}"];')
        for a, b, m in graph.edges:
            lines.append(f'  "class{a}" -> "class{b}" [label="{m}"];')
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    payload = {
        "validation": _validation_summary(ws, ctx),
        "nodes": [
            {"index": i, "rim": [str(h) for h in node.rim]}
            for i, node in enumerate(graph.nodes)
        ],
        "edges": [{"from": a, "to": b, "at": str(m)} for a, b, m in graph.edges],
        "connected": graph.connected,
        "verdict": "CONNECTED" if graph.connected else "DISCONNECTED",
    }
    _emit(_report("exchange-graph", payload))
    return 0


def cmd_oracle(args):
    ws, ctx = _context_for(args.file)
    lo, hi = _parse_range(args.range)
    degrees = [
        ws.group.element(f, t)
        for f in range(lo, hi + 1)
        for t in ws.group.torsion_residues()
    ]
    need = sufficient_window(ctx, degrees)
    if args.window < need:
        raise InputError(f"--window {args.window} is below the sufficiency bound {need}")
    report = crosscheck_mcm(ctx, degrees, args.window, strict=False)
    payload = {
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
    _emit(_report("oracle", payload))
    if report.mismatches:
        raise InternalCheckError(report.summary())
    return 0


def cmd_mckay(args):
    group, raw = load_document(args.file)
    ws = validate(group, raw)
    quiver = mckay_quiver(ws)
    if args.format == "dot":
        sys.stdout.write(emit_dot(quiver))
        return 0
    payload = {
        "group": str(ws.group),
        "weights": [str(w) for w in ws.weights],
        "quiver": _quiver_payload(quiver),
    }
    _emit(_report("mckay", payload))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ParseError(f"range must look like -10..10, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ParseError(f"bad range {text!r}") from exc
    if lo > hi:
        raise ParseError(f"range {text!r} is empty")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricnccr",
        description="classify toric NCCRs of rank-one Gorenstein toric singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a weight system file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="enumerate NCCR translation classes")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quiver", help="quiver of one class or a raw degree set")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", type=int, default=None)
    p.add_argument("--degrees", default=None, help="space-separated degree labels")
    p.add_argument(
        "--bound",
        type=int,
        default=None,
        help="cap on the total degree of the arrow search (default: the proven "
        "degree bound; a lower cap warns that arrows may be missing)",
    )
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("mutate", help="Iyama-Wemyss mutation of a class")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", type=int, required=True)
    p.add_argument("--at", required=True, help="minimal element of the quotient H")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("exchange-graph", help="mutation graph of all classes")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_exchange_graph)

    p = sub.add_parser("oracle", help="crosscheck the Cohen-Macaulay criterion")
    p.add_argument("file")
    p.add_argument("--range", required=True, help="free-part range, e.g. -10..10")
    p.add_argument("--window", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mckay", help="McKay quiver for a finite grading group")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_mckay)

    return parser


def _join_range_flag(argv):
    # let "--range -10..10" through argparse, which would read the value as a flag
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_join_range_flag(list(argv)))
    try:
        return args.func(args)
    except InputError as exc:
        _emit(
            {
                "format": REPORT_FORMAT,
                "command": args.command,
                "error": {"type": type(exc).__name__, "detail": str(exc)},
            }
        )
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
