"""The refusal contract: every bad argument is refused once, in the library,
with an ``InputError``, which is a ``ValueError``; the command line maps it
to exit code 2 without checking the argument again."""

import ast
import re
from pathlib import Path

import pytest

from toricnccr import (
    FGGroup,
    InputError,
    MismatchedGroup,
    NotMinimal,
    ParseError,
    Rim,
    classify_sign_vector,
    crosscheck_mcm,
    endomorphism_quiver,
    face_test,
    local_cohomology_window,
    nccr_classes,
    normalize,
    parse_element,
    sign_pattern_witness,
    sufficient_window,
    support_complex,
    validate,
)
from toricnccr.cli import parse_args
from toricnccr.groups import int_text
from conftest import build_context, build_system

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricnccr"


def _ca4():
    return build_context("ca4")


Z = FGGroup(1)


REFUSALS = {
    "free-rank": (lambda: FGGroup(2), r"^free rank must be 0 or 1, got 2$"),
    "invariant-factor": (lambda: FGGroup(1, (1,)), r"^invariant factor 1 < 2$"),
    "invariant-chain": (lambda: FGGroup(0, [2, 3]), r"^invariant chain broken: \(2, 3\)$"),
    "witness-window": (
        lambda: sign_pattern_witness(_ca4().weights, _ca4().group.element(2), 0),
        r"^window must be at least 1$",
    ),
    "crosscheck-window": (
        lambda: crosscheck_mcm(_ca4(), [_ca4().group.element(f) for f in range(-20, 21)], 1),
        r"^window 1 below the sufficiency bound \d+$",
    ),
    "sign-vector-length": (
        lambda: classify_sign_vector(_ca4().weights, (0, 0, 0)),
        r"^sign vector length 3, expected 4$",
    ),
    "support-vector-length": (
        lambda: support_complex(_ca4().weights, (0,) * 5),
        r"^sign vector length 5, expected 4$",
    ),
    "sign-vector-entries": (
        lambda: classify_sign_vector(build_system("a1"), ("a",) * 4),
        r"^a sign vector is a sequence of numbers, got \('a', 'a', 'a', 'a'\)$",
    ),
    "sign-vector-scalar": (
        lambda: classify_sign_vector(build_system("a1"), 5),
        r"^a sign vector is a sequence of numbers, got 5$",
    ),
    "support-vector-none": (
        lambda: support_complex(build_system("a1"), (1, None, 0, 0)),
        r"^a sign vector is a sequence of numbers, got \(1, None, 0, 0\)$",
    ),
    "face-vertex-above": (
        lambda: face_test(build_system("a1"), [7]),
        r"^vertex index 7 outside 0\.\.3$",
    ),
    "face-vertex-below": (
        lambda: face_test(build_system("a1"), [0, -1]),
        r"^vertex index -1 outside 0\.\.3$",
    ),
    "face-vertex-fraction": (
        lambda: face_test(build_system("a1"), [1.5]),
        r"^vertex index must be an integer, got 1\.5$",
    ),
    "face-vertex-bool": (
        lambda: face_test(build_system("a1"), [True]),
        r"^vertex index must be an integer, got True$",
    ),
    "cohomology-window": (
        lambda: local_cohomology_window(_ca4().weights, _ca4().group.element(2), -1),
        r"^window must be nonnegative$",
    ),
    "quiver-bound": (
        lambda: endomorphism_quiver(_ca4(), nccr_classes(_ca4())[0], 0),
        r"^search bound must be at least 1$",
    ),
    # a number that is no exact int, refused by FGGroup alone
    "float-rank": (lambda: FGGroup(1.0), r"^free rank must be an integer, got 1\.0$"),
    "bool-rank": (lambda: FGGroup(True), r"^free rank must be an integer, got True$"),
    "float-factor": (
        lambda: FGGroup(1, (2.5,)), r"^invariant factor must be an integer, got 2\.5$"
    ),
    "string-factor": (
        lambda: FGGroup(0, [2, "4"]), r"^invariant factor must be an integer, got '4'$"
    ),
    "float-free": (lambda: Z.element(1.7), r"^coordinate must be an integer, got 1\.7$"),
    "bool-free": (lambda: Z.element(True), r"^coordinate must be an integer, got True$"),
    "float-torsion": (
        lambda: FGGroup(1, (4,)).element(0, (1.5,)), r"^coordinate must be an integer, got 1\.5$"
    ),
    "float-vector": (lambda: Z.from_vector([1.7]), r"^coordinate must be an integer, got 1\.7$"),
    "scalar-vector": (
        lambda: Z.from_vector(5), r"^a weight vector of Z is a list of length 1, got 5$"
    ),
    # a torsion argument or a weight list that is no list or tuple
    "scalar-torsion": (lambda: FGGroup(1, 5), r"^torsion must be a list or tuple, got 5$"),
    "none-torsion": (lambda: FGGroup(1, None), r"^torsion must be a list or tuple, got None$"),
    "scalar-torsion-coordinates": (
        lambda: FGGroup(1, (4,)).element(0, 5),
        r"^torsion coordinates must be a list or tuple, got 5$",
    ),
    "none-weights": (lambda: validate(Z, None), r"^weights must be a list or tuple, got None$"),
    "scalar-weights": (lambda: validate(Z, 5), r"^weights must be a list or tuple, got 5$"),
    # the same-group test, made by FGGroup.owns alone
    "raw-weights": (lambda: validate(Z, [1, 2, -1, -2]), r"^1 is not an element of Z$"),
    "foreign-weights": (
        lambda: validate(Z, [FGGroup(1, (2,)).element(w, (0,)) for w in (1, 1, -1, -1)]),
        r"^<\(1;0\) in Z x Z/2> is not an element of Z$",
    ),
    "element-plus-int": (lambda: Z.element(1) + 1, r"^1 is not an element of Z$"),
    "raw-summands": (
        lambda: endomorphism_quiver(_ca4(), [1, 2]), r"^[12] is not an element of Z$"
    ),
    "raw-window-degrees": (
        lambda: sufficient_window(_ca4(), [3]), r"^3 is not an element of Z$"
    ),
    # an empty rim, and arguments of another type, refused before any comparison
    "empty-rim": (lambda: normalize(_ca4(), Rim(())), r"^a canonical form needs a nonempty rim$"),
    "witness-window-text": (
        lambda: sign_pattern_witness(_ca4().weights, _ca4().group.element(2), "3"),
        r"^window must be an integer, got '3'$",
    ),
    "crosscheck-window-text": (
        lambda: crosscheck_mcm(_ca4(), [_ca4().group.element(2)], "5"),
        r"^window must be an integer, got '5'$",
    ),
    "quiver-bound-text": (
        lambda: endomorphism_quiver(_ca4(), nccr_classes(_ca4())[0], "3"),
        r"^search bound must be an integer, got '3'$",
    ),
    "cohomology-window-fraction": (
        lambda: local_cohomology_window(_ca4().weights, _ca4().group.element(2), 1.5),
        r"^window must be an integer, got 1\.5$",
    ),
    "element-text-none": (
        lambda: parse_element(_ca4().group, None), r"^element text must be a string, got None$"
    ),
    "element-text-int": (
        lambda: parse_element(_ca4().group, 5), r"^element text must be a string, got 5$"
    ),
    # integer text is ASCII -?[0-9]+ alone, as str writes it (groups.int_text)
    **{f"element-text-{key}": (
        lambda text=text: parse_element(FGGroup(1, (4,)) if ";" in text else Z, text),
        rf"^bad element text {re.escape(repr(text))}$",
    ) for key, text in [("underscore", "(1_0)"), ("plus", "(+3)"), ("fullwidth", "(\uff11\uff12)"),
                        ("arabic-indic", "(\u0663)"), ("plus-torsion", "(1;+2)")]},
    "range-underscore": (
        lambda: parse_args(["oracle", "z3.json", "--range", "-1_0..1_0", "--window", "60"]),
        r"^bad --range '-1_0\.\.1_0': bad LO\.\.HI, like -10\.\.10$",
    ),
    "range-spaced": (
        lambda: parse_args(["oracle", "z3.json", "--range", "-1 .. 1", "--window", "60"]),
        r"^bad --range '-1 \.\. 1': bad LO\.\.HI, like -10\.\.10$",
    ),
    "range-plus": (
        lambda: parse_args(["oracle", "z3.json", "--range", "+1..2", "--window", "60"]),
        r"^bad --range '\+1\.\.2': bad LO\.\.HI, like -10\.\.10$",
    ),
    **{f"flag-{key}": (
        lambda argv=argv: parse_args(argv),
        rf"^bad {argv[-2]} {re.escape(repr(argv[-1]))}: bad integer \(ASCII -\?\[0-9\]\+\)$",
    ) for key, argv in [
        ("window-fullwidth", ["oracle", "z3.json", "--range", "-10..10", "--window", "\uff16\uff10"]),
        ("class-spaced-plus", ["quiver", "z3.json", "--class", " +0 "]),
        ("class-spaced", ["quiver", "z3.json", "--class", " 0"]),
        ("class-arabic-indic", ["mutate", "z3.json", "--at", "(0;0)", "--class", "\u0660"]),
        ("bound-underscore", ["quiver", "ca4.json", "--class", "0", "--bound", "1_2"]),
        ("bound-empty", ["quiver", "ca4.json", "--class", "0", "--bound", ""]),
    ]},
    "int-text-digit-limit": (lambda: int_text("1" * 5000, "integer"), r"^bad integer$"),
    "int-text-minus-only": (lambda: int_text("-", "integer"), r"^bad integer$"),
    "int-text-spaced": (lambda: int_text("7 ", "integer"), r"^bad integer$"),
}

# the class each refusal above raises, where it is more than an InputError
REFUSAL_CLASSES = {
    **dict.fromkeys(["float-rank", "bool-rank", "float-factor", "string-factor", "float-free",
                     "bool-free", "float-torsion", "float-vector", "scalar-vector",
                     "element-text-none", "element-text-int", "face-vertex-fraction",
                     "face-vertex-bool", "scalar-torsion", "none-torsion",
                     "scalar-torsion-coordinates", "none-weights", "scalar-weights"], ParseError),
    **{key: ParseError for key in REFUSALS if key.startswith(("element-text-", "range-", "flag-",
                                                             "int-text-"))},
    **dict.fromkeys(["raw-weights", "foreign-weights", "element-plus-int", "raw-summands",
                     "raw-window-degrees"], MismatchedGroup),
    "empty-rim": NotMinimal,
}


@pytest.mark.parametrize("key", REFUSALS)
def test_refusal_is_an_input_error_and_a_value_error(key):
    call, message = REFUSALS[key]
    with pytest.raises(REFUSAL_CLASSES.get(key, InputError), match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_no_bare_value_or_type_error_is_raised():
    # a bare ValueError would escape the CLI's InputError handler as a traceback
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append(f"{path.name}:{node.lineno}: raise {exc.id}")
    assert found == []


def test_budget_refusals_are_made_by_check_alone():
    # SearchBudgetExceeded.check writes the one "over the cap" message; any
    # other construction or raise of the class would be a second copy of it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            target = getattr(node, "func", None) or getattr(node, "exc", None)  # a call or raise
            if getattr(target, "id", getattr(target, "attr", None)) == "SearchBudgetExceeded":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    check = next(n for n in ast.walk(ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")))
                 if isinstance(n, ast.FunctionDef) and n.name == "check")
    assert [ast.unparse(n.exc) for n in ast.walk(check) if isinstance(n, ast.Raise)] == [
        "cls(f'{what}, over the cap of {cap}')"]


def _int_names(node):
    """The names ``int`` that ``node`` calls or hands over: a call's function
    and arguments, and the items of a tuple or list."""
    if isinstance(node, ast.Call):
        items = [node.func, *node.args, *(k.value for k in node.keywords)]
    else:
        items = node.elts if isinstance(node, (ast.Tuple, ast.List)) else []
    return [n for n in items if isinstance(n, ast.Name) and n.id == "int"]


def test_int_reads_integer_text_only_in_int_text():
    # int() on text also takes "+3", "1_0", " 3 " and full-width digits, so
    # groups.int_text alone calls it, and no flag table hands int over as a
    # converter; annotations such as tuple[int, ...] name the type only
    found, owner_calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        annotations = [getattr(n, a, None) for n in ast.walk(tree) for a in ("annotation", "returns")]
        skip = {id(n) for a in annotations if a is not None for n in ast.walk(a)}
        owner = {id(n) for f in ast.walk(tree) if getattr(f, "name", None) == "int_text"
                 for n in ast.walk(f)}
        for node in ast.walk(tree):
            for name in _int_names(node):
                if id(name) not in skip:
                    (owner_calls if id(name) in owner else found).append(f"{path.name}:{name.lineno}")
    assert found == []
    assert len(owner_calls) == 1


@pytest.mark.parametrize("module,function", [("groups", "parse_element"), ("cli", "_parse_range"),
                                             ("cli", "parse_args")])
def test_readers_of_integer_text_catch_no_value_error(module, function):
    # int_text refuses bad text with a ParseError, so no int() error is left
    # to translate; parse_args re-wraps a converter's ParseError alone
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    body = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function)
    caught = [ast.unparse(h.type) for h in ast.walk(body) if isinstance(h, ast.ExceptHandler)]
    assert caught == (["ParseError"] if function == "parse_args" else [])


def test_every_property_test_is_derandomized():
    # a @given test without @settings(derandomize=True) draws new examples on
    # every run and writes .hypothesis/; CI pins hypothesis so that the
    # derandomized examples stay the same
    tests, found = [], []
    for path in sorted([*(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            decorators = [ast.unparse(d) for d in getattr(node, "decorator_list", ())]
            if any(d.startswith("given(") for d in decorators):
                tests.append(node.name)
                if not any(d.startswith("settings(") and "derandomize=True" in d for d in decorators):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert tests and found == []
