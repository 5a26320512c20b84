"""The refusal contract: every bad argument is refused once, in the library,
with an ``InputError``, which is a ``ValueError``; the command line maps it
to exit code 2 without checking the argument again."""

import ast
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
    support_complex,
    validate,
)
from conftest import build_context, build_system

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricnccr"


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
        r"^vertex index 1\.5 outside 0\.\.3$",
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
    # the same-group test, made by FGGroup.owns alone
    "raw-weights": (lambda: validate(Z, [1, 2, -1, -2]), r"^1 is not an element of Z$"),
    "foreign-weights": (
        lambda: validate(Z, [FGGroup(1, (2,)).element(w, (0,)) for w in (1, 1, -1, -1)]),
        r"^<\(1;0\) in Z x Z/2> is not an element of Z$",
    ),
    "element-plus-int": (lambda: Z.element(1) + 1, r"^1 is not an element of Z$"),
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
}

# the class each refusal above raises, where it is more than an InputError
REFUSAL_CLASSES = {
    **dict.fromkeys(["float-rank", "bool-rank", "float-factor", "string-factor", "float-free",
                     "bool-free", "float-torsion", "float-vector", "scalar-vector",
                     "element-text-none", "element-text-int"], ParseError),
    **dict.fromkeys(["raw-weights", "foreign-weights", "element-plus-int"], MismatchedGroup),
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
