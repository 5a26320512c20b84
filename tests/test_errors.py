"""The refusal contract: every bad argument is refused once, in the library,
with an ``InputError``, which is a ``ValueError``; the command line maps it
to exit code 2 without checking the argument again."""

import ast
from pathlib import Path

import pytest

from toricnccr import (
    FGGroup,
    InputError,
    classify_sign_vector,
    crosscheck_mcm,
    endomorphism_quiver,
    local_cohomology_window,
    nccr_classes,
    sign_pattern_witness,
    support_complex,
)
from conftest import build_context

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricnccr"


def _ca4():
    return build_context("ca4")


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
    "cohomology-window": (
        lambda: local_cohomology_window(_ca4().weights, _ca4().group.element(2), -1),
        r"^window must be nonnegative$",
    ),
    "quiver-bound": (
        lambda: endomorphism_quiver(_ca4(), nccr_classes(_ca4())[0], 0),
        r"^search bound must be at least 1$",
    ),
}


@pytest.mark.parametrize("call,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_is_an_input_error_and_a_value_error(call, message):
    with pytest.raises(InputError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_no_bare_value_or_type_error_is_raised():
    # a bare ValueError would escape the CLI's InputError handler as a traceback
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append(f"{path.name}:{node.lineno}: raise {exc.id}")
    assert found == []
