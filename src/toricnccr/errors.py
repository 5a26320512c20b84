"""Exception and warning types shared across the package.

Errors fall into two families.  ``InputError`` subclasses signal bad user
data (malformed files, weight data that is not a valid Gorenstein rank-one
system, out-of-range arguments).  The library refuses every bad argument
with an ``InputError``, which is a ``ValueError``, and the command line maps
it to exit code 2 without checking the argument again.  A collection
argument is read by ``groups.as_items``, a JSON-shaped vector by ``as_tuple``.
``InternalCheckError`` subclasses signal that a statement which is a theorem
for valid inputs failed to hold, i.e. a bug; they map to exit code 3.  Any
other exception, a bare ``ValueError`` included, is a bug and stays a traceback.
"""


class InputError(ValueError):
    """Base class for invalid user-supplied data and arguments."""


class ParseError(InputError):
    """Malformed input document or element text, or a number that is no exact ``int``."""


class MismatchedGroup(InputError):
    """Operands belong to different groups."""


class RankZeroGroup(InputError):
    """The free projection was requested in a group of free rank zero."""


class InfiniteGroup(InputError):
    """Element enumeration was requested in an infinite group."""


class NonTorsionGenerator(InputError):
    """A quotient generator has infinite order."""


class NotGorenstein(InputError):
    """The weights do not sum to zero."""


class GenerationFailure(InputError):
    """Dropping one weight leaves a proper subgroup.

    ``index`` is a witness, the weight whose removal breaks generation, or
    ``None`` when the weights of a rank-zero ``group`` together fail to generate it.
    """

    def __init__(self, index, group=None):
        self.index = index
        if index is None:
            super().__init__(f"the weights generate a proper subgroup of {group}")
        else:
            super().__init__(f"weights without index {index} generate a proper subgroup")


class SignCountFailure(InputError):
    """Fewer than two weights with positive or with negative free part."""

    def __init__(self, positives, negatives):
        self.positives = positives
        self.negatives = negatives
        super().__init__(
            f"need at least 2 positive and 2 negative weights, got {positives} and {negatives}"
        )


class NotMinimal(InputError):
    """The chosen element is not minimal in the upper set."""


class NotNCCR(InputError):
    """The summand set does not give a non-commutative crepant resolution."""


class UnknownClass(InputError):
    """A class index is out of range."""


class SearchBudgetExceeded(InputError):
    """A table or search is larger than its fixed cap; the message gives both sizes."""

    @classmethod
    def check(cls, size: int, cap: int, what: str) -> None:
        """Refuse work of ``size`` over the fixed ``cap``, before it starts;
        ``what`` names the work and how ``size`` was counted."""
        if size > cap:
            raise cls(f"{what}, over the cap of {cap}")


class InternalCheckError(Exception):
    """A statement that is a theorem for valid inputs failed: a bug."""


class InternalInconsistency(InternalCheckError):
    """Two expressions that must agree by construction differ."""


class AxiomViolation(InternalCheckError):
    """The period fails the order/action axiom certificate."""


class OracleMismatch(InternalCheckError):
    """The order criterion and the sign-pattern oracle disagree.

    Carries the crosscheck report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"{len(report.mismatches)} mismatches: {report.mismatches[:3]}")


class DisconnectedGraph(InternalCheckError):
    """The mutation exchange graph came out disconnected."""


class UnencodableReport(InternalCheckError, TypeError):
    """A report holds a value or key the JSON writer has no text for."""


class BoundTooSmall(UserWarning):
    """The quiver search was capped below the proven degree bound; arrows may be missing."""
