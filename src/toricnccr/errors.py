"""Exception and warning types shared across the package.

Errors fall into two families.  ``InputError`` subclasses signal bad user
data (malformed files, weight data that is not a valid Gorenstein rank-one
system, out-of-range arguments); the command line maps them to exit code 2.
``InternalCheckError`` subclasses signal that a statement which is a theorem
for valid inputs failed to hold, i.e. a bug; they map to exit code 3.
"""


class InputError(Exception):
    """Base class for invalid user-supplied data."""


class ParseError(InputError):
    """Malformed input document or element text."""


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

    ``index`` is a witness: the weight whose removal breaks generation.
    """

    def __init__(self, index):
        self.index = index
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


class InternalCheckError(Exception):
    """A statement that is a theorem for valid inputs failed: a bug."""


class InternalInconsistency(InternalCheckError):
    """Two expressions that must agree by construction differ."""


class AxiomViolation(InternalCheckError):
    """A sampled element violates one of the order/action axioms."""


class OracleMismatch(InternalCheckError):
    """The order criterion and the sign-pattern oracle disagree.

    Carries the crosscheck report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"{len(report.mismatches)} mismatches: {report.mismatches[:3]}")


class DisconnectedGraph(InternalCheckError):
    """The mutation exchange graph came out disconnected."""


class UnclassifiableSignPattern(InternalCheckError):
    """No case of the sign-pattern classification applied."""


class BoundTooSmall(UserWarning):
    """The quiver search was capped below the proven degree bound; arrows may be missing."""
