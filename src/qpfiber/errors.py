"""Exception taxonomy.

Three families, matching the CLI exit codes: malformed input (exit 1),
violated preconditions (exit 2), and internal consistency failures that
signal a bug in this package rather than bad input (exit 3).
"""


class QpfiberError(Exception):
    """Base class for all package errors."""


class InvalidInput(QpfiberError):
    """Structurally malformed data (exit code 1)."""


class InvalidBand(InvalidInput):
    """An embedded band violates 1 <= i < j <= n."""


class InvalidWord(InvalidInput):
    """A braid word letter index is out of range."""


class InvalidParameter(InvalidInput):
    """A numeric parameter is out of range (e.g. n < 2)."""


class InvalidGraph(InvalidInput):
    """A combed graph fails validation."""


class PreconditionError(QpfiberError):
    """An operation's documented precondition does not hold (exit code 2)."""


class NotPositive(PreconditionError):
    """A braid word contains a negative letter."""


class NotQuasipositive(PreconditionError):
    """A band representation contains a negative band."""


class NotFull(PreconditionError):
    """A combed graph is not pi_1-injective: some cycle of it bounds a disk on the host."""


class HasFreeEnds(PreconditionError):
    """A combed graph has teeth ending on the boundary of the host surface."""


class NotOnQ(PreconditionError):
    """The host surface is not the expected fiber model."""


class SiteNotEligible(PreconditionError):
    """A Whitehead move was requested at a site that does not admit one."""


class SizeLimitExceeded(PreconditionError):
    """A size parameter is above its documented limit."""


class InternalError(QpfiberError):
    """An internal invariant failed; indicates a bug (exit code 3)."""


class SummaryMismatch(InternalError):
    """Input and output homeomorphism-type certificates disagree."""


class NonExactDivision(InternalError):
    """A polynomial division that must be exact left a remainder."""


class FiberVerificationFailed(InternalError):
    """The two fiber-surface models disagree on an invariant."""
