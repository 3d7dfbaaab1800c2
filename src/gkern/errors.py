"""Exception hierarchy shared across the library.

Every error raised on purpose derives from :class:`GKError` so callers (and
the command line front end) can distinguish our diagnostics from genuine
bugs.  Data problems and parameter problems are kept apart because they map
to different process exit codes.
"""


class GKError(Exception):
    """Base class for all errors raised by this library."""


class ParameterError(GKError, ValueError):
    """A numeric or structural parameter is out of its documented range."""


class ContractError(GKError, ValueError):
    """An input object violates a documented precondition (e.g. a feature
    map is requested for a graph that lacks the required annotations)."""


class DatasetLoadError(GKError):
    """A dataset could not be loaded at all (missing file, bad root)."""


class DatasetFormatError(DatasetLoadError):
    """A dataset file exists but its content is malformed.

    Messages include the offending file and, where possible, the 1-based
    line number.
    """


class InvalidKernelError(GKError):
    """A kernel declared binary-valued turned out not to induce a partial
    equivalence relation on the supplied items (symmetry or transitivity
    violation)."""


class MultiplicityOverflowError(GKError):
    """A count left the range in which exact integer arithmetic is
    guaranteed (shortest-path multiplicities past int64, walk-kernel
    totals or explicit integer dots past 2**53 in float64); results would
    be silently wrong, so we stop."""


class ResourceBudgetError(GKError):
    """An explicit feature map grew past the configured entry budget."""


class GramError(GKError):
    """A Gram computation failed; the message names the offending pair or
    graph so the failure can be reproduced in isolation."""
