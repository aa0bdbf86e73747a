"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes, so the distinctions matter:
usage problems are plain ValueError, failures to certify something are
CertificationError, and InternalCheckError marks violations of proven
inequalities (those are always implementation bugs, never bad luck).
"""


class SoslenError(Exception):
    """Base class for package-specific failures."""


class GenericityError(SoslenError):
    """Random sampling kept failing the genericity gate.

    Signals either a pathological parameter choice or a prime that is far
    too small; resampling is bounded so this surfaces instead of looping.
    """


class CertificationError(SoslenError):
    """A certificate could not be established (e.g. injectivity rank short)."""


class InternalCheckError(SoslenError):
    """A mathematically impossible outcome was computed.

    Raised when a result contradicts a proven inequality (for instance a
    Hilbert-function value below its proven lower bound).  Indicates a bug
    in this package, not in the input.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class GuardError(SoslenError):
    """A job exceeds the dense-matrix size guard and --allow-large was not
    set, or exceeds the fixed ceiling that --allow-large does not lift."""
