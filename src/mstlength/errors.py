"""Exception types shared across the package.

The CLI maps these onto exit codes, so user-facing failures should raise one
of the classes below rather than a bare ValueError.
"""


class MstLengthError(Exception):
    """Base class for all package-specific errors."""


class GraphParseError(MstLengthError):
    """Malformed edge-list document; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphConstructionError(MstLengthError):
    """Invalid graph value (self-loop, duplicate edge, too many edges, ...)."""


class DisconnectedGraphError(MstLengthError):
    """Operation requires a connected graph."""


class EnumerationCapError(MstLengthError):
    """Graph has more edges than the enumeration cap allows."""


class FrontierOverflowError(MstLengthError):
    """Partition-sweep enumeration exceeded its state budget."""


class InexactDivisionError(MstLengthError):
    """A polynomial is not an exact multiple of the power of (1-t) it is divided by."""


class CorruptRankTableError(MstLengthError):
    """A computed rank table failed its structural invariants (a bug)."""


class RouteDisagreementError(MstLengthError):
    """Independent coefficient routes produced different values (a bug)."""
