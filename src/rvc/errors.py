"""Exception types shared across the library."""


class GraphFormatError(ValueError):
    """Raised when an edge-list or coloring file cannot be parsed."""


class PreconditionError(ValueError):
    """Raised when an operation is called on input it is not defined for."""


class BudgetExceededError(RuntimeError):
    """Raised when an instance exceeds the configured search budget."""


class SearchInconclusiveError(RuntimeError):
    """Raised when a search runs out of budget: path-search nodes, or the
    steps of a balanced-chain search.

    Distinct from 'no path exists': absence claims must come from an
    exhausted search, never from a truncated one.
    """


class ConstructionError(RuntimeError):
    """Raised when a coloring construction fails its own verification."""


class DuplicateEdgeWarning(UserWarning):
    """Emitted when a parsed edge list repeats an edge (collapsed to one)."""
