"""Exception types shared across the package.

The CLI maps these onto its exit codes, so library code should raise the
most specific type that applies rather than bare ValueError wherever a
caller could plausibly want to distinguish the failure.
"""

from __future__ import annotations


class HamholesError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(HamholesError):
    """A graph / certificate / cycle / instance file failed to parse.

    ``line`` is the 1-based physical line number in the input, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CertificateError(HamholesError):
    """A certificate failed verification.

    ``pair_index`` is the 1-based index of the offending pair, or None when
    the failure is global (wrong pair count, bad k, ...).
    """

    def __init__(self, message: str, pair_index: int | None = None):
        self.pair_index = pair_index
        if pair_index is not None:
            message = f"pair {pair_index}: {message}"
        super().__init__(message)


class ContractViolationError(HamholesError):
    """An internal guarantee failed to hold.

    Raised when a value that the algorithms promise to produce (a closure
    edge, a large enough vertex pool, a verifiable certificate) turns out not
    to exist.  Seeing this exception means a bug, not bad user input.
    """


class BudgetExceededError(HamholesError):
    """An exact enumeration or search exceeded its work budget."""


class _Budget:
    """One exact routine's running probe count against its int budget.

    ``charge(k)`` adds k probes to ``used`` and raises BudgetExceededError
    with the routine's ``message`` once ``used`` passes ``limit``.
    """

    def __init__(self, limit: int, message: str):
        self.limit, self.used, self.message = limit, 0, message

    def charge(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.limit:
            raise BudgetExceededError(self.message)
