"""Exception types shared across the package."""


class PermwordError(Exception):
    """Base class for all package-specific errors."""


class RetryExhaustedError(PermwordError):
    """A randomized search hit its retry cap without succeeding."""


class BudgetExceededError(PermwordError):
    """A produced word exceeded its guaranteed length budget."""


class MixingCapError(PermwordError):
    """A mixing-time scan passed its step cap without reaching the threshold."""


class WordParseError(PermwordError, ValueError):
    """Malformed word text."""


class InvariantError(PermwordError, AssertionError):
    """A result failed the check that must hold for every output (for
    example, a synthesized word that does not evaluate to its target).
    Raised explicitly, so ``python -O`` keeps the check."""
