"""Exception taxonomy shared by the library and the command line front end.

The CLI maps these onto its documented exit codes: usage problems exit 1,
configuration problems exit 2, and numerical failures exit 4. RegimeError
has no exit code: its one raiser, optimal_extreme_prices, backs no command.
"""


class SleepqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SleepqError):
    """Invalid configuration: unreadable file, bad key, failed validation."""


class RegimeError(SleepqError):
    """A price-regime-conditional result was requested outside its regime."""


class NumericalError(SleepqError):
    """A numerical procedure failed or produced an untrustworthy result."""


class ConsistencyError(NumericalError):
    """Caller-supplied quantities disagree with recomputed ones."""

