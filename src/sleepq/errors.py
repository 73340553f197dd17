"""Exception taxonomy shared by the library and the command line front end.

The CLI maps these onto its documented exit codes: usage problems exit 1,
configuration problems exit 2, refused computations (enumeration gates,
unestablished price regimes) exit 3, and numerical failures exit 4.
"""


class SleepqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SleepqError):
    """Invalid configuration: unreadable file, bad key, failed validation."""


class GateError(SleepqError):
    """A computation was refused by a cost gate: enumerate_policies' size
    gate, where allow_large was not set."""


class RegimeError(GateError):
    """A price-regime-conditional result was requested outside its regime."""


class NumericalError(SleepqError):
    """A numerical procedure failed or produced an untrustworthy result."""


class ConsistencyError(NumericalError):
    """Caller-supplied quantities disagree with recomputed ones."""

