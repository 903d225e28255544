"""Exception hierarchy shared across the package.

Everything the package raises on bad input or an undefined quantity is a
TwoDevpError.  A subclass exists only where a caller handles it by name:
NotIndefinite (rqi.solve, oracle.scan, classify._classify and harness)
and RankCollapse (rqi.solve and harness).
"""


class TwoDevpError(Exception):
    """Base class for all errors raised by this package."""


class NotIndefinite(TwoDevpError):
    """A form of C that must be indefinite is not."""


class RankCollapse(TwoDevpError):
    """A basis lost rank."""
