"""Exception hierarchy shared across the package.

Everything the package raises on bad input or an undefined quantity is a
TwoDevpError.  A subclass exists only where a caller catches it by name:
NotIndefinite is caught by rqi.solve and oracle.scan, RankCollapse by
rqi.solve.  Neither the harness nor classify catches either.
"""


class TwoDevpError(Exception):
    """Base class for all errors raised by this package."""


class NotIndefinite(TwoDevpError):
    """A form of C that must be indefinite is not."""


class RankCollapse(TwoDevpError):
    """A basis lost rank."""
