"""Exception hierarchy shared across the package.

Everything the package raises on bad input or an undefined quantity is a
TwoDevpError.  A subclass exists only where a caller handles it by name:
NotIndefinite (rqi.solve, oracle.scan, classify._classify and harness)
and RankCollapse (rqi.solve and harness).  Curve matching never raises:
curves.match, the one matcher behind the eigencurve grid, always assigns
every curve, and the grid reports how good the worst assignment was in
min_overlap.
"""


class TwoDevpError(Exception):
    """Base class for all errors raised by this package."""


class NotIndefinite(TwoDevpError):
    """A form of C that must be indefinite is not."""


class RankCollapse(TwoDevpError):
    """A basis lost rank."""
