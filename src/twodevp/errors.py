"""Exception hierarchy shared across the package.

Everything the package raises on bad input or an undefined quantity is a
TwoDevpError.  A subclass exists only where a caller catches it by name:
NotIndefinite is caught by oracle.scan.
"""


class TwoDevpError(Exception):
    """Base class for all errors raised by this package."""


class NotIndefinite(TwoDevpError):
    """A form of C that must be indefinite is not."""
