"""The one exception type of the package.

Everything the package raises on bad input or an undefined quantity is a
TwoDevpError, apart from ValueError for an out-of-range argument.  A
subclass is added only where a caller catches it by name.
"""


class TwoDevpError(Exception):
    """Base class for all errors raised by this package."""
