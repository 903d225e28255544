"""Exception hierarchy shared across the package."""


class TwoDevpError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(TwoDevpError):
    pass


class NoConvergence(TwoDevpError):
    pass


class RankDeficient(TwoDevpError):
    pass


class DimensionMismatch(TwoDevpError):
    pass


class ParseError(TwoDevpError):
    pass


class NotIndefinite(TwoDevpError):
    pass


class NotNormalized(TwoDevpError):
    pass


class NotSimple(TwoDevpError):
    pass


class NotAnEigenvalue(TwoDevpError):
    pass


class NoIsotropicVector(TwoDevpError):
    pass


class ContinuationAmbiguous(TwoDevpError):
    pass


class BracketInvalid(TwoDevpError):
    pass


class RankCollapse(TwoDevpError):
    pass


class NotOrthonormal(TwoDevpError):
    pass


class TooShort(TwoDevpError):
    pass
