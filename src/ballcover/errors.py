"""Exception types shared across the package.

Four failure categories are distinguished so callers (and the CLI) can
map them to exit codes: bad input data, mathematically undefined requests,
features that are deliberately out of scope, and internal guarantees that
failed to hold.
"""


class BallcoverError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BallcoverError, ValueError):
    """Malformed or inconsistent input (wrong dimension, bad parameter range)."""


class DomainError(BallcoverError, ValueError):
    """Input is well-formed but the operation is undefined there.

    Examples: logarithmic map at an antipodal pair, exponential map past
    the injectivity radius.
    """


class UnsupportedFeatureError(BallcoverError, NotImplementedError):
    """Requested combination is recognized but intentionally unsupported."""


class InternalError(BallcoverError):
    """A guarantee of the package's own algorithms failed to hold.

    This is a defect in ballcover, not in the input; the command-line
    surface reports it with its own exit code.
    """
