"""Exception types shared across the package.

Every error the package raises is a UsageError, a DataError or a
NumericError, and the CLI maps those families onto process exit codes:
UsageError -> 1, DataError -> 2, NumericError -> 3. Shape, probability
and empty-input failures in the network, loss and metrics are
DataErrors: they arise from the sizes and values of the arrays a caller
passes in. The message, not the class, tells the cases of one family
apart.
"""


class BeatnetError(Exception):
    """Base class for all package errors."""


class UsageError(BeatnetError):
    """Bad command-line arguments or configuration values."""


class DataError(BeatnetError):
    """Bad input data: files, formats, or array shapes and values."""


class NumericError(BeatnetError):
    """A numeric failure such as a non-finite loss or gradient."""
