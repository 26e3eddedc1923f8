"""Exception types shared across the package.

Every class here is a UsageError, a DataError or a NumericError, and
the CLI maps those families onto process exit codes: UsageError -> 1,
DataError -> 2, NumericError -> 3. Shape, probability and empty-input
failures in the network, loss and metrics are DataErrors: they arise
from the sizes and values of the arrays a caller passes in.
"""


class BeatnetError(Exception):
    """Base class for all package errors."""


class UsageError(BeatnetError):
    """Bad command-line arguments or configuration values."""


class DataError(BeatnetError):
    """Bad input data: files, formats, or array shapes and values."""


class NumericError(BeatnetError):
    """A numeric failure such as a non-finite loss or gradient."""


# --- WFDB / CSV ingestion ---------------------------------------------------

class MalformedHeader(DataError):
    """Header text is not a parseable WFDB header."""


class UnsupportedFormat(DataError):
    """Signal format or header feature outside the supported subset."""


class TruncatedData(DataError):
    """Signal file holds fewer bytes than the header requires."""


class ChannelOutOfRange(DataError):
    """Requested signal channel does not exist in the record."""


class TruncatedStream(DataError):
    """Annotation byte stream ended without a terminator or mid-field."""


class NegativeTime(DataError):
    """Cumulative annotation sample index went below zero."""


class SchemaMismatch(DataError):
    """CSV contents do not match the declared column schema."""


class NonMonotonicTime(DataError):
    """Time values that must increase do not."""


class ManifestError(DataError):
    """Dataset manifest line is missing keys or references the wrong fields."""


# --- dataset building ---------------------------------------------------------

class SegmentTooShort(DataError):
    """Too few input samples to interpolate a window."""


class TooFewSubjects(DataError):
    """Cannot split fewer than two subjects into train and test."""


class CorruptCache(DataError):
    """Dataset cache file failed magic/version/checksum validation."""


# --- network / optimisation ---------------------------------------------------

class ShapeMismatch(DataError):
    """Tensor or parameter shapes are inconsistent."""


class DegenerateBatch(DataError):
    """Batch statistics requested over fewer than two values."""


class InvalidProbability(DataError):
    """Dropout probability outside [0, 1)."""


class EmptyBatch(DataError):
    """Loss requested over zero samples."""


class NonFiniteGradient(NumericError):
    """A gradient contained NaN or infinity."""


# --- training / checkpoints ---------------------------------------------------

class EmptyDataset(DataError):
    """Training requested on a dataset with no segments."""


class IncompatibleCheckpoint(DataError):
    """Checkpoint architecture does not match the requested configuration."""


class CorruptCheckpoint(DataError):
    """Checkpoint file failed magic/checksum validation."""


class VersionMismatch(DataError):
    """Checkpoint format version not supported by this build."""


# --- evaluation -----------------------------------------------------------------

class LengthMismatch(DataError):
    """Predicted and true label sequences differ in length."""


class EmptyInput(DataError):
    """Metric or bootstrap requested on empty inputs."""


# --- experiment orchestration ---------------------------------------------------

class MissingCache(DataError):
    """A required dataset cache file is absent."""


class MissingCheckpoint(DataError):
    """A required checkpoint file is absent."""


class NoReportsFound(DataError):
    """Report consolidation found no evaluation reports."""


class MalformedReport(DataError):
    """A run directory's reports.json or run_info.json cannot be read."""
