"""Exception types raised across the toolkit."""


class SemlocError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SemlocError):
    """A text input file is malformed; message carries file and line number."""


class ConsistencyError(SemlocError):
    """Cross-referenced ids or counts in the loaded data do not line up."""


class UnknownLabel(SemlocError):
    """A raster contains a class id outside the class table (and not void)."""


class BadMagic(SemlocError):
    """A binary file does not start with the expected magic bytes."""


class TruncatedFile(SemlocError):
    """A binary file ends before the payload its header promises."""


class InvalidDataset(SemlocError):
    """A dataset directory has validation findings; the message lists them all."""


class DimMismatch(SemlocError):
    """Dimensions disagree: descriptor dims between two operands, or a
    raster's size against its camera's."""


class TooFewDescriptors(SemlocError):
    """The database side of a KNN match has fewer than two descriptors."""


class NonFiniteDescriptors(SemlocError):
    """Descriptor squared norms or distance bounds overflow or are NaN."""


class DegenerateConfiguration(SemlocError):
    """Minimal-solver input points are collinear or coincident."""


class NoRealSolution(SemlocError):
    """The minimal solver's polynomial has no usable real root."""


class NumericalFailure(SemlocError):
    """An optimization produced non-finite residuals."""


class InfeasibleSpec(SemlocError):
    """A SceneSpec or CorruptionSpec describes a scene that cannot be built."""
