"""Exception hierarchy shared by all relrbf modules."""


class RelRbfError(Exception):
    """Base class for all relrbf errors."""


class NonSquareError(RelRbfError):
    """Matrix input is not square."""


class NonFiniteError(RelRbfError):
    """Input contains NaN or infinite entries."""


class AsymmetryError(RelRbfError):
    """Adjacency matrix is asymmetric beyond tolerance."""


class NegativeEntryError(RelRbfError):
    """Adjacency matrix contains negative dissimilarities."""


class NonzeroDiagonalError(RelRbfError):
    """Adjacency matrix has nonzero self-dissimilarities."""


class ParseError(RelRbfError):
    """File could not be parsed into the expected table shape."""


class DimensionMismatchError(RelRbfError):
    """Operands have incompatible shapes."""


class EmptySetError(RelRbfError):
    """An index set that must be non-empty is empty."""


class NonpositiveSigmaError(RelRbfError):
    """Gaussian bandwidth must be strictly positive."""


class DegenerateShiftError(RelRbfError):
    """Prototype shift produced weights that cannot be renormalized."""


class InvalidClusterCountError(RelRbfError):
    """Requested cluster count is outside [1, n]."""


class TooFewSamplesError(RelRbfError):
    """Not enough observations to build train/test/validation splits."""


class UnknownKindError(RelRbfError):
    """Unrecognized dataset kind."""


class MalformedFileError(RelRbfError):
    """Dataset file does not match its documented layout."""


class ConfigError(RelRbfError):
    """Experiment configuration failed validation."""
