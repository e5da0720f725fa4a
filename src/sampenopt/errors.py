"""Exception hierarchy.

Every failure mode named by an operation contract gets its own class so
callers (and the CLI exit-code mapping) can discriminate without string
matching. ``SampenoptError`` is the common base; ``DataError`` groups
ingestion/shape problems, ``ComputationError`` groups cases where the
requested quantity does not exist for the given input. ``NonStationaryConfig``
is a generator setting, so it is also a ``ValueError`` (a config error).
"""


class SampenoptError(Exception):
    """Base class for all package errors."""


class DataError(SampenoptError):
    """Input data is malformed or violates an ingestion contract."""


class IngestionError(DataError):
    """CSV input could not be parsed into signals."""


class ZeroVariance(DataError):
    """Signal has zero sample variance and cannot be normalized."""


class VarianceOverflow(DataError):
    """Signal's spread overflows float64.

    Its sample standard deviation, a first difference, or a baseline-removed
    fuzzy-entropy template (a template minus its own mean) is not finite.
    """


class TooShort(DataError):
    """Signal is too short for the requested operation."""


class SignalTooShort(TooShort):
    """Signal shorter than m + 2; no template pairs exist."""


class NonStationaryConfig(SampenoptError, ValueError):
    """AR(1) coefficient with |phi| >= 1 has no stationary distribution (a config error)."""


class NotTwoClasses(DataError):
    """Class comparison requires exactly two non-empty labels."""


class InvalidP(DataError):
    """p-value outside [0, 1]."""


class EmptyGroup(DataError):
    """A rank-test group is empty."""


class ComputationError(SampenoptError):
    """The requested quantity is undefined or infeasible for this input."""


class UndefinedEntropy(ComputationError):
    """Sample entropy (or a ratio derived from it) is undefined here."""


class Infeasible(ComputationError):
    """Bootstrap estimate set fails the feasibility rule."""


class EmptyHistory(ComputationError):
    """TPE operations need at least one recorded trial."""


class AllTrialsInfeasible(ComputationError):
    """No optimization trial produced a finite objective."""


class NoKnee(ComputationError):
    """The curve has no detectable knee point."""


class NoFeasibleRadius(ComputationError):
    """Too few valid grid points to select a radius."""


class EmptySurvivorSet(ComputationError):
    """No signal survived the stationarity pipeline."""


class InsufficientDefined(ComputationError):
    """Fewer than two defined estimates; cross-signal variance undefined."""


class SingularDesign(ComputationError):
    """Regression design matrix is rank deficient."""
