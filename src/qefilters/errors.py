"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, data and
configuration problems exit 2, training divergence exits 3.
``config_value`` and ``config_values`` turn a bad value in a JSON
configuration document into a ConfigurationError that names its key.
"""


class QEFiltersError(Exception):
    """Base class for all package errors."""


class ConfigurationError(QEFiltersError):
    """An invalid parameter, shape, or configuration value."""


class DataError(QEFiltersError):
    """Invalid input data: bad labels, malformed files, broken invariants."""


class RangeViolationError(DataError):
    """A wavelength fell outside the declared spectral range."""


class DimensionMismatchError(DataError):
    """Array shapes that must agree do not."""


class TrainingDivergedError(QEFiltersError):
    """A non-finite loss appeared during training."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


_REQUIRED = object()


def config_value(doc: dict, key: str, kind, where: str, default=_REQUIRED):
    """``kind(doc[key])``, or ``default`` when given and the key is absent.

    A missing required key, or a value ``kind`` rejects, is a
    ConfigurationError that names the key.
    """
    if key not in doc:
        if default is not _REQUIRED:
            return default
        raise ConfigurationError(f"{where} is missing required key {key!r}")
    try:
        return kind(doc[key])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where} key {key!r} has an invalid value {doc[key]!r}: {exc}") from exc


def config_values(doc: dict, kinds: dict, where: str) -> dict:
    """The keys of ``kinds`` that ``doc`` sets, each converted by its kind."""
    return {key: config_value(doc, key, kind, where) for key, kind in kinds.items() if key in doc}
