"""Exception hierarchy shared across the package.

Three errors under one base, :class:`QEFiltersError`, which the CLI maps
onto exit codes: usage problems exit 1, data problems (:class:`DataError`,
including :class:`qefilters.cubeio.CubeFormatError` for a malformed file)
and configuration problems exit 2, training divergence exits 3. A message
names what failed; no caller needs a finer class.
``check_keys``, ``config_value`` and ``config_values`` turn an unknown key
or a bad value in a JSON configuration document into a ConfigurationError
that names the key; ``json_typed`` holds a value, or a list entry, to the
same JSON type rule.
"""


class QEFiltersError(Exception):
    """Base class for all package errors."""


class ConfigurationError(QEFiltersError):
    """An invalid parameter, shape, or configuration value."""


class DataError(QEFiltersError):
    """Invalid input data: bad labels, malformed files, broken invariants."""


class TrainingDivergedError(QEFiltersError):
    """A non-finite loss appeared during training."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}")


_REQUIRED = object()

# The JSON values a key of kind int, float or str takes. bool, JSON's true
# and false, is an int subclass in Python but no number here.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def check_keys(doc, known, where: str) -> None:
    """Reject a ``doc`` that is not an object or has a key outside ``known``, such as a misspelt one."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {', '.join(map(repr, unknown))}")


def config_value(doc: dict, key: str, kind, where: str, default=_REQUIRED):
    """``kind(doc[key])``, or ``default`` when given and the key is absent.

    A missing required key, or a value ``kind`` rejects, is a
    ConfigurationError that names the key. For ``int``, ``float`` and
    ``str`` the value must already be a JSON integer, number or string:
    none is converted from another type.
    """
    if key not in doc:
        if default is not _REQUIRED:
            return default
        raise ConfigurationError(f"{where} is missing required key {key!r}")
    value = doc[key]
    try:
        return kind(json_typed(value, kind) if kind in _JSON_TYPES else value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where} key {key!r} has an invalid value {value!r}: {exc}") from exc


def json_typed(value, kind):
    """``value`` itself if it is a JSON value of ``kind`` (int, float or str), else a TypeError."""
    types, expected = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"expected {expected}")
    return value


def config_values(doc: dict, kinds: dict, where: str) -> dict:
    """The keys of ``kinds`` that ``doc`` sets, each converted by its kind."""
    return {key: config_value(doc, key, kind, where) for key, kind in kinds.items() if key in doc}
