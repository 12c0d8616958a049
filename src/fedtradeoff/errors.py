"""Exception hierarchy shared across the package.

CLI exit-code map: ConfigurationError -> 1, NumericError (and subclasses) -> 2,
IO errors -> 3, failed bound check -> 4.
"""

import numbers
import sys


class FedTradeoffError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FedTradeoffError):
    """Invalid configuration, dimension mismatch, or violated precondition."""


class NumericError(FedTradeoffError):
    """Non-finite values or a numerically diverged run."""


class EstimationError(NumericError):
    """Constant estimation failed (e.g. every sampled pair was degenerate)."""


def require_int(name: str, value, least: int) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is an integer from ``least``
    to ``sys.maxsize``, numpy's index range; a float from a config file, 2.0 or
    NaN, is not, nor is a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not least <= value <= sys.maxsize):
        raise ConfigurationError(f"{name} must be an integer >= {least} and <= {sys.maxsize}")


def require_bool(name: str, value) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is a bool: JSON true or
    false, not a string such as "false", a number or null."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, not {value!r}")


def require_number(name: str, value) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is a real number; an int
    is one, a bool (JSON true) is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, not {value!r}")
