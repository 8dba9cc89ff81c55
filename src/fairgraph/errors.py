"""Typed errors shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
numerical or verification failures exit 1.
"""


class FairGraphError(Exception):
    """Base class for all package errors."""


class ShapeError(FairGraphError):
    """Operands with incompatible shapes."""


class UndefinedRatioError(FairGraphError):
    """Homophily ratio requested on a graph with no edges."""


class DegenerateEditError(FairGraphError):
    """Graph editing removed every edge; the caller decides the fallback."""


class InfeasibleError(FairGraphError):
    """Requested deletion budget or target cannot be met with Type III edges."""


class InvalidTargetError(FairGraphError):
    """Homophily targets outside the ranges the budgeted editor accepts."""


class CapacityError(FairGraphError):
    """Negative-edge sample larger than the number of non-adjacent pairs."""


class UndefinedMetricError(FairGraphError):
    """Metric undefined for this data (empty group, single-class labels, ...)."""


class DatasetError(FairGraphError):
    """Base class for dataset ingestion failures."""


class DatasetParseError(DatasetError):
    """A dataset file exists but could not be parsed."""


class MissingColumnError(DatasetError):
    """A column named in the dataset meta is absent from the feature table."""


class NonBinarySensitiveError(DatasetError):
    """Sensitive column not binary after applying the meta mapping."""


class DivergenceError(FairGraphError):
    """A training phase ("pretrain" or "train") produced a non-finite loss at
    the given epoch."""

    def __init__(self, message, epoch=None, phase=None):
        super().__init__(message)
        self.epoch = epoch
        self.phase = phase


class ConfigError(FairGraphError):
    """Invalid training configuration or CLI usage."""

