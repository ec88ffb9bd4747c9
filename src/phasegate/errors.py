"""Exception types shared across the package.

The command-line front end maps these onto distinct exit codes, so keep
the hierarchy flat and the meanings disjoint.
"""


class ConfigError(ValueError):
    """A run configuration is missing, malformed, or names unknown fields."""


class DataFormatError(ValueError):
    """A data file (count CSV, matrix record) does not match its documented format."""


class ConvergenceError(RuntimeError):
    """A likelihood fit stopped without certifying its optimum.

    Its certificate (the proven distance to the maximum likelihood) is
    still above the tolerance, because the iteration cap was hit or no
    step raises the likelihood any more; the message names the stop
    reason and the gap.
    """
