"""Exception types shared across the solver modules."""


class LayerError(Exception):
    """Base class for all solver errors (lets the CLI map them to exit 1)."""


class ConfigError(LayerError):
    """A usage error (exit 2): invalid velocities, options, config file
    or output directory, or a layer outside a command's regime."""


class DegenerateSpeedError(LayerError):
    """Requested speed coincides with an interface velocity."""


class CorrectionFailedError(LayerError):
    """Newton correction did not converge."""


class CannotStartError(LayerError):
    """Branch continuation failed on the very first corrected point."""


class WaveFileError(LayerError):
    """A wave snapshot file cannot be read or does not hold a valid wave."""


class DivergedError(LayerError):
    """Time evolution or a residual check produced non-finite coefficients."""
