"""Exception types shared across the package."""


class ProxmixError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ProxmixError):
    """Operands have incompatible dimensions."""


class ShapeError(ProxmixError):
    """A matrix does not have the required structure (shape, symmetry, ...)."""


class ParameterError(ProxmixError):
    """A numeric parameter is outside its admissible range."""


class AdmissibilityError(ProxmixError):
    """An operator or weight family violates the norm budget 0 < ||L|| <= 1."""


class UnsupportedConjugate(ProxmixError):
    """No closed-form conjugate is registered for this function."""


class UnsupportedDimension(ProxmixError):
    """Brute-force grid oracles only run in ambient dimension <= 2."""


class RegistryError(ProxmixError):
    """Unknown verification suite identifier."""


class ConfigError(ProxmixError):
    """A job configuration file is malformed or inconsistent."""


class ConvergenceError(ProxmixError):
    """An iterative routine exhausted its iteration budget.

    Nothing in the library raises it now; it stays exported for callers."""
