"""Exception types shared across the package."""


class MaskedLRAError(Exception):
    """Base of every error the package raises on purpose."""


class ShapeError(MaskedLRAError, ValueError):
    """Operands have incompatible dimensions."""


class ParameterError(MaskedLRAError, ValueError):
    """A parameter is outside its documented range."""


class ResourceError(MaskedLRAError, RuntimeError):
    """Problem size exceeds a declared desk-scale cap."""


class NumericalError(MaskedLRAError, RuntimeError):
    """An iterative numeric routine failed to converge."""

    def __init__(self, message: str, iterations: int | None = None):
        if iterations is not None:
            message = f"{message} (after {iterations} iterations)"
        super().__init__(message)
        self.iterations = iterations
