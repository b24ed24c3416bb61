"""Exception types shared across the package."""


class WrocError(Exception):
    """Base class for all package-specific errors."""


class DataFormatError(WrocError):
    """Malformed input data (CSV rows, scenario files, bad selectors).

    Carries an optional 1-based ``line`` pointing at the offending row.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateDensityError(WrocError):
    """A kernel density estimate cannot be made or used: a stratum of fewer
    than 2 values, one of zero spread or whose bandwidth underflows, or a
    non-diseased density that vanishes where the density ratio is needed."""


class SingularCovarianceError(WrocError):
    """Contrast covariance is singular and no ridge was allowed."""
