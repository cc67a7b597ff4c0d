"""Exception hierarchy. Each class maps to a distinct CLI exit code."""


class GbpdError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(GbpdError):
    """Malformed or invalid input data (scene files, parameters)."""

    exit_code = 2


class NonRenderableContour(GbpdError):
    """Ellipse contour undefined because the scaled radius would be imaginary."""

    exit_code = 3


class SingularParameterError(GbpdError):
    """Evaluation requested at a parameter mapping to the line at infinity."""

    exit_code = 4


class NoSolutionError(GbpdError):
    """Parameter recovery asked for a point that is not on the curve."""

    exit_code = 5


class OverlappingConicsError(GbpdError):
    """Two conics share their zero set; intersection is not a finite point set."""

    exit_code = 6


class NonFiniteSegmentError(GbpdError):
    """Arc-length or area requested on an unbounded edge segment."""

    exit_code = 7


class UnboundedCellError(GbpdError):
    """Cell measure requested on an unbounded (unclipped) cell."""

    exit_code = 8


class DimensionMismatchError(GbpdError):
    """Label images with different dimensions cannot be compared."""

    exit_code = 9


class QuadratureError(GbpdError):
    """An arc integral misses its error target at the subdivision limit."""

    exit_code = 10
