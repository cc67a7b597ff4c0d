"""Analytic generalized balanced power diagrams in the plane.

Generators are weighted ellipses (center, positive definite matrix, weight);
cells are bounded by conic arcs computed exactly from pairwise bisectors.
"""

from .errors import (
    DimensionMismatchError,
    GbpdError,
    InputError,
    NonFiniteSegmentError,
    NonRenderableContour,
    NoSolutionError,
    OverlappingConicsError,
    QuadratureError,
    SingularParameterError,
    UnboundedCellError,
)
from .geometry import (
    EllipseGeom,
    Generator,
    SceneArrays,
    SymMat2,
    Window,
    dist_g,
    generator_to_ellipse,
    load_scene,
    save_scene,
    special_distances,
)
from .serialize import diagram_from_json, diagram_to_json, read_diagram, write_diagram

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "EllipseGeom",
    "GbpdError",
    "Generator",
    "InputError",
    "NonFiniteSegmentError",
    "NonRenderableContour",
    "NoSolutionError",
    "OverlappingConicsError",
    "QuadratureError",
    "SceneArrays",
    "SingularParameterError",
    "SymMat2",
    "UnboundedCellError",
    "Window",
    "diagram_from_json",
    "diagram_to_json",
    "dist_g",
    "generator_to_ellipse",
    "load_scene",
    "read_diagram",
    "save_scene",
    "special_distances",
    "write_diagram",
]
