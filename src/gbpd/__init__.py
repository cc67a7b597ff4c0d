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
from .bisector import bisector_implicit
from .geometry import (
    EllipseGeom,
    Generator,
    SceneArrays,
    SymMat2,
    Window,
    dist_g,
    ellipse_to_matrix,
    generator_to_ellipse,
    load_scene,
    save_scene,
    special_distances,
)
from .intersect import conic_conic_intersections
from .measure import cell_perimeter, edge_arc_length
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
    "bisector_implicit",
    "cell_perimeter",
    "conic_conic_intersections",
    "diagram_from_json",
    "diagram_to_json",
    "dist_g",
    "edge_arc_length",
    "ellipse_to_matrix",
    "generator_to_ellipse",
    "load_scene",
    "read_diagram",
    "save_scene",
    "special_distances",
    "write_diagram",
]
