"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from gbpd.cli import random_scene
from gbpd.diagram import build_diagram
from gbpd.geometry import Window
from gbpd.serialize import diagram_from_json, diagram_to_json

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
QUERY_SIDE = 200


@pytest.fixture(scope="session")
def reload_query():
    """The benchmark's reload-query diagram and nine of its query windows.

    The diagram is paper-weights n=64, scene seed 42, read back from its
    JSON. The windows are 200x200 with whole-number corners, corner j drawn
    from cell j of a 3x3 grid over the corner range, as the benchmark draws
    them for seed 1 (perfbench/workloads.py, ReloadQuery.prepare).
    """
    scene = random_scene("paper-weights", 64, 42, WINDOW)
    graph = diagram_from_json(diagram_to_json(build_diagram(scene)))
    step = (WINDOW.width - QUERY_SIDE) / 3.0
    windows = []
    for j in range(9):
        rng = np.random.default_rng((1, j))
        x0, y0 = np.floor(step * (np.array([j % 3, j // 3]) + rng.uniform(0.0, 1.0, 2))).astype(int)
        windows.append(Window(float(x0), float(y0), float(x0 + QUERY_SIDE), float(y0 + QUERY_SIDE)))
    return graph, windows
