"""Fixtures shared by several test modules."""

import sys
from pathlib import Path

import numpy as np
import pytest

from gbpd import diagram as gdiagram
from gbpd.cli import PRESETS, random_scene
from gbpd.diagram import build_diagram
from gbpd.geometry import Generator, SymMat2, Window
from gbpd.serialize import diagram_from_json, diagram_to_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from output_digests import aniso_scene  # noqa: E402

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
QUERY_SIDE = 200
SHIFT = (1e5, -1e5)
I = SymMat2.identity()


def iso(gid, x, y, w=0.0):
    return Generator(gid, (x, y), I, w)


def _case(name):
    """(generators, window) of a named test case."""
    preset, _, shifted = name.partition("+shift")
    if preset in PRESETS:
        gens = random_scene(preset, 12, 3, WINDOW)
        if not shifted:
            return gens, WINDOW
        moved = [Generator(g.id, g.p + np.array(SHIFT), g.M, g.w) for g in gens]
        return moved, Window(SHIFT[0], SHIFT[1], SHIFT[0] + 400.0, SHIFT[1] + 400.0)
    if name == "loop-across-border":
        disk = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
        return [disk, iso(1, 0, 0)], Window(0, -2, 2, 2)
    if name == "line-through-corners":
        return [iso(0, 0, 0), iso(1, 10, 0)], Window(0, -5, 5, 5)
    if name == "vertex-on-border":
        # the three bisectors meet at (0, 0.25), on the window's left side; one runs inside
        return [iso(0, 0.75, 1.25), iso(1, 0.75, -0.75), iso(2, -1.25, 0.25)], Window(0, -5, 5, 5)
    if name == "dense":
        return random_scene("paper-random", 72, 42, WINDOW), WINDOW
    if name == "loop-inside":
        disk = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
        return [disk, iso(1, 0, 0)], Window(-2, -2, 2, 2)
    if name.startswith("border-tie"):
        # the bisector x = 0 of generators 0 and 1 runs along the window's left or right side
        window = Window(0, -5, 5, 5) if name == "border-tie-left" else Window(-5, -5, 0, 5)
        return [iso(0, -1, 1), iso(1, 1, 1), iso(2, 0, -1)], window
    assert name == "no-edge-inside"
    return [iso(0, 0, 0), iso(1, 100, 0)], Window(-1, -1, 1, 1)


CASES = [*PRESETS, *(p + "+shift" for p in PRESETS), "loop-across-border",
         "line-through-corners", "vertex-on-border", "no-edge-inside", "dense"]
# more windows for the clip against its per-edge reference: a whole ellipse
# loop inside the window, and a bisector along a window side
CLIP_CASES = [*CASES, "loop-inside", "border-tie-left", "border-tie-right"]


@pytest.fixture(scope="session")
def graphs():
    """The diagram and window of every CLIP_CASES case, by name."""
    return {name: (build_diagram(_case(name)[0]), _case(name)[1]) for name in CLIP_CASES}


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


def digest_scenes():
    """(name, generators) of the 45 scenes whose diagrams
    scripts/output_digests.py builds and queries, in its order: all of its
    scenes but the paper's n=148 one, of which it digests the JSON alone."""
    for seed in range(1010, 1020):
        for preset in PRESETS:
            yield f"{preset}-16-{seed}", random_scene(preset, 16, seed, WINDOW)
    yield "dense-72-42", random_scene("paper-random", 72, 42, WINDOW)
    yield "reload-64-42", random_scene("paper-weights", 64, 42, WINDOW)
    for seed in range(1010, 1013):
        for preset in PRESETS:
            yield f"{preset}-12-{seed}-shifted", [
                Generator(g.id, g.p + np.array(SHIFT), g.M, g.w)
                for g in random_scene(preset, 12, seed, WINDOW)]
    yield "lattice-4x4", [Generator(4 * i + j, (float(i), float(j)), I, 0.0)
                          for i in range(4) for j in range(4)]
    for seed in (3, 17, 29):
        yield f"aniso-10-{seed}", aniso_scene(seed)


@pytest.fixture(scope="session")
def digest_graphs():
    """(graphs, labels): per digest scene (name, built graph, graph read back
    from its JSON), and every call of ``diagram._curve_labels`` the builds
    made, as (arguments, result)."""
    labels = []
    encode = gdiagram._curve_labels

    def recorded(*args):
        out = encode(*args)
        labels.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gdiagram, "_curve_labels", recorded)
        built = [(name, build_diagram(gens)) for name, gens in digest_scenes()]
    return [(name, g, diagram_from_json(diagram_to_json(g))) for name, g in built], labels
