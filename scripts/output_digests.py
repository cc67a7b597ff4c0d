#!/usr/bin/env python3
"""Print one sha256 line per pipeline output over a fixed scene set.

A change that should not alter behaviour must leave every line as it was,
so the check is to run this in two checkouts and diff the output:

    python scripts/output_digests.py > after.txt
    (cd ../before && python scripts/output_digests.py) > before.txt
    diff before.txt after.txt

Each line is "<scene> <output> <sha256>". The outputs are the diagram JSON,
the clip (nodes, pieces and cell loops, floats as hex), ``measure_cells`` of
the clip (floats as hex), ``cell_area`` of every bare-graph cell, the
``rasterize_cells`` labels and the ``render_svg`` text. A step that raises
digests its exception type and message, and the steps after it that need
its result are skipped.

The scenes: the three presets at n=16 with seeds 1010-1019 (the
small-batch scenes), the dense paper-random n=72 scene, the diagram JSON
alone of the paper's paper-random n=148 scene (seed 42), the paper-weights
n=64 scene read back from its JSON and queried in nine 200x200 windows,
the presets at n=12, seeds 1010-1012, shifted by (1e5, -1e5), and two
raster cases: a 4x4 unit lattice at 8 px, whose vertices and edges run
through pixel centers, and the anisotropic n=10 scenes of seeds 3, 17 and
29 in a 100x100 window at 400 px, which have cells with holes; last, the
two scenes of CORNER_SCENES at 100 px, whose clips merge window crossings.

The bytes of the float outputs depend on the SIMD kernels that numpy
dispatches on this machine, so the script prints numpy's SIMD baseline and
dispatch targets on stderr, leaving stdout to the digests.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench import simd_targets
from gbpd.cli import PRESETS, random_scene
from gbpd.clip import NODE_KINDS, clip_to_window
from gbpd.diagram import build_diagram
from gbpd.geometry import Generator, SymMat2, Window
from gbpd.measure import cell_area, measure_cells
from gbpd.oracle import rasterize_cells
from gbpd.render import render_svg
from gbpd.serialize import diagram_from_json, diagram_to_json

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
SHIFT = np.array([1e5, -1e5])
# (generators, window) of scenes whose clips find a crossing on both sides
# of a corner and merge the two: the bisector y = x meets the corners (0, 0)
# and (4, 4), and the circle of radius 5 about the origin passes through
# the corner (3, 4)
CORNER_SCENES = {
    "line-through-a-corner": (
        [Generator(0, (1, 0), SymMat2.identity(), 0.0), Generator(1, (0, 1), SymMat2.identity(), 0.0)],
        Window(0, 0, 4, 4)),
    "circle-through-a-corner": (
        [Generator(0, (0, 0), SymMat2.isotropic(2.0), 25.0),
         Generator(1, (0, 0), SymMat2.identity(), 0.0)],
        Window(3, -10, 10, 4)),
}


def aniso_scene(seed: int, n: int = 10) -> list[Generator]:
    """Every odd generator anisotropic (axes 3-10 and 1-3), all weighted 0-5,
    in a 100x100 square; the scene of tests/test_measure.py::aniso_scene."""
    rng = np.random.default_rng(seed)
    gens = []
    for k in range(n):
        p = rng.uniform(0.0, 100.0, size=2)
        if k % 2 == 1:
            a1 = rng.uniform(3.0, 10.0) ** 2
            a2 = rng.uniform(1.0, 3.0) ** 2
            m = SymMat2(1.0 / a1, 0.0, 1.0 / a2).rotated(rng.uniform(0.0, math.pi))
        else:
            m = SymMat2.identity()
        gens.append(Generator(k, p, m, rng.uniform(0.0, 5.0)))
    return gens


def hexes(values) -> str:
    if values is None:
        return "-"
    return ",".join(float(v).hex() for v in np.ravel(np.asarray(values, dtype=float)))


def clip_text(cd) -> str:
    """The clip record as text: Python ints and bools, None where a column
    says none (-1 or NaN), floats as hex."""
    def opt(v):
        return None if v < 0 else v

    def floats(v):
        return hexes(None if np.isnan(v).any() else v)

    rows = [f"node {k} {NODE_KINDS[kind]} {hexes(pos)} {floats(s)}"
            for k, (pos, kind, s) in enumerate(cd.nodes.tolist())]
    pairs = [tuple(pair) for pair in cd.graph.edges["pair"].tolist()]
    for k, (edge, line, a0, a1, na, nb, closed, left, right, p0, p1) in enumerate(cd.pieces.tolist()):
        kind = "boundary" if edge < 0 else "arc" if line < 0 else "segment"
        pair = None if edge < 0 else pairs[edge]
        rows.append(f"piece {k} {kind} {pair} {opt(edge)} {opt(line)} {floats(a0)} {floats(a1)} "
                    f"{opt(na)} {opt(nb)} {closed} {opt(left)} {opt(right)} {floats(p0)} "
                    f"{floats(p1)}")
    cells = cd.loops.cells.tolist()
    rows += [f"cell {gid} {[lp.tolist() for lp in cd.loops.runs(c)]}"
             for gid, c in sorted(zip(cells, range(len(cells))))]
    return "\n".join(rows)


def measure_text(m) -> str:
    comps = " ".join(f"{hexes(c.area)}/{hexes(c.perimeter)}" for c in m.components)
    return f"{m.cell} {hexes(m.area)} {hexes(m.perimeter)} [{comps}]"


def measures_text(measures) -> str:
    return "\n".join(measure_text(m) for _, m in sorted(measures.items()))


def labels_text(img) -> str:
    return f"{img.width}x{img.height} {img.ids} " + hashlib.sha256(
        np.ascontiguousarray(img.labels, dtype=np.int32).tobytes()).hexdigest()


def graph_cells_text(graph) -> str:
    rows = []
    for g in graph.generators:
        try:
            rows.append(measure_text(cell_area(g.id, graph)))
        except Exception as exc:  # noqa: BLE001 - the error is the output
            rows.append(f"{g.id} {type(exc).__name__}: {exc}")
    return "\n".join(rows)


def emit(scene: str, output: str, make) -> object:
    """Print the digest of make()'s text; return its value, or None if it raised."""
    try:
        value, text = make()
    except Exception as exc:  # noqa: BLE001 - the error is the output
        value, text = None, f"{type(exc).__name__}: {exc}"
    print(f"{scene} {output} {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
    return value


def query(scene: str, graph, window: Window, res: int) -> None:
    """Digest the clip of graph to window and what is measured and drawn from it."""
    cd = emit(scene, "clip", lambda: ((c := clip_to_window(graph, window)), clip_text(c)))
    if cd is None:
        return
    emit(scene, "measure", lambda: (None, measures_text(measure_cells(cd))))
    emit(scene, "raster", lambda: (None, labels_text(rasterize_cells(cd, res, res))))
    emit(scene, "svg", lambda: (None, render_svg(cd, 400, vertex_markers=True, labels=True)))


def scene_outputs(scene: str, gens, window: Window, res: int) -> None:
    graph = emit(scene, "json", lambda: ((g := build_diagram(gens)), diagram_to_json(g)))
    if graph is None:
        return
    emit(scene, "graph-cells", lambda: (None, graph_cells_text(graph)))
    query(scene, graph, window, res)


def main() -> int:
    baseline, dispatch = simd_targets()
    print(f"numpy SIMD baseline: {' '.join(baseline)}; dispatch targets on this machine: "
          f"{' '.join(dispatch) or 'none'}", file=sys.stderr)
    for seed in range(1010, 1020):
        for preset in PRESETS:
            gens = random_scene(preset, 16, seed, WINDOW)
            scene_outputs(f"{preset}-16-{seed}", gens, WINDOW, 100)
    scene_outputs("dense-72-42", random_scene("paper-random", 72, 42, WINDOW), WINDOW, 400)
    # the paper's reference scene: 529,396 triples, so the sweep runs in 17 chunks
    emit("paper-148-42", "json", lambda: (None, diagram_to_json(
        build_diagram(random_scene("paper-random", 148, 42, WINDOW)))))

    text = diagram_to_json(build_diagram(random_scene("paper-weights", 64, 42, WINDOW)))
    graph = emit("reload-64-42", "json",
                 lambda: ((g := diagram_from_json(text)), diagram_to_json(g)))
    if graph is not None:
        for j in range(9):
            x0, y0 = 50 * (j % 3) + 7 * j, 50 * (j // 3) + 3 * j
            query(f"reload-64-42-w{j}", graph, Window(x0, y0, x0 + 200.0, y0 + 200.0), 200)

    dx, dy = SHIFT.tolist()
    shifted = Window(WINDOW.xmin + dx, WINDOW.ymin + dy, WINDOW.xmax + dx, WINDOW.ymax + dy)
    for seed in range(1010, 1013):
        for preset in PRESETS:
            gens = [Generator(g.id, g.p + SHIFT, g.M, g.w)
                    for g in random_scene(preset, 12, seed, WINDOW)]
            scene_outputs(f"{preset}-12-{seed}-shifted", gens, shifted, 100)

    lattice = [Generator(4 * i + j, np.array([float(i), float(j)]), SymMat2.identity(), 0.0)
               for i in range(4) for j in range(4)]
    scene_outputs("lattice-4x4", lattice, Window(-0.25, -0.25, 3.75, 3.75), 8)
    for seed in (3, 17, 29):
        scene_outputs(f"aniso-10-{seed}", aniso_scene(seed), Window(0.0, 0.0, 100.0, 100.0), 400)
    for name, (gens, window) in CORNER_SCENES.items():
        scene_outputs(name, gens, window, 100)
    return 0


if __name__ == "__main__":
    sys.exit(main())
