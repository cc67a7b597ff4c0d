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
29 in a 100x100 window at 400 px, which have cells with holes.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gbpd.cli import PRESETS, random_scene
from gbpd.clip import clip_to_window
from gbpd.diagram import build_diagram
from gbpd.geometry import Generator, SymMat2, Window
from gbpd.measure import cell_area, measure_cells
from gbpd.oracle import rasterize_cells
from gbpd.render import render_svg
from gbpd.serialize import diagram_from_json, diagram_to_json

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
SHIFT = np.array([1e5, -1e5])


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
    rows = [f"node {nd.id} {nd.kind} {hexes(nd.pos)} {hexes(nd.boundary_s)}" for nd in cd.nodes]
    rows += [
        f"piece {p.id} {p.kind} {p.pair} {p.edge_id} {p.line_index} {hexes(p.a0)} {hexes(p.a1)} "
        f"{p.node_a} {p.node_b} {p.closed} {p.left} {p.right} {hexes(p.p0)} {hexes(p.p1)}"
        for p in cd.pieces
    ]
    rows += [f"cell {gid} {loops}" for gid, loops in sorted(cd.cells.items())]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
