"""The float contract across numpy's SIMD dispatch.

numpy chooses its kernels at run time from the CPU features it finds, and
kernels for different targets may round differently, so the diagram JSON
bytes are per machine class. Topology and ids must not depend on the
choice, and the floats must agree within tight bounds. This test builds,
clips and measures a few digest scenes in a subprocess with every dispatch
target above numpy's baseline switched off (NPY_DISABLE_CPU_FEATURES), and
compares the results with the same work done here.

Run as a script, it prints the results of the scenes it is given as JSON:

    PYTHONPATH=src python tests/test_float_contract.py dense-72-42
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import WINDOW, digest_scenes  # puts scripts/ on the path
from bench import simd_targets  # noqa: E402
from gbpd.clip import clip_to_window
from gbpd.diagram import build_diagram
from gbpd.geometry import Window
from gbpd.measure import measure_cells

ROOT = Path(__file__).resolve().parent.parent
# digest scenes of all three presets, the anisotropic cells with holes and
# the dense scene, with the windows their digests clip to
SCENES = {"paper-random-16-1010": WINDOW, "paper-weights-16-1013": WINDOW,
          "isotropic-16-1011": WINDOW, "aniso-10-17": Window(0.0, 0.0, 100.0, 100.0),
          "dense-72-42": WINDOW}


def scene_results(names) -> dict:
    """Per scene: the graph's length scale, vertex generator ids and
    positions, edge integer columns, clip piece integer columns and loops,
    and each cell's area, perimeter and component count."""
    gens = dict(digest_scenes())
    out = {}
    for name in names:
        graph = build_diagram(gens[name])
        cd = clip_to_window(graph, SCENES[name])
        e, p = graph.edges, cd.pieces
        out[name] = {
            "scale": graph.length_scale,
            "gens": [sorted(v.gens) for v in graph.vertices],
            "pos": [v.pos.tolist() for v in graph.vertices],
            "edges": np.column_stack([e["pair"], *(e[k] for k in (
                "kind", "node_a", "node_b", "component", "line"))]).tolist(),
            "pieces": np.column_stack([p[k] for k in (
                "edge", "line", "node_a", "node_b", "closed", "left", "right")]).tolist(),
            "loops": [cd.loops.cells.tolist(), cd.loops.half.tolist(),
                      cd.loops.loop_start.tolist(), cd.loops.cell_start.tolist()],
            "cells": [[gid, m.area, m.perimeter, len(m.components)]
                      for gid, m in sorted(measure_cells(cd).items())],
        }
    return out


def test_topology_and_floats_do_not_depend_on_simd_dispatch():
    _, targets = simd_targets()
    if not targets:
        pytest.skip("numpy dispatches no SIMD target above its baseline on this machine")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, __file__, *SCENES], env=env, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    there = json.loads(run.stdout)
    here = json.loads(json.dumps(scene_results(SCENES)))
    for name in SCENES:
        a, b = here[name], there[name]
        for key in ("gens", "edges", "pieces", "loops"):
            assert a[key] == b[key], (name, key)
        assert [c[0::3] for c in a["cells"]] == [c[0::3] for c in b["cells"]], name
        moved = np.abs(np.subtract(a["pos"], b["pos"])).max(initial=0.0) / a["scale"]
        assert moved <= 1e-12, (name, moved)
        x, y = np.array(a["cells"])[:, 1:3], np.array(b["cells"])[:, 1:3]
        changed = (np.abs(x - y) / np.maximum(np.abs(x), np.finfo(float).tiny)).max()
        assert changed <= 1e-12, (name, changed)


if __name__ == "__main__":
    print(json.dumps(scene_results(sys.argv[1:])))
