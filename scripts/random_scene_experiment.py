#!/usr/bin/env python3
"""Random-scene pipeline experiment.

Generates a random anisotropic scene, builds the analytic diagram, rasterizes
it both analytically and by brute-force nearest-generator labeling, and
reports timing plus mismatch statistics. The build line also gives the
triple count of the sweep and the process's peak RSS so far. The defaults
reproduce the 148-generator, 400x400 reference run.

    python scripts/random_scene_experiment.py --n 148 --seed 42 --res 400
"""

import argparse
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gbpd.cli import random_scene
from gbpd.clip import clip_to_window
from gbpd.diagram import build_diagram
from gbpd.geometry import Window
from gbpd.measure import measure_cells
from gbpd.oracle import compare_labels, rasterize, rasterize_cells, write_pgm
from gbpd.render import write_svg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=148)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--res", type=int, default=400, help="raster resolution")
    ap.add_argument("--preset", default="paper-random")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--outdir", default=None, help="dump scene/PGM/SVG artifacts here")
    args = ap.parse_args()

    window = Window(0.0, 0.0, 400.0, 400.0)
    gens = random_scene(args.preset, args.n, args.seed, window)
    print(f"scene: {args.n} generators, preset {args.preset}, seed {args.seed}")

    t0 = time.perf_counter()
    graph = build_diagram(gens, threads=args.threads)
    t_build = time.perf_counter() - t0
    # the sweep runs over the triples of the generators left after merging
    # exact duplicates; ru_maxrss is in KiB on Linux
    triples = math.comb(len(graph.generators) - len(graph.aliases), 3)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"build: {t_build:.2f}s, {triples} triples, peak RSS {peak_mb:.1f} MB, "
        f"{len(graph.vertices)} vertices, "
        f"{len(graph.edges)} edges, {len(graph.adjacency)} adjacent pairs, "
        f"{len(graph.empty_cells)} empty cells"
    )

    t0 = time.perf_counter()
    cd = clip_to_window(graph, window)
    t_clip = time.perf_counter() - t0
    print(f"clip: {t_clip:.2f}s, {len(cd.pieces)} pieces")

    t0 = time.perf_counter()
    analytic = rasterize_cells(cd, args.res, args.res)
    t_ana = time.perf_counter() - t0
    t0 = time.perf_counter()
    brute = rasterize(gens, window, args.res, args.res)
    t_brute = time.perf_counter() - t0
    stats = compare_labels(analytic, brute)
    print(f"raster: analytic {t_ana:.2f}s, brute {t_brute:.2f}s at {args.res}x{args.res}")
    print(
        f"mismatch: {stats.mismatched}/{stats.pixels} ({stats.fraction:.5f}), "
        f"near-edge share {stats.near_edge_fraction:.5f}"
    )

    t0 = time.perf_counter()
    measures = measure_cells(cd)
    t_meas = time.perf_counter() - t0
    total = sum(m.area for m in measures.values())
    multi = sum(1 for m in measures.values() if len(m.components) > 1)
    print(
        f"measure: {t_meas:.2f}s, area sum {total:.6f} "
        f"(window {window.area():.0f}), {multi} disconnected cells"
    )

    if args.outdir:
        out = Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        write_pgm(analytic, out / "analytic.pgm")
        write_pgm(brute, out / "brute.pgm")
        write_svg(out / "diagram.svg", cd, 800)
        print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
