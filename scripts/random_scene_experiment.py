#!/usr/bin/env python3
"""Random-scene pipeline experiment.

Generates a random anisotropic scene, builds the analytic diagram, rasterizes
it both analytically and by brute-force nearest-generator labeling, and
reports timing plus mismatch statistics; clip, raster and measure times are
in milliseconds. The build line also gives the build's process CPU time
(all threads; above the wall time when the threads overlap) and minor page
faults, the triple count of the sweep and the process's peak RSS so far.
The reload line times writing the diagram JSON, reading it back, and
clipping and measuring the read-back graph, and says whether those
measures equal the built graph's bit for bit. The query line times one
window query on the read-back graph, as `gbpd measure` and `gbpd raster
--analytic` run it: clip to the central 200x200 sub-window, measure its
cells and rasterize it analytically at 200x200, each stage the best of 5
runs in milliseconds. The defaults reproduce the 148-generator, 400x400
reference run.

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
from gbpd.serialize import diagram_from_json, diagram_to_json


def measure_bits(measures) -> list:
    """Every float of a ``measure_cells`` result as its exact hex form."""
    return [(gid, m.area.hex(), m.perimeter.hex(),
             [(c.area.hex(), c.perimeter.hex()) for c in m.components])
            for gid, m in sorted(measures.items())]


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

    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    graph = build_diagram(gens, threads=args.threads)
    t_build = time.perf_counter() - t0
    cpu_build = time.process_time() - cpu0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    # the sweep runs over the triples of the generators left after merging
    # exact duplicates; ru_maxrss is in KiB on Linux
    triples = math.comb(len(graph.generators) - len(graph.aliases), 3)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"build: {t_build:.2f}s, CPU {cpu_build:.2f}s, {faults} minor faults, "
        f"{triples} triples, peak RSS {peak_mb:.1f} MB, "
        f"{len(graph.vertices)} vertices, "
        f"{len(graph.edges)} edges, {len(graph.adjacency)} adjacent pairs, "
        f"{len(graph.empty_cells)} empty cells"
    )

    t0 = time.perf_counter()
    cd = clip_to_window(graph, window)
    t_clip = time.perf_counter() - t0
    print(f"clip: {1e3 * t_clip:.1f} ms, {len(cd.pieces)} pieces")

    t0 = time.perf_counter()
    analytic = rasterize_cells(cd, args.res, args.res)
    t_ana = time.perf_counter() - t0
    t0 = time.perf_counter()
    brute = rasterize(gens, window, args.res, args.res)
    t_brute = time.perf_counter() - t0
    stats = compare_labels(analytic, brute)
    print(f"raster: analytic {1e3 * t_ana:.1f} ms, brute {1e3 * t_brute:.1f} ms "
          f"at {args.res}x{args.res}")
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
        f"measure: {1e3 * t_meas:.1f} ms, area sum {total:.6f} "
        f"(window {window.area():.0f}), {multi} disconnected cells"
    )

    t0 = time.perf_counter()
    text = diagram_to_json(graph)
    t_write = time.perf_counter() - t0
    t0 = time.perf_counter()
    loaded = diagram_from_json(text)
    t_read = time.perf_counter() - t0
    t0 = time.perf_counter()
    reread = measure_cells(clip_to_window(loaded, window))
    t_query = time.perf_counter() - t0
    same = measure_bits(reread) == measure_bits(measures)
    print(
        f"reload: to_json {t_write:.3f}s ({len(text)} bytes), from_json {t_read:.3f}s, "
        f"clip+measure {t_query:.3f}s, measures {'bit-identical' if same else 'DIFFER'}"
    )

    sub = Window(100.0, 100.0, 300.0, 300.0)
    best = {}
    for _ in range(5):
        t0 = time.perf_counter()
        sub_cd = clip_to_window(loaded, sub)
        t1 = time.perf_counter()
        measure_cells(sub_cd)
        t2 = time.perf_counter()
        rasterize_cells(sub_cd, 200, 200)
        t3 = time.perf_counter()
        for stage, t in (("clip", t1 - t0), ("measure", t2 - t1), ("raster", t3 - t2)):
            best[stage] = min(best.get(stage, t), t)
    print(f"query: 200x200 sub-window, clip {1e3 * best['clip']:.2f} ms, "
          f"measure {1e3 * best['measure']:.2f} ms, analytic raster {1e3 * best['raster']:.2f} ms "
          f"at 200x200, {len(sub_cd.pieces)} pieces")

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
