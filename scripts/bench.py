#!/usr/bin/env python3
"""Write BENCH_<label>.json: the pipeline's stage times on fixed scenes.

Each scene is the paper-random preset, seed 42, in the 400x400 window, at
n = 50, 100, 148 and 300 generators. Each is built --repeats times with one
thread and --repeats times with one thread per CPU. The build and, within
it, the triple sweep (``vertex_candidates``, timed by a wrapper that this
script puts on the name ``gbpd.diagram.vertex_candidates``, as the
benchmark's span tracer does) are recorded as the median and quartiles of
those runs (s), and the sweep also as microseconds per triple. On the built
graph the script then times, each as the median of --repeats runs in ms:
the clip to the window, ``measure_cells`` of the clip, the analytic raster
at 400x400, ``diagram_to_json`` and ``diagram_from_json``. It counts the
Gauss-Kronrod passes of one ``measure_cells`` call (``measure_passes``,
through a wrapper on ``gbpd.measure._gk15``). It records the
graph's counts, the JSON's size in bytes and the process's peak RSS after
the run, and, once, the machine: platform, CPU count, Python, numpy and
scipy versions, numpy's SIMD baseline and the dispatch targets this machine
has (see ``simd_targets``), and the line count of ``src/``.

    python scripts/bench.py --label main          # writes BENCH_main.json
    python scripts/bench.py --n 50 --out /tmp/bench.json
"""

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gbpd.diagram  # noqa: E402
import gbpd.measure  # noqa: E402
from gbpd.cli import random_scene  # noqa: E402
from gbpd.clip import clip_to_window  # noqa: E402
from gbpd.diagram import build_diagram  # noqa: E402
from gbpd.geometry import Window  # noqa: E402
from gbpd.measure import measure_cells  # noqa: E402
from gbpd.oracle import rasterize_cells  # noqa: E402
from gbpd.serialize import diagram_from_json, diagram_to_json  # noqa: E402

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
SIZES = (50, 100, 148, 300)
SEED = 42
RES = 400


def simd_targets() -> tuple[list[str], list[str]]:
    """numpy's SIMD baseline, and the dispatch targets above it that this
    machine has: the ones that NPY_DISABLE_CPU_FEATURES can switch off.
    A target so switched off is not listed."""
    from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                               __cpu_features__)
    return list(__cpu_baseline__), [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def machine() -> dict:
    baseline, dispatch = simd_targets()
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {
        "commit": commit or None,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd_baseline": baseline,
        "simd_dispatch": dispatch,
        "npy_disable_cpu_features": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
        "src_lines": sum(len(path.read_text(encoding="utf-8").splitlines())
                         for path in sorted((ROOT / "src" / "gbpd").glob("*.py"))),
    }


def timed_sweep(times: list):
    """Wrap ``gbpd.diagram.vertex_candidates`` so that each call appends its
    duration (s) to ``times``; the build looks the name up at each call."""
    sweep = gbpd.diagram.vertex_candidates

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return sweep(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)

    gbpd.diagram.vertex_candidates = wrapper


def counted_passes(passes: list):
    """Wrap ``gbpd.measure._gk15`` so that each Gauss-Kronrod pass appends
    its piece count, the size of its argument ``lo``, to ``passes``;
    ``arc_measures`` looks the name up at each pass."""
    gk15 = gbpd.measure._gk15
    bind = inspect.signature(gk15).bind

    def wrapper(*args, **kwargs):
        passes.append(bind(*args, **kwargs).arguments["lo"].size)
        return gk15(*args, **kwargs)

    gbpd.measure._gk15 = wrapper


def quartiles(values) -> list[float]:
    """The first quartile, median and third quartile of ``values``."""
    return np.percentile(values, [25, 50, 75]).tolist()


def median_ms(run, repeats: int):
    """(median time of ``repeats`` calls in ms, the last call's result)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), out


def bench(n: int, threads: int, repeats: int, sweep_times: list, passes: list) -> dict:
    """One run's record; ``sweep_times`` and ``passes`` are the lists that
    ``timed_sweep`` and ``counted_passes`` fill."""
    gens = random_scene("paper-random", n, SEED, WINDOW)
    build, sweep_times[:] = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        graph = build_diagram(gens, threads=threads)
        build.append(time.perf_counter() - t0)
    if len(sweep_times) != repeats:
        raise RuntimeError(f"{repeats} builds ran the triple sweep {len(sweep_times)} times")
    build_q, sweep_q = quartiles(build), quartiles(sweep_times)
    triples = math.comb(len(graph.generators) - len(graph.aliases), 3)
    clip_ms, cd = median_ms(lambda: clip_to_window(graph, WINDOW), repeats)
    passes[:] = []
    measure_ms, _ = median_ms(lambda: measure_cells(cd), repeats)
    if len(passes) % repeats:
        raise RuntimeError(f"{repeats} measures made {len(passes)} quadrature passes")
    raster_ms, _ = median_ms(lambda: rasterize_cells(cd, RES, RES), repeats)
    to_json_ms, text = median_ms(lambda: diagram_to_json(graph), repeats)
    from_json_ms, _ = median_ms(lambda: diagram_from_json(text), repeats)
    return {
        "n": n,
        "threads": threads,
        "triples": triples,
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "repeats": repeats,
        "build_s": round(build_q[1], 4),
        "build_s_quartiles": [round(build_q[0], 4), round(build_q[2], 4)],
        "sweep_s": round(sweep_q[1], 4),
        "sweep_s_quartiles": [round(sweep_q[0], 4), round(sweep_q[2], 4)],
        "sweep_us_per_triple": round(1e6 * sweep_q[1] / max(triples, 1), 4),
        "clip_ms": round(clip_ms, 3),
        "measure_ms": round(measure_ms, 3),
        "measure_passes": len(passes) // repeats,
        "raster_ms": round(raster_ms, 3),
        "to_json_ms": round(to_json_ms, 3),
        "from_json_ms": round(from_json_ms, 3),
        "json_bytes": len(text.encode()),
        # ru_maxrss is in KiB on Linux, and the peak of the process so far
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="local", help="file name label: BENCH_<label>.json")
    ap.add_argument("--out", default=None, help="output path (default BENCH_<label>.json)")
    ap.add_argument("--n", type=int, nargs="+", default=list(SIZES), help="scene sizes")
    ap.add_argument("--repeats", type=int, default=5, help="runs per timed stage")
    args = ap.parse_args()
    sweep_times: list[float] = []
    timed_sweep(sweep_times)
    passes: list[int] = []
    counted_passes(passes)

    threads = sorted({1, os.cpu_count() or 1})
    runs = []
    for n in args.n:
        for t in threads:
            runs.append(bench(n, t, args.repeats, sweep_times, passes))
            print(json.dumps(runs[-1]), flush=True)
    out = Path(args.out or ROOT / f"BENCH_{args.label}.json")
    doc = {"label": args.label, "scene": f"paper-random, seed {SEED}, window 400x400",
           "machine": machine(), "runs": runs}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
