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
arcs that one ``measure_cells`` call measures (``measure_arcs``, through a
wrapper on ``gbpd.measure.arc_measures``). It records the
graph's counts, the JSON's size in bytes and the process's peak RSS after
the run, and, once, the machine: platform, CPU count, Python, numpy and
scipy versions, numpy's SIMD baseline and the dispatch targets this machine
has (see ``simd_targets``), and the line count of ``src/``.

With --against REV the script compares two trees instead: it checks REV
out into a temporary ``git worktree``, then runs itself --rounds times on
each tree, in fresh processes that alternate between the trees (this tree
first in even rounds, REV first in odd ones). The file holds, per tree and
per (n, threads) run, the median and quartiles over the rounds of every
number that one run records. --tree benchmarks the ``src/`` of another
checkout; --against passes it to the runs of REV.

    python scripts/bench.py --label main          # writes BENCH_main.json
    python scripts/bench.py --n 50 --out /tmp/bench.json
    python scripts/bench.py --n 300 --against HEAD~1 --rounds 5 --out /tmp/cmp.json
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def _tree() -> Path:
    """The checkout whose ``src/`` this run imports: --tree, else this one."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--tree", type=Path, default=ROOT)
    return ap.parse_known_args()[0].tree.resolve()


TREE = _tree() if __name__ == "__main__" else ROOT
sys.path.insert(0, str(TREE / "src"))

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
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=TREE,
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
                         for path in sorted((TREE / "src" / "gbpd").glob("*.py"))),
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


def counted_arcs(arcs: list):
    """Wrap ``gbpd.measure.arc_measures`` so that each call appends its arc
    count to ``arcs``; the measure looks the name up at each call."""
    measures = gbpd.measure.arc_measures

    def wrapper(coef, u_scale, a0, a1):
        arcs.append(len(a0))
        return measures(coef, u_scale, a0, a1)

    gbpd.measure.arc_measures = wrapper


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


def bench(n: int, threads: int, repeats: int, sweep_times: list, arcs: list) -> dict:
    """One run's record; ``sweep_times`` and ``arcs`` are the lists that
    ``timed_sweep`` and ``counted_arcs`` fill."""
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
    arcs[:] = []
    measure_ms, _ = median_ms(lambda: measure_cells(cd), repeats)
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
        "measure_arcs": sum(arcs) // repeats,
        "raster_ms": round(raster_ms, 3),
        "to_json_ms": round(to_json_ms, 3),
        "from_json_ms": round(from_json_ms, 3),
        "json_bytes": len(text.encode()),
        # ru_maxrss is in KiB on Linux, and the peak of the process so far
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def summary(runs: list[list[dict]]) -> list[dict]:
    """Per (n, threads) run, the median and quartiles over the rounds
    ``runs`` (one list of run records per round) of each number in them."""
    out = []
    for records in zip(*runs):
        row = {"n": records[0]["n"], "threads": records[0]["threads"], "rounds": len(records)}
        for key, value in records[0].items():
            if key not in row and isinstance(value, (int, float)):
                q = quartiles([r[key] for r in records])
                row[key] = {"median": q[1], "quartiles": [q[0], q[2]]}
        out.append(row)
    return out


def against(rev: str, args) -> dict:
    """Both trees' summaries: REV from a temporary worktree, this tree, in
    alternating fresh processes of this script."""
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp) / "against"
        subprocess.run(["git", "worktree", "add", "--detach", str(other), rev], cwd=ROOT,
                       check=True, capture_output=True)
        trees = {"this": ROOT, rev: other}
        runs: dict[str, list] = {side: [] for side in trees}
        try:
            for k in range(args.rounds):
                for side in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
                    out = Path(tmp) / f"round-{k}-{len(runs[side])}-{side == 'this'}.json"
                    subprocess.run([sys.executable, __file__, "--tree", str(trees[side]), "--n",
                                    *map(str, args.n), "--repeats", str(args.repeats), "--out",
                                    str(out)], check=True, stdout=subprocess.DEVNULL)
                    runs[side].append(json.loads(out.read_text(encoding="utf-8"))["runs"])
                print(f"round {k + 1} of {args.rounds} done", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(other)], cwd=ROOT,
                           capture_output=True)
    return {side: summary(rounds) for side, rounds in runs.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="local", help="file name label: BENCH_<label>.json")
    ap.add_argument("--out", default=None, help="output path (default BENCH_<label>.json)")
    ap.add_argument("--n", type=int, nargs="+", default=list(SIZES), help="scene sizes")
    ap.add_argument("--repeats", type=int, default=5, help="runs per timed stage")
    ap.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ to benchmark")
    ap.add_argument("--against", metavar="REV", default=None,
                    help="compare this tree with git revision REV in alternating processes")
    ap.add_argument("--rounds", type=int, default=5, help="processes per tree with --against")
    args = ap.parse_args()
    out = Path(args.out or ROOT / f"BENCH_{args.label}.json")
    scene = f"paper-random, seed {SEED}, window 400x400"
    if args.against:
        doc = {"label": args.label, "scene": scene, "against": args.against,
               "rounds": args.rounds, "machine": machine(), "trees": against(args.against, args)}
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
        return 0
    sweep_times: list[float] = []
    timed_sweep(sweep_times)
    arcs: list[int] = []
    counted_arcs(arcs)

    threads = sorted({1, os.cpu_count() or 1})
    runs = []
    for n in args.n:
        for t in threads:
            runs.append(bench(n, t, args.repeats, sweep_times, arcs))
            print(json.dumps(runs[-1]), flush=True)
    doc = {"label": args.label, "scene": scene, "machine": machine(), "runs": runs}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
