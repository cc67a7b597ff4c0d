"""Command-line front end.

Subcommands: ``gen`` (random scenes), ``compute`` (diagram JSON + optional
SVG), ``raster`` (brute-force or analytic label image), ``measure`` (cell
areas and perimeters as CSV), ``compare`` (label image mismatch report),
``fit`` (generators from a label image). Every command is deterministic
given identical inputs and seeds. Errors exit with the code of their class
(see errors module); argparse usage problems exit with 2.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .clip import clip_to_window
from .diagram import build_diagram
from .errors import GbpdError, InputError
from .fit import fit_generators_from_labels
from .geometry import Generator, SymMat2, Window, load_scene, save_scene
from .measure import measure_cells
from .oracle import compare_labels, rasterize, rasterize_cells, read_pgm, write_pgm
from .render import write_svg
from .serialize import read_diagram, write_diagram

DEFAULT_WINDOW = (0.0, 0.0, 400.0, 400.0)

PRESETS = ("paper-random", "paper-weights", "isotropic")


# --------------------------------------------------------------- utilities


def _window(args) -> Window:
    x0, y0, x1, y1 = args.window
    return Window(x0, y0, x1, y1)


def _load_any(path: str):
    """Scene generators from a CSV scene or a diagram JSON file."""
    if path.endswith(".json"):
        return read_diagram(path)
    return load_scene(path)


def _load_graph(args):
    """Diagram graph of ``--input``: built from a CSV scene, or read from diagram JSON."""
    loaded = _load_any(args.input)
    return build_diagram(loaded, threads=args.threads) if isinstance(loaded, list) else loaded


# ------------------------------------------------------------------- gen


def random_scene(preset: str, n: int, seed: int, window: Window) -> list[Generator]:
    """Deterministic random generators for the named preset.

    paper-random: anisotropic ellipses, rotation uniform on [0, pi], major
    semi-axis uniform on [10, 20], minor uniform on [0.5, 10] (lower bound
    clamped away from 0 to keep the matrices positive definite), weights
    uniform on [0, 50]. paper-weights: same ellipses, weights uniform on
    (-1, 3). isotropic: unit matrices, zero weights.
    """
    if preset not in PRESETS:
        raise InputError(f"unknown preset {preset!r} (choose from {', '.join(PRESETS)})")
    if n < 1:
        raise InputError("a scene needs at least one generator")
    rng = np.random.default_rng(seed)
    out: list[Generator] = []
    for k in range(n):
        px = rng.uniform(window.xmin, window.xmax)
        py = rng.uniform(window.ymin, window.ymax)
        if preset == "isotropic":
            out.append(Generator(k, np.array([px, py]), SymMat2.identity(), 0.0))
            continue
        theta = rng.uniform(0.0, math.pi)
        major = rng.uniform(10.0, 20.0)
        minor = rng.uniform(0.5, 10.0)
        m = SymMat2(1.0 / major**2, 0.0, 1.0 / minor**2).rotated(theta)
        if preset == "paper-weights":
            w = rng.uniform(-1.0, 3.0)
        else:
            w = rng.uniform(0.0, 50.0)
        out.append(Generator(k, np.array([px, py]), m, float(w)))
    return out


def cmd_gen(args) -> int:
    scene = random_scene(args.preset, args.n, args.seed, _window(args))
    save_scene(args.out, scene)
    print(f"wrote {len(scene)} generators to {args.out}")
    return 0


# ----------------------------------------------------------------- compute


def cmd_compute(args) -> int:
    generators = load_scene(args.input)
    graph = build_diagram(generators, threads=args.threads)
    write_diagram(args.out, graph)
    print(
        f"{len(graph.vertices)} vertices, {len(graph.edges)} edges, "
        f"{len(graph.adjacency)} adjacent pairs -> {args.out}"
    )
    if args.svg:
        cd = clip_to_window(graph, _window(args))
        write_svg(args.svg, cd, args.svg_width, vertex_markers=args.vertex_markers)
        print(f"rendered {args.svg}")
    return 0


# ------------------------------------------------------------------ raster


def cmd_raster(args) -> int:
    window = _window(args)
    if args.analytic:
        cd = clip_to_window(_load_graph(args), window)
        img = rasterize_cells(cd, args.width, args.height)
    else:
        loaded = _load_any(args.input)
        generators = loaded if isinstance(loaded, list) else loaded.generators
        img = rasterize(generators, window, args.width, args.height)
    write_pgm(img, args.out)
    mode = "analytic" if args.analytic else "brute-force"
    print(f"{mode} raster {args.width}x{args.height} -> {args.out}")
    return 0


# ----------------------------------------------------------------- measure


def cmd_measure(args) -> int:
    graph = _load_graph(args)
    measures = measure_cells(clip_to_window(graph, _window(args)))
    neighbor_count = {g.id: 0 for g in graph.generators}
    for i, j in graph.adjacency:
        neighbor_count[i] += 1
        neighbor_count[j] += 1

    lines = ["cell_id,area,perimeter,n_components,n_neighbors"]
    for gid in sorted(measures):
        m = measures[gid]
        lines.append(
            f"{gid},{m.area!r},{m.perimeter!r},{len(m.components)},{neighbor_count[gid]}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(measures)} cell measures to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- compare


def cmd_compare(args) -> int:
    a = read_pgm(args.a)
    b = read_pgm(args.b)
    stats = compare_labels(a, b)
    print(f"pixels {stats.pixels}")
    print(f"mismatched {stats.mismatched} ({stats.fraction:.6f})")
    print(
        f"near_edge {stats.near_edge_mismatched} "
        f"({stats.near_edge_fraction:.6f} of mismatched)"
    )
    hist = " ".join(f"{k}:{v}" for k, v in enumerate(stats.distance_hist) if v)
    print(f"dist_hist {hist if hist else '-'}")
    if args.max_fraction is not None and stats.fraction > args.max_fraction:
        print(
            f"mismatch fraction {stats.fraction:.6f} exceeds --max-fraction "
            f"{args.max_fraction}",
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------- fit


def cmd_fit(args) -> int:
    img = read_pgm(args.input)
    result = fit_generators_from_labels(img, scale=args.scale, default_weight=args.weight)
    save_scene(args.out, result.generators)
    note = f" ({len(result.degenerate)} degenerate)" if result.degenerate else ""
    print(f"fitted {len(result.generators)} generators{note} -> {args.out}")
    return 0


# ------------------------------------------------------------------ parser


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--window",
        nargs=4,
        type=float,
        default=list(DEFAULT_WINDOW),
        metavar=("X0", "Y0", "X1", "Y1"),
        help="axis-aligned window (default 0 0 400 400)",
    )


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbpd",
        description="Analytic generalized balanced power diagrams in the plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random scene CSV")
    p.add_argument("--preset", choices=PRESETS, default="paper-random")
    p.add_argument("-n", type=int, required=True, help="number of generators")
    p.add_argument("--seed", type=int, required=True, help="random seed")
    _add_window(p)
    p.add_argument("--out", required=True, help="output scene CSV path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compute", help="compute the diagram for a scene")
    p.add_argument("--input", required=True, help="scene CSV path")
    p.add_argument("--out", required=True, help="output diagram JSON path")
    p.add_argument("--svg", help="also render an SVG to this path")
    p.add_argument("--svg-width", type=int, default=800, help="SVG width in px")
    p.add_argument("--vertex-markers", action="store_true", help="mark vertices in the SVG")
    _add_window(p)
    _add_threads(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("raster", help="rasterize a scene or diagram to a PGM label image")
    p.add_argument("--input", required=True, help="scene CSV or diagram JSON path")
    p.add_argument("--width", type=int, default=400)
    p.add_argument("--height", type=int, default=400)
    p.add_argument(
        "--analytic",
        action="store_true",
        help="paint from analytic cell boundaries instead of per-pixel distances",
    )
    p.add_argument("--out", required=True, help="output PGM path")
    _add_window(p)
    _add_threads(p)
    p.set_defaults(func=cmd_raster)

    p = sub.add_parser("measure", help="cell areas and perimeters as CSV")
    p.add_argument("--input", required=True, help="scene CSV or diagram JSON path")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    _add_window(p)
    _add_threads(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compare", help="mismatch statistics between two label images")
    p.add_argument("a", help="reference PGM")
    p.add_argument("b", help="candidate PGM")
    p.add_argument(
        "--max-fraction",
        type=float,
        help="exit nonzero when the mismatch fraction exceeds this",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit", help="fit generators to a PGM label image")
    p.add_argument("--input", required=True, help="label image PGM path")
    p.add_argument("--scale", type=float, default=1.0, help="axis scale factor")
    p.add_argument("--weight", type=float, default=0.0, help="weight for fitted generators")
    p.add_argument("--out", required=True, help="output scene CSV path")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GbpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
