"""Span tracing for the traced benchmark run.

`Tracer.install` swaps the library functions named in `PATCHES` for timing
wrappers on their modules (and restores them in `uninstall`); nothing under
`src/` knows about tracing, and the untraced run never installs anything.
Every call becomes one span: name, start, end, parent span, item id, phase
(setup, item or check), thread id and a few counters. Spans stay in memory
and are written out once, when the run ends.

A wrapped call made on a worker thread of the parallel build has no open
span of its own thread; its parent is the innermost span open on the main
thread, which is the `diagram.build` span blocked on the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict


def _build_attrs(args, graph):
    deg3 = sum(math.comb(len(v.gens), 3) for v in graph.vertices)
    return {"vertices": len(graph.vertices), "edges": len(graph.edges), "deg3": deg3}


# (span name, modules holding a reference, attribute, counters from (args, result)).
# Functions imported by name into other modules are patched in each of them.
PATCHES = [
    ("geometry.dist", ["gbpd.geometry:SceneArrays"], "dist",
     lambda args, r: {"points": int(r.shape[0])}),
    ("bisector.make_bisector", ["gbpd.bisector", "gbpd.diagram", "gbpd.serialize"],
     "make_bisector", None),
    ("bisector.param_of_point", ["gbpd.bisector", "gbpd.diagram"], "param_of_point", None),
    ("intersect.pencil", ["gbpd.intersect", "gbpd.diagram"], "pencil_intersections_batch",
     lambda args, r: {"pairs": int(args[0].shape[0]), "candidates": int(r[1].sum())}),
    ("diagram.build", ["gbpd.diagram"], "build_diagram", _build_attrs),
    ("diagram.visible_segments", ["gbpd.diagram"], "visible_segments",
     lambda args, r: {"segments": len(r)}),
    ("clip", ["gbpd.clip"], "clip_to_window", lambda args, r: {"pieces": len(r.pieces)}),
    ("measure", ["gbpd.measure"], "measure_cells", None),
    ("measure.quad", ["gbpd.measure"], "quad", None),
    ("oracle.rasterize_cells", ["gbpd.oracle"], "rasterize_cells", None),
    ("oracle.rasterize", ["gbpd.oracle"], "rasterize", None),
    ("serialize.to_json", ["gbpd.serialize"], "diagram_to_json",
     lambda args, r: {"bytes": len(r)}),
    ("serialize.from_json", ["gbpd.serialize"], "diagram_from_json",
     lambda args, r: {"bytes": len(args[0])}),
]

# span attribute -> per-layer counter it adds to
COUNTERS = {
    "pairs": "intersect.pencil.pairs",
    "candidates": "intersect.pencil.candidates",
    "segments": "diagram.visible_segments.segments",
    "vertices": "diagram.vertices",
    "edges": "diagram.edges",
    "deg3": "diagram.deg3",
    "pieces": "clip.pieces",
}
BUILD_SPANS = ("diagram.build", "diagram.visible_segments")
LAYERS = ["geometry", "bisector", "intersect", "diagram", "clip", "measure", "oracle", "serialize"]


# every metric `layer_metrics` reports, so that an unused layer reads 0
METRICS = (
    [f"{name}.{k}" for name, *_ in PATCHES if name != "geometry.dist" for k in ("calls", "s")]
    + [f"geometry.dist.{k}" for k in ("bulk_calls", "bulk_points", "bulk_s",
                                      "single_calls", "single_s")]
    + [f"self.{layer}_s" for layer in LAYERS]
    + ["diagram.self_s", "diagram.survivor_ratio", "clip.failures",
       "bisector.param_of_point.misses", "serialize.json_bytes", *COUNTERS.values()]
)


def _resolve(target: str):
    mod_name, _, cls = target.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.item: int | None = None
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._main = threading.get_ident()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks[tid]
            main = tracer._stacks[tracer._main]
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            attrs = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if attrs is None and attrs_fn is not None:
                    # counters are read after the clock stops
                    attrs = attrs_fn(args, result)
                tracer.spans.append((sid, name, t0, t1, parent, tracer.item, tracer.phase, tid, attrs))
            return result

        return wrapper

    def install(self) -> None:
        for name, targets, attr, attrs_fn in PATCHES:
            for target in targets:
                owner = _resolve(target)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, attrs_fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "item", "phase", "thread", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - covered(children.get(s[0], ())) for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, busy times and self times aggregated over `spans`.

    `geometry.dist.*` counts the distance calls made by the build. Calls from
    clip and from the brute oracle are dropped first, so their time stays in
    the self time of the clip or oracle span that made them.
    """
    names = {s[0]: s[1] for s in spans}
    spans = [s for s in spans if s[1] != "geometry.dist" or names.get(s[4]) in BUILD_SPANS]
    own = self_times(spans)
    m = dict.fromkeys(METRICS, 0.0)
    for sid, name, t0, t1, _parent, _item, _phase, _tid, attrs in spans:
        dur = t1 - t0
        attrs = attrs or {}
        if name == "geometry.dist":
            kind = "bulk" if attrs.get("points", 2) > 1 else "single"
            m[f"geometry.dist.{kind}_calls"] += 1
            m[f"geometry.dist.{kind}_s"] += dur
            if kind == "bulk":
                m["geometry.dist.bulk_points"] += attrs.get("points", 0)
        else:
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += dur
        m[f"self.{name.split('.')[0]}_s"] += own[sid]
        if name == "diagram.build":
            m["diagram.self_s"] += own[sid]
        if name == "clip" and "error" in attrs:
            m["clip.failures"] += 1
        if name == "bisector.param_of_point" and attrs.get("error") == "NoSolutionError":
            m["bisector.param_of_point.misses"] += 1
        for key, counter in COUNTERS.items():
            if key in attrs:
                m[counter] += attrs[key]
        if name == "serialize.from_json":
            m["serialize.json_bytes"] += attrs.get("bytes", 0)
    cand = m["intersect.pencil.candidates"]
    m["diagram.survivor_ratio"] = m["diagram.deg3"] / cand if cand else 0.0
    return m


def subtree(spans, root_id: int) -> list[tuple]:
    """The span `root_id` and every span below it."""
    keep = {root_id}
    for s in sorted(spans, key=lambda s: s[0]):
        if s[4] in keep:
            keep.add(s[0])
    return [s for s in spans if s[0] in keep]

