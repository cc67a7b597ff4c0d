"""gbpd benchmark: one command per workload, correctness checks included.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Runs from the repository root (or any copy holding `src/`, `BENCHMARK.json`
and `perfbench/`) and imports gbpd from that copy's `src/`. With
`--trace 0` it prints every end-to-end metric of BENCHMARK.json, its
times in units of a fixed reference computation (`reference_s`); with
`--trace 1` it makes half as many passes untraced, then the same passes
with the library wrapped by `spans.Tracer`, and prints every per-layer
metric. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else (named
metrics, failure tally, sha256 of each diagram JSON, run environment,
spans) goes to `.perfbench_out/` and to the lines before it.

Only the build of dense uses more than one thread, so BLAS
threading is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per untraced run; setup_s is their median
WALL_LIMIT_S = 120.0  # no item starts later than this into a loop


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


_REF = None


def reference_s() -> float:
    """Seconds that a fixed computation, independent of gbpd, takes now.

    It mixes what the pipeline spends its time on: interpreted arithmetic,
    tuple and dict work, and small numpy calls. Timed on each side of an
    item, it tells how fast the CPU ran for that item.
    """
    import numpy as np

    global _REF
    if _REF is None:
        _REF = np.random.default_rng(0).standard_normal((64, 64))
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(12000):
        x = (i % 113) * 0.5
        acc += math.sqrt(x + 1.0) * math.cos(x)
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0.0) + acc
    for _ in range(120):
        m = _REF[:8, :8] @ _REF[:8, :8].T
        np.linalg.eigvalsh(m)
        int(np.argmin(_REF[:, :4].sum(axis=1)))
    return time.perf_counter() - t0


def pass_count(wl, seconds: float, trace: bool) -> int:
    """Passes over the workload's inputs: `seconds` of work at its reference rate.

    The count is fixed by the arguments, so two runs of one seed attempt
    the same items. A traced run makes half as many, twice (untraced, then
    traced), so that it takes about as long as an untraced one.
    """
    return max(1, round(seconds * wl.RATE / wl.INPUTS / (2 if trace else 1)))


def run_items(wl, passes, tracer=None, check=True):
    """Closed loop: item k+1 starts when item k (and its check) is done.

    Each pass runs every one of the workload's inputs once, in an order
    drawn from the seed. Returns one record per item; GbpdError fails the
    item and is tallied, the item is never skipped or re-drawn. Items stop
    early, and the run reports fewer attempts, only if they take more than
    WALL_LIMIT_S.
    """
    import numpy as np
    from gbpd.errors import GbpdError
    from scipy.integrate import IntegrationWarning
    from workloads import CheckFailed

    inputs = [wl.prepare(j) for j in range(wl.INPUTS)]
    order = np.random.default_rng(wl.seed)
    records = []
    start = time.perf_counter()
    for p in range(passes):
        for j in order.permutation(wl.INPUTS).tolist():
            if time.perf_counter() - start > WALL_LIMIT_S:
                return records
            k = len(records)
            gc.collect()  # the last item's garbage is not this item's cost
            if tracer is not None:
                tracer.item, tracer.phase = k, "item"
            rec = {"item": k, "input": j, "pass": p, "error": None}
            ref_before = statistics.median(reference_s() for _ in range(wl.REFS))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                t0 = time.perf_counter()
                try:
                    diagram_s, finish_s, out = wl.run(inputs[j])
                except GbpdError as exc:
                    rec["error"] = type(exc).__name__
                    rec["message"] = str(exc)
                rec["latency_s"] = time.perf_counter() - t0
            rec["ref_before_s"] = ref_before
            rec["ref_after_s"] = statistics.median(reference_s() for _ in range(wl.REFS))
            rec["integration_warnings"] = sum(issubclass(w.category, IntegrationWarning)
                                              for w in caught)
            if rec["error"] is None:
                rec.update(diagram_s=diagram_s, finish_s=finish_s)
                if check:
                    if tracer is not None:
                        tracer.phase = "check"
                    try:
                        rec["check"] = wl.check(j, inputs[j], out)
                    except CheckFailed as exc:
                        rec["check_failed"] = str(exc)
                del out
            records.append(rec)
    return records


# per-workload names of the item's stages, printed before the result line
STAGE_NAMES = {
    "dense": "build_parallel_s",
    "small-batch": "scene",
    "reload-query": "query",
}


def _ref(record) -> float:
    return 0.5 * (record["ref_before_s"] + record["ref_after_s"])


def end_to_end(wl, records, setup_times) -> tuple[dict, dict]:
    """(gated metrics of BENCHMARK.json, per-workload named metrics) from item records.

    The gated times are in reference units: each item's time, and the time
    of each of its stages, divided by the mean time `reference_s` took just
    before and just after it, median over the items. On a shared host the
    CPU runs at speeds that differ by up to 1.8 times from one moment to the
    next; the ratio cancels that, and a change to gbpd moves it as much as
    it moves the item's own time.
    """
    done = [r for r in records if r["error"] is None]
    if not done:
        raise RuntimeError(f"no item of {len(records)} completed")
    lat_ms = [1000.0 * r["latency_s"] for r in done]
    tail_ms, tail_pct = tail(lat_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {
        "setup_s": statistics.median(setup_times),
        "latency_ref": statistics.median(r["latency_s"] / _ref(r) for r in done),
        "diagram_ref": statistics.median(r["diagram_s"] / _ref(r) for r in done),
        "finish_ref": statistics.median(r["finish_s"] / _ref(r) for r in done),
        "ok_frac": len(done) / len(records),
        "peak_rss_mb": rss_mb,
    }
    named = {
        "setup_s": gated["setup_s"],
        "failed_frac": 1.0 - gated["ok_frac"],
        "peak_rss_mb": rss_mb,
        "reference_ms": 1000.0 * statistics.median(r["ref_before_s"] for r in records),
    }
    stage = STAGE_NAMES[wl.name]
    if stage.endswith("_s"):
        named[stage] = statistics.median(r["diagram_s"] for r in done)
        serial = [r["check"]["serial_build_s"] for r in done
                  if "serial_build_s" in r.get("check", {})]
        if serial:  # the threads=1 build of the check, timed once per run
            named["build_s"] = serial[0]
        named["finish_s"] = statistics.median(r["finish_s"] for r in done)
    else:
        named[f"{stage}_p50_ms"] = statistics.median(lat_ms)
        named[f"{stage}_tail_ms"] = tail_ms
        named[f"{stage}s_per_s" if stage == "scene" else "queries_per_s"] = (
            len(done) / sum(r["latency_s"] for r in records))
    named["tail_percentile"] = tail_pct
    named["samples"] = len(lat_ms)
    return gated, named


def execute(wl, seconds: float, trace: bool, passes=None) -> dict:
    """One benchmark run of the workload object `wl`; returns the full record.

    `passes` overrides the pass count that `seconds` gives.
    """
    import spans

    if passes is None:
        passes = pass_count(wl, seconds, trace)
    result = {"workload": wl.name, "seed": wl.seed, "seconds": seconds, "trace": int(trace),
              "passes": passes, "environment": environment()}
    tracer = spans.Tracer() if trace else None
    setup_times = []
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(1 if trace else SETUPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # what set-up and the imports made lives for the whole run; frozen, it
    # is left out of the collections that run before every item
    gc.collect()
    gc.freeze()
    records = run_items(wl, passes, check=not trace)
    result["setup_times"] = setup_times
    result["end_to_end"], result["named"] = end_to_end(wl, records, setup_times)
    if trace:
        untraced_s = sum(r["latency_s"] for r in records)
        tracer.install()
        try:
            records = run_items(wl, passes, tracer=tracer)
        finally:
            tracer.uninstall()
        # per-layer figures are the timed items' work; oracle.rasterize.s is
        # the brute oracle of the checks
        by_phase = {p: [s for s in tracer.spans if s[6] == p] for p in ("setup", "item", "check")}
        layers = spans.layer_metrics(by_phase["item"])
        layers["oracle.rasterize.s"] = sum(s[3] - s[2] for s in tracer.spans
                                           if s[1] == "oracle.rasterize" and s[6] != "item")
        layers["measure.integration_warnings"] = sum(r["integration_warnings"] for r in records)
        layers["trace.overhead_s"] = sum(r["latency_s"] for r in records) - untraced_s
        result["per_layer"] = layers
        result["per_layer_setup"] = spans.layer_metrics(by_phase["setup"])
        result["per_layer_check"] = spans.layer_metrics(by_phase["check"])
        result["builds"] = build_breakdown(tracer.spans)
        result["spans"] = tracer
    result["records"] = records
    result["failures"] = dict(Counter(r["error"] for r in records if r["error"]))
    result["integration_warnings"] = sum(r["integration_warnings"] for r in records)
    return result


def build_breakdown(all_spans) -> list[dict]:
    """Counters and time split of every traced `diagram.build` span."""
    import spans

    out = []
    for s in all_spans:
        if s[1] != "diagram.build":
            continue
        tree = spans.subtree(all_spans, s[0])
        kids = [(c[2], c[3]) for c in tree if c[4] == s[0]]
        m = spans.layer_metrics(tree)
        out.append({
            "item": s[5], "phase": s[6],
            "build_s": s[3] - s[2],
            "children_sum_s": sum(hi - lo for lo, hi in kids),
            "children_union_s": spans.covered(kids),
            "children_inside": all(s[2] <= lo <= hi <= s[3] for lo, hi in kids),
            "self_s": m["diagram.self_s"],
            "threads": len({c[7] for c in tree}),
            "triples": int(m["intersect.pencil.pairs"]),
            "candidates": int(m["intersect.pencil.candidates"]),
            "vertices": int(m["diagram.vertices"]),
            "edges": int(m["diagram.edges"]),
        })
    return out


def _unit(name: str) -> str:
    for suffix, unit in (("_ref", "ref"), ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_frac", "fraction"), ("_percentile", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gbpd" / "__init__.py").is_file():
        print(f"error: no gbpd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # each workload in a process of its own, so peak RSS stays per workload
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        for name in names:
            proc = subprocess.run([sys.executable, __file__, "--workload", name, *rest])
            if proc.returncode:
                return proc.returncode
        return 0
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gbpd

    if Path(gbpd.__file__).resolve().parent != ROOT / "src" / "gbpd":
        print(f"error: gbpd imported from {gbpd.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        res = execute(wl, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = res["records"]
    check_failures = [(r["item"], r["check_failed"]) for r in records if "check_failed" in r]
    for item, what in check_failures:
        print(f"CHECK FAILED item {item}: {what}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.pop("spans", None)
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(res, indent=1, default=str))

    env = res["environment"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"failures {json.dumps(res['failures'])} integration_warnings "
          f"{res['integration_warnings']}")
    shas = sorted({r["check"]["sha256"] for r in res["records"] if "check" in r})
    print(f"diagram sha256 ({len(shas)} distinct): {' '.join(s[:16] for s in shas[:4])}"
          f"{' ...' if len(shas) > 4 else ''}")
    for key, val in res["named"].items():
        print(f"{args.workload} {key} = {val} {_unit(key)}")
    builds = res.get("builds", [])
    if len(builds) <= 4:  # small-batch's per-scene breakdown stays in the record file
        for b in builds:
            print("build " + " ".join(f"{k}={v}" for k, v in b.items()))

    section = "per_layer" if args.trace else "end_to_end"
    values = res[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    print(json.dumps({
        "correct": not check_failures,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
