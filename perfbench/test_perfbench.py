"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

The exact counters of a traced run must repeat between two runs of one
seed, and the paper's reference scene, `paper-random` n=148 seed 42, must
reproduce the reference build: 529,396 triples, 1,575,106 pencil
candidates, 514 vertices. Takes about two minutes, most of it the n=148
builds.
"""

import sys

import pytest

import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (imports gbpd from src/)

EXACT = (
    "intersect.pencil.pairs",
    "intersect.pencil.candidates",
    "diagram.vertices",
    "diagram.edges",
    "measure.quad.calls",
    "clip.pieces",
)


def _counters(res):
    return {k: res["per_layer"][k] for k in EXACT}, res["failures"]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(v) for v in range(1, 41)]) == (30.0, 75.0)


def test_pass_count_depends_on_arguments_only():
    wl = workloads.SmallBatch(1)
    assert run.pass_count(wl, 20, trace=False) == round(20 * wl.RATE / wl.INPUTS)
    assert run.pass_count(wl, 20, trace=True) == round(10 * wl.RATE / wl.INPUTS)
    assert run.pass_count(workloads.Dense(1), 0.1, trace=True) == 1


def test_gated_times_are_in_reference_units():
    # the same item on a CPU running at full speed, then at half speed:
    # the reference timings around it double with it
    records = [
        {"error": None, "latency_s": 0.2, "diagram_s": 0.1, "finish_s": 0.05,
         "ref_before_s": 0.009, "ref_after_s": 0.011},
        {"error": None, "latency_s": 0.4, "diagram_s": 0.2, "finish_s": 0.1,
         "ref_before_s": 0.02, "ref_after_s": 0.02},
        {"error": "NoSolutionError", "latency_s": 0.3, "ref_before_s": 0.01, "ref_after_s": 0.01},
    ]
    gated, named = run.end_to_end(workloads.SmallBatch(1), records, [2.0, 1.0, 3.0])
    assert gated["latency_ref"] == pytest.approx(20.0)
    assert gated["diagram_ref"] == pytest.approx(10.0)
    assert gated["finish_ref"] == pytest.approx(5.0)
    assert gated["ok_frac"] == pytest.approx(2 / 3)
    assert gated["setup_s"] == 2.0
    assert named["scene_p50_ms"] == pytest.approx(300.0)


def test_self_time_subtracts_union_of_overlapping_children():
    # parent 0..10 with children on two threads covering 1..5 and 3..7
    recorded = [
        (1, "diagram.build", 0.0, 10.0, None, 0, "item", 1, None),
        (2, "intersect.pencil", 1.0, 5.0, 1, 0, "item", 2, {"pairs": 4, "candidates": 2}),
        (3, "intersect.pencil", 3.0, 7.0, 1, 0, "item", 3, {"pairs": 4, "candidates": 2}),
    ]
    own = spans.self_times(recorded)
    assert own == {1: 4.0, 2: 4.0, 3: 4.0}
    m = spans.layer_metrics(recorded)
    assert m["intersect.pencil.s"] == 8.0  # busy time summed over threads
    assert m["diagram.self_s"] == 4.0


@pytest.mark.parametrize("workload,seed,passes", [
    ("small-batch", 10, 1),
    ("reload-query", 3, 1),
    ("dense", 2, 2),
])
def test_exact_counters_repeat(workload, seed, passes):
    make = workloads.WORKLOADS[workload]
    first = run.execute(make(seed), None, trace=True, passes=passes)
    second = run.execute(make(seed), None, trace=True, passes=passes)
    assert _counters(first) == _counters(second)
    assert not [r for r in first["records"] if "check_failed" in r]
    if workload == "small-batch":
        # the isotropic scene of seed 1015 hits the known clip failure
        assert first["failures"] == {"NoSolutionError": 1}
        assert first["per_layer"]["clip.failures"] == 1
    elif workload == "reload-query":
        # queries never sweep; the set-up build is not counted
        assert first["per_layer"]["intersect.pencil.calls"] == 0
        assert first["per_layer"]["serialize.to_json.calls"] == 0
    else:
        # the threads=1 reference built in the first check is not counted
        assert first["per_layer"]["diagram.build.calls"] == passes


@pytest.mark.parametrize("threads", [1, workloads.NPROC])
def test_paper_scene_reproduces_reference_build(threads):
    wl = workloads.Dense(42, n=148)
    wl.threads = threads
    res = run.execute(wl, None, trace=True, passes=1)
    assert not [r for r in res["records"] if "check_failed" in r]
    builds = [b for b in res["builds"] if b["phase"] == "item"]
    assert len(builds) == 1
    (b,) = builds
    assert (b["triples"], b["candidates"], b["vertices"]) == (529_396, 1_575_106, 514)
    # per-layer counters are the item's build only: not the threads=1
    # reference that a threads=nproc run builds in its check
    assert res["per_layer"]["intersect.pencil.pairs"] == 529_396
    assert res["per_layer"]["diagram.vertices"] == 514
    assert b["children_inside"]
    assert b["self_s"] >= 0.0
    assert b["children_union_s"] <= b["build_s"]
    if threads == 1:
        # one thread: children never overlap, so build = children + self
        assert b["threads"] == 1
        assert b["children_sum_s"] == pytest.approx(b["children_union_s"], abs=1e-9)
        assert b["build_s"] == pytest.approx(b["children_sum_s"] + b["self_s"], abs=1e-9)
    elif workloads.NPROC > 1:
        # worker spans carry their own thread ids; busy time summed over
        # threads may exceed the wall time they cover
        assert b["threads"] > 1
        assert b["children_sum_s"] >= b["children_union_s"]
