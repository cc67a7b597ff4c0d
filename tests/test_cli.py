"""Command-line interface: determinism, pipelines, exit codes."""

import csv
import math

import numpy as np
import pytest

from gbpd.cli import main, random_scene
from gbpd.diagram import build_diagram
from gbpd.errors import InputError, UnboundedCellError
from gbpd.geometry import Window, load_scene
from gbpd.measure import cell_area, measure_cells
from gbpd.oracle import read_pgm


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_same_seed_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("gen", "--preset", "paper-random", "-n", 148, "--seed", 5, "--out", a) == 0
    assert run("gen", "--preset", "paper-random", "-n", 148, "--seed", 5, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_paper_random_ranges(tmp_path):
    out = tmp_path / "s.csv"
    assert run("gen", "-n", 148, "--seed", 9, "--out", out) == 0
    gens = load_scene(out)
    assert len(gens) == 148
    for g in gens:
        assert 0.0 <= g.p[0] <= 400.0 and 0.0 <= g.p[1] <= 400.0
        assert 0.0 <= g.w <= 50.0
        evals, _ = g.M.eigh()
        major = 1.0 / math.sqrt(evals[0])
        minor = 1.0 / math.sqrt(evals[1])
        assert 10.0 <= major <= 20.0
        assert 0.5 <= minor <= 10.0


def test_gen_presets_differ():
    win = Window(0.0, 0.0, 400.0, 400.0)
    weights = random_scene("paper-weights", 32, 3, win)
    assert all(-1.0 <= g.w <= 3.0 for g in weights)
    assert any(g.w < 0.0 for g in weights)
    iso = random_scene("isotropic", 8, 3, win)
    assert all(g.M.m11 == 1.0 and g.M.m12 == 0.0 and g.M.m22 == 1.0 for g in iso)
    assert all(g.w == 0.0 for g in iso)
    with pytest.raises(InputError):
        random_scene("nope", 4, 1, win)
    with pytest.raises(InputError):
        random_scene("isotropic", 0, 1, win)


def test_compute_two_generator_scene(tmp_path, capsys):
    scene = tmp_path / "s.csv"
    scene.write_text(
        "id,px,py,m11,m12,m22,w\n0,100.0,200.0,1.0,0.0,1.0,0.0\n1,300.0,200.0,1.0,0.0,1.0,0.0\n"
    )
    out = tmp_path / "d.json"
    svg = tmp_path / "d.svg"
    assert run("compute", "--input", scene, "--out", out, "--svg", svg) == 0
    captured = capsys.readouterr().out
    assert "0 vertices, 1 edges" in captured
    assert svg.read_text().count("<polyline") == 1


def test_pipeline_compare_under_one_percent(tmp_path):
    scene = tmp_path / "scene.csv"
    dj = tmp_path / "diagram.json"
    brute = tmp_path / "brute.pgm"
    ana = tmp_path / "ana.pgm"
    assert run("gen", "-n", 12, "--seed", 21, "--out", scene) == 0
    assert run("compute", "--input", scene, "--out", dj) == 0
    assert run("raster", "--input", scene, "--width", 160, "--height", 160, "--out", brute) == 0
    assert (
        run("raster", "--input", dj, "--analytic", "--width", 160, "--height", 160, "--out", ana)
        == 0
    )
    assert run("compare", brute, ana, "--max-fraction", 0.01) == 0
    # an image compared against itself is identical
    assert run("compare", brute, brute, "--max-fraction", 0.0) == 0


def test_compare_exit_on_excess_mismatch(tmp_path):
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    p1 = tmp_path / "p1.pgm"
    p2 = tmp_path / "p2.pgm"
    run("gen", "-n", 6, "--seed", 1, "--out", s1)
    run("gen", "-n", 6, "--seed", 2, "--out", s2)
    run("raster", "--input", s1, "--width", 64, "--height", 64, "--out", p1)
    run("raster", "--input", s2, "--width", 64, "--height", 64, "--out", p2)
    assert run("compare", p1, p2, "--max-fraction", 0.001) == 1


def test_measure_csv_partitions_window(tmp_path):
    scene = tmp_path / "scene.csv"
    out = tmp_path / "m.csv"
    run("gen", "-n", 10, "--seed", 33, "--out", scene)
    assert run("measure", "--input", scene, "--out", out) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    assert set(rows[0]) == {"cell_id", "area", "perimeter", "n_components", "n_neighbors"}
    total = sum(float(r["area"]) for r in rows)
    assert total == pytest.approx(400.0 * 400.0, rel=1e-6)
    assert all(int(r["n_neighbors"]) >= 1 for r in rows)


def test_graph_commands_take_scene_or_diagram(tmp_path):
    # raster --analytic and measure build the graph from a CSV scene or read
    # it from diagram JSON, and both give the same labels and measures
    scene = tmp_path / "scene.csv"
    dj = tmp_path / "diagram.json"
    run("gen", "-n", 8, "--seed", 17, "--out", scene)
    assert run("compute", "--input", scene, "--out", dj) == 0
    labels, rows = {}, {}
    for src in (scene, dj):
        pgm, csv_out = tmp_path / f"{src.suffix[1:]}.pgm", tmp_path / f"{src.suffix[1:]}.m.csv"
        assert run("raster", "--input", src, "--analytic", "--width", 64, "--height", 64,
                   "--out", pgm) == 0
        assert run("measure", "--input", src, "--out", csv_out) == 0
        labels[src.suffix] = read_pgm(pgm).labels
        rows[src.suffix] = list(csv.DictReader(csv_out.open()))
    assert np.array_equal(labels[".csv"], labels[".json"])
    assert len(rows[".csv"]) == len(rows[".json"]) == 8
    for a, b in zip(rows[".csv"], rows[".json"]):
        assert (a["cell_id"], a["n_components"], a["n_neighbors"]) == (
            b["cell_id"], b["n_components"], b["n_neighbors"])
        assert (a["area"], a["perimeter"]) == (b["area"], b["perimeter"])


def test_measure_stdout(tmp_path, capsys):
    scene = tmp_path / "scene.csv"
    run("gen", "--preset", "isotropic", "-n", 4, "--seed", 2, "--out", scene)
    capsys.readouterr()
    assert run("measure", "--input", scene) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "cell_id,area,perimeter,n_components,n_neighbors"
    assert len(lines) == 5


def test_fit_round_trip_runs(tmp_path):
    scene = tmp_path / "scene.csv"
    pgm = tmp_path / "labels.pgm"
    refit = tmp_path / "refit.csv"
    dj = tmp_path / "refit.json"
    run("gen", "--preset", "isotropic", "-n", 8, "--seed", 4, "--out", scene)
    run("raster", "--input", scene, "--width", 128, "--height", 128, "--out", pgm)
    assert run("fit", "--input", pgm, "--scale", 2.0, "--out", refit) == 0
    assert len(load_scene(refit)) == 8
    # the fitted scene feeds straight back into compute
    assert run("compute", "--input", refit, "--out", dj) == 0


def test_exit_codes_for_errors(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run("compute", "--input", missing, "--out", tmp_path / "x.json") == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("id,px,py\n0,1,2\n")
    assert run("compute", "--input", bad, "--out", tmp_path / "x.json") == 2
    assert "error:" in capsys.readouterr().err
    # a negative id would read as the background of a label image
    bad.write_text("id,px,py,m11,m12,m22,w\n-1,0,0,1,0,1,0\n0,5,5,1,0,1,0\n")
    assert run("compute", "--input", bad, "--out", tmp_path / "x.json") == 2
    assert "line 2" in capsys.readouterr().err
    # unbounded cells without a window -> UnboundedCellError = 8
    scene = tmp_path / "s.csv"
    scene.write_text(
        "id,px,py,m11,m12,m22,w\n0,0.0,0.0,1.0,0.0,1.0,0.0\n1,8.0,0.0,1.0,0.0,1.0,0.0\n"
    )
    graph = build_diagram(load_scene(scene))
    for measure in (measure_cells, lambda g: cell_area(0, g)):
        with pytest.raises(UnboundedCellError) as info:
            measure(graph)
        assert info.value.exit_code == 8
    # a window bound that is not finite
    window = "--window", 0, 0, "inf", 400
    assert run("measure", "--input", scene, *window) == 2
    assert run("raster", "--input", scene, *window, "--width", 8, "--height", 8,
               "--out", tmp_path / "l.pgm") == 2
    assert "at a finite size" in capsys.readouterr().err
    assert not (tmp_path / "l.pgm").exists()
    # a header-only scene -> NoSolutionError = 5, for the build and the brute raster alike
    empty = tmp_path / "empty.csv"
    empty.write_text("id,px,py,m11,m12,m22,w\n")
    assert run("compute", "--input", empty, "--out", tmp_path / "x.json") == 5
    assert run("raster", "--input", empty, "--width", 8, "--height", 8,
               "--out", tmp_path / "l.pgm") == 5
    assert capsys.readouterr().err.count("a scene needs at least one generator") == 2
    assert not (tmp_path / "l.pgm").exists()


def test_compute_threads(tmp_path):
    scene = tmp_path / "s.csv"
    run("gen", "-n", 8, "--seed", 13, "--out", scene)
    assert run("compute", "--input", scene, "--out", tmp_path / "d.json", "--threads", 4) == 0


def test_raster_pgm_round_trip(tmp_path):
    scene = tmp_path / "s.csv"
    pgm = tmp_path / "l.pgm"
    run("gen", "-n", 5, "--seed", 8, "--out", scene)
    # non-square pixels are rejected
    assert run("raster", "--input", scene, "--width", 50, "--height", 40, "--out", pgm) == 2
    args = "--window", 0, 0, 500, 400, "--width", 50, "--height", 40, "--out", pgm
    assert run("raster", "--input", scene, *args) == 0
    img = read_pgm(pgm)
    assert img.width == 50 and img.height == 40
    assert set(np.unique(img.labels)).issubset(set(range(5)))


def test_diagram_without_generators_exits_2(tmp_path, capsys):
    dj = tmp_path / "empty.json"
    dj.write_text('{"generators": [], "vertices": [], "edges": [], "adjacency": [], "cells": []}')
    assert run("measure", "--input", dj) == 2
    pgm = tmp_path / "empty.pgm"
    assert run("raster", "--input", dj, "--analytic", "--width", 8, "--height", 8,
               "--out", pgm) == 2
    assert "at least one generator" in capsys.readouterr().err


def test_malformed_pgm_exits_2(tmp_path):
    good = tmp_path / "good.pgm"
    good.write_text("P2\n# gbpd origin 0 0 pixel 1 ids 0,1\n2 2\n2\n0 1\n1 0\n")
    assert read_pgm(good).labels.tolist() == [[0, 1], [1, 0]]
    text = good.read_text()
    # a pixel above maxval, and an id list longer than maxval whose last id
    # the background value 2 would otherwise name
    for name, bad in (("short", text[:-4]), ("pixel", text.replace("1 0\n", "1 x\n")),
                      ("size", text.replace("2 2\n", "2\n")),
                      ("above", text.replace("1 0\n", "5 9\n")),
                      ("ids", text.replace("ids 0,1", "ids 3,7,9").replace("1 0\n", "2 0\n"))):
        path = tmp_path / f"{name}.pgm"
        path.write_text(bad)
        with pytest.raises(InputError, match="malformed P2"):
            read_pgm(path)
        assert run("compare", good, path) == 2
        assert run("fit", "--input", path, "--out", tmp_path / f"{name}.csv") == 2
