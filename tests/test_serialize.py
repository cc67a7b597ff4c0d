"""Diagram JSON round-trips."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from gbpd.cli import PRESETS, random_scene
from gbpd.diagram import build_diagram
from gbpd.clip import clip_to_window
from gbpd.errors import InputError, UnboundedCellError
from gbpd.geometry import Generator, SymMat2, Window
from gbpd.measure import cell_area, measure_cells
from gbpd.oracle import rasterize_cells
from gbpd.render import render_svg
from gbpd import serialize
from gbpd.serialize import (
    diagram_from_json,
    diagram_to_json,
    document_to_diagram,
    read_diagram,
    write_diagram,
)

from oracles import document_to_diagram_by_rows, edge_segments, loop_lists

WINDOW = Window(0.0, 0.0, 400.0, 400.0)


def iso(gid, x, y, w=0.0):
    return Generator(gid, np.array([x, y], dtype=float), SymMat2.identity(), w)


def mixed_scene(seed=7, n=9):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        if k % 2:
            a1 = rng.uniform(3.0, 6.0) ** 2
            a2 = rng.uniform(1.0, 3.0) ** 2
            m = SymMat2(1.0 / a1, 0.0, 1.0 / a2).rotated(rng.uniform(0.0, math.pi))
        else:
            m = SymMat2.identity()
        out.append(Generator(k, rng.uniform(0.0, 100.0, 2), m, float(rng.uniform(0.0, 5.0))))
    return out


def test_json_round_trip_is_byte_identical():
    graph = build_diagram(mixed_scene())
    text = diagram_to_json(graph)
    text2 = diagram_to_json(diagram_from_json(text))
    assert text == text2


def test_round_trip_preserves_structure():
    graph = build_diagram(mixed_scene())
    loaded = diagram_from_json(diagram_to_json(graph))
    assert len(loaded.generators) == len(graph.generators)
    assert len(loaded.vertices) == len(graph.vertices)
    assert len(loaded.edges) == len(graph.edges)
    assert loaded.adjacency == graph.adjacency
    assert loaded.empty_cells == graph.empty_cells
    assert loaded.cell_edges == graph.cell_edges
    assert loaded.cell_components == graph.cell_components
    for e, e2 in zip(edge_segments(graph.edges), edge_segments(loaded.edges)):
        assert (e.id, e.pair, e.kind, e.endpoints) == (e2.id, e2.pair, e2.kind, e2.endpoints)
        assert (e.component, e.line_index) == (e2.component, e2.line_index)
        for a, b in ((e.t_a, e2.t_a), (e.t_b, e2.t_b)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a == b  # bit-exact via 17 significant digits


def test_edge_alpha_intervals_survive():
    # built and read edges decode their intervals from the same labels
    graph = build_diagram(mixed_scene(seed=19, n=11))
    loaded = diagram_from_json(diagram_to_json(graph))
    assert loaded.edges[["a0", "a1"]].tolist() == graph.edges[["a0", "a1"]].tolist()
    # the whole record, NaN labels included, bit for bit
    assert loaded.edges.tobytes() == graph.edges.tobytes()


def bits(obj):
    """obj with every float, also inside arrays and dataclasses, as its exact hex form."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.ndarray):
        return bits(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return [bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    return obj


def test_loaded_graph_measures_identically():
    # a graph read back from its JSON holds the built one's bisector table,
    # one row per edge, field for field, and clips and measures bit for bit
    # like it: a mixed scene, the n=16 scenes of the three presets with seeds
    # 1010-1019, and the paper-random n=72 scene
    scenes = [(mixed_scene(), Window(0.0, 0.0, 100.0, 100.0))]
    scenes += [(random_scene(preset, 16, seed, WINDOW), WINDOW)
               for seed in range(1010, 1020) for preset in PRESETS]
    scenes.append((random_scene("paper-random", 72, 42, WINDOW), WINDOW))
    for gens, win in scenes:
        graph = build_diagram(gens)
        loaded = diagram_from_json(diagram_to_json(graph))
        for g in (graph, loaded):
            t = g.table
            pairs = [(t.generators[i].id, t.generators[j].id)
                     for i, j in zip(t.first.tolist(), t.second.tolist())]
            assert pairs == [tuple(pair) for pair in g.edges["pair"].tolist()]
        for name in ("implicit", "code", "chart", "u_scale", "singular", "lines", "line_count"):
            want, got = getattr(graph.table, name), getattr(loaded.table, name)
            assert (want.dtype, want.shape) == (got.dtype, got.shape)
            assert want.tobytes() == got.tobytes(), name
        built, read = (clip_to_window(g, win) for g in (graph, loaded))
        for name in ("nodes", "pieces"):
            assert getattr(built, name).tobytes() == getattr(read, name).tobytes(), name
        assert loop_lists(built.loops) == loop_lists(read.loops)
        assert bits(measure_cells(built)) == bits(measure_cells(read))


def test_every_stage_runs_on_built_and_read_back_graphs():
    # build, clip, measure (clipped and bare-graph cells), raster, SVG, JSON,
    # read-back, and clip and measure of the read-back graph, bit-equal to
    # the built graph's; a mixed scene of curves and lines, and an isotropic
    # one of lines only
    scenes = [(mixed_scene(), Window(0.0, 0.0, 100.0, 100.0)),
              (random_scene("isotropic", 12, 1011, WINDOW), WINDOW)]
    for gens, win in scenes:
        graph = build_diagram(gens)
        cd = clip_to_window(graph, win)
        measures = measure_cells(cd)
        rasterize_cells(cd, 64, 64)
        render_svg(cd)
        loaded = diagram_from_json(diagram_to_json(graph))
        assert bits(measure_cells(clip_to_window(loaded, win))) == bits(measures)
        for g in (graph, loaded):
            for gen in gens:
                try:
                    cell_area(gen.id, g)
                except UnboundedCellError:
                    pass


def test_repeated_generator_id_raises_input_error():
    # one check on both paths, before any other work, whether the repeated
    # id comes with other data or with the same data
    two = [iso(0, 0.0, 0.0), iso(1, 4.0, 0.0)]
    for extra in (iso(1, 9.0, 3.0), iso(1, 4.0, 0.0)):
        with pytest.raises(InputError, match="duplicate generator id 1"):
            build_diagram(two + [extra])
    # the reader: a one-edge document, where no vertex row names generator
    # 1, and a document whose vertex rows name it
    texts = [diagram_to_json(build_diagram(two)),
             diagram_to_json(build_diagram(random_scene("paper-weights", 8, 1010, WINDOW)))]
    for text in texts:
        doc = json.loads(text)
        row = next(g for g in doc["generators"] if g["id"] == 1)
        for extra in (dict(row, px=row["px"] + 5.0), dict(row)):
            doc["generators"] = json.loads(text)["generators"] + [extra]
            with pytest.raises(InputError, match="duplicate generator id 1"):
                diagram_from_json(json.dumps(doc))


def test_infinite_parameters_written_as_strings():
    # two generators: one full-line bisector with infinite parameter bounds
    graph = build_diagram([iso(0, 0.0, 0.0), iso(1, 4.0, 0.0)])
    text = diagram_to_json(graph)
    assert '"full_line"' in text
    loaded = diagram_from_json(text)
    assert [e.kind for e in edge_segments(loaded.edges)] == ["full_line"]
    assert diagram_to_json(loaded) == text


def test_negative_zero_survives_the_round_trip():
    # -0.0 is written "-0", which json reads as the int 0 unless told otherwise
    gens = [iso(0, -0.0, 1.0), iso(1, 2.0, 1.0),
            Generator(2, np.array([1.0, 3.0]), SymMat2(1.0, 0.0, 2.0), 0.0)]
    text = diagram_to_json(build_diagram(gens))
    assert '"px": -0,' in text
    loaded = diagram_from_json(text)
    assert math.copysign(1.0, loaded.generators[0].p[0]) == -1.0
    assert diagram_to_json(loaded) == text


def test_file_round_trip(tmp_path):
    graph = build_diagram(mixed_scene(seed=3, n=5))
    path = tmp_path / "diagram.json"
    write_diagram(path, graph)
    loaded = read_diagram(path)
    assert len(loaded.edges) == len(graph.edges)
    path2 = tmp_path / "again.json"
    write_diagram(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_weight_shift_changes_json_but_not_adjacency():
    base = mixed_scene(seed=23, n=7)
    shifted = [Generator(g.id, g.p.copy(), g.M, g.w + 17.0) for g in base]
    g1 = build_diagram(base)
    g2 = build_diagram(shifted)
    d1 = diagram_from_json(diagram_to_json(g1))
    d2 = diagram_from_json(diagram_to_json(g2))
    assert d1.adjacency == d2.adjacency


def test_malformed_documents_raise_input_error():
    with pytest.raises(InputError):
        diagram_from_json("not json at all {")
    with pytest.raises(InputError):
        diagram_from_json("[1, 2, 3]")
    with pytest.raises(InputError):
        diagram_from_json('{"generators": [], "vertices": []}')
    graph = build_diagram([iso(0, 0.0, 0.0), iso(1, 4.0, 0.0)])
    text = diagram_to_json(graph).replace('"t_a": null', '"t_a": "oops"')
    with pytest.raises(InputError):
        diagram_from_json(text)
    # a cell structure that disagrees with the edges: one edge id dropped
    # from a cell's edges, or one adjacency row dropped
    doc = json.loads(diagram_to_json(build_diagram(mixed_scene(seed=3, n=5))))
    cell = next(c for c in doc["cells"] if c["edges"])
    cell["edges"] = cell["edges"][1:]
    with pytest.raises(InputError, match=r"cells\[\d+\]"):
        diagram_from_json(json.dumps(doc))
    doc = json.loads(diagram_to_json(build_diagram(mixed_scene(seed=3, n=5))))
    doc["adjacency"] = doc["adjacency"][1:]
    with pytest.raises(InputError, match="adjacency"):
        diagram_from_json(json.dumps(doc))
    # the cell structure refers to edges by position
    doc = json.loads(diagram_to_json(build_diagram(mixed_scene(seed=3, n=5))))
    doc["edges"][0]["id"] = len(doc["edges"])
    with pytest.raises(InputError, match=r"edges\[0\]"):
        diagram_from_json(json.dumps(doc))
    # vertex rows: a row deleted (the first shifts the ids after it, the
    # last leaves an edge endpoint naming no row), a vertex id off its position
    scene = random_scene("paper-weights", 16, 1010, WINDOW)
    text = diagram_to_json(build_diagram(scene))
    for k, match in ((0, r"vertices\[0\]"), (-1, "endpoints")):
        doc = json.loads(text)
        del doc["vertices"][k]
        with pytest.raises(InputError, match=match):
            diagram_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["vertices"][2]["id"] = 7
    with pytest.raises(InputError, match=r"vertices\[2\]"):
        diagram_from_json(json.dumps(doc))
    # a vertex moved off the point its generators share; gens naming no generator
    doc = json.loads(text)
    doc["vertices"][3]["x"] += 50.0
    with pytest.raises(InputError, match=r"vertices\[3\]: distances"):
        diagram_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["vertices"][3]["gens"][0] = 99
    with pytest.raises(InputError, match=r"vertices\[3\]: gens"):
        diagram_from_json(json.dumps(doc))
    # rows of the wrong shape or type, and edge labels that name no edge
    # of their bisector
    text = diagram_to_json(build_diagram(random_scene("paper-weights", 8, 1010, WINDOW)))
    assert json.loads(text)["edges"][0]["kind"] == "interval"
    for key, field, value in (
        ("vertices", "id", "a"),
        ("edges", "pair", 5),
        ("edges", "pair", [0, 0]),
        ("edges", "endpoints", [None]),
        ("vertices", "gens", 3),
        ("generators", "id", None),
        ("generators", "id", -1),
        ("edges", "t_a", None),
        ("edges", "kind", "bogus"),
        ("edges", "component", 7),
        ("edges", "line", 3),
    ):
        doc = json.loads(text)
        doc[key][0][field] = value
        with pytest.raises(InputError, match=rf"{key}\[0\]"):
            diagram_from_json(json.dumps(doc))
    # a "loop" on a hyperbola branch, with the edge's endpoints or with none:
    # only an ellipse's closed loop and a parabola's one arc span a full turn
    assert json.loads(text)["edges"][0]["endpoints"] == [None, 1]
    for ends in ([None, 1], [None, None]):
        doc = json.loads(text)
        doc["edges"][0].update(kind="loop", t_a=None, t_b=None, endpoints=ends)
        with pytest.raises(InputError, match=r"edges\[0\]: a loop"):
            diagram_from_json(json.dumps(doc))
    # an ellipse's closed loop given a vertex at both ends
    loop_text = diagram_to_json(build_diagram(random_scene("paper-weights", 8, 1018, WINDOW)))
    doc = json.loads(loop_text)
    loop = next(e for e in doc["edges"] if e["kind"] == "loop")
    loop["endpoints"] = [0, 0]
    with pytest.raises(InputError, match=rf"edges\[{loop['id']}\]: a loop"):
        diagram_from_json(json.dumps(doc))
    # a NaN label is a number, not a null: it names no edge, although the
    # record holds a null label as NaN (json writes and reads NaN)
    line_text = diagram_to_json(build_diagram([iso(0, 0.0, 0.0), iso(1, 4.0, 0.0)]))
    for source, kind, field, shape in ((loop_text, "loop", "t_a", "curve"),
                                       (loop_text, "loop", "t_b", "curve"),
                                       (text, "interval", "t_a", "curve"),
                                       (line_text, "full_line", "t_a", "line 0")):
        doc = json.loads(source)
        row = next(e for e in doc["edges"] if e["kind"] == kind)
        row[field] = math.nan
        with pytest.raises(InputError, match=rf"edges\[{row['id']}\]: kind '{kind}' with t_a "
                                             rf"\S+, t_b \S+ names no {shape} edge"):
            diagram_from_json(json.dumps(doc))
    # a diagram needs a generator
    with pytest.raises(InputError, match="at least one generator"):
        diagram_from_json('{"generators": [], "vertices": [], "edges": [], "adjacency": [], '
                          '"cells": []}')
    # a number field holding an integer that no float can hold, in the column
    # reader and in the row reference
    doc = json.loads(diagram_to_json(build_diagram(random_scene("isotropic", 12, 1011, WINDOW))))
    text = json.dumps(doc).replace(f'"px": {json.dumps(doc["generators"][1]["px"])}',
                                   f'"px": {2**1024}', 1)
    assert json.loads(text)["generators"][1]["px"] == 2**1024
    for read in (diagram_from_json, lambda text: document_to_diagram_by_rows(json.loads(text))):
        with pytest.raises(InputError, match=r"generators\[1\]: an integer beyond the floats"):
            read(text)
    # an integer of more digits than Python converts
    with pytest.raises(InputError, match="digits"):
        diagram_from_json(text.replace(str(2**1024), "1" * 5000))


def test_generators_whose_bisector_terms_overflow_raise_input_error():
    # a center at the float limit is finite, but its distance's terms and its
    # bisectors' coefficients are not: the readers name the generator before
    # the vertex check would overflow, without a warning, and the build names
    # the pair
    gens = random_scene("isotropic", 12, 1011, WINDOW)
    doc = json.loads(diagram_to_json(build_diagram(gens)))
    doc["generators"][1]["px"] = 1.7976931348623157e308
    message = (rf"generators\[1\]: the distance of generator {gens[1].id} has coefficients "
               "beyond the floats")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=message):
            diagram_from_json(json.dumps(doc))
        with pytest.raises(InputError, match=message):
            document_to_diagram_by_rows(doc)
        g = gens[1]
        gens[1] = Generator(g.id, (1.7976931348623157e308, g.p[1]), g.M, g.w)
        with pytest.raises(InputError, match=rf"the bisector of generators {gens[0].id} and "
                                             f"{g.id} has coefficients beyond the floats"):
            build_diagram(gens)


def test_nonfinite_vertex_rejected_on_write():
    graph = build_diagram(mixed_scene(seed=3, n=5))
    graph.vertices[0].pos[0] = math.nan
    with pytest.raises(InputError):
        diagram_to_json(graph)


def read_outcome(read, doc):
    """The InputError message of ``read(doc)``, or the JSON of its graph."""
    try:
        return diagram_to_json(read(doc))
    except InputError as exc:
        return f"InputError: {exc}"


# values put into one field at a time: a string, null, a bool, a float
# where an int belongs, a NaN spelled as a string, arrays of the wrong
# length and an array that holds a string (a few are numbers where a number
# belongs, and the document then reads as another diagram, or fails a later
# check)
FAULTS = ("a", None, True, 1.5, "nan", [0], [0, 1, 2], [0, "a"])
TABLE_FIELDS = {
    "generators": ("id", "px", "py", "m11", "m12", "m22", "w"),
    "vertices": ("id", "x", "y", "gens"),
    "edges": ("id", "pair", "kind", "t_a", "t_b", "endpoints", "component", "line"),
}


def faulty_documents(text):
    """(description, document) of ``text`` with rows of its generator,
    vertex and edge tables broken: the first, a middle and the last row of
    each, one field at a time (each of FAULTS, the key missing, an id off
    its position), the row replaced by an array or a string, and two rows
    broken at once."""
    base = json.loads(text)
    for table, fields in TABLE_FIELDS.items():
        n = len(base[table])
        rows = sorted({0, n // 2, n - 1})
        for k in rows:
            for field in fields:
                for value in (*FAULTS, "missing", k + 1):
                    doc = json.loads(text)
                    if value == "missing":
                        doc[table][k].pop(field, None)
                    else:
                        doc[table][k][field] = value
                    yield f"{table}[{k}].{field} = {value!r}", doc
            for row in (list(base[table][k].values()), "row"):
                doc = json.loads(text)
                doc[table][k] = row
                yield f"{table}[{k}] = {row!r}", doc
        # two broken rows, the later one in an earlier field (an edge's kind
        # is checked after the rows, with its labels)
        checked = [field for field in fields if field != "kind"]
        for (j, k), (early, late) in itertools.product(
                itertools.combinations(rows, 2), itertools.combinations(checked, 2)):
            doc = json.loads(text)
            doc[table][j][late] = "a"
            doc[table][k][early] = None
            yield f"{table}[{j}].{late} and {table}[{k}].{early}", doc


def test_column_reader_raises_the_row_reader_errors():
    # the reader checks its tables by columns and re-checks only the first
    # row that fails, field by field; the reference checks every row field
    # by field: the two raise the same InputError on every broken document
    # (or read the same graph, where the fault is a value that names one),
    # and the error names the first broken row
    texts = [diagram_to_json(build_diagram(random_scene("paper-weights", 16, 1010, WINDOW))),
             diagram_to_json(build_diagram(random_scene("isotropic", 12, 1011, WINDOW)))]
    raised = 0
    for text in texts:
        for what, doc in faulty_documents(text):
            want = read_outcome(document_to_diagram_by_rows, doc)
            assert read_outcome(document_to_diagram, doc) == want, what
            raised += want.startswith("InputError")
            if " and " in what:
                first = what.partition(".")[0]
                assert want.startswith(f"InputError: {first}"), (what, want)
    assert raised >= 1400  # of 1,464 documents


def test_valid_documents_run_no_per_row_helper(monkeypatch):
    # a valid document is read by columns alone: the per-row and per-field
    # helpers run only for a row that fails a column check
    called = []
    for name in ("_number", "_int", "_ints", "_check_generator_row", "_check_vertex_row",
                 "_check_edge_row"):
        monkeypatch.setattr(serialize, name, lambda *args, name=name: called.append(name))
    for preset in PRESETS:
        text = diagram_to_json(build_diagram(random_scene(preset, 16, 1012, WINDOW)))
        assert diagram_to_json(diagram_from_json(text)) == text
    assert called == []


def test_both_readers_read_the_digest_scenes_alike(digest_graphs):
    # the 47 digest scenes, built, written and read back by both readers
    graphs, _, _ = digest_graphs
    for name, built, loaded in graphs:
        text = diagram_to_json(built)
        by_rows = document_to_diagram_by_rows(json.loads(text))
        assert diagram_to_json(by_rows) == diagram_to_json(loaded) == text, name
        assert by_rows.edges.tobytes() == loaded.edges.tobytes(), name
