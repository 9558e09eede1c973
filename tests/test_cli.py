import json
import os
import random
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from graph_helpers import path_graph
from hypothesis import example, given, settings
from hypothesis import strategies as st
from planarizer_reference import hub_graph, pendant_wall

import planmod
from planmod.cli import _config_from_args, build_parser, main
from planmod.config import PipelineConfig
from planmod.fixtures import random_graph, random_instances
from planmod.graphs import Graph, complete_graph, k5_star, load_graph, make_grid, vertex_key
from planmod.logic import MAX_NESTING
from planmod.modification import Operation
from planmod.planarity import is_planar
from planmod.walls import make_elementary_wall, subdivide_wall


def _write_graph(path, g, name=None):
    """g as JSON at path, each vertex v written as name(v) when name is given."""
    obj = g.to_json_obj()
    if name is not None:
        obj = {"vertices": [name(v) for v in obj["vertices"]],
               "edges": [[name(u), name(v)] for u, v in obj["edges"]]}
    path.write_text(json.dumps(obj))
    return str(path)


class TestSolve:
    def test_yes_exit_zero(self, tmp_path):
        k5 = _write_graph(tmp_path / "k5.json", complete_graph(5))
        out = tmp_path / "report.json"
        code = main(["solve", k5, "--op", "vr", "-k", "1", "--phi", "true",
                     "--oracle", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["answer"] == "yes"
        assert report["witness"]["op"] == "vr"

    def test_no_exit_one(self, tmp_path):
        k6 = _write_graph(tmp_path / "k6.json", complete_graph(6))
        code = main(["solve", k6, "--op", "vr", "-k", "1", "--phi", "true",
                     "--oracle", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_obligatory_vertex_exit_zero(self, tmp_path):
        # the hub of a (K5, 2)-star is obligatory at k=1
        star = tmp_path / "k5star.json"
        main(["gen", "k5star", "-r", "2", "--out", str(star)])
        out = tmp_path / "report.json"
        code = main(["solve", str(star), "--op", "vr", "-k", "1", "--phi", "true",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["witness"]["elements"] == [0]
        assert "obligatory-vertex" in [t["outcome"] for t in report["trace"]]

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["solve", str(bad), "--op", "vr", "-k", "1", "--phi", "true"])
        assert code == 2

    def test_bad_formula_exit_two(self, tmp_path):
        k5 = _write_graph(tmp_path / "k5.json", complete_graph(5))
        code = main(["solve", k5, "--op", "vr", "-k", "1", "--phi", "adj(x,"])
        assert code == 2

    def test_reports_are_byte_identical(self, tmp_path):
        k5 = _write_graph(tmp_path / "k5.json", complete_graph(5))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["solve", k5, "--op", "vr", "-k", "1", "--phi", "true",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pipeline_runs_gaifman_file(self, tmp_path):
        k5 = _write_graph(tmp_path / "k5.json", complete_graph(5))
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({
            "basics": [{"ell": 1, "r": 1, "psi": "exists y. adj(x,y)"}],
            "combination": "1", "annotated": True}))
        out = tmp_path / "r.json"
        code = main(["solve", k5, "--op", "vr", "-k", "1",
                     "--gaifman", str(phi), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "pipeline"
        assert report["trace"]

    def test_annotated_scope(self, tmp_path):
        k5 = _write_graph(tmp_path / "k5.json", complete_graph(5))
        ann = tmp_path / "r.json"
        ann.write_text("[]")
        code = main(["solve", k5, "--op", "vr", "-k", "1", "--phi", "true",
                     "--oracle", "--annotated", str(ann),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1  # empty scope: nothing may be removed

    def test_mixed_vertex_ids_in_the_annotation(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text('{"vertices": ["a", 1, 2], "edges": [["a", 1], [1, 2]]}')
        ann = tmp_path / "r.json"
        ann.write_text('["a", 1]')
        code = main(["solve", str(g), "--op", "vr", "-k", "0", "--phi", "true",
                     "--oracle", "--annotated", str(ann), "--out", str(tmp_path / "o.json")])
        assert code == 0

    @pytest.mark.parametrize("mode", [[], ["--oracle"]], ids=["pipeline", "oracle"])
    def test_empty_witness_is_an_empty_set(self, mode, tmp_path):
        # a planar graph needs no operation: YES with the witness ∅, which
        # is not the null of a NO answer
        grid = _write_graph(tmp_path / "grid.json", make_grid(3, 3).graph)
        out = tmp_path / "r.json"
        code = main(["solve", grid, "--op", "vr", "-k", "1", "--phi", "true", *mode,
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["witness"] == {"op": "vr", "elements": []}

    def test_reports_name_the_input_ids(self, tmp_path):
        # the hub of a (K5, 2)-star, here "hub", is obligatory at k = 1
        g, hub = k5_star(2)
        name = {v: "hub" if v == hub else v for v in g.vertices}
        path = tmp_path / "star.json"
        path.write_text(json.dumps({"vertices": [name[v] for v in g.vertices],
                                    "edges": [[name[u], name[v]] for u, v in g.edges]}))
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--op", "vr", "-k", "1", "--phi", "true",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["witness"]["elements"] == ["hub"]
        assert [t["detail"]["vertex"] for t in report["trace"]
                if t["outcome"] == "obligatory-vertex"] == ["hub"]

    def test_empty_annotation_is_its_own_instance(self, tmp_path):
        # R = {} and no --annotated (R = V) answer differently on the path
        # 1-2-3, so their reports must not share an instance digest
        graph = json.dumps(Graph([1, 2, 3], [(1, 2), (2, 3)]).to_json_obj())
        codes, digests = [], []
        for name, annotated in (("all", None), ("empty", "[]")):
            (tmp_path / name).mkdir()
            argv = _solve_argv(tmp_path / name, graph=graph, annotated=annotated,
                               sentence=_sentence())
            codes.append(main(argv))
            report = json.loads((tmp_path / name / "report.json").read_text())
            digests.append(report["instance"]["digest"])
        assert codes == [0, 1]
        assert digests[0] != digests[1]

    def test_unannotated_sentence_with_annotation_exits_two(self, tmp_path, capsys):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        path = _write_graph(tmp_path / "p4.json", g)
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({
            "basics": [{"ell": 1, "r": 1, "psi": "~(exists y. adj(x,y))"}],
            "combination": "1", "annotated": False}))
        ann = tmp_path / "r.json"
        ann.write_text("[1]")
        code = main(["solve", path, "--op", "vr", "-k", "1", "--gaifman", str(phi),
                     "--annotated", str(ann), "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "soundness" not in err


HAS_NEIGHBOUR = {"basics": [{"ell": 1, "r": 1, "psi": "exists y. adj(x,y)"}],
                 "combination": "1"}
ISOLATED = {"basics": [{"ell": 1, "r": 1, "psi": "~(exists y. adj(x,y))"}],
            "combination": "1"}
HATS = ["--q-hat", "7", "--rho-hat", "1", "--d-hat", "1"]


def _outcomes(trace):
    return [t["outcome"] for t in trace]


def _shrinks_then_checks(trace):
    return "irrelevant-region" in _outcomes(trace) and trace[-1]["outcome"] == "cross-check"


def _grid60(chord):
    g = make_grid(60, 60).graph
    return g.add_edges([(10 * 60 + 10, 40 * 60 + 40)]) if chord else g


class Scenario(NamedTuple):
    """One `planmod solve` run and what its report must say."""
    graph: Callable[[], Graph]
    argv: list  # after the instance; a dict in it is a sentence, passed as a file
    code: int  # 0 on YES, 1 on NO, 2 when the run stops on an error
    cross_checked: bool
    trace: object = None  # the trace's outcomes, or a predicate on its steps
    seconds: float | None = None  # bound on the run's time in-process
    name: Callable | None = None  # each vertex v is written to the file as name(v)
    error: str | None = None  # on code 2, all the run prints to stderr; it writes no report


SCENARIOS = {
    # the wall search finds the central 7-wall of a subdivided 9-wall on its
    # degree-2 reduct, so a checked run shrinks the wall before its final
    # search
    "wall9-subdivided-vr": Scenario(
        lambda: subdivide_wall(make_elementary_wall(9), random.Random(1), max_extra=1).graph,
        ["--op", "vr", "-k", "1", "--gaifman", HAS_NEIGHBOUR, *HATS], 0, True,
        _shrinks_then_checks),
    # W_9 has 160 positions, past the 120 the wall search once capped
    # silently, so q = 9 reaches the irrelevant-region branch on the 11-wall
    "wall11-vr-q9": Scenario(
        lambda: make_elementary_wall(11).graph,
        ["--op", "vr", "-k", "1", "--gaifman", HAS_NEIGHBOUR,
         "--q-hat", "9", "--rho-hat", "1", "--d-hat", "1"], 0, True, _shrinks_then_checks),
    # W_q is sized by formula, so a q of a million builds nothing of size
    # q^2: the wall branch is ruled out at once
    "wall7-huge-q": Scenario(
        lambda: make_elementary_wall(7).graph,
        ["--op", "vr", "-k", "1", "--phi", "true", "--q-hat", "1000001"], 0, True,
        ["bounded-treewidth", "cross-check"], 120),
    # one characteristic subset is too few, so find_vertex gives up and the
    # step falls back to a min-fill width witness that names the cap; the
    # closing cross-check still runs
    "wall7-fired-cap": Scenario(
        lambda: make_elementary_wall(7).graph,
        ["--op", "vr", "-k", "1", "--gaifman", HAS_NEIGHBOUR, *HATS,
         "--cap-char-subsets", "1"], 0, True,
        lambda trace: any("cap-char-subsets" in t["detail"].get("fallback", "")
                          for t in trace if t["outcome"] == "bounded-treewidth")),
    # a ball of four vertices is past a brute-force cap of 3, so the final
    # search on the 7-wall raises at its first degree-3 vertex, the same
    # vertex and message whether psi's value there is read from the index
    # over G or evaluated on the set's graph
    **{f"wall7-brute-cap-{sentence}": Scenario(
        lambda: make_elementary_wall(7).graph,
        ["--op", "vr", "-k", "1", "--gaifman", phi, *HATS, "--cap-brute-vertices", "3"],
        2, True, error="resource limit: brute-force evaluation capped at 3 vertices, got 4\n")
       for sentence, phi in (("has-neighbour", HAS_NEIGHBOUR), ("isolated", ISOLATED))},
    # each wall-search pass gets a quarter of --cap-wall-nodes with no
    # floor, so a cap of 4 finds no wall and the run goes straight to
    # bounded treewidth
    "wall7-tiny-wall-cap": Scenario(
        lambda: make_elementary_wall(7).graph,
        ["--op", "vr", "-k", "1", "--gaifman", HAS_NEIGHBOUR, *HATS,
         "--cap-wall-nodes", "4"], 0, True, ["bounded-treewidth", "cross-check"]),
    # 0 is the centre of the hub graph's (K5, 2)-star minor, yet {1}
    # planarizes, so 0 is not obligatory
    "hub-vr-checked": Scenario(
        hub_graph, ["--op", "vr", "-k", "1", "--gaifman", ISOLATED], 0, True),
    "hub-vr-unchecked": Scenario(
        hub_graph, ["--op", "vr", "-k", "1", "--gaifman", ISOLATED, "--no-cross-check"],
        0, False),
    # the hub graph hung from the 7-wall's corner 0 by its pendant vertex 10:
    # {1} planarizes it, and no one edge removal or contraction does, so
    # under er and ec the wall branch lists no planarizer and the first step
    # is a no-instance
    **{f"hub-wall7-{op}-{check}": Scenario(
        lambda: pendant_wall(7, "hub", "bridge"),
        ["--op", op, "-k", "1", "--gaifman", ISOLATED, *HATS]
        + ([] if check == "checked" else ["--no-cross-check"]), 1, check == "checked",
        ["no-instance", "cross-check"] if check == "checked" else ["no-instance"], 10)
       for op in ("er", "ec") for check in ("checked", "unchecked")},
    # the pendant-K5 9-wall under ec, whose budget-fired star-minor search
    # once took 17.5 s
    "k5-wall9-ec-unchecked": Scenario(
        lambda: pendant_wall(9, "k5", "bridge"),
        ["--op", "ec", "-k", "1", "--gaifman", ISOLATED, *HATS, "--no-cross-check"],
        1, False, seconds=10),
    # every benchmark workload has int ids and never meets the JSON loader;
    # these run its relabelling end to end on the 7-wall with string ids, and
    # with mixed ids (odd ids stay ints, even ones become "v..." strings)
    **{f"wall7-{ids}-{sentence}": Scenario(
        lambda: make_elementary_wall(7).graph,
        ["--op", "vr", "-k", "1", "--gaifman", phi, *HATS], code, True,
        name=(lambda v: f"v{v}") if ids == "str" else (lambda v: v if v % 2 else f"v{v}"))
       for ids in ("str", "mixed")
       for sentence, phi, code in (("has-neighbour", HAS_NEIGHBOUR, 0), ("isolated", ISOLATED, 1))},
    # "is isolated" runs on large walls resume one pass-1 wall search from
    # step to step, where each step once restarted it from rank 0 and its
    # budget ran out in the emptied low ranks: the 23- and 31-wall take more
    # irrelevant-region steps than the 77 and 94 they took then
    **{f"wall{h}-vr-isolated-unchecked": Scenario(
        lambda h=h: make_elementary_wall(h).graph,
        ["--op", "vr", "-k", "1", "--gaifman", ISOLATED, *HATS, "--no-cross-check"], 1, False,
        lambda trace, before=before: _outcomes(trace).count("irrelevant-region") > before, 30)
       for h, before in ((23, 77), (31, 94))},
    # the faces of one embedding of the 7-wall answer every one-pair ea set,
    # so the checked ea NO case, which the benchmark leaves out as too slow,
    # finishes in about a second
    "wall7-ea-no": Scenario(
        lambda: make_elementary_wall(7).graph,
        ["--op", "ea", "-k", "1", "--gaifman", ISOLATED, *HATS], 1, True, seconds=120),
    # the same one height up; it passes just as fast without the irrelevance
    # check's no-search answer on a planar wall, which the spy test
    # test_planar_wall_needs_no_search guards
    "wall9-ea-no": Scenario(
        lambda: make_elementary_wall(9).graph,
        ["--op", "ea", "-k", "1", "--gaifman", ISOLATED, *HATS], 1, True, seconds=120),
    # a total ell of 15 000 makes 2^ell longer than the 4 300 digits Python
    # turns into a string; w's tower is written without it, so the run
    # answers NO as at ell 5 000
    **{f"path3-ell{ell}": Scenario(
        lambda: path_graph(3),
        ["--op", "vr", "-k", "1", "--gaifman",
         {"basics": [{"ell": ell, "r": 1, "psi": "exists y. adj(x,y)"}], "combination": "1"}],
        1, True, ["bounded-treewidth", "cross-check"])
       for ell in (5000, 15000)},
    # an edge addition never planarizes, so the opening vr-planarizer search
    # at budget 0 finds none and the run's first step is no-planarizer
    "k5-ea": Scenario(
        lambda: complete_graph(5), ["--op", "ea", "-k", "1", "--phi", "true"], 1, True,
        ["no-planarizer", "cross-check"]),
    # the planarity kernel's depth-first searches keep their own stacks: on a
    # 60x60 grid they run deeper than the recursion limit; one chord between
    # (10, 10) and (40, 40), interior vertices on no common face, makes the
    # grid nonplanar
    "grid60-oracle": Scenario(
        lambda: _grid60(chord=False), ["--op", "vr", "-k", "0", "--phi", "true", "--oracle"],
        0, False, seconds=120),
    "grid60-chord-oracle": Scenario(
        lambda: _grid60(chord=True), ["--op", "vr", "-k", "0", "--phi", "true", "--oracle"],
        1, False, seconds=120),
}


@pytest.mark.parametrize("case", SCENARIOS)
def test_solve_scenario(case, tmp_path, capsys):
    """One `planmod solve` run end to end. Besides the row's own checks,
    every vertex its report names, in the witness or the trace, must be an
    id of the input file in both type and value."""
    s = SCENARIOS[case]
    graph = tmp_path / "g.json"
    argv = ["solve", _write_graph(graph, s.graph(), s.name)]
    for i, arg in enumerate(s.argv):
        if isinstance(arg, dict):
            (tmp_path / f"phi{i}.json").write_text(json.dumps(arg))
            arg = str(tmp_path / f"phi{i}.json")
        argv.append(arg)
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    if s.error is not None:
        assert (code, capsys.readouterr().err, out.exists()) == (s.code, s.error, False)
        return
    report = json.loads(out.read_text())
    assert (code, report["answer"]) == (s.code, "yes" if s.code == 0 else "no")
    assert report["cross_checked"] is s.cross_checked
    if callable(s.trace):
        assert s.trace(report["trace"]), _outcomes(report["trace"])
    elif s.trace is not None:
        assert _outcomes(report["trace"]) == s.trace
    if s.seconds is not None:
        assert elapsed <= s.seconds
    ids = {(type(v), v) for v in json.loads(graph.read_text())["vertices"]}
    named = [t["detail"]["vertex"] for t in report["trace"] if "vertex" in t["detail"]]
    for e in (report["witness"] or {}).get("elements", []):
        named += e if isinstance(e, list) else [e]
    assert all((type(v), v) in ids for v in named), named


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen", "wall", "--height", "7", "--subdivide", "2",
                  "--seed", "11", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_wall_matches_constructor(self, tmp_path):
        out = tmp_path / "w.json"
        main(["gen", "wall", "--height", "7", "--out", str(out)])
        g, _ = load_graph(json.loads(out.read_text()))
        assert len(g.vertices) == 2 * 7 * 7 - 2

    def test_k5star(self, tmp_path):
        out = tmp_path / "s.json"
        main(["gen", "k5star", "-r", "3", "--out", str(out)])
        g, _ = load_graph(json.loads(out.read_text()))
        assert len(g.vertices) == 1 + 12
        assert g.degree(0) == 12

    def test_tri_grid(self, tmp_path):
        out = tmp_path / "t.json"
        main(["gen", "tri-grid", "-k", "5", "--out", str(out)])
        g, _ = load_graph(json.loads(out.read_text()))
        assert len(g.vertices) == 25

    def test_dot_output(self, tmp_path):
        out = tmp_path / "g.dot"
        main(["gen", "grid", "--rows", "2", "--cols", "2", "--dot",
              "--out", str(out)])
        assert out.read_text() == make_grid(2, 2).graph.to_dot() + "\n"

    @pytest.mark.parametrize("argv", [
        ["wall", "--subdivide", "-1"],
        ["complete", "-n", "-3"],
        ["random", "-n", "-2"],
        ["random", "-p", "1.5"],
    ], ids=["wall-subdivide", "complete-n", "random-n", "random-p"])
    def test_bad_size_exits_two(self, argv, capsys):
        assert main(["gen", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


class TestCheck:
    def test_pipeline_disagreement_is_counted_and_fails(self, tmp_path, monkeypatch):
        from planmod import cli
        from planmod.errors import SoundnessError
        real = cli.solve_pipeline
        calls = []

        def disagree_once(inst, cfg):
            calls.append(inst)
            if len(calls) == 2:
                raise SoundnessError("pipeline answered False, oracle says True")
            return real(inst, cfg)

        monkeypatch.setattr(cli, "solve_pipeline", disagree_once)
        out = tmp_path / "c.txt"
        code = main(["check", "pipeline-vs-oracle", "--seed", "2", "-n", "4",
                     "--out", str(out)])
        assert code == 1
        text = out.read_text()
        assert "FAIL  pipeline-vs-oracle: 3 completed, 0 capped, 1 disagreements" in text
        assert len(calls) == 4


def _sentence(annotated=True, combination="1", **basic):
    return json.dumps({"basics": [{"ell": 1, "r": 1, "psi": "exists y. adj(x,y)", **basic}],
                       "combination": combination, "annotated": annotated})


def _solve_argv(tmp_path, graph=None, annotated=None, sentence=None, phi="true"):
    """`planmod solve` on a 10-vertex path, with any of its files or its
    --phi replaced."""
    instance = tmp_path / "g.json"
    instance.write_text(graph or json.dumps(path_graph(10).to_json_obj()))
    argv = ["solve", str(instance), "--op", "vr", "-k", "1"]
    if sentence is None:
        argv += ["--phi", phi]
    else:
        (tmp_path / "phi.json").write_text(sentence)
        argv += ["--gaifman", str(tmp_path / "phi.json")]
    if annotated is not None:
        (tmp_path / "r.json").write_text(annotated)
        argv += ["--annotated", str(tmp_path / "r.json")]
    return argv + ["--out", str(tmp_path / "report.json")]


MALFORMED = {
    "annotated-number": lambda t: _solve_argv(t, annotated="5"),
    "annotated-nested-list": lambda t: _solve_argv(t, annotated="[[1,2]]"),
    "annotated-not-json": lambda t: _solve_argv(t, annotated="one, two"),
    # true and 1.0 only compare equal to vertex 1; a repeat would merge
    "annotated-true-for-one": lambda t: _solve_argv(t, annotated="[true]"),
    "annotated-float-for-int": lambda t: _solve_argv(t, annotated="[1.0, 2]"),
    "annotated-repeated": lambda t: _solve_argv(t, annotated="[1, 1]"),
    "edge-one-endpoint": lambda t: _solve_argv(t, graph='{"vertices":[0,1],"edges":[[0]]}'),
    "edge-three-endpoints": lambda t: _solve_argv(
        t, graph='{"vertices":[0,1,2],"edges":[[0,1,2]]}'),
    "null-vertex": lambda t: _solve_argv(t, graph='{"vertices":[null,1],"edges":[[null,1]]}'),
    # true == 1.0 == 1 in Python, so these ids would merge into one vertex
    "vertex-true-and-one": lambda t: _solve_argv(
        t, graph='{"vertices":[true,1,2],"edges":[[1,2]]}'),
    "vertex-float-and-int": lambda t: _solve_argv(
        t, graph='{"vertices":[1.0,1,2],"edges":[[1,2]]}'),
    "vertex-repeated": lambda t: _solve_argv(t, graph='{"vertices":[1,1,2],"edges":[[1,2]]}'),
    # an edge names an end by its id's type and value, so 1.0 is not vertex 1
    "edge-float-for-int": lambda t: _solve_argv(t, graph='{"vertices":[1,2],"edges":[[1.0,2]]}'),
    # a string or an object is not a list of vertices, nor a string an edge
    "vertices-string": lambda t: _solve_argv(t, graph='{"vertices":"abc","edges":[["a","b"]]}'),
    "vertices-object": lambda t: _solve_argv(
        t, graph='{"vertices":{"a":1,"b":2},"edges":[["a","b"]]}'),
    "edge-string": lambda t: _solve_argv(t, graph='{"vertices":["a","b"],"edges":["ab"]}'),
    "instance-is-directory": lambda t: ["solve", str(t), "--op", "vr", "-k", "1",
                                        "--phi", "true"],
    "check-n-zero": lambda t: ["check", "gluing", "-n", "0"],
    "check-n-negative": lambda t: ["check", "gluing", "-n", "-5"],
    "ell-fraction": lambda t: _solve_argv(t, sentence=_sentence(ell=2.5)),
    "ell-float": lambda t: _solve_argv(t, sentence=_sentence(ell=3.0)),
    "r-bool": lambda t: _solve_argv(t, sentence=_sentence(r=True)),
    "annotated-flag-string": lambda t: _solve_argv(t, sentence=_sentence(annotated="no")),
    "combination-dangling-and": lambda t: _solve_argv(t, sentence=_sentence(combination="1 &")),
    # JSON that is not a string is not formula text
    "psi-list": lambda t: _solve_argv(t, sentence=_sentence(psi=[1])),
    "combination-list": lambda t: _solve_argv(t, sentence=_sentence(combination=[1])),
    # nested past Python's recursion limit: the JSON reader, the parser and
    # every walk over a formula would raise RecursionError
    "graph-nested-arrays": lambda t: _solve_argv(t, graph="[" * 100_000 + "]" * 100_000),
    "annotated-nested-arrays": lambda t: _solve_argv(
        t, annotated="[" * 100_000 + "]" * 100_000),
    "psi-500-negations": lambda t: _solve_argv(t, sentence=_sentence(psi="~" * 500 + "adj(x,x)")),
    "oracle-phi-500-negations": lambda t: [*_solve_argv(t, phi="~" * 500 + "true"), "--oracle"],
    "combination-3000-parentheses": lambda t: _solve_argv(
        t, sentence=_sentence(combination="(" * 3000 + "1" + ")" * 3000)),
    "combination-5000-terms": lambda t: _solve_argv(
        t, sentence=_sentence(combination=" & ".join(["1"] * 5000))),
}


class TestBadParameters:
    """A bad hat or a plain formula under the pipeline exits 2 with one
    `error:` line from the check that owns it."""

    @pytest.mark.parametrize("hats,message", [
        (["--q-hat", "7", "--rho-hat", "-1", "--d-hat", "1"], "rho_hat must be positive"),
        (["--q-hat", "7", "--rho-hat", "1", "--d-hat", "0"], "d_hat must be positive"),
        (["--q-hat", "4", "--rho-hat", "1", "--d-hat", "1"], "odd q >= 3"),
    ], ids=["rho-hat-negative", "d-hat-zero", "q-hat-even"])
    def test_wall_hats(self, hats, message, tmp_path, capsys):
        wall = tmp_path / "wall7.json"
        main(["gen", "wall", "--height", "7", "--out", str(wall)])
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(HAS_NEIGHBOUR))
        code = main(["solve", str(wall), "--op", "vr", "-k", "1", "--gaifman", str(phi),
                     *hats, "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("op,n", [("ea", 5), ("vr", 6)], ids=["ea-k5", "vr-k6"])
    def test_even_q_hat_is_rejected_before_find_area_answers(self, op, n, tmp_path, capsys):
        # the opening search alone would answer NO: ea cannot planarize K5,
        # and no one vertex planarizes K6; q is checked before it
        kn = _write_graph(tmp_path / "kn.json", complete_graph(n))
        code = main(["solve", kn, "--op", op, "-k", "1", "--phi", "true",
                     "--q-hat", "4", "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "odd q >= 3" in err[0]

    def test_plain_formula_needs_the_oracle(self, tmp_path, capsys):
        k5 = _write_graph(tmp_path / "k5.json", complete_graph(5))
        code = main(["solve", k5, "--op", "vr", "-k", "1", "--phi", "exists x. x = x"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: the pipeline needs a Gaifman sentence; plain formulas run under the oracle only\n"


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_two_with_an_error_line(self, case, tmp_path, capsys):
        try:
            code = main(MALFORMED[case](tmp_path))
        except SystemExit as exc:  # argparse rejects a bad flag value this way
            code = exc.code
        assert code == 2
        assert any(line.startswith("error:") or ": error:" in line
                   for line in capsys.readouterr().err.splitlines())


def test_a_formula_at_the_nesting_bound_solves(tmp_path, capsys):
    # MAX_NESTING levels: an odd number of negations over one atom, so psi
    # holds at every vertex (YES) and the closed formula is false (NO); one
    # more level is an input error
    at_bound = "~" * (MAX_NESTING - 1)
    assert MAX_NESTING % 2 == 0
    assert main(_solve_argv(tmp_path, sentence=_sentence(psi=at_bound + "adj(x,x)"))) == 0
    assert main([*_solve_argv(tmp_path, phi=at_bound + "true"), "--oracle"]) == 1
    assert main(_solve_argv(tmp_path, sentence=_sentence(psi="~" + at_bound + "adj(x,x)"))) == 2
    assert f"nests deeper than {MAX_NESTING} levels" in capsys.readouterr().err


def test_every_config_field_has_a_solve_flag():
    # one flag per field, each set away from its default, so a field that no
    # run can set fails here
    argv = ["solve", "g.json", "--op", "vr", "-k", "1",
            "--size-mode", "exact", "--no-cross-check"]
    for f in fields(PipelineConfig):
        if f.name not in ("size_mode", "cross_check"):
            argv += [f"--{f.name.replace('_', '-')}", str((f.default or 0) + 1)]
    cfg = _config_from_args(build_parser().parse_args(argv))
    for f in fields(PipelineConfig):
        assert getattr(cfg, f.name) != f.default, f.name


def test_removed_cap_flag_is_rejected(tmp_path, capsys):
    # the pipeline's width witnesses are min-fill, so no exact-treewidth cap
    # is configurable
    k5 = _write_graph(tmp_path / "k5.json", complete_graph(5))
    with pytest.raises(SystemExit) as exc:
        main(["solve", k5, "--op", "vr", "-k", "1", "--phi", "true",
              "--cap-exact-tw", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-exact-tw 3" in capsys.readouterr().err


def _run_without_networkx(argv: list) -> subprocess.CompletedProcess:
    """`planmod` with argv in a fresh interpreter in which every import of
    networkx fails."""
    src = str(Path(planmod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys; sys.modules['networkx'] = None; from planmod.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def _first_nonplanar_stream_instance() -> tuple:
    g, k, op, phi = next((g, k, op, phi) for g, k, op, phi, _ in random_instances(9000, 500)
                         if op is Operation.VR and k == 2 and not is_planar(g))
    return g, ["--op", op.value, "-k", str(k), "--gaifman", phi.to_json_obj()]


WITHOUT_NETWORKX = {
    # embed and faces_are_fixed: the faces of the 7-wall answer its one-pair
    # ea sets
    "wall7-ea-has-neighbour": lambda: (
        make_elementary_wall(7).graph,
        ["--op", "ea", "-k", "1", "--gaifman", HAS_NEIGHBOUR, *HATS]),
    # kuratowski: the first nonplanar vr, k = 2 instance of the soundness stream
    "stream-vr-k2-nonplanar": _first_nonplanar_stream_instance,
}


@pytest.mark.parametrize("case", WITHOUT_NETWORKX)
def test_solve_runs_without_networkx(case, tmp_path):
    # the same report, byte for byte, as the run in this process
    g, flags = WITHOUT_NETWORKX[case]()
    argv = ["solve", _write_graph(tmp_path / "g.json", g)]
    for arg in flags:
        if isinstance(arg, dict):
            (tmp_path / "phi.json").write_text(json.dumps(arg))
            arg = str(tmp_path / "phi.json")
        argv.append(arg)
    here, there = tmp_path / "here.json", tmp_path / "there.json"
    code = main(argv + ["--out", str(here)])
    run = _run_without_networkx(argv + ["--out", str(there)])
    assert (run.returncode, run.stderr) == (code, "")
    assert there.read_bytes() == here.read_bytes()


def test_check_runs_without_networkx():
    # the gluing battery embeds each annulus it glues
    run = _run_without_networkx(["check", "gluing", "--seed", "0", "-n", "20"])
    assert run.returncode == 0, run.stdout + run.stderr
    assert "PASS  gluing: 20/20" in run.stdout


def _renamed_report(report: dict, name) -> dict:
    """The report less its digest, with each vertex x that its witness and
    trace name replaced by name(x)."""
    report = json.loads(json.dumps(report))
    del report["instance"]["digest"]
    if report["witness"] is not None:
        report["witness"]["elements"] = [[name(u) for u in e] if isinstance(e, list) else name(e)
                                         for e in report["witness"]["elements"]]
    for step in report["trace"]:
        if "vertex" in step["detail"]:
            step["detail"]["vertex"] = name(step["detail"]["vertex"])
    return report


class TestRelabelInvariance:
    """Vertex ids are relabelled once, at the JSON boundary, in `vertex_key`
    order. So renaming the ids in a way that keeps that order changes no
    report, once the names are mapped, and a graph with mixed ids gets the
    report of its relabelling to ranks in that order."""

    @staticmethod
    def _solve(tmp_path, rng, g, name, r_set, op, k, sentence):
        """(exit code, report) of `planmod solve` on g and r_set, each
        vertex v written as name(v), vertices and edges in an order and
        orientation drawn from rng."""
        verts = [name(v) for v in g.sorted_vertices()]
        edges = [[name(u), name(v)][::rng.choice((1, -1))] for u, v in g.sorted_edges()]
        rng.shuffle(verts)
        rng.shuffle(edges)
        (tmp_path / "g.json").write_text(json.dumps({"vertices": verts, "edges": edges}))
        (tmp_path / "phi.json").write_text(sentence)
        argv = ["solve", str(tmp_path / "g.json"), "--op", op, "-k", str(k),
                "--gaifman", str(tmp_path / "phi.json"), "--out", str(tmp_path / "r.json")]
        if r_set is not None:
            (tmp_path / "a.json").write_text(json.dumps([name(v) for v in sorted(r_set)]))
            argv += ["--annotated", str(tmp_path / "a.json")]
        code = main(argv)
        return code, json.loads((tmp_path / "r.json").read_text()) if code < 2 else None

    @settings(max_examples=30, deadline=None)
    # the star's hub is obligatory: the trace names a vertex
    @example(seed=0, family="k5star", op="vr", k=1, annotated=False, shift=-7,
             psi="exists y. adj(x,y)")
    @given(seed=st.integers(0, 2 ** 16), family=st.sampled_from(["random", "k5star"]),
           op=st.sampled_from(["vr", "er", "ec", "ea"]), k=st.integers(0, 2),
           annotated=st.booleans(), shift=st.integers(-50, 50),
           psi=st.sampled_from(["exists y. adj(x,y)", "~(exists y. adj(x,y))"]))
    def test_renames_give_the_same_report(self, tmp_path_factory, seed, family, op, k,
                                          annotated, shift, psi):
        tmp_path = tmp_path_factory.mktemp("relabel")
        rng = random.Random(seed)
        # dense graphs are often nonplanar, with several first witnesses to
        # choose from by vertex order
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.4, 0.8))) \
            if family == "random" else k5_star(2)[0]
        r_set = {v for v in g.vertices if rng.random() < 0.6} if annotated else None
        sentence = json.dumps({"basics": [{"ell": 1, "r": 1, "psi": psi}], "combination": "1"})
        solve = lambda name: self._solve(tmp_path, rng, g, name, r_set, op, k, sentence)
        code, report = solve(lambda v: v)
        # ints shifted by a constant, and ints as zero-padded strings
        for name in (lambda v: v + shift, lambda v: f"{v:03d}"):
            renamed = solve(name)
            assert renamed[0] == code
            if code < 2:
                assert _renamed_report(renamed[1], lambda x: x) == _renamed_report(report, name)
        # odd ints as strings, a mix of types, against the ranks of these ids
        mixed = lambda v: f"v{v}" if v % 2 else v
        by_rank = sorted(map(mixed, g.vertices), key=vertex_key)
        rank = {x: i for i, x in enumerate(by_rank)}
        code, report = solve(mixed)
        ranked = solve(lambda v: rank[mixed(v)])
        assert ranked[0] == code
        if code < 2:
            assert _renamed_report(report, lambda x: x) == \
                _renamed_report(ranked[1], by_rank.__getitem__)
