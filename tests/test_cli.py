import json

from planmod.cli import main
from planmod.graphs import Graph, complete_graph, make_grid


def _write_graph(path, g):
    path.write_text(json.dumps(g.to_json_obj()))
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
                  "--seed", "3", "--out", str(out)])
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
        g = Graph.from_json(out.read_text())
        assert len(g.vertices) == 2 * 7 * 7 - 2

    def test_k5star(self, tmp_path):
        out = tmp_path / "s.json"
        main(["gen", "k5star", "-r", "3", "--out", str(out)])
        g = Graph.from_json(out.read_text())
        assert len(g.vertices) == 1 + 12
        assert g.degree(0) == 12

    def test_tri_grid(self, tmp_path):
        out = tmp_path / "t.json"
        main(["gen", "tri-grid", "-k", "5", "--out", str(out)])
        g = Graph.from_json(out.read_text())
        assert len(g.vertices) == 25

    def test_dot_output(self, tmp_path):
        out = tmp_path / "g.dot"
        main(["gen", "grid", "--rows", "2", "--cols", "2", "--dot",
              "--out", str(out)])
        assert Graph.from_dot(out.read_text()) == make_grid(2, 2).graph


class TestCheck:
    def test_single_suite(self, tmp_path):
        out = tmp_path / "c.txt"
        code = main(["check", "decomposition", "--seed", "3", "-n", "8",
                     "--out", str(out)])
        assert code == 0
        assert "PASS" in out.read_text()

    def test_gluing_small(self, tmp_path):
        out = tmp_path / "c.txt"
        code = main(["check", "gluing", "--seed", "5", "-n", "6",
                     "--out", str(out)])
        assert code == 0
        assert "6/6" in out.read_text()

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


class TestBench:
    def test_bench_runs(self, tmp_path):
        out = tmp_path / "b.txt"
        code = main(["bench", "--seed", "5", "-n", "4", "--out", str(out)])
        assert code == 0
        assert "oracle" in out.read_text()

    def test_each_engine_starts_on_cold_caches(self, tmp_path, monkeypatch):
        from planmod import cli
        from planmod.planarity import is_planar
        sizes = []

        def spy(engine):
            def run(*args, **kwargs):
                sizes.append(is_planar.cache_info().currsize)
                return engine(*args, **kwargs)
            return run

        monkeypatch.setattr(cli, "solve_oracle", spy(cli.solve_oracle))
        monkeypatch.setattr(cli, "solve_pipeline", spy(cli.solve_pipeline))
        main(["bench", "--seed", "5", "-n", "3", "--out", str(tmp_path / "b.txt")])
        assert sizes == [0] * 6
