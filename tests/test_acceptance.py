"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2, 3, 4, 6, 7 and 9 run the matching `planmod check` battery and
read its report, adding only their own checks. Run with
`pytest tests/test_acceptance.py -s` to see the lines as they go.
"""

import re
import time

from graph_helpers import path_graph
from wall_oracle import derive_central_subwall, derive_wall_annulus

from planmod import cli
from planmod.config import PipelineConfig
from planmod.fixtures import TRIVIALLY_TRUE, crafted_sig_instances, shipped_local_formulas
from planmod.graphs import complete_graph, disjoint_union, make_grid
from planmod.logic import BasicSentence, GaifmanSentence, parse_combination, parse_formula
from planmod.modification import Operation
from planmod.signatures import area_family, compute_parameters, is_triple
from planmod.solver import Instance, find_vertex, solve_oracle
from planmod.treewidth import exact_treewidth, validate_decomposition
from planmod.walls import (central_subwall, extended_compass, layers,
                           make_elementary_wall, wall_annulus)


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


def _check(tmp_path, *argv) -> tuple:
    """The exit code and report lines of `planmod check` on argv."""
    out = tmp_path / "check.txt"
    code = cli.main(["check", *argv, "--out", str(out)])
    return code, out.read_text().splitlines()


def test_criterion_1_oracle_correctness():
    cases = [
        (complete_graph(5), Operation.VR, True),
        (complete_graph(6), Operation.VR, False),
        (complete_graph(5), Operation.ER, True),
        (disjoint_union(complete_graph(5), complete_graph(5, offset=10)),
         Operation.VR, False),
    ]
    ok = True
    worst = 0.0
    for g, op, want in cases:
        t0 = time.perf_counter()
        got = solve_oracle(Instance(g, 1, op, TRIVIALLY_TRUE))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and got == want and dt < 1.0
    _report(1, ok, f"oracle on K5/K6/2xK5 correct, slowest case {worst * 1000:.0f}ms")


def test_criterion_2_gaifman_semantics(tmp_path):
    t0 = time.perf_counter()
    code, lines = _check(tmp_path, "scattered", "--seed", "2024", "-n", "1000")
    dt = time.perf_counter() - t0
    _report(2, code == 0 and lines == ["PASS  scattered/gaifman agreement: 1000/1000"]
            and dt < 120,
            f"eval_gaifman vs delta-expanded brute force: {lines[-1].split()[-1]} "
            f"random annotated graphs, one shipped sentence each, in {dt:.1f}s")


def test_criterion_3_locality_audit(tmp_path):
    code, lines = _check(tmp_path, "locality", "--seed", "3", "-n", "300")
    ok = code == 0 and len(lines) == len(shipped_local_formulas()) \
        and all(line.startswith("PASS") for line in lines)
    _report(3, ok, f"{len(shipped_local_formulas())} shipped local formulas "
                   f"pass a 300-pair audit each")


def test_criterion_4_gluing_lemma(tmp_path):
    t0 = time.perf_counter()
    code, lines = _check(tmp_path, "gluing", "--seed", "0", "-n", "100")
    dt = time.perf_counter() - t0
    _report(4, code == 0 and lines == ["PASS  gluing: 100/100 equivalences"] and dt < 60,
            f"planar(G) = planar(G_in) and planar(G_out) in "
            f"{lines[-1].split()[-2]} random separators, {dt:.1f}s")


def test_criterion_5_wall_combinatorics():
    ok = True
    for h in (3, 5, 7, 9, 11, 13):
        wall = make_elementary_wall(h)
        ok = ok and len(layers(wall)) == (h - 1) // 2
    w13 = make_elementary_wall(13)
    adj = {v: set(w13.graph.adj[v]) for v in w13.graph.vertices}
    pos = dict(w13.branch_coords)
    for q in (3, 5, 7, 9, 11):
        ok = ok and central_subwall(w13, q).graph.vertices == \
            derive_central_subwall(adj, pos, 13, q)
    ok = ok and wall_annulus(w13, 5, 3).graph.vertices == \
        derive_wall_annulus(adj, pos, 13, 5, 3)
    _report(5, ok, "layer counts for heights 3..13 (11-wall: 5 layers); "
                   "central subwalls and the (5,3)-annulus of the 13-wall "
                   "match the definitional derivation vertex-for-vertex")


def test_criterion_6_treewidth(tmp_path):
    ok = exact_treewidth(path_graph(7))[0] == 1
    for n in range(2, 9):
        tw, td = exact_treewidth(complete_graph(n))
        ok = ok and tw == n - 1 and validate_decomposition(complete_graph(n), td)
    grid = make_grid(4, 4).graph
    tw, td = exact_treewidth(grid, cap=16)
    ok = ok and tw == 4 and validate_decomposition(grid, td)
    code, lines = _check(tmp_path, "decomposition", "--seed", "6", "-n", "100")
    ok = ok and code == 0 and lines == ["PASS  decomposition: 100/100 agree and validate"]
    _report(6, ok, f"trees/cliques/4x4-grid widths exact with valid witnesses; "
                   f"DP vs branch-and-bound agree on {lines[-1].split()[-4]} random graphs")


def test_criterion_7_signature_oracle_equivalence(tmp_path):
    cases = crafted_sig_instances()
    ok = len(cases) >= 20 and all(
        len(extended_compass(c["graph"], c["wall"], c["params"].rho).compass.vertices) <= 40
        for c in cases)
    code, lines = _check(tmp_path, "sig-oracle")
    ok = ok and code == 0 and \
        lines == [f"PASS  sig-oracle: {len(cases)} crafted instances byte-equal"]
    _report(7, ok, f"{len(cases)} crafted instances: characteristic equals the "
                   f"raw-comprehension oracle, byte-equal canonical JSON")


def test_criterion_8_parameter_formulas():
    phi = GaifmanSentence((BasicSentence(2, 1, parse_formula("exists y. adj(x,y)")),),
                          parse_combination("1"))
    p = compute_parameters(1, phi, PipelineConfig(q_hat=None))
    fam = area_family(1, 3)
    ok = (p.d == 10 and p.rho == 30 and fam["m"] == 9 and fam["r_area"] == 43
          and isinstance(p.w, str) and "2^" in p.w)
    _report(8, ok, f"d={p.d}, rho={p.rho}, m={fam['m']}, r_area(q=3)="
                   f"{fam['r_area']}, w rendered as {p.w}")


def test_criterion_9_pipeline_soundness(tmp_path):
    # the battery compares each pipeline answer with an oracle call of its
    # own, which the pipeline skips when a search of the run already
    # answered the input question
    t0 = time.perf_counter()
    code, lines = _check(tmp_path, "pipeline-vs-oracle", "--seed", "9000", "-n", "500")
    dt = time.perf_counter() - t0
    m = re.fullmatch(r"PASS  pipeline-vs-oracle: (\d+) completed, (\d+) capped, "
                     r"0 disagreements", lines[-1])
    completed, capped = map(int, m.groups()) if m else (0, 0)
    _report(9, code == 0 and m is not None and completed > 0 and completed + capped == 500,
            f"{completed}/500 pipeline runs completed, {capped} hit caps, "
            f"0 disagreements with the oracle, {dt:.1f}s")


def test_criterion_10_replacement_experiment():
    phi_nb = GaifmanSentence((BasicSentence(1, 1, parse_formula("exists y. adj(x,y)")),),
                             parse_combination("1"))
    cfg = PipelineConfig(rho_hat=2, d_hat=2, q_hat=11)
    checked = 0
    ok = True
    for op in (Operation.VR, Operation.ER, Operation.EC):
        params = compute_parameters(1, phi_nb, cfg)
        wall = make_elementary_wall(11)
        g = wall.graph
        r_set = g.vertices
        out = find_vertex(1, g, r_set, wall, op, phi_nb, params, cfg)
        before = is_triple(g, r_set, 1, op, phi_nb)
        after = is_triple(g.remove_vertices([out.vertex]),
                          frozenset(r_set) - out.region, 1, op, phi_nb)
        ok = ok and before == after
        checked += 1
    _report(10, ok and checked >= 3,
            f"{checked} crafted symmetric wall instances: is_triple(G,R,k) == "
            f"is_triple(G-v, R-X, k) exhaustively")
