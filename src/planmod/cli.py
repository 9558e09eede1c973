"""Command-line front end: instance I/O, generators, solve/check/bench, and
deterministic JSON reports.

Exit codes for solve: 0 = YES, 1 = NO, 2 = error or cap exceeded. Reports are
byte-identical for identical (instance, config, seed); wall-clock timings are
only included when --timings is passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from .config import CAPS, PipelineConfig
from .errors import InputError, ResourceLimitError, SoundnessError
from .fixtures import (TRIVIALLY_TRUE, crafted_sig_instances, fixed_sentences,
                       random_annotated, random_graph, random_instances,
                       shipped_local_formulas)
from .graphs import Graph, complete_graph, disjoint_union, k5_star, make_grid, \
    make_triangulated_grid
from .logic import (GaifmanSentence, eval_gaifman, eval_gaifman_expanded,
                    parse_formula, verify_locality)
from .modification import Operation
from .annuli import glue_equivalence, random_separator
from .sigoracle import char_oracle
from .signatures import compute_char
from .solver import Instance, PipelineResult, solve_oracle, solve_pipeline
from .treewidth import (exact_treewidth, exact_treewidth_bb,
                        validate_decomposition)
from .walls import extended_compass, make_elementary_wall, subdivide_wall


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> PipelineConfig:
    kwargs = {}
    for name in ("c1", "c2", "rho_hat", "w_hat", "q_hat", "d_hat"):
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    if getattr(args, "size_mode", None):
        kwargs["size_mode"] = args.size_mode.replace("-", "_")
    if getattr(args, "no_cross_check", False):
        kwargs["cross_check"] = False
    for cap in CAPS:
        val = getattr(args, cap, None)
        if val is not None:
            kwargs[cap] = val
    return PipelineConfig(**kwargs)


def _load_sentence(args):
    if args.gaifman:
        with open(args.gaifman) as fh:
            return GaifmanSentence.from_json(fh.read())
    if args.phi is not None:
        if args.phi.strip() == "true":
            # "true" runs under both engines as a trivial Gaifman sentence
            return TRIVIALLY_TRUE
        return parse_formula(args.phi)
    raise InputError("needs --phi or --gaifman")


# -- solve -------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    with open(args.instance) as fh:
        g = Graph.from_json(fh.read())
    r_set = None
    if args.annotated:
        with open(args.annotated) as fh:
            r_set = frozenset(json.load(fh))
    phi = _load_sentence(args)
    op = Operation.parse(args.op)
    inst = Instance(g, args.k, op, phi, r_set)
    mode = "oracle" if args.oracle else "pipeline"
    t0 = time.perf_counter()
    if args.oracle:
        answer, witness = solve_oracle(inst, cfg, want_witness=True)
        result = PipelineResult(answer, witness)
    else:
        if not isinstance(phi, GaifmanSentence):
            raise InputError("the pipeline needs --gaifman (or --phi true); "
                             "use --oracle for plain formulas")
        result = solve_pipeline(inst, cfg)
    elapsed = (time.perf_counter() - t0) * 1000
    phi_obj = phi.to_json_obj() if isinstance(phi, GaifmanSentence) else str(phi)
    instance_obj = {"n": len(g.vertices), "m": len(g.edges),
                    "op": op.value, "k": args.k,
                    "digest": _digest({"graph": g.to_json_obj(),
                                       "op": op.value, "k": args.k,
                                       "r_set": sorted(r_set) if r_set else None,
                                       "phi": phi_obj})}
    report = {
        "instance": instance_obj,
        "phi": phi_obj,
        "config": cfg.to_json_obj(),
        "seed": args.seed,
        "mode": mode,
        "answer": "yes" if result.answer else "no",
        "witness": result.witness.to_json_obj() if result.witness else None,
        "trace": result.trace_json_obj(args.timings),
        "cross_checked": result.cross_checked,
    }
    if args.timings:
        report["timings"] = {"total_ms": round(elapsed, 3)}
    _write_out(_canonical(report), args.out)
    return 0 if result.answer else 1


# -- gen ----------------------------------------------------------------------------

def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    kind = args.kind
    if kind == "wall":
        wall = make_elementary_wall(args.height)
        if args.subdivide:
            wall = subdivide_wall(wall, rng=rng, max_extra=args.subdivide)
        g = wall.graph
    elif kind == "tri-grid":
        g, _ = make_triangulated_grid(args.k)
    elif kind == "grid":
        g = make_grid(args.rows, args.cols).graph
    elif kind == "k5star":
        g, _ = k5_star(args.r)
    elif kind == "complete":
        g = complete_graph(args.n)
    elif kind == "two-k5":
        g = disjoint_union(complete_graph(5), complete_graph(5, offset=5))
    elif kind == "random":
        g = random_graph(rng, args.n, args.p)
    else:
        raise InputError(f"unknown generator {kind!r}")
    if args.dot:
        _write_out(g.to_dot() + "\n", args.out)
    else:
        _write_out(_canonical(g.to_json_obj()), args.out)
    return 0


# -- check -------------------------------------------------------------------------

def _suite_locality(seed: int, count: int, report):
    rng = random.Random(seed)
    pairs_target = count
    formulas = shipped_local_formulas()
    ok = True
    for psi, r in formulas:
        corpus = []
        pairs = 0
        while pairs < pairs_target:
            g, r_set = random_annotated(rng, 6)
            corpus.append((g, r_set))
            pairs += len(g.vertices)
        good = verify_locality(corpus, psi, r)
        report(f"locality[{psi}] r={r}: {pairs} pairs", good)
        ok = ok and good
    return ok


def _suite_gluing(seed: int, count: int, report):
    ok = 0
    for i in range(count):
        sep = random_separator(seed * 1000 + i)
        g, gin, gout = glue_equivalence(sep)
        if g == (gin and gout):
            ok += 1
    report(f"gluing: {ok}/{count} equivalences", ok == count)
    return ok == count


def _suite_scattered(seed: int, count: int, report):
    rng = random.Random(seed)
    sentences = fixed_sentences()
    bad = 0
    for i in range(count):
        g, r_set = random_annotated(rng, 7)
        name, phi = sentences[i % len(sentences)]
        if eval_gaifman(g, r_set, phi) != eval_gaifman_expanded(g, r_set, phi):
            bad += 1
    report(f"scattered/gaifman agreement: {count - bad}/{count}", bad == 0)
    return bad == 0


def _suite_decomposition(seed: int, count: int, report):
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.choice((0.25, 0.4, 0.6)))
        tw, td = exact_treewidth(g)
        if tw != exact_treewidth_bb(g) or not validate_decomposition(g, td):
            bad += 1
    report(f"decomposition: {count - bad}/{count} agree and validate", bad == 0)
    return bad == 0


def _suite_sig_oracle(seed: int, count: int, report):
    ok = True
    cases = crafted_sig_instances()
    for case in cases:
        ec = extended_compass(case["graph"], case["wall"], case["params"].rho)
        mine = compute_char(case["graph"], case["wall"], case["r_set"], case["op"],
                            case["k"], case["phi"], case["params"], case["cfg"], ec=ec)
        orc = char_oracle(case["graph"], ec, case["r_set"], case["op"],
                          case["k"], case["phi"], case["params"], case["cfg"])
        good = mine.canonical_json() == orc.canonical_json()
        ok = ok and good
        if not good:
            report(f"sig-oracle {case['name']}", False)
    report(f"sig-oracle: {len(cases)} crafted instances byte-equal", ok)
    return ok


def _suite_pipeline(seed: int, count: int, report):
    cfg = PipelineConfig()
    done = 0
    capped = 0
    disagreements = 0
    for g, k, op, phi, name in random_instances(seed, count):
        try:
            solve_pipeline(Instance(g, k, op, phi), cfg)
            done += 1
        except ResourceLimitError:
            capped += 1
        except SoundnessError:
            disagreements += 1
    good = disagreements == 0
    report(f"pipeline-vs-oracle: {done} completed, {capped} capped, "
           f"{disagreements} disagreements", good)
    return good


SUITES = {
    "locality": (_suite_locality, 300),
    "gluing": (_suite_gluing, 100),
    "scattered": (_suite_scattered, 60),
    "decomposition": (_suite_decomposition, 60),
    "sig-oracle": (_suite_sig_oracle, 1),
    "pipeline-vs-oracle": (_suite_pipeline, 120),
}


def cmd_check(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    budget = None
    if args.budget:
        budget = float(args.budget.rstrip("s"))
    lines = []

    def report(text, good):
        lines.append(f"{'PASS' if good else 'FAIL'}  {text}")

    started = time.perf_counter()
    all_ok = True
    for name in names:
        fn, default_n = SUITES[name]
        n = args.n or default_n
        try:
            good = fn(args.seed, n, report)
        except SoundnessError as exc:
            report(f"{name}: soundness violation: {exc}", False)
            good = False
        all_ok = all_ok and good
        if budget and time.perf_counter() - started > budget:
            lines.append(f"NOTE  budget {args.budget} exhausted after {name}")
            break
    out = "\n".join(lines) + "\n"
    _write_out(out, args.out)
    return 0 if all_ok else 1


# -- bench -------------------------------------------------------------------------

def _clear_caches():
    """Empty every memo in the package, so that no engine is timed on the
    planarity tests and wall structures another engine already computed."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("planmod."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def cmd_bench(args) -> int:
    cfg_checked = PipelineConfig()
    cfg_fast = PipelineConfig(cross_check=False)
    rows = []
    for g, k, op, phi, name in random_instances(args.seed, args.n):
        inst = Instance(g, k, op, phi)
        _clear_caches()
        t0 = time.perf_counter()
        oracle_ans = solve_oracle(inst, cfg_checked)
        oracle_ms = (time.perf_counter() - t0) * 1000
        _clear_caches()
        t1 = time.perf_counter()
        try:
            fast = solve_pipeline(inst, cfg_fast)
            pipe_ans, pipe_ms = fast.answer, (time.perf_counter() - t1) * 1000
        except ResourceLimitError:
            pipe_ans, pipe_ms = None, float("nan")
        rows.append((f"{op.value} k={k} n={len(g.vertices)} {name}",
                     oracle_ans, oracle_ms, pipe_ans, pipe_ms))
    header = f"{'instance':44s} {'oracle':>7s} {'ms':>8s} {'pipeline':>9s} {'ms':>8s} agree"
    lines = [header, "-" * len(header)]
    for label, oans, oms, pans, pms in rows:
        agree = "-" if pans is None else ("yes" if oans == pans else "NO")
        lines.append(f"{label:44s} {str(oans):>7s} {oms:8.1f} {str(pans):>9s} {pms:8.1f} {agree}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


# -- argument parsing -----------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--c1", type=int, default=None)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--rho-hat", dest="rho_hat", type=int, default=None)
    p.add_argument("--w-hat", dest="w_hat", type=int, default=None)
    p.add_argument("--q-hat", dest="q_hat", type=int, default=None)
    p.add_argument("--d-hat", dest="d_hat", type=int, default=None)
    p.add_argument("--size-mode", choices=("at-most", "exact"), default=None)
    p.add_argument("--no-cross-check", action="store_true",
                   help="skip oracle verification (unsound; benchmarking only)")
    for cap in CAPS:
        p.add_argument(f"--{cap.replace('_', '-')}", dest=cap, type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planmod",
        description="Can at most k modification operations make the graph "
                    "planar and a model of the sentence?")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="decide one instance")
    ps.add_argument("instance", help="graph JSON file")
    ps.add_argument("--op", required=True, help="vr, er, ec or ea")
    ps.add_argument("-k", type=int, required=True)
    ps.add_argument("--phi", default=None, help="plain formula text (oracle) or 'true'")
    ps.add_argument("--gaifman", default=None, help="Gaifman sentence JSON file")
    ps.add_argument("--annotated", default=None, help="JSON list of annotated vertices")
    ps.add_argument("--oracle", action="store_true", help="brute force instead of the pipeline")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--timings", action="store_true")
    ps.add_argument("--out", default=None)
    _add_config_flags(ps)
    ps.set_defaults(fn=cmd_solve)

    pg = sub.add_parser("gen", help="write a generated instance")
    pg.add_argument("kind", choices=("wall", "tri-grid", "grid", "k5star",
                                     "complete", "two-k5", "random"))
    pg.add_argument("--height", type=int, default=7, help="wall height (odd)")
    pg.add_argument("--subdivide", type=int, default=0,
                    help="max subdivision vertices per wall edge")
    pg.add_argument("-k", type=int, default=5, help="triangulated grid side")
    pg.add_argument("--rows", type=int, default=6)
    pg.add_argument("--cols", type=int, default=6)
    pg.add_argument("-r", type=int, default=3, help="K4 copies for k5star")
    pg.add_argument("-n", type=int, default=8, help="vertices for complete/random")
    pg.add_argument("-p", type=float, default=0.4, help="edge probability for random")
    pg.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=cmd_gen)

    pc = sub.add_parser("check", help="run a property battery")
    pc.add_argument("suite", choices=tuple(SUITES) + ("all",))
    pc.add_argument("--seed", type=int, default=7)
    pc.add_argument("-n", type=int, default=None, help="override the unit count")
    pc.add_argument("--budget", default=None, help="wall-clock budget like 60s")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_check)

    pb = sub.add_parser("bench", help="oracle vs pipeline timings")
    pb.add_argument("--seed", type=int, default=7)
    pb.add_argument("-n", type=int, default=20)
    pb.add_argument("--out", default=None)
    pb.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print(f"soundness violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
