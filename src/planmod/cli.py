"""Command-line front end: instance I/O, generators, solve/check, and
deterministic JSON reports.

Exit codes for solve: 0 = YES, 1 = NO, 2 = error or cap exceeded. Reports are
byte-identical for identical (instance, config); wall-clock timings are only
included when --timings is passed.
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
from .graphs import complete_graph, disjoint_union, k5_star, load_graph, make_grid, \
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


def _read_json(path: str):
    """The JSON value in the file at `path`; unreadable files, malformed
    JSON and JSON nested past Python's recursion limit are input errors."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"cannot read {path}: JSON nested too deeply") from exc


# the config fields set by one integer flag each
INT_FIELDS = ("rho_hat", "q_hat", "d_hat") + CAPS


def _config_from_args(args) -> PipelineConfig:
    kwargs = {name: getattr(args, name) for name in INT_FIELDS
              if getattr(args, name, None) is not None}
    if getattr(args, "size_mode", None):
        kwargs["size_mode"] = args.size_mode.replace("-", "_")
    if getattr(args, "no_cross_check", False):
        kwargs["cross_check"] = False
    return PipelineConfig(**kwargs)


def _load_annotation(path: str, ids: list) -> frozenset:
    """The annotation set R in the file at `path`: a JSON list of input
    vertex ids, each naming a vertex by an id of the same type, none
    repeated. Vertex i has the input id `ids[i]`."""
    names = _read_json(path)
    if not isinstance(names, list) or any(isinstance(v, (list, dict)) for v in names):
        raise InputError(f"{path} must hold a JSON list of vertex ids")
    index = {v: i for i, v in enumerate(ids)}
    # true == 1 == 1.0 in Python, so such ids would silently name vertex 1
    if len(set(names)) != len(names) or any(
            v in index and type(v) is not type(ids[index[v]]) for v in names):
        raise InputError(f"{path}: repeated or colliding vertex ids")
    if not index.keys() >= set(names):
        raise InputError("annotation set contains unknown vertices")
    return frozenset(index[v] for v in names)


def _named(x, ids: list):
    """x in input ids: a vertex by its id, and a list or tuple of vertices,
    at any depth, as a list."""
    return [_named(y, ids) for y in x] if isinstance(x, (list, tuple)) else ids[x]


def _load_sentence(args):
    if args.gaifman:
        return GaifmanSentence.from_json_obj(_read_json(args.gaifman))
    if args.phi is not None:
        if args.phi.strip() == "true":
            # "true" runs under both engines as a trivial Gaifman sentence
            return TRIVIALLY_TRUE
        return parse_formula(args.phi)
    raise InputError("needs --phi or --gaifman")


# -- solve -------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    # the core sees the vertices 0..n-1; the report names the input ids
    g, ids = load_graph(_read_json(args.instance))
    r_set = None if args.annotated is None else _load_annotation(args.annotated, ids)
    phi = _load_sentence(args)
    op = Operation.parse(args.op)
    inst = Instance(g, args.k, op, phi, r_set)
    t0 = time.perf_counter()
    if args.oracle:
        answer, witness = solve_oracle(inst, cfg, want_witness=True)
        result = PipelineResult(answer, witness)
    else:
        result = solve_pipeline(inst, cfg)
    elapsed = (time.perf_counter() - t0) * 1000
    phi_obj = phi.to_json_obj() if isinstance(phi, GaifmanSentence) else str(phi)
    # ids is sorted and the relabelling monotone, so named lists stay sorted
    instance_obj = {"n": len(g.vertices), "m": len(g.edges),
                    "op": op.value, "k": args.k,
                    "digest": _digest({"graph": {"vertices": ids,
                                                 "edges": _named(g.sorted_edges(), ids)},
                                       "op": op.value, "k": args.k,
                                       "r_set": None if r_set is None
                                       else _named(sorted(r_set), ids),
                                       "phi": phi_obj})}
    for step in result.trace:  # this run's own trace
        if "vertex" in step.detail:
            step.detail["vertex"] = ids[step.detail["vertex"]]
    report = {
        "instance": instance_obj,
        "phi": phi_obj,
        "config": cfg.to_json_obj(),
        "mode": "oracle" if args.oracle else "pipeline",
        "answer": "yes" if result.answer else "no",
        "witness": None if result.witness is None else {
            "op": result.witness.op.value,
            "elements": _named(result.witness.sorted_elements(), ids)},
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
        _, phi = sentences[i % len(sentences)]
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
        args = (ec, case["r_set"], case["op"], case["k"], case["phi"],
                case["params"], case["cfg"])
        mine, orc = compute_char(*args), char_oracle(*args)
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
    for g, k, op, phi, _ in random_instances(seed, count):
        inst = Instance(g, k, op, phi)
        # the pipeline raises when a step check fails; its answer is also
        # compared with an oracle call of this suite's own
        try:
            answer = solve_pipeline(inst, cfg).answer
            expect = solve_oracle(inst, cfg)
        except ResourceLimitError:
            capped += 1
            continue
        except SoundnessError:
            disagreements += 1
            continue
        done += 1
        disagreements += answer != expect
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
    lines = []

    def report(text, good):
        lines.append(f"{'PASS' if good else 'FAIL'}  {text}")

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
    out = "\n".join(lines) + "\n"
    _write_out(out, args.out)
    return 0 if all_ok else 1


# -- argument parsing -----------------------------------------------------------------

def _positive(text: str) -> int:
    """A positive integer."""
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return n


def _add_config_flags(p: argparse.ArgumentParser):
    for name in INT_FIELDS:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int, default=None)
    p.add_argument("--size-mode", choices=("at-most", "exact"), default=None)
    p.add_argument("--no-cross-check", action="store_true",
                   help="skip oracle verification (unsound; benchmarking only)")


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
    pc.add_argument("-n", type=_positive, default=None, help="override the unit count")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
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
