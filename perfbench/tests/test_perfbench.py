"""Self-tests for the benchmark: bindings, references, determinism of the
traced counts, and the zeros the layer table predicts.

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from planmod.fixtures import random_instances  # noqa: E402
from planmod.solver import Instance, solve_oracle  # noqa: E402


def _cases(workload, *labels):
    cfg, cases = workloads.build(workload, 1)
    picked = [c for c in cases if c.label in labels]
    assert len(picked) == len(labels)
    return run.Runner(cfg, picked)


def _counts(rec):
    return {name: value for name, (value, unit) in rec.metrics().items()
            if unit == "count"}


def test_every_patched_binding_exists():
    for _, _, mod, fn, original in spans.bindings():
        assert getattr(mod, fn, None) is original, f"{mod.__name__}.{fn} is not bound"


def test_patching_is_undone():
    pairs = [(mod, fn) for _, _, mod, fn, _ in spans.bindings()]
    before = [getattr(mod, fn) for mod, fn in pairs]
    with spans.Recorder().patched():
        assert all(getattr(mod, fn) is not orig for (mod, fn), orig in zip(pairs, before))
    assert [getattr(mod, fn) for mod, fn in pairs] == before


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    layer = set(spans.Recorder().metrics()) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    runner = _cases("stream", workloads.build("stream", 1)[1][0].label)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.end_to_end(runner, 0, 1.0))


def test_stream_answers_are_the_oracle_answers():
    stream = random_instances(workloads.STREAM_SEED, workloads.STREAM_SIZE)
    got = "".join("1" if solve_oracle(Instance(g, k, op, phi)) else "0"
                  for g, k, op, phi, _ in stream)
    assert got == workloads.STREAM_ANSWERS


def test_generator_steps_are_timed_but_the_consumer_is_not():
    rec = spans.Recorder()

    def slow(n):
        for i in range(n):
            time.sleep(0.01)
            yield i

    traced = rec.wrap_gen("toy.slow", slow)
    for _ in traced(3):
        time.sleep(0.05)  # consumer work between steps
    calls, incl, own = rec.totals()["toy.slow"]
    assert calls == 4  # three items and the step that ends the generator
    assert rec.counts["toy.slow.calls"] == 1 and rec.counts["toy.slow.yielded"] == 3
    assert 0.03 <= incl < 0.15 and own == incl


def test_is_triple_calls_split_into_final_and_verify():
    rec, _ = run.traced_pass(_cases("wall-checked", "7-wall vr isolated"))
    counts = _counts(rec)
    assert counts["signatures.is_triple.final.calls"] == 1
    assert counts["signatures.is_triple.verify.calls"] >= 2


def test_traced_counts_repeat_exactly():
    def once():
        cfg, cases = workloads.build("stream", 1)
        runner = run.Runner(cfg, cases[:60])
        rec, _ = run.traced_pass(runner)
        walls, _ = run.traced_pass(_cases("wall-unchecked", "7-wall er isolated"))
        return _counts(rec), _counts(walls)

    assert once() == once()


def test_self_times_partition_the_top_level_spans():
    cfg, cases = workloads.build("stream", 2)
    rec, traced = run.traced_pass(run.Runner(cfg, cases[:40]))
    incl, own = rec.durations()
    top = sum(d for d, p in zip(incl, rec.parent) if p < 0)
    assert abs(sum(own) - top) < 1e-6
    assert top <= traced


def test_predicted_zeros_hold_on_the_wall_workloads():
    checked, _ = run.traced_pass(_cases("wall-checked", "7-wall vr isolated",
                                        "7-wall ea has-neighbour"))
    unchecked, _ = run.traced_pass(_cases("wall-unchecked", "7-wall vr isolated",
                                          "subdivided 9-wall vr has-neighbour"))
    for rec in (checked, unchecked):
        assert _counts(rec)["solver.has_k5_star_minor.calls"] == 0
    assert _counts(unchecked)["signatures.is_triple.verify.calls"] == 0
    assert _counts(unchecked)["solver.solve_oracle.calls"] == 0
    assert _counts(unchecked)["walls.wall_candidates.yielded"] > 0


def test_clock_stops_while_it_samples_and_scales_by_its_samples():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Clock(every=0.02) as clock:
        wall = time.perf_counter()
        start = clock.start()
        t0 = clock.now()
        for _ in range(10):  # Python code, which a signal can interrupt
            calibrate.work()
        clock.record("x", clock.now() - t0, start)
        wall = time.perf_counter() - wall
    assert signal.getsignal(signal.SIGALRM) is handler
    inside = clock.samples[1:-1]  # the first and last bracket the timing
    assert len(inside) >= 2
    (measured,), (scaled,) = clock.measured()["x"], clock.scaled()["x"]
    assert measured <= wall - sum(inside)
    used = measured * calibrate.REFERENCE_S / scaled  # the mean calibration applied
    assert min(clock.samples) <= used <= max(clock.samples)
