"""planmod benchmark: decide one workload's instances and report its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. A closed loop with one client and no threads decides one
instance at a time, starting each on cold caches, as a fresh `planmod solve`
process would, and checks every answer against a reference that does not come
from the pipeline.

--trace 0 decides the instances round-robin until --seconds have passed,
completing at least one full pass, and reports the end-to-end metrics. Their
times are scaled to a reference machine speed measured alongside them (see
`calibrate.py`).
--trace 1 makes one untraced and one traced pass, reports per-layer counts
and times plus the tracing overhead, and writes the spans to
`.perfbench_out/`. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9

# Import and generate a workload in a fresh interpreter, sampling the
# machine's speed throughout; print the seconds as measured and calibrated.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[2])
import calibrate
calibrate.measure()
with calibrate.Clock(every=0.05) as clock:
    start = clock.start()
    t0 = clock.now()
    sys.path.insert(0, sys.argv[1])
    import workloads
    workloads.build(sys.argv[3], int(sys.argv[4]))
    clock.record("setup", clock.now() - t0, start)
print(clock.measured()["setup"][0], clock.scaled()["setup"][0])
"""


def _use_checkout_source():
    if not (SRC / "planmod" / "__init__.py").is_file():
        sys.exit(f"no planmod sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import planmod
    if Path(planmod.__file__).resolve().parent != SRC / "planmod":
        sys.exit(f"imported planmod from {planmod.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds to import planmod and generate the workload, over
    SETUP_SAMPLES fresh interpreters, each at the reference speed of its own
    calibration."""
    raw, calibrated = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        measured, scaled = map(float, done.stdout.split()[-2:])
        raw.append(measured)
        calibrated.append(scaled)
    print(f"setup: median {statistics.median(raw):.6f} s as measured, "
          f"{statistics.median(calibrated):.6f} s at the reference speed")
    return statistics.median(calibrated)


def p98(values: list) -> float | None:
    """The p98 when at least ten values lie beyond it, else None."""
    ordered = sorted(values)
    beyond = len(ordered) // 50
    return ordered[-1 - beyond] if beyond >= 10 else None


class Runner:
    """Decides cases one at a time, each on cold caches."""

    def __init__(self, cfg, cases):
        from planmod import planarity, solver
        from planmod.errors import ResourceLimitError, SoundnessError
        self.cfg = cfg
        self.cases = cases
        self.solver = solver
        self.failures = (ResourceLimitError, SoundnessError)
        self.is_planar = planarity.is_planar
        # every memo in the package, so no instance inherits another's work
        self.caches = list({id(fn): fn for name, mod in sys.modules.items()
                            if name.startswith("planmod.")
                            for fn in vars(mod).values()
                            if hasattr(fn, "cache_clear")}.values())
        self.attempted = 0
        self.failed = 0

    def decide(self, case, now=time.perf_counter) -> float:
        for cache in self.caches:
            cache.cache_clear()
        t0 = now()
        try:
            answer = self.solver.solve_pipeline(case.instance, self.cfg).answer
        except self.failures as exc:
            answer = None
            print(f"FAILED {case.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = now() - t0
        self.attempted += 1
        if answer != case.expect:
            self.failed += 1
            if answer is not None:
                print(f"WRONG {case.label}: answered {answer}, reference {case.expect}",
                      file=sys.stderr)
        return seconds

    def one_pass(self) -> list:
        return [self.decide(case) for case in self.cases]

    def until(self, seconds: float) -> tuple:
        """Round-robin until `seconds` have passed and every case ran once.
        Returns each case's mean time at the reference speed and the
        calibration clock. A mean, not the fastest, so that a case that ran
        twice weighs no less than one that ran once."""
        deadline = time.perf_counter() + seconds
        i = 0
        with calibrate.Clock() as clock:
            while i < len(self.cases) or time.perf_counter() < deadline:
                idx = i % len(self.cases)
                start = clock.start()
                clock.record(idx, self.decide(self.cases[idx], clock.now), start)
                i += 1
        scaled = clock.scaled()
        return [statistics.fmean(scaled[idx]) for idx in range(len(self.cases))], clock


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    """Times in seconds at the reference speed of `calibrate`: the speed of a
    shared machine drifts by more than any bound allows."""
    times, clock = runner.until(seconds)
    measured = sum(statistics.fmean(repeats) for repeats in clock.measured().values())
    print(f"elapsed: {measured:.6f} s as measured; machine at {clock.speed():.4f}x "
          f"the reference time, median of {len(clock.samples)} calibrations")
    # printed, not gated: the wall workloads are too small for a p98, and
    # their median is one instance's time, whose spread over ten runs reached
    # half the largest bound allowed
    print(f"verdict_p50_ms {statistics.median(times) * 1000:.6f} ms "
          f"(over {len(times)} instances)")
    tail = p98(times)
    if tail is not None:
        print(f"verdict_p98_ms {tail * 1000:.6f} ms "
              f"(over {len(times)} instances, {len(times) // 50} beyond it)")
    return {
        "setup_s": (setup_s, "s"),
        "elapsed_s": (sum(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(runner: Runner) -> tuple:
    """(Recorder, traced seconds) for one pass with every layer wrapped."""
    rec = spans.Recorder()
    traced = 0.0
    with rec.patched():
        for idx, case in enumerate(runner.cases):
            rec.current_instance = idx
            traced += runner.decide(case)
            info = runner.is_planar.cache_info()
            rec.counts["planarity.is_planar.hits"] += info.hits
            rec.counts["planarity.is_planar.misses"] += info.misses
    return rec, traced


def per_layer(runner: Runner, workload: str, seed: int) -> tuple:
    """(metrics, whether the spans account for the traced time)."""
    untraced = sum(runner.one_pass())
    rec, traced = traced_pass(runner)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"spans-{workload}-seed{seed}.json")

    metrics = rec.metrics()
    overhead = traced - untraced
    metrics["trace.overhead_s"] = (overhead, "s")

    # the self times partition the top-level spans, which should cover the
    # timed decisions up to the cost of tracing (or 1% when that is noise)
    accounted = sum(own for _, _, own in rec.totals().values())
    unaccounted = traced - accounted
    accounts = abs(unaccounted) <= max(abs(overhead), 0.01 * traced)
    print(f"traced pass {traced:.4f} s, untraced {untraced:.4f} s, "
          f"trace.overhead_s {overhead:.4f}, self times sum to {accounted:.4f} s"
          + ("" if accounts else " (MISMATCH: the spans do not account for the time)"))
    return dict(sorted(metrics.items())), accounts


def report(workload: str, seed: int, runner: Runner, metrics: dict, correct: bool):
    print(f"workload {workload}, seed {seed}: {len(runner.cases)} instances, "
          f"{runner.attempted} decisions, {runner.failed} failed "
          f"(failed_frac {runner.failed / runner.attempted:.4f})")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:52s} {shown:>16s} {unit}")
    print(json.dumps({
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    _use_checkout_source()
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    cfg, cases = workloads.build(args.workload, args.seed)
    runner = Runner(cfg, cases)
    gc.collect()
    gc.freeze()  # the generated cases stay out of the collector's way
    if args.trace:
        metrics, accounts = per_layer(runner, args.workload, args.seed)
    else:
        metrics, accounts = end_to_end(runner, args.seconds, setup_s), True
    report(args.workload, args.seed, runner, metrics, accounts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
