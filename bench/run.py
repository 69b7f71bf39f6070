"""Run one benchmark workload against the finalg sources of this checkout.

    python3 bench/run.py --workload sharpness --seed 1 --seconds 28 --trace 0

The run imports finalg from `src/` (and fails without it), imports it and
builds the workload's inputs three times each, then repeats whole rounds of
the workload's operations until the next round would end past `--seconds`;
at least two rounds run.  Each operation's verdict is timed, scaled to
nominal machine speed with the calibration loops around it (`calibrate`),
and then checked independently.  The last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`wall_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` the last set-up is traced, rounds alternate
untraced and traced, and the metrics are the per-layer figures of set-up
plus traced round, the tracing overhead and the spans' coverage.  The traced
run's spans are written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
#: time of one `calibrate()` loop at the speed all figures are scaled to
NOMINAL_S = 1e-3


def calibrate() -> float:
    """Fastest of three runs of a fixed interpreter loop, about 1 ms each.

    The machine's speed drifts by a fifth and more over tens of seconds, as
    other tenants load it; a time divided by the loop's time just before and
    after it no longer carries that drift.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i & 7
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """A measured time at nominal speed, from the loops around it."""
    return seconds * NOMINAL_S / ((before + after) / 2)


def _import_program():
    """Import finalg from this checkout's src/, SETUP_REPEATS times over.

    Returns (finalg, numpy, workloads, the import times of finalg, each as
    (seconds, calibration before, calibration after)).  numpy is imported
    once beforehand and is not part of finalg's import time.
    """
    # one BLAS thread: the checks' matrix products stay off the second core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import numpy

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "finalg" or n.startswith("finalg.")]:
            del sys.modules[name]
        before = calibrate()
        began = time.perf_counter()
        try:
            import finalg.certificates
        except ImportError as exc:
            sys.exit(f"bench: cannot import finalg from {src}: {exc}")
        times.append((time.perf_counter() - began, before, calibrate()))
    if not os.path.abspath(finalg.__file__).startswith(src + os.sep):
        sys.exit(f"bench: finalg was imported from {finalg.__file__}, not {src}")
    import workloads
    return finalg, numpy, workloads, times


def machine_facts(numpy) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


class Rounds:
    """Per-operation verdict times and failures over the rounds of a run."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]      # measured seconds
        self.scaled = [[] for _ in ops]     # seconds at nominal speed
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.unexpected: set[str] = set()
        self.count = 0

    def run(self) -> tuple[float, float]:
        """One round; returns its summed verdict time, as measured and at
        nominal speed."""
        verdict_s = nominal_s = 0.0
        before = calibrate()
        for k, op in enumerate(self.ops):
            start = time.perf_counter()
            try:
                result, problems = op.verdict(), []
            except Exception as exc:  # a raising verdict is a failed operation
                result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            spent = time.perf_counter() - start
            after = calibrate()
            self.times[k].append(spent)
            self.scaled[k].append(scaled(spent, before, after))
            verdict_s += spent
            nominal_s += self.scaled[k][-1]
            before = after
            if not problems:
                try:
                    problems = op.check(result)
                except Exception as exc:  # a malformed answer fails its check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.failures.setdefault(op.name, "; ".join(problems))
                if not op.known_fault:
                    self.unexpected.add(op.name)
        self.count += 1
        return verdict_s, nominal_s

    def wall_s(self, times=None) -> float:
        """Summed verdict time of one round, each operation at its median
        over the rounds; at nominal speed unless other times are given."""
        return sum(statistics.median(t) for t in (times or self.scaled))


def run_rounds(step, seconds: float, min_rounds: int = MIN_ROUNDS) -> int:
    """Call step() until another round would end past `seconds`."""
    start = time.perf_counter()
    lengths = []
    while True:
        began = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(lengths) >= min_rounds and elapsed + statistics.median(lengths) > seconds:
            return len(lengths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    finalg, numpy, workloads, imports = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    try:
        builds = []
        for repeat in range(SETUP_REPEATS):
            if tracer and repeat == SETUP_REPEATS - 1:
                tracer.install(finalg)
            before = calibrate()
            began = time.perf_counter()
            try:
                ops = setup(random.Random(args.seed), workdir)
            finally:
                builds.append((time.perf_counter() - began, before, calibrate()))
                if tracer:
                    tracer.uninstall()
        setup_s = (statistics.median(scaled(*t) for t in imports)
                   + statistics.median(scaled(*t) for t in builds))
        raw_setup_s = (statistics.median(t[0] for t in imports)
                       + statistics.median(t[0] for t in builds))

        rounds = Rounds(ops)
        round_s = []
        summary = {"workload": args.workload, "seed": args.seed,
                   "machine": machine_facts(numpy), "operations": len(ops),
                   "import_s": [t[0] for t in imports],
                   "setup_builds_s": [t[0] for t in builds],
                   "measured_setup_s": raw_setup_s}
        if tracer:
            metrics = traced_run(finalg, tracer, rounds, args, summary)
        else:
            run_rounds(lambda: round_s.append(rounds.run()[0]), args.seconds)
            summary.update(round_s=round_s, measured_wall_s=rounds.wall_s(rounds.times))
            metrics = {
                "wall_s": {"value": rounds.wall_s(), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary.update(rounds=rounds.count, failures=rounds.failures,
                   unexpected_failures=sorted(rounds.unexpected))
    print(json.dumps(summary))
    print(json.dumps({"correct": not rounds.unexpected,
                      "attempted": len(ops) * rounds.count,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


def traced_run(finalg, tracer, rounds: Rounds, args, summary: dict) -> dict:
    """Untraced and traced rounds in turn.

    The tracer holds the spans of the last set-up; each traced round's spans
    follow them, and every per-layer figure is the median over traced rounds
    of set-up plus round.
    """
    from spans import layer_metrics

    setup_spans = len(tracer.spans)
    plain, traced, per_round, coverage = [], [], [], []

    def pair():
        plain.append(rounds.run())
        del tracer.spans[setup_spans:]
        tracer.install(finalg)
        try:
            traced.append(rounds.run())
        finally:
            tracer.uninstall()
        per_round.append(layer_metrics(tracer.spans))
        top = sum(s[3] - s[2] for s in tracer.spans[setup_spans:] if s[4] < 0)
        coverage.append(top / traced[-1][0])

    run_rounds(pair, args.seconds, min_rounds=1)
    tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    summary.update(untraced_round_s=[t[0] for t in plain],
                   traced_round_s=[t[0] for t in traced])
    metrics = {}
    for name in per_round[0]:
        value = statistics.median(r[name] for r in per_round)
        unit = ("1/s" if name.endswith("_per_s") else "s" if name.endswith(("_s", ".s"))
                else "count")
        metrics[name] = {"value": value, "unit": unit}
    # at nominal speed, like wall_s, so drift between the rounds cancels
    untraced_s = statistics.median(t[1] for t in plain)
    overhead = statistics.median(t[1] for t in traced) - untraced_s
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead / untraced_s, "unit": "ratio"}
    metrics["trace.span_coverage"] = {"value": min(coverage), "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
