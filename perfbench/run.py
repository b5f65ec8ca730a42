"""oegap benchmark: times the class searches, the partition scans and plain evaluation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload class-chain --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload's operations until ``--seconds`` have
passed, checks every result, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run times untraced rounds for half the time, then traced rounds for the
other half, and reports the per-layer metrics and the tracing overhead.
Results and traces go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("class-chain", "partition-scan", "evaluate")
SETUP_PROBES = 2  # fresh interpreters that repeat the set-up, besides this process
PROBE_TIMEOUT_S = 120
MIN_PERCENTILE_OPS = 40  # fewer samples than this leave no tail to report
# every operation works on matrices of dimension 16 or less; one BLAS thread keeps
# the timings free of thread start-up and of contention with the other cores
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(workload: str, seed: int):
    """Import oegap from the checkout and build the workload; returns (seconds, workload)."""
    if not (SRC / "oegap" / "__init__.py").is_file():
        die(f"no oegap sources under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import oegap

    if Path(oegap.__file__).resolve().parent != SRC / "oegap":
        die(f"imported oegap from {oegap.__file__}, not from this checkout")
    import workloads

    built = workloads.build(workload, seed, OUT / f"cli-{workload}-seed{seed}")
    return time.perf_counter() - start, built


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Round:
    """Outcome of one pass over a workload's operations."""

    op_s: list[float] = field(default_factory=list)
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)  # problems other than known faults
    gap_bits: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)


def run_round(built, span=None) -> Round:
    """Time each operation, then check its result outside the timed region."""
    out = Round()
    results = {}
    for op in built.ops:
        start = time.perf_counter()
        try:
            if span is None:
                res = op.call()
            else:
                with span(f"bench.{op.name}"):
                    res = op.call()
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            out.op_s.append(time.perf_counter() - start)
            out.failed += 1
            out.unexpected.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        out.op_s.append(time.perf_counter() - start)
        results[op.name] = res
        try:
            problems = op.check(res)
            if op.gap is not None:
                out.gap_bits += op.gap(res)
        except Exception as exc:  # a result the checks cannot read is a failed operation
            problems = [f"unreadable result: {type(exc).__name__}: {exc}"]
        if problems:
            out.failed += 1
            if op.known_fault is None or not all(p.startswith(op.known_fault) for p in problems):
                out.unexpected += [f"{op.name}: {p}" for p in problems]
    out.unexpected += built.finish(results)
    return out


def run_rounds(built, seconds: float, span=None) -> list[Round]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    rounds = [run_round(built, span)]
    while time.perf_counter() < deadline:
        rounds.append(run_round(built, span))
    return rounds


def op_percentiles(op_ms: list[float]) -> tuple[float, float]:
    """Median and 99th percentile of the operation times.

    With fewer than ``MIN_PERCENTILE_OPS`` operations (the search workloads)
    there is no tail, and the median is the time of one or two operations of
    a few seconds each, which on a shared machine vary by a fifth from run to
    run; both figures are then the mean time per operation.
    """
    if len(op_ms) < MIN_PERCENTILE_OPS:
        mean = statistics.fmean(op_ms)
        return mean, mean
    cuts = statistics.quantiles(op_ms, n=100, method="inclusive")
    return cuts[49], cuts[98]


def end_to_end(rounds: list[Round], setup_samples: list[float]) -> dict:
    p50, p99 = op_percentiles([s * 1e3 for r in rounds for s in r.op_s])
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "run_s": {"value": statistics.fmean(r.wall_s for r in rounds), "unit": "s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_p99": {"value": p99, "unit": "ms"},
        "gap_bits_sum": {"value": statistics.median(r.gap_bits for r in rounds), "unit": "bits"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }


def traced(workload: str, seed: int, built, seconds: float):
    """Untraced rounds, then traced ones; per-layer metrics per traced round."""
    import tracing
    import workloads

    builds = []
    for _ in range(3):
        start = time.perf_counter()
        workloads.build(workload, seed, OUT / f"cli-{workload}-seed{seed}")
        builds.append(time.perf_counter() - start)
    plain = run_rounds(built, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spanned = run_rounds(built, seconds / 2, tracer.span)
    finally:
        tracer.uninstall()
    overhead = (statistics.fmean(r.wall_s for r in spanned)
                - statistics.fmean(r.wall_s for r in plain))
    metrics = tracer.metrics(len(spanned), {
        "states.build_s": statistics.median(builds), "trace.overhead_s": overhead})
    tracer.write(OUT / f"trace-{workload}-seed{seed}.npz")
    return plain + spanned, metrics


def main(argv=None) -> int:
    os.environ.update(BLAS_THREADS)  # before numpy loads; the set-up probes inherit it
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    setup_s, built = set_up(args.workload, args.seed)
    if args.probe_setup:
        print(repr(setup_s))
        return 0
    OUT.mkdir(exist_ok=True)
    if args.trace:
        rounds, metrics = traced(args.workload, args.seed, built, args.seconds)
    else:
        samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        rounds = run_rounds(built, args.seconds)
        metrics = end_to_end(rounds, samples)
    unexpected = sorted({p for r in rounds for p in r.unexpected})
    for problem in unexpected:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": sum(len(r.op_s) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
