"""Benchmark for pcgraph: one workload per process, checked against known answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

The library is imported from ``src/`` next to this directory.  A run
repeats whole passes of the workload's ops until ``--seconds`` have
passed, checks every output, and prints one JSON line of environment
details followed by the result line.  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate, and the result holds per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILE = 90


def load_library():
    """Import pcgraph from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import pcgraph
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pcgraph from {SRC}: {exc}") from None
    if Path(pcgraph.__file__).resolve().parent != SRC / "pcgraph":
        raise SystemExit(f"perfbench: pcgraph resolved to {pcgraph.__file__}, not {SRC}")
    return pcgraph


def set_up(workload: str, seed: int, workdir: Path):
    """Everything ``setup_s`` covers: import, instance generation, instance files."""
    pcgraph = load_library()
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](pcgraph, random.Random(seed), workdir)


def _workdir() -> Path:
    return WORK / str(os.getpid())


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run's directory is still there


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its first op could run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes.
    return float(proc.stdout.split()[-1]) - start


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0

    @property
    def ops_per_s(self) -> float:
        """Ops per busy second over the whole phase.

        Shared hosts drift between slow and fast phases lasting seconds;
        a total over every pass averages them.
        """
        return len(self.latencies) / sum(self.latencies)


def run_pass(ops, phase: Phase) -> None:
    """Time and check every op once, adding the results to ``phase``."""
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            phase.latencies.append(perf_counter() - t0)
            phase.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        phase.latencies.append(perf_counter() - t0)
        try:
            op.check(out)
        except Exception as exc:  # malformed output is a wrong answer too
            phase.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    phase.passes += 1
    phase.wall_s += perf_counter() - start


def run_passes(ops, seconds: float) -> Phase:
    """Repeat whole passes until ``seconds`` have elapsed (at least one pass)."""
    phase = Phase()
    start = perf_counter()
    while phase.passes == 0 or perf_counter() - start < seconds:
        run_pass(ops, phase)
    return phase


def run_traced(ops, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced passes, so drift in machine speed hits both."""
    untraced, traced = Phase(), Phase()
    start = perf_counter()
    while traced.passes == 0 or perf_counter() - start < seconds:
        run_pass(ops, untraced)
        tracer.install()
        try:
            run_pass(ops, traced)
        finally:
            tracer.uninstall()
    return untraced, traced


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_samples: list[float]) -> tuple[dict, dict]:
    tail = percentile(phase.latencies, TAIL_PERCENTILE)
    metrics = {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "ops_per_s": _metric(phase.ops_per_s, "1/s"),
        "op_p50_ms": _metric(percentile(phase.latencies, 50) * 1000, "ms"),
        "op_tail_ms": _metric(tail * 1000, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "tail": {"percentile": TAIL_PERCENTILE, "samples": len(phase.latencies),
                 "samples_beyond": sum(1 for x in phase.latencies if x > tail)},
        "setup_samples_s": setup_samples,
    }
    return metrics, info


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    """Per-pass layer figures from the traced phase; counts repeat exactly per seed."""
    passes = traced.passes
    metrics = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = _metric(calls / passes, "calls/pass")
        metrics[f"{name}.self_s"] = _metric(self_s / passes, "s/pass")
    for name in tracing.COUNT_NAMES:
        metrics[name] = _metric(tracer.counts[name] / passes, "count/pass")
    canonical_calls = metrics["search.canonical_form.calls"]["value"] * passes
    emitted = tracer.counts["search.forms_emitted"]
    metrics["search.canonical_form.useful_ratio"] = _metric(
        emitted / canonical_calls if canonical_calls else 0.0, "ratio")
    metrics["trace.untraced_ops_per_s"] = _metric(untraced.ops_per_s, "1/s")
    metrics["trace.traced_ops_per_s"] = _metric(traced.ops_per_s, "1/s")
    metrics["trace.slowdown"] = _metric(untraced.ops_per_s / traced.ops_per_s, "ratio")
    return metrics


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pcgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = _workdir()
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, workdir)
            print(perf_counter())
            return 0
        setup_samples = [] if args.trace else [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        ops = set_up(args.workload, args.seed, workdir)
        info = {"workload": args.workload, "env": environment(args.seed),
                "seconds": args.seconds, "ops_per_pass": len(ops)}
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = run_traced(ops, args.seconds, tracer)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            phases = (untraced, traced)
            metrics = per_layer(tracer, untraced, traced)
            info["trace"] = {"passes": traced.passes, "traced_wall_s": traced.wall_s,
                             "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
        else:
            phase = run_passes(ops, args.seconds)
            phases = (phase,)
            metrics, extra = end_to_end(phase, setup_samples)
            info.update(extra, passes=phase.passes)
    finally:
        _remove_workdir(workdir)

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    info["fail_frac"] = len(failures) / attempted
    info["failures"] = failures[:5]
    for line in failures[:5]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
