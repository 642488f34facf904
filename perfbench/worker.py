"""One session: set-up, the timed operations, the checks.

Started by ``run.py`` in a fresh interpreter, so library caches start
cold.  Prints ``READY <probe seconds>`` once set-up is done (import, input
generation, references) and one JSON summary line when the session ends.
One client, one thread, closed loop: an operation starts when the previous
one has been checked.  Only the library call of an operation is timed;
the probes around it and checking its answer happen between timed calls.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_LISTED = 20


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bettidecomp
    from bettidecomp import cli, core, decompose, errors, functionals, hilbert, io, poset

    if Path(bettidecomp.__file__).resolve().parent != src / "bettidecomp":
        raise ImportError(f"bettidecomp was imported from {bettidecomp.__file__}, not from {src}")
    return SimpleNamespace(
        cli=cli, core=core, decompose=decompose, errors=errors,
        functionals=functionals, hilbert=hilbert, io=io, poset=poset,
    )


def probe() -> float:
    """Time of a fixed exact-arithmetic loop: how fast the host runs now."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


def run_session(ops, tracer) -> dict:
    latencies: list[float] = []
    probes: list[float] = []
    failures: list[str] = []
    failed = 0
    for op in ops:
        before = probe()
        frame = tracer.enter(f"op.{op.kind}") if tracer else None
        t0 = perf_counter()
        try:
            result = op.run()
            problem = None
        except Exception as exc:  # an unexpected exception is a failed operation
            result = None
            problem = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if frame:
            tracer.exit(frame)
        probes.append((before + probe()) / 2)
        if problem is None:
            problem = op.check(result)
        latencies.append(dt)
        if problem is not None:
            failed += 1
            if len(failures) < MAX_LISTED:
                failures.append(f"{op.label}: {problem}")
    return {
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "kinds": [op.kind for op in ops],
        "latencies": latencies,
        "probes": probes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    first = probe()
    lib = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](lib, args.seed, ROOT)
    ops = workload.ops()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(lib)
    print(f"READY {(first + probe()) / 2!r}", flush=True)

    summary = run_session(ops, tracer)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        from tracing import layer_metrics

        extra = {"cli.stdout_bytes": (getattr(workload, "stdout_bytes", 0), "bytes")}
        summary["layers"] = layer_metrics(tracer, extra)
        if args.trace_out:
            tracer.dump(Path(args.trace_out))
    if hasattr(workload, "defect_probe"):
        summary["probe_inputs"] = workload.probe_size()
        summary["known_defects"] = workload.defect_probe()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
