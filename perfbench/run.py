"""bettidecomp benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload tables|cone|windows --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Every session is a fresh interpreter
(``worker.py``) that imports the library from ``src/`` with cold caches,
builds the seed's inputs and runs the workload's operations once.  This
launcher starts sessions one after another, never two at a time, until
``--seconds`` have passed (at least ``MIN_SESSIONS``), and assembles the
result.

Times are corrected for host speed.  The shared host runs the same code up
to twice as slowly from one second to the next, so a worker times a fixed
exact-arithmetic loop (the probe) before and after every operation and
during set-up, and each measured time is scaled by ``PROBE_REF_S`` over the
probe time around it: the result estimates the time on the host running at
the speed where the probe takes ``PROBE_REF_S``.  Per operation the median
over sessions is kept.  Raw figures are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced sessions, with every layer wrapped, and untraced ones; it reports
the per-layer metrics (medians over traced sessions), writes the spans of
the first traced session to ``perfbench/out/``, and gives the tracing
overhead as the difference of the two kinds of session.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit, failed operations and known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tables", "cone", "windows")
MIN_SESSIONS = 3
BUDGET_S = 170.0
# Probe time on an idle host: 2-vCPU Intel Xeon VM, Python 3.11, where the
# probe's fastest time is 0.38-0.40 ms and its median under load 0.6-0.7 ms.
PROBE_REF_S = 0.0004
KIND_GROUPS = {
    "cone": {"membership_s": ("member", "near_miss"), "verify_s": ("verify",), "expand_s": ("expand",)},
    "windows": {"count_s": ("count",), "list_s": ("list",), "facets_s": ("facets",),
                "verify_fan_s": ("verify-fan",)},
}


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("BS_DECOMP_MAX_ENUM", None)  # the library's default cap applies
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one session; return (corrected set-up seconds, summary)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=_env(),
        text=True,
    )
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, _, probe = ready.partition(" ")
    lines = rest.strip().splitlines()
    if word != "READY" or code != 0 or not lines:
        raise RunError(f"session {' '.join(args)} exited with code {code} before finishing")
    summary = json.loads(lines[-1])
    summary["raw_setup_s"] = setup
    return setup * PROBE_REF_S / float(probe), summary


def sessions(base: list[str], seconds: float, deadline: float, extra=lambda k: []) -> list:
    """Sessions one after another until ``seconds`` have passed."""
    start = perf_counter()
    out = []
    longest = 0.0
    while len(out) < MIN_SESSIONS or perf_counter() - start < seconds:
        if out and perf_counter() + 2 * longest > deadline:
            break
        t0 = perf_counter()
        out.append(spawn([*base, *extra(len(out))], deadline))
        longest = max(longest, perf_counter() - t0)
    kinds = out[0][1]["kinds"]
    if any(s["kinds"] != kinds for _, s in out):
        raise RunError("sessions of one seed ran different operations")
    return out


def op_times(runs: list) -> list[float]:
    """Per operation, the median over sessions of its corrected time."""
    corrected = ([t * PROBE_REF_S / p for t, p in zip(s["latencies"], s["probes"])] for _, s in runs)
    return [statistics.median(column) for column in zip(*corrected)]


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _report(name, value, unit) -> None:
    print(f"{name:<50} {value:>16.6g} {unit}")


def end_to_end(workload: str, runs: list) -> dict:
    lat = op_times(runs)
    summaries = [s for _, s in runs]
    metrics = {
        "setup_s": _metric(statistics.median(setup for setup, _ in runs), "s"),
        "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": _metric(1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": _metric(1000 * statistics.quantiles(lat, n=10)[-1], "ms"),
        "peak_rss_mb": _metric(statistics.median(s["peak_rss_mb"] for s in summaries), "MB"),
    }
    # Shown by name, not gated: fail_share is 0 wherever nothing fails, the
    # others apply to one workload each.
    attempted = sum(s["attempted"] for s in summaries)
    extra = {"fail_share": (sum(s["failed"] for s in summaries) / attempted, "share")}
    if workload == "tables":
        extra["latency_p99_ms"] = (1000 * statistics.quantiles(lat, n=100)[-1], "ms")
    kinds = summaries[0]["kinds"]
    for name, members in KIND_GROUPS.get(workload, {}).items():
        extra[name] = (sum(t for t, k in zip(lat, kinds) if k in members), "s")

    raw = [statistics.median(column) for column in zip(*(s["latencies"] for s in summaries))]
    probes = [p for s in summaries for p in s["probes"]]
    print(f"# {workload}: {len(runs)} sessions of {len(lat)} ops; corrected times are medians over "
          f"sessions; per-kind times are seconds per session")
    print(f"# raw: ops_per_s {len(raw) / sum(raw):.6g}, p50 {1000 * statistics.median(raw):.6g} ms, "
          f"p90 {1000 * statistics.quantiles(raw, n=10)[-1]:.6g} ms, set-up "
          f"{statistics.median(s['raw_setup_s'] for s in summaries):.6g} s; probe median "
          f"{1000 * statistics.median(probes):.4g} ms, fastest {1000 * min(probes):.4g} ms, "
          f"reference {1000 * PROBE_REF_S:.4g} ms")
    for name, m in metrics.items():
        _report(name, m["value"], m["unit"])
    for name, (value, unit) in extra.items():
        _report(name, value, unit)
    return metrics


def layers(workload: str, seed: int, seconds: float, base: list[str], deadline: float):
    """Traced sessions alternating with untraced ones; medians per layer."""
    out = HERE / "out" / f"trace-{workload}-{seed}.json"

    def extra(k):
        if k % 2:
            return []
        return ["--trace", "1"] + (["--trace-out", str(out)] if k == 0 else [])

    runs = sessions(base, seconds, deadline, extra)
    if len(runs) % 2:
        runs.append(spawn(base, deadline))
    traced, plain = runs[0::2], runs[1::2]
    result = {
        name: (statistics.median_low(s["layers"][name][0] for _, s in traced), unit)
        for name, (_, unit) in traced[0][1]["layers"].items()
    }
    result["cone.known_defect_ops"] = (len(traced[0][1].get("known_defects", [])), "count")
    result["trace.overhead_s"] = (sum(op_times(traced)) - sum(op_times(plain)), "s")
    print(f"# {workload} traced: {len(traced)} traced and {len(plain)} untraced sessions of "
          f"{len(traced[0][1]['kinds'])} ops; spans of the first in {out.relative_to(ROOT)}")
    for name, (value, unit) in result.items():
        _report(name, value, unit)
    return {name: _metric(value, unit) for name, (value, unit) in result.items()}, runs


def _listing(runs: list) -> None:
    for _, s in runs:
        for line in s["failures"]:
            print(f"FAILED {line}")
    last = runs[-1][1]
    if "known_defects" in last:
        wrong = last["known_defects"]
        print(f"# known defect (one-element windows have no inequalities): membership wrong on "
              f"{len(wrong)} of {last['probe_inputs']} probe inputs, outside the timed operations")
        for line in wrong:
            print(f"KNOWN-DEFECT {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bettidecomp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bettidecomp" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            metrics, runs = layers(args.workload, args.seed, args.seconds, base, deadline)
        else:
            runs = sessions(base, args.seconds, deadline)
            metrics = end_to_end(args.workload, runs)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _listing(runs)
    summaries = [s for _, s in runs]
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
