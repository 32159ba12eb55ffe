"""One measured process of an in-process workload.

Spawned by ``run.py``; imports the package, runs the workload's untimed
warm-up, then runs a fixed number of cycles of the workload's operations.
With ``--probe-hangs`` it then runs the pinned GL hang matrices under the cap,
untimed and untraced.  Prints one JSON report as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import sys
import time
import traceback


class Capped(BaseException):
    """Raised by the alarm; a BaseException so the package's own
    ``except Exception`` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise Capped()


def capped_call(call, cap_s):
    """``call()`` under a wall-clock cap: SIGALRM raises ``Capped`` in this
    thread, so no thread or process is started per operation."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_ops(workload, seed, worker, cycles, cap_s, tracer=None):
    """Run operations; returns one record per operation."""
    import gate
    import workloads

    records = []
    plan = workloads.schedule(workloads.WORKLOADS[workload], cycles)
    for i, slot in enumerate(plan):
        key = f"{worker}/{i}"
        snap = tracer.snapshot() if tracer else None
        op = workloads.make_op(workload, slot, random.Random(f"{seed}:{workload}:{key}"))
        if tracer:  # building the inputs is not the package's work
            tracer.restore(snap)
        record = {"key": key, "slot": repr(slot)}
        gc.collect()  # no operation pays for the garbage of the one before
        t0 = time.perf_counter()
        try:
            result = capped_call(op.call, cap_s)
            record["elapsed"] = time.perf_counter() - t0
            record["digest"] = gate.digest(op.check(result))
            record["status"] = "ok"
        except Capped:
            record.update(elapsed=time.perf_counter() - t0, status="capped")
            if tracer:  # counts of a cut-off operation depend on when it was cut
                tracer.restore(snap)
        except gate.GateError as exc:
            record.update(status="wrong", error=str(exc))
        except Exception as exc:  # the run continues; the op counts as failed
            record.setdefault("elapsed", time.perf_counter() - t0)
            record["status"] = "error"
            record["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        records.append(record)
    return records


def probe_hangs(seed):
    """Run the pinned GL hang matrices under the ``gl`` cap; one record each.
    A probe that finishes has its output checked like any operation's."""
    import gate
    import workloads

    cap_s = workloads.WORKLOADS["gl"].cap_s
    records = []
    for i, slot in enumerate(workloads.GL_PROBES):
        op = workloads.make_op("gl", slot, random.Random(0))
        t0 = time.perf_counter()
        try:
            op.check(capped_call(op.call, cap_s))
            status = "ok"
        except Capped:
            status = "capped"
        except gate.GateError:
            status = "wrong"
        records.append({"workload": "gl", "seed": seed, "index": i, "slot": repr(slot),
                        "status": status, "elapsed": time.perf_counter() - t0})
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--cap", type=float, required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--probe-hangs", action="store_true")
    args = ap.parse_args()

    import wordmetric  # noqa: F401  (import time is part of set-up)
    import workloads

    workloads.warmup(args.workload)
    gc.collect()
    gc.freeze()  # set-up's objects are never scanned again, so each collect() is cheap
    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    ready = time.perf_counter()
    records = run_ops(
        args.workload, args.seed, args.worker, args.cycles, args.cap, tracer
    )
    report = {
        "setup_s": ready - args.spawned_at,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report["trace"] = tracer.finish(args.trace_out)
    if args.probe_hangs:
        report["probes"] = probe_hangs(args.seed)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
