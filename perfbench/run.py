"""The wordmetric benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics of one workload over a fixed number of cycles of its
operations, as many as take about S seconds on the reference host;
``--trace 1`` runs one cycle of the workload untraced and then traced, and
reports per-layer counts, self times and the tracing overhead (on ``gl`` it
also probes the two pinned hang matrices, see workloads.GL_PROBES).  Every
operation's output is checked (see gate.py).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

TRACE_CAP_FACTOR = 4  # traced operations run this much slower at most

MODULE_SHARES = tuple(f"{m}.self_share" for m in (
    "words", "perms", "ffield", "sl2", "symmetric", "fox", "cayley", "glapprox", "oracle", "cli"
))

PER_LAYER = (
    "words.parse_word.calls",
    "words.classify.calls",
    "words.classify.self_s",
    "ffield.make_field.calls",
    "ffield.make_field.misses",
    "ffield.embedding.misses",
    "ffield.min_extension_root.self_s",
    "ffield.field_ops",
    "ffield.poly_ops",
    "sl2.near_cycle_word_value.calls",
    "sl2.near_cycle_word_value.self_s",
    "sl2.isotypic_word_value.calls",
    "sl2.isotypic_word_value.self_s",
    "sl2.solve_trace.self_s",
    "sl2.evaluate_word_sl2.calls",
    "sl2.classify_cycle_type.calls",
    "sl2.SL2Elem.order.calls",
    "sl2.projective_permutation.self_s",
    "sl2.sweep_evals_per_value",
    "perms.evaluate_word.calls",
    "perms.evaluate_word.self_s",
    "perms.Permutation.__init__.calls",
    "perms.points_built",
    "perms.hamming_distance.self_s",
    "perms.Permutation.cycles.self_s",
    "perms.Permutation.conjugate.calls",
    "symmetric.approx.calls",
    "symmetric.approx.self_s",
    "symmetric.approx_isotypic.calls",
    "symmetric.approx_isotypic.self_s",
    "symmetric.cycle_alignment.self_s",
    "symmetric.Witness.to_dict.self_s",
    "symmetric.word_evals_per_witness",
    "glapprox.approx_gl.calls",
    "glapprox.approx_gl.self_s",
    "glapprox.MatrixFq.invariant_factors.calls",
    "glapprox.MatrixFq.invariant_factors.self_s",
    "glapprox.similarity_transform.self_s",
    "glapprox.evaluate_word_matrix.self_s",
    "glapprox.rank_distance.self_s",
    "glapprox.MatrixFq.__mul__.calls",
    "glapprox.capped",
    "fox.su_certificate.calls",
    "fox.su_certificate.self_s",
    "fox.count_Wn.self_s",
    "fox.derived_membership.self_s",
    "cayley.build_d2.self_s",
    "cayley.cohomology_defect.self_s",
    "cayley.smith_normal_form.self_s",
    "cayley.monomial_witness.self_s",
    "cayley.width_two_shift.self_s",
    "oracle.word_image_sym.self_s",
    "oracle.exact_distance_sym.self_s",
    "oracle.word_image_matrix.self_s",
    "cli.main.calls",
    "cli.main.self_s",
    "cli.output_bytes",
) + MODULE_SHARES + ("trace.overhead",)

END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb")


def unit_of(name: str) -> str:
    if name in ("ops_per_s",):
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name == "cli.output_bytes":
        return "bytes"
    if name.endswith(("_share", "overhead", "_per_value", "_per_witness")):
        return "1"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WORDMAP_THREADS", None)  # a stray setting must not change a number
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed: int) -> dict:
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "commit": commit,
        "seed": seed,
    }


# -- running ------------------------------------------------------------------


def spawn_worker(workload, seed, worker, cap, cycles, trace_out=None, probe_hangs=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload.name]
    argv += ["--seed", str(seed), "--worker", str(worker), "--cap", str(cap)]
    argv += ["--cycles", str(cycles)]
    if trace_out:
        argv += ["--trace-out", trace_out]
    if probe_hangs:
        argv.append("--probe-hangs")
    argv += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_ops(seed, cap, cycles, trace_dir=None):
    """Cold CLI invocations, one fresh interpreter each."""
    records, setups, traces = [], [], []
    plan = workloads.schedule(workloads.WORKLOADS["cli-cold"], cycles)
    for i, slot in enumerate(plan):
        key = f"0/{i}"
        argv, check = workloads.cli_argv(slot, random.Random(f"{seed}:cli-cold:{key}"))
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py")]
        if trace_dir:
            trace_path = os.path.join(trace_dir, f"cli-{i}.json")
            cmd.append(f"--trace-out={trace_path}")
        record = {"key": key, "slot": repr(slot)}
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd + argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out, err = proc.communicate(timeout=cap)
            record["elapsed"] = time.perf_counter() - t0
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            record.update(elapsed=time.perf_counter() - t0, status="capped")
        ready = [ln for ln in err.decode(errors="replace").splitlines() if ln.startswith("#ready ")]
        if ready:
            setups.append(float(ready[0].split()[1]) - t0)
        if "status" not in record:
            if proc.returncode != 0:
                record.update(status="error", error=err.decode(errors="replace")[-500:])
            else:
                try:
                    check(out)
                    record.update(status="ok", digest=gate.digest(out), bytes=len(out))
                except (gate.GateError, ValueError, KeyError) as exc:
                    record.update(status="wrong", error=str(exc))
        if trace_dir and record["status"] == "ok":
            with open(trace_path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        records.append(record)
    return records, setups, traces


def pinned_digests(workload: str, seed: int) -> dict:
    path = os.path.join(HERE, "digests.json")
    if seed != 0 or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def apply_digests(records, pinned) -> None:
    for r in records:
        want = pinned.get(r["key"])
        if want and r["status"] == "ok" and r["digest"] != want:
            r.update(status="wrong", error="output digest differs from the pinned one")


# -- metrics ------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, setups, rss_mb):
    times = [r["elapsed"] for r in records if "elapsed" in r]
    ok = sum(1 for r in records if r["status"] == "ok")
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": ok / sum(times),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "op_tail_percentile": tail_pct,
        "samples": len(times),
        "setups": len(setups),
        "failed_ratio": (len(records) - ok) / len(records),
    }
    return metrics, notes


def per_layer(summary, traced, untraced, output_bytes, probes):
    m = dict(summary)
    m["sl2.sweep_evals_per_value"] = _ratio(
        m["sl2.evaluate_word_sl2.calls"], m["sl2.near_cycle_word_value.calls"]
    )
    m["symmetric.word_evals_per_witness"] = _ratio(
        m["perms.evaluate_word.calls"], m["symmetric.approx.calls"]
    )
    m["glapprox.capped"] = sum(1 for r in probes if r["status"] == "capped")
    m["cli.output_bytes"] = output_bytes
    op_time = sum(r.get("elapsed", 0.0) for r in traced)
    for name in MODULE_SHARES:
        mod = name.split(".")[0]
        own = sum(v for k, v in summary.items() if k.startswith(mod + ".") and k.endswith(".self_s"))
        m[name] = _ratio(own, op_time)
    both = [
        (t["elapsed"], u["elapsed"])
        for t, u in zip(traced, untraced)
        if t["status"] == "ok" and u["status"] == "ok"
    ]
    m["trace.overhead"] = _ratio(sum(t for t, _ in both), sum(u for _, u in both))
    return {k: m[k] for k in PER_LAYER}


def _ratio(a, b):
    return a / b if b else 0.0


# -- entry point ----------------------------------------------------------------


def measure(workload, seed, seconds):
    cycles = workloads.cycles_for(workload, seconds)
    if workload.name == "cli-cold":
        records, setups, _ = cli_ops(seed, workload.cap_s, cycles)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return records, setups, rss
    records, setups, rss = [], [], 0.0
    for j in range(workload.workers):
        rep = spawn_worker(workload, seed, j, workload.cap_s, cycles)
        records += rep["ops"]
        setups.append(rep["setup_s"])
        rss = max(rss, rep["peak_rss_mb"])
    return records, setups, rss


def measure_traced(workload, seed):
    """One cycle untraced, then the same cycle traced, each in a fresh process."""
    os.makedirs(OUT, exist_ok=True)
    cap = workload.cap_s * TRACE_CAP_FACTOR
    if workload.name == "cli-cold":
        import tracer

        untraced, _, _ = cli_ops(seed, cap, 1)
        trace_dir = os.path.join(OUT, f"trace-cli-cold-{seed}")
        os.makedirs(trace_dir, exist_ok=True)
        traced, _, summaries = cli_ops(seed, cap, 1, trace_dir=trace_dir)
        summary = tracer.merge(summaries)
        output_bytes = sum(r.get("bytes", 0) for r in traced)
        probes = []
    else:
        untraced = spawn_worker(workload, seed, 0, cap, 1)["ops"]
        spans = os.path.join(OUT, f"spans-{workload.name}-{seed}.csv.gz")
        rep = spawn_worker(workload, seed, 0, cap, 1, trace_out=spans,
                           probe_hangs=workload.name == "gl")
        traced, summary, output_bytes = rep["ops"], rep["trace"], 0
        probes = rep.get("probes", [])
    metrics = per_layer(summary, traced, untraced, output_bytes, probes)
    return untraced, traced, metrics, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wordmetric", "__init__.py")):
        print("error: no src/wordmetric here; run from the root of a source checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    pinned = pinned_digests(workload.name, args.seed)
    record = {"workload": workload.name, "env": environment(args.seed), "trace": args.trace}

    if args.trace:
        untraced, traced, metrics, probes = measure_traced(workload, args.seed)
        apply_digests(untraced, pinned)
        apply_digests(traced, pinned)
        records = traced
        checked = untraced + traced
    else:
        probes = []
        records, setups, rss = measure(workload, args.seed, args.seconds)
        apply_digests(records, pinned)
        checked = records
        metrics, notes = end_to_end(records, setups, rss)
        record["notes"] = notes
    failed = [r for r in records if r["status"] != "ok"]
    correct = not any(r["status"] in ("wrong", "error") for r in checked + probes)
    record["failed_ops"] = [
        dict(workload=workload.name, seed=args.seed, key=r["key"], slot=r["slot"],
             status=r["status"], error=r.get("error"))
        for r in failed
    ]

    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    for r in record["failed_ops"]:
        print(f"failed op: {json.dumps(r, sort_keys=True)}")
    if args.trace:
        record["probes"] = probes
        for r in probes:
            print(f"hang probe: {json.dumps(r, sort_keys=True)}")
    if not args.trace:
        n = record["notes"]
        print(f"failed_ratio: {n['failed_ratio']:.6f} (1) [{len(failed)}/{len(records)}]")
        print(f"op_tail_s is p{n['op_tail_percentile']:.2f} of {n['samples']} samples; "
              f"setup_s is the median of {n['setups']} set-ups")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} ({unit_of(name)})")
    os.makedirs(OUT, exist_ok=True)
    record.update(correct=correct, metrics=metrics, ops=records)
    with open(os.path.join(OUT, f"result-{workload.name}-{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
