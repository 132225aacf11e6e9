#!/usr/bin/env python3
"""repeatersim benchmark: three closed-loop workloads, measured end to end
and, in a separate traced run, per module.

    python3 perfbench/run.py --workload exact_engines --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Workloads (see each module's docstring for its operation mix and why):
``exact_engines``, ``mc_waiting_times`` and ``cli_session``.  A timed run is a fixed
number of whole cycles, ``--seconds`` over the workload's baseline cycle
time, so the sample count does not depend on the program's speed.

With ``--trace 0`` the last stdout line is one JSON object whose metrics
are the end-to-end ones:

- ``setup_s``: median over fresh processes of the time from process start
  to the first timed operation (import, input generation, warm-up);
- ``ops_per_s``: operations per second of time spent inside operations;
- ``op_p50_ms`` and ``op_tail_ms``: median latency, and the latency with
  exactly ten samples beyond it (its percentile and the sample count are
  printed above the JSON line);
- ``cpu_per_op_ms``: user plus system CPU of the process and its children;
- ``peak_rss_mb``: peak resident memory; for ``cli_session`` the largest
  child process.

Times are at reference host speed: each is scaled by a host-speed kernel
run beside it (``hostspeed.py``); the times as measured are printed above
the JSON line and recorded.

``failed_frac`` is ``failed / attempted`` of that JSON object: it is
printed in the table but is not a metric, because it is 0 on a correct
run.  Any failed check makes the exit code 1.  With ``--trace 1`` the
metrics are those of ``layers.PER_LAYER``.  Every run records the
environment (nproc, Python, NumPy, SciPy, Monte Carlo backend, BLAS
threads) in its table and in ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import harness

harness.pin_blas_threads()

WORKLOADS = ("exact_engines", "mc_waiting_times", "cli_session")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_all(args):
    """Run each workload in its own process; exit 1 if any failed."""
    status = 0
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=harness.ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or done.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
            status = status or 1
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct and status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repeatersim", "__init__.py")):
        print(f"error: no repeatersim sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    if args.workload == "all":
        return run_all(args)

    module = importlib.import_module(args.workload)
    workdir = os.path.join(harness.RUN_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            harness.setup_probe(module, args.seed, workdir)
            return 0
        return measure(args, module, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, module, workdir):
    import layers
    from tracer import Tracer

    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = harness.measure_setup(args.workload, args.seed)
    workload = module.Workload(args.seed, workdir)
    rec = harness.Recorder()
    for op in harness.warmup_ops(workload, traced=bool(args.trace)):
        rec.run(op)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": harness.environment()}
    if args.trace:
        tracer = Tracer()
        op_kinds = {}
        n_ops, traced_s, plain_s = harness.trace_run(workload, args.seconds, rec, tracer,
                                                     op_kinds)
        metrics = layers.per_layer(tracer.spans, n_ops, traced_s, plain_s,
                                   workload.per_layer(tracer.spans, op_kinds))
        os.makedirs(harness.RUN_DIR, exist_ok=True)
        tracer.write(os.path.join(harness.RUN_DIR, f"spans-{tag}.jsonl"))
        notes = [f"traced operations: {n_ops}"]
    else:
        cycles = harness.timed_run(workload, args.seconds, rec)
        metrics, tail = harness.end_to_end(rec, setup_s, workload.peak_rss_mb())
        raw, _ = harness.end_to_end(rec, statistics.median(t for t, _ in setup_samples),
                                    workload.peak_rss_mb(), raw=True)
        record.update(cycles=cycles, tail=tail, raw_metrics=raw, op_scales=rec.scales,
                      setup_samples_raw_and_scaled_s=setup_samples)
        notes = [f"op_tail_ms is p{tail['percentile']:.2f}: {tail['beyond']} of "
                 f"{tail['samples']} samples beyond it; {cycles} cycles",
                 "times above are at reference host speed (hostspeed.py); as measured: "
                 + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items() if k != "peak_rss_mb"),
                 f"host-speed scale per operation: median {statistics.median(rec.scales):.4g}, "
                 f"range {min(rec.scales):.4g}-{max(rec.scales):.4g}",
                 f"{'failed_frac':<58} {rec.failed / rec.attempted:>16.6g} frac "
                 f"({rec.failed} of {rec.attempted} operations)"]
    notes.append("environment " + json.dumps(record["environment"], sort_keys=True))
    record.update(metrics=metrics, attempted=rec.attempted, failed=rec.failed,
                  failures=rec.failures[:100])
    harness.save(f"result-{tag}.json", record)
    harness.print_metrics(args.workload, metrics, rec, notes)
    print(harness.result_line(rec, metrics), flush=True)
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
