"""Closed-loop runner shared by the workloads: one client, one process, the
next operation starts when the previous one returns.

A workload supplies operations in cycles.  Cycle ``k`` is a fixed list of
operations whose inputs come from ``(seed, k)`` alone, so a cycle can be
replayed exactly.  The timed phase runs a fixed number of whole cycles,
sized from the workload's baseline cycle time so that it takes about the
run length; checks and the host-speed kernel (``hostspeed``) run between
operations, outside the timed intervals.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import resource

import hostspeed

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
TAIL_BEYOND = 10
WARMUP_CYCLE = 2 ** 31      # a cycle index the timed phase never reaches
SETUP_SAMPLES = 3
SETUP_KERNEL_REPS = 8
PROBE_KERNEL_REPS = 4
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` maps its result to a list
    of failure messages and is not."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    span: str | None = None     # root span opened around ``run`` when traced


class Recorder:
    """Latency, CPU time and check outcome of every operation run.

    ``latency`` and ``cpu`` are at reference host speed, ``raw_latency``
    and ``raw_cpu`` as measured; ``scales`` holds each operation's factor
    between the two."""

    def __init__(self):
        self.latency = []
        self.cpu = []
        self.raw_latency = []
        self.raw_cpu = []
        self.scales = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, op, tracer=None, op_id=None):
        error = result = None
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(op_id)
        try:
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    result = op.run()
            else:
                result = op.run()
        except Exception:  # an operation that raises is a failed operation
            error = f"{op.kind}: {traceback.format_exc(limit=3)}"
        finally:
            if tracer is not None:
                tracer.end_op()
        dt = time.perf_counter() - t0
        dcpu = cpu_seconds() - cpu0
        if error is None:
            try:
                fails = op.check(result)
            except Exception:
                fails = [f"{op.kind} check raised: {traceback.format_exc(limit=3)}"]
        else:
            fails = [error]
        self.record(fails)
        return dt, dcpu

    def record(self, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(fails)


def cpu_seconds():
    """User plus system CPU of this process (all threads) and reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warmup_ops(workload, traced=False):
    """One operation of each kind, with inputs no timed cycle uses."""
    if not traced and hasattr(workload, "warmup_ops"):
        return workload.warmup_ops()
    ops = workload.trace_cycle(WARMUP_CYCLE) if traced else workload.cycle(WARMUP_CYCLE)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    return list(first.values())


def timed_run(workload, seconds, rec):
    """Run ``seconds`` over the workload's baseline cycle time whole cycles;
    returns that count.  The count is fixed so that the sample count, and
    with it the rank that sets ``op_tail_ms``, is the same for a faster or
    a slower program.  The host-speed kernel runs ``workload.kernel_reps``
    times before the first operation and after each one; an operation's
    times are scaled to reference speed by the median of the kernel times
    just before and just after it, because the host's speed can change
    within seconds."""
    kernel = hostspeed.Kernel()
    cycles = max(1, round(seconds / workload.cycle_s))
    before = kernel.samples(workload.kernel_reps)
    for k in range(cycles):
        for op in workload.cycle(k):
            dt, dcpu = rec.run(op)
            after = kernel.samples(workload.kernel_reps)
            scale = hostspeed.scale(before + after)
            before = after
            rec.raw_latency.append(dt)
            rec.raw_cpu.append(dcpu)
            rec.latency.append(dt * scale)
            rec.cpu.append(dcpu * scale)
            rec.scales.append(scale)
    return cycles


def trace_run(workload, seconds, rec, tracer, op_kinds):
    """Replay each cycle twice, once traced and once not, in alternating
    order; returns (traced ops, traced op time, untraced op time) and fills
    ``op_kinds`` with the kind of each traced operation id."""
    plain = traced = 0.0
    n_traced = 0
    k = 0
    while k == 0 or plain + traced < seconds:
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                for i, op in enumerate(workload.trace_cycle(k)):
                    if with_trace:
                        op_kinds[(k, i)] = op.kind
                        dt, _ = rec.run(op, tracer, (k, i))
                        traced += dt
                        n_traced += 1
                    else:
                        dt, _ = rec.run(op)
                        plain += dt
            finally:
                tracer.uninstall()
        k += 1
    return n_traced, traced, plain


def end_to_end(rec, setup_s, peak_rss_mb, raw=False):
    """The end-to-end metrics, plus the tail's percentile and sample count;
    at reference host speed, or as measured with ``raw``."""
    lat = sorted(rec.raw_latency if raw else rec.latency)
    cpu = rec.raw_cpu if raw else rec.cpu
    n = len(lat)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    beyond = n - 1 - tail_index
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[tail_index] * 1e3, "ms"),
        "cpu_per_op_ms": (sum(cpu) / n * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    tail = {"percentile": 100.0 * (n - beyond) / n, "beyond": beyond, "samples": n}
    return metrics, tail


def environment():
    import numpy
    import scipy
    from repeatersim import montecarlo

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "montecarlo_backend": montecarlo.BACKEND,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def pin_blas_threads():
    """Fix BLAS threads at one, below nproc and equal on every run; must
    run before NumPy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def setup_probe(module, seed, workdir):
    """Body of a set-up probe process: set up as a timed run does, with a
    block of host-speed kernel runs between its stages (after the imports,
    after input generation and between warm-up operations).  Prints
    "ready", then the blocks as JSON: (start, end, kernel times), with
    ``time.perf_counter``, which is system-wide, as the clock."""
    blocks = []
    kernel = None

    def block():
        nonlocal kernel
        t0 = time.perf_counter()
        kernel = kernel or hostspeed.Kernel()
        samples = kernel.samples(PROBE_KERNEL_REPS)
        blocks.append((t0, time.perf_counter(), samples))

    block()
    workload = module.Workload(seed, workdir)
    block()
    for i, op in enumerate(warmup_ops(workload)):
        if i:
            block()
        op.run()
    print("ready", flush=True)
    print(json.dumps(blocks), flush=True)


def measure_setup(workload, seed):
    """Median over fresh processes of the time from process start to the
    point where the first timed operation would begin, at reference host
    speed; returns it and each probe's (raw, scaled) time.

    The host's speed can change within a probe, so each stage between the
    probe's kernel blocks (``setup_probe``) is scaled by the kernel times
    at its two ends; the first stage starts, and the last ends, at
    ``SETUP_KERNEL_REPS`` kernel runs made here.  Time spent in kernel
    blocks is not counted."""
    kernel = hostspeed.Kernel()
    times = []
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        before = kernel.samples(SETUP_KERNEL_REPS)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t_ready = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed "
                               f"(exit {proc.returncode})")
        after = kernel.samples(SETUP_KERNEL_REPS)
        edges = [(None, t0, before), *json.loads(rest), (t_ready, None, after)]
        raw = scaled = 0.0
        for (_, start, left), (end, _, right) in zip(edges, edges[1:]):
            raw += end - start
            scaled += (end - start) * hostspeed.scale(left + right)
        times.append((raw, scaled))
    return statistics.median(scaled for _, scaled in times), times


def print_metrics(name, metrics, rec, extra_lines=()):
    print(f"== {name}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<58} {value:>16.6g} {unit}")
    for line in extra_lines:
        print(f"  {line}")
    for msg in rec.failures[:20]:
        print(f"  FAILED {msg}", file=sys.stderr)


def result_line(rec, metrics):
    return json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def save(name, payload):
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
