"""In-memory span tracer wrapped around the library's public functions.

The benchmark installs one wrapper per traced function, on the module that
defines it and on every ``repeatersim`` module that imported it by name, so
calls between modules are seen too.  A span is recorded only while an
operation is open; calls made by the benchmark's own checks stay untraced.

Each span holds: name, start, end, parent span index, operation id, the
summed duration of its direct children (for self time), a size (state
dimension or trial count, 0 when not applicable) and a key used to spot a
repeated detector evaluation.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, CHILD_S, SIZE, KEY = range(8)


def _fock_detail(fname):
    def detail(args, kwargs):
        rho = args[0] if args else None
        layout = getattr(rho, "layout", None)
        if layout is None:
            return "", 0, None
        dim = layout.dim
        if fname == "tensor" and len(args) > 1:
            dim *= args[1].layout.dim
        key = None
        if fname in ("detector_probability", "measure_detector") and len(args) > 3:
            # (state object, mode, outcome, modes in the state)
            key = (id(rho), args[1], args[3], layout.modes)
        return "", dim, key
    return detail


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _master_equation_detail(fn):
    arguments = _bound(fn)

    def detail(args, kwargs):
        a = arguments(args, kwargs)
        dim = (a["cutoff"] + 1) ** a["n_modes"]
        return f".m{a['n_modes']}", dim * dim, None
    return detail


def _chain_times_detail(fn):
    arguments = _bound(fn)

    def detail(args, kwargs):
        a = arguments(args, kwargs)
        cfg = a["cfg"]
        suffix = f".n{a['n']}.{cfg.policy}"
        if cfg.threads != 1:
            suffix += f".t{cfg.threads}"
        return suffix, cfg.n_trials, None
    return detail


def _generation_times_detail(fn):
    arguments = _bound(fn)

    def detail(args, kwargs):
        return "", arguments(args, kwargs)["cfg"].n_trials, None
    return detail


FOCK_FUNCTIONS = ("apply_beamsplitter", "apply_loss", "apply_phase",
                  "apply_two_mode_squeeze", "measure_detector",
                  "detector_probability", "tensor", "fidelity", "partial_trace")

# module -> public functions traced in it
TRACED = {
    "fock": FOCK_FUNCTIONS,
    "protocol": ("generate_oracle", "swap_oracle", "chain", "generate_analytic",
                 "swap_analytic", "generation_circuit", "eme_density"),
    "applications": ("correlation", "chsh_value", "teleport", "ekert_simulation"),
    "ensemble": ("integrate_master_equation", "squeezed_joint_state",
                 "langevin_mean_ode", "effective_rates", "free_space_snr"),
    "scaling": ("total_time", "optimize_segment", "closed_form_time",
                "fidelity_budget"),
    "montecarlo": ("chain_times", "generation_times", "estimate",
                   "sample_chain_time", "analytic_chain_time"),
    "config": ("from_raw", "parse_raw", "default_raw", "set_raw", "load"),
}

DETAILS = {
    "ensemble.integrate_master_equation": _master_equation_detail,
    "montecarlo.chain_times": _chain_times_detail,
    "montecarlo.generation_times": _generation_times_detail,
}


class Tracer:
    """Records spans of wrapped library calls, grouped by operation."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id):
        self.op_id = op_id
        self._stack().clear()

    def end_op(self):
        self.op_id = None

    @contextmanager
    def span(self, name, size=0, key=None):
        """Record one span under the innermost open span of this thread."""
        if self.op_id is None:
            yield
            return
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id, 0.0, size, key]
        self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent][CHILD_S] += record[END] - record[START]

    def _wrapper(self, name, fn, detail):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            suffix, size, key = detail(args, kwargs) if detail else ("", 0, None)
            with tracer.span(name + suffix, size, key):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in ``TRACED`` wherever the package binds it."""
        if self._patches:
            return
        for short in TRACED:
            importlib.import_module(f"repeatersim.{short}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repeatersim" or n.startswith("repeatersim."))]
        for short, fnames in TRACED.items():
            module = sys.modules[f"repeatersim.{short}"]
            for fname in fnames:
                fn = getattr(module, fname)
                name = f"{short}.{fname}"
                if short == "fock":
                    detail = _fock_detail(fname)
                elif name in DETAILS:
                    detail = DETAILS[name](fn)
                else:
                    detail = None
                wrapper = self._wrapper(name, fn, detail)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP],
                                     "self_s": s[END] - s[START] - s[CHILD_S],
                                     "size": s[SIZE]}) + "\n")


def self_time(span):
    return span[END] - span[START] - span[CHILD_S]


def duration(span):
    return span[END] - span[START]


def layer(span):
    return span[NAME].split(".", 1)[0]


def median_total(spans, name):
    """Median inclusive duration of the spans called ``name`` (0 if none)."""
    values = [duration(s) for s in spans if s[NAME] == name]
    return statistics.median(values) if values else 0.0


def measure_calls_per_outcome(spans):
    """Detector calls per distinct measured outcome inside application circuits.

    Counts ``detector_probability`` and ``measure_detector`` calls on states
    of more than one mode (outcomes that leave a conditional state) whose
    ancestors include an ``applications`` span.  A ``measure_detector`` call
    that directly follows a ``detector_probability`` call on the same state,
    mode and outcome evaluates an outcome already evaluated.
    """
    calls = repeats = 0
    previous_key = None
    for s in spans:
        if s[NAME] not in ("fock.detector_probability", "fock.measure_detector"):
            previous_key = None
            continue
        key = s[KEY]
        if key is None or key[3] < 2 or not _under_applications(spans, s):
            previous_key = None
            continue
        calls += 1
        if s[NAME] == "fock.measure_detector" and key == previous_key:
            repeats += 1
        previous_key = key if s[NAME] == "fock.detector_probability" else None
    outcomes = calls - repeats
    return calls / outcomes if outcomes else 0.0


def _under_applications(spans, span):
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith("applications."):
            return True
        parent = spans[parent][PARENT]
    return False
