"""The benchmark's span tracer wraps library functions by name: every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def traced():
    # run the tracer's source in a namespace of its own: no import, so no
    # bytecode is written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["TRACED"]


def test_tracer_lists_every_layer(traced):
    assert {"fock", "protocol", "applications", "ensemble", "scaling", "montecarlo",
            "config"} <= set(traced)


def test_every_traced_name_resolves(traced):
    missing = [f"{short}.{name}" for short, names in traced.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"repeatersim.{short}"),
                                       name, None))]
    assert missing == []
