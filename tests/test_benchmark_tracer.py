"""The benchmark's span tracer wraps library functions by name: every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import ast
import importlib
import types
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


def lookup(module, attr):
    """``module.attr``, importing it if it is a submodule; None if neither."""
    value = getattr(importlib.import_module(module), attr, None)
    if value is None:
        try:
            value = importlib.import_module(f"{module}.{attr}")
        except ModuleNotFoundError:
            pass
    return value


def test_every_benchmark_reference_resolves():
    # every ``from repeatersim... import name`` in perfbench/*.py, and every
    # ``alias.attr`` on a package module it imports, must resolve: a deletion
    # that would break a benchmark run fails here first
    missing, checked = [], []
    for path in sorted(TRACER.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        layers = {}   # local name -> the package module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # ``import repeatersim.cli`` binds the package, ``... as x`` the module
                for a in node.names:
                    if a.name.split(".")[0] == "repeatersim":
                        name = a.asname or "repeatersim"
                        layers[name] = a.name if a.asname else name
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "repeatersim"):
                for a in node.names:
                    value = lookup(node.module, a.name)
                    checked.append(f"{node.module}.{a.name}")
                    if value is None:
                        missing.append(f"{path.name}: from {node.module} import {a.name}")
                    elif isinstance(value, types.ModuleType):
                        layers[a.asname or a.name] = value.__name__
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in layers):
                checked.append(f"{layers[node.value.id]}.{node.attr}")
                if lookup(layers[node.value.id], node.attr) is None:
                    missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert missing == []
    # the workloads call the oracles and the CLI through their layers
    assert {"repeatersim.protocol.swap_oracle", "repeatersim.montecarlo.chain_times",
            "repeatersim.cli.main"} <= set(checked)
