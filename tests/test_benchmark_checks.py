"""The benchmark's warm-up operations, run in process through its own checks:
a library change that breaks a result field a check reads (``checks.swap``
reads ``success_prob`` and ``c_measured``) fails here, not first in a
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    # imported with bytecode writing off, so nothing is written under perfbench/
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("harness")


@pytest.mark.parametrize("workload", ["exact_engines", "mc_waiting_times"])
def test_warmup_operations_pass_their_checks(harness, workload):
    ops = harness.warmup_ops(importlib.import_module(workload).Workload(seed=1))
    rec = harness.Recorder()
    for op in ops:
        rec.run(op)
    assert rec.attempted == len(ops) > 0
    assert rec.failures == []
