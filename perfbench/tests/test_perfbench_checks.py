"""The benchmark's own checks: each wrong result must count as a failure.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import sys
import time
import types

import numpy as np
import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import cli_session  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from repeatersim import applications as apps  # noqa: E402
from repeatersim import montecarlo as mc  # noqa: E402
from repeatersim.protocol import RepeaterParams  # noqa: E402

MC_PARAMS = RepeaterParams(excitation_prob=0.01, pulse_time=1e-6, local_efficiency=1.0,
                           swap_efficiency=2 / 3, app_efficiency=0.5, dark_prob=0.0,
                           segment_length=1e-9)


def failed_count(op_result, check):
    """Run one operation through the recorder and return its failure count."""
    rec = harness.Recorder()
    rec.run(harness.Op("probe", lambda: op_result, check))
    return rec.failed


@pytest.mark.parametrize("policy", ["parallel_max", "serial_redo"])
def test_perturbed_mc_array_fails(policy):
    cfg = mc.TrialConfig(seed=3, n_trials=400, policy=policy)
    out = mc.chain_times(MC_PARAMS, 1, cfg)
    check = lambda r: checks.chain_samples(r, MC_PARAMS, 1, cfg, [0, 399])  # noqa: E731
    assert failed_count(out, check) == 0
    wrong = out.copy()
    wrong[0] = np.nextafter(wrong[0], np.inf)
    assert failed_count(wrong, check) == 1


def test_thread_outputs_must_be_bit_identical():
    cfg = mc.TrialConfig(seed=5, n_trials=200)
    one = mc.chain_times(MC_PARAMS, 2, cfg)
    assert checks.identical("t", one, one.copy()) == []
    wrong = one.copy()
    wrong[-1] = np.nextafter(wrong[-1], 0.0)
    assert checks.identical("t", wrong, one)


def test_generation_mean_check_catches_a_biased_sampler():
    cfg = mc.TrialConfig(seed=9, n_trials=20_000)
    out = mc.generation_times(MC_PARAMS, cfg)
    assert checks.generation_samples(out, MC_PARAMS, cfg, [0]) == []
    assert checks.generation_samples(out * 1.05, MC_PARAMS, cfg, []) != []


def test_chsh_off_by_1e6_fails():
    value = apps.chsh_value(0.0, 0.0, 1.0)
    assert failed_count(value, checks.chsh) == 0
    assert failed_count(value + 1e-6, checks.chsh) == 1


def test_teleport_fidelity_099_fails():
    qubit = apps.PolarizationQubit.from_bloch(1.0, 2.0)
    res = apps.teleport(qubit, 1.0, 1.0)
    check = lambda r: checks.teleport(r, 1.0, 1.0)  # noqa: E731
    assert failed_count(res, check) == 0
    wrong = types.SimpleNamespace(output_fidelity=0.99, pattern_prob=res.pattern_prob,
                                  success_prob=res.success_prob)
    assert failed_count(wrong, check) == 1


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    return cli_session.Workload(cli_session.DEFAULT_SEED, str(tmp_path_factory.mktemp("cli")))


def golden(label):
    with open(os.path.join(cli_session.GOLDEN_DIR, f"{label}.out"), "rb") as fh:
        return fh.read()


def test_cli_golden_stdout_passes(workload):
    for label in ("rates", "chain", "optimize", "chsh", "teleport", "ekert"):
        assert workload.check(label, 0, (0, golden(label), b"", 0)) == [], label


def test_cli_wrong_exit_code_fails(workload):
    assert failed_count((0, b"", b"numeric failure: x\n", 0),
                        lambda r: workload.check("reject_numeric", 3, r)) == 1
    assert failed_count((1, golden("rates"), b"", 0),
                        lambda r: workload.check("rates", 0, r)) == 1


def test_cli_changed_stdout_byte_fails(workload):
    out = bytearray(golden("rates"))
    i = out.index(b"0.4")
    out[i + 2] = ord("5")         # kappa_prime 0.4 -> 0.5
    fails = workload.check("rates", 0, (0, bytes(out), b"", 0))
    assert any("golden" in f for f in fails)
    assert any("kappa_prime" in f for f in fails)


def test_failed_operation_makes_the_run_incorrect():
    workload = types.SimpleNamespace(cycle=lambda k: [harness.Op("bad", lambda: 1.0,
                                                                 lambda r: ["wrong"])],
                                     cycle_s=1.0, kernel_reps=1)
    rec = harness.Recorder()
    harness.timed_run(workload, 1e-9, rec)
    metrics, _ = harness.end_to_end(rec, 1.0, 1.0)
    assert json.loads(harness.result_line(rec, metrics))["correct"] is False


def test_timed_run_runs_a_fixed_cycle_count():
    noop = harness.Op("noop", lambda: None, lambda r: [])
    workload = types.SimpleNamespace(cycle=lambda k: [noop, noop], cycle_s=0.5,
                                     kernel_reps=1)
    rec = harness.Recorder()
    assert harness.timed_run(workload, 1.6, rec) == 3    # however fast the operations
    assert rec.attempted == len(rec.latency) == len(rec.raw_latency) == 6
    assert len(rec.scales) == 6


def test_times_are_scaled_to_reference_host_speed(monkeypatch):
    # a host running the kernel at half the reference speed halves every time
    monkeypatch.setattr(hostspeed.Kernel, "samples",
                        lambda self, reps: [2 * hostspeed.REF_S] * reps)
    nap = harness.Op("nap", lambda: time.sleep(0.01), lambda r: [])
    workload = types.SimpleNamespace(cycle=lambda k: [nap], cycle_s=1.0, kernel_reps=2)
    rec = harness.Recorder()
    harness.timed_run(workload, 1.0, rec)
    assert rec.scales == [0.5]
    assert rec.latency == [t / 2 for t in rec.raw_latency]
    assert rec.cpu == [t / 2 for t in rec.raw_cpu]


def test_raising_operation_counts_as_failed():
    def boom():
        raise ValueError("boom")
    assert failed_count(None, lambda r: []) == 0
    rec = harness.Recorder()
    rec.run(harness.Op("boom", boom, lambda r: []))
    assert rec.failed == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rec = harness.Recorder()
    rec.latency, rec.cpu = [0.1] * 20, [0.1] * 20
    metrics, _ = harness.end_to_end(rec, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: u for k, (_, u) in metrics.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_tail_has_ten_samples_beyond_it():
    rec = harness.Recorder()
    rec.latency = [i / 1000 for i in range(1, 101)]
    rec.cpu = rec.latency
    metrics, tail = harness.end_to_end(rec, 1.0, 1.0)
    assert metrics["op_tail_ms"][0] == pytest.approx(90.0)
    assert tail == {"percentile": 90.0, "beyond": 10, "samples": 100}


def test_measure_calls_per_outcome_counts_repeats():
    def span(name, parent, key=None):
        return [name, 0.0, 0.0, parent, 0, 0.0, 0, key]
    spans = [span("applications.correlation", -1)]
    for mode in (3, 2):
        spans.append(span("fock.detector_probability", 0, (7, mode, "click", 4)))
        spans.append(span("fock.measure_detector", 0, (7, mode, "click", 4)))
    spans.append(span("fock.detector_probability", 0, (8, 0, "click", 1)))
    assert tracer.measure_calls_per_outcome(spans) == 2.0
    assert tracer.measure_calls_per_outcome(spans[:1] + spans[2:3]) == 1.0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | _io",
        "import time:       400 |        400 |         scipy",
        "import time:       500 |       1000 |       scipy.integrate",
        "import time:       200 |       1500 |     repeatersim.ensemble",
        "import time:       300 |       2000 |   repeatersim",
        "import time:        50 |       2050 | repeatersim.cli",
    ])
    own, scipy = cli_session.parse_importtime(text)
    assert own == pytest.approx(2050e-6)
    assert scipy == pytest.approx(1000e-6)


def test_level_probs_match_the_library_chain():
    from repeatersim.protocol import chain
    rows = chain(MC_PARAMS.with_(levels=3))
    for got, row in zip(checks.level_probs(MC_PARAMS, 3), rows[1:]):
        assert got == pytest.approx(row.success_prob, rel=1e-12)
    assert checks.draws_per_trial(MC_PARAMS, 1) == pytest.approx(3 / rows[1].success_prob)
    assert math.isclose(checks.click_prob(MC_PARAMS), mc.click_probability(MC_PARAMS))
