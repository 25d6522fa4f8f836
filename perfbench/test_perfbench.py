"""Checks of the benchmark itself: layer wrappers, determinism, outputs.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Batches here are small (a few hundred ops) so the file runs in well
under a minute; the predictions are the ones README.md states for the
full-size workloads.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from repro.workloads import run_workload  # noqa: E402

SMALL = {"pubsub": 150, "agents": 150, "rpc": 400, "socket_rpc": 150}
HELD_OUT_SEED = 90210


@pytest.fixture(autouse=True)
def small_batches(monkeypatch):
    for workload, ops in SMALL.items():
        monkeypatch.setitem(bench.SIZES, workload, ops)
    monkeypatch.setattr(bench, "SOCKET_WARMUP", 20)


def batch(workload, seed=1, traced=False):
    result = bench.run_batch(workload, seed, traced, setups=2)
    assert result["failed"] == 0, result["problems"]
    assert not result["problems"]
    return result


@pytest.fixture(scope="module")
def traced_runs():
    """One traced batch per workload, shared by the wrapper checks."""
    with pytest.MonkeyPatch.context() as mp:
        for workload, ops in SMALL.items():
            mp.setitem(bench.SIZES, workload, ops)
        mp.setattr(bench, "SOCKET_WARMUP", 20)
        return {w: batch(w, traced=True)["layers"] for w in bench.WORKLOADS}


# Layers each workload is predicted to load (README.md, "Per-layer
# metrics").
WORKING = {
    "pubsub": ["lang.parse", "compiler.codegen", "vm.compile_block",
               "runtime.submit", "runtime.node_step", "runtime.site_step",
               "wire.encode", "wire.decode"],
    "agents": ["lang.parse", "compiler.codegen", "vm.compile_block",
               "runtime.submit", "runtime.node_step", "runtime.site_step",
               "codecache.link", "wire.encode", "wire.decode"],
    "rpc": ["vm.compile_block", "runtime.node_step", "runtime.site_step",
            "wire.encode", "wire.decode"],
    "socket_rpc": ["vm.compile_block", "runtime.node_step",
                   "runtime.site_step", "wire.encode", "wire.decode"],
}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_predicted_layers_record_calls(traced_runs, workload):
    layers = traced_runs[workload]
    for layer in WORKING[workload]:
        assert layers[f"{layer}.calls"] > 0, layer
        assert layers[f"{layer}.self_s"] > 0, layer
    assert layers["vm.instructions"] > 0
    assert layers["nameservice.writes"] > 0
    assert layers["nameservice.reads"] > 0
    assert layers["transport.packets"] > 0


def test_open_loop_workloads_load_the_name_service(traced_runs):
    for workload in ("pubsub", "agents"):
        layers = traced_runs[workload]
        # One site registration per op plus the fabric's exports.
        assert layers["nameservice.writes"] > SMALL[workload]
        assert layers["nameservice.wakeups_per_write"] > 10


@pytest.mark.parametrize("workload", ["rpc", "socket_rpc"])
def test_rpc_bypasses_front_end_and_name_service(traced_runs, workload):
    layers = traced_runs[workload]
    assert layers["lang.parse.calls"] == 2          # server + client
    assert layers["compiler.codegen.calls"] == 2
    assert layers["runtime.submit.calls"] == 2
    assert layers["nameservice.writes"] <= 4
    assert layers["codecache.link.calls"] == 0


def test_only_agents_link_fetched_code(traced_runs):
    assert traced_runs["pubsub"]["codecache.link.calls"] == 0
    assert traced_runs["agents"]["codecache.link.calls"] > 0


def test_socket_world_work_lands_on_node_threads(traced_runs):
    layers = traced_runs["socket_rpc"]
    assert layers["trace.offthread_self_s"] > 0
    assert layers["sim.compute_s"] == 0


def test_wrapper_on_defining_module_alone_misses_daemon_calls():
    # The daemon binds ``encode``/``decode`` by name, so a wrapper on
    # repro.runtime.wire alone records nothing on rpc traffic.
    tracer = tracing.Tracer()
    only_module = {"wire.encode": (("repro.runtime.wire", "encode"),),
                   "wire.decode": (("repro.runtime.wire", "decode"),)}
    undo = tracing.install(tracer, only_module)
    try:
        batch("rpc")
    finally:
        tracing.uninstall(undo)
    calls = tracer.summary()["calls"]
    assert calls["wire.encode"] == 0
    assert calls["wire.decode"] == 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_attribution_adds_up(traced_runs, workload):
    layers = traced_runs[workload]
    assert layers["trace.bad_spans"] == 0
    assert layers["trace.unattributed_s"] >= 0
    self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_s - layers["trace.offthread_self_s"] \
        + layers["trace.unattributed_s"] \
        == pytest.approx(layers["trace.wall_s"], abs=1e-6)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_sim_results_repeat_exactly_traced_or_not(workload):
    first = batch(workload)
    second = batch(workload)
    traced = batch(workload, traced=True)
    assert first["det"] == second["det"] == traced["det"]
    if workload == "socket_rpc":
        return      # its simulated figures come from an untraced twin
    again = batch(workload, traced=True)
    assert traced["layers"]["vm.instructions"] \
        == again["layers"]["vm.instructions"]
    assert traced["layers"]["transport.bytes_per_op"] \
        == again["layers"]["transport.bytes_per_op"]


@pytest.mark.parametrize("workload", ["pubsub", "agents"])
def test_segment_marks_leave_the_schedule_alone(workload):
    plain = run_workload(bench.spec_for(workload, 1))
    marked = batch(workload)
    assert marked["det"]["latency"] \
        == bench.latency_stats(plain.all_latencies())
    assert len(marked["segments_s"]) == bench.SEGMENTS


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_held_out_seed_passes_output_checks(workload):
    result = batch(workload, seed=HELD_OUT_SEED)
    assert result["latency"]["count"] == SMALL[workload]


def test_seed_changes_rpc_inputs():
    a = batch("rpc", seed=1)["det"]["world"]["bytes"]
    b = batch("rpc", seed=2)["det"]["world"]["bytes"]
    assert a != b


def test_spans_are_written(tmp_path):
    path = tmp_path / "spans.txt"
    result = bench.run_batch("rpc", 1, True, setups=1, spans_path=path)
    lines = path.read_text().splitlines()
    assert len(lines) - 1 == result["spans_written"] \
        == result["layers"]["trace.spans"]
    thread, index, layer, start, end, parent = lines[1].split()
    assert layer in tracing.BINDINGS
    assert int(end) >= int(start)
    assert int(parent) < int(index)
