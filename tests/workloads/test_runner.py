"""The open-loop runner end to end on the simulator (plus
threaded-world runs): completion, correctness of effects, latency
recording, and same-(spec, seed) bit-determinism.
"""

import hashlib
import json
import sys

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.workloads import (WorkloadError, WorkloadSpec, expected_outputs,
                             run_workload)

SPECS = {
    "pubsub": WorkloadSpec("pubsub", seed=11, ops=30, rate_per_s=8000.0,
                           nodes=3, topics=2, subscribers=3),
    "mapreduce": WorkloadSpec("mapreduce", seed=12, ops=30,
                              rate_per_s=8000.0, nodes=3, workers=2),
    "agents": WorkloadSpec("agents", seed=13, ops=30, rate_per_s=8000.0,
                           nodes=3, stages=3),
}


@pytest.fixture(scope="module")
def reports():
    return {name: run_workload(spec) for name, spec in SPECS.items()}


class TestSimRuns:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_all_ops_complete_without_violations(self, reports, name):
        rep = reports[name]
        assert rep.violations == []
        assert rep.ops_completed == SPECS[name].ops
        assert rep.makespan_s > 0

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_latencies_are_nonnegative_and_ordered(self, reports, name):
        # Zero is legitimate: an op whose client, hub and collector all
        # share a node runs entirely on the local fast path, advancing
        # no virtual time.  Negative would mean a broken stopwatch.
        rep = reports[name]
        assert all(s >= 0 for s in rep.all_latencies())
        assert rep.percentile(50) <= rep.percentile(99)
        assert rep.percentile(100) == max(rep.all_latencies())

    def test_mapreduce_probe_reads_exact_total(self, reports):
        spec = SPECS["mapreduce"]
        want = expected_outputs(spec)["probe"]
        # The runner already checked this (violations == []); re-derive
        # the arithmetic here so the oracle itself is anchored.
        from repro.workloads import generate_trace

        assert want == (sum(a.key ** 2 for a in generate_trace(spec)),)

    def test_latency_histogram_lands_in_registry(self, reports):
        text = reports["pubsub"].registry.render()
        assert "repro_workload_latency_seconds" in text
        assert 'repro_workload_ops_total{workload="pubsub",op="publish"}' \
            in text
        assert 'repro_workload_makespan_seconds{workload="pubsub"}' in text

    def test_registry_percentiles_agree_with_exact_samples(self, reports):
        # The bucketed histogram estimate must bracket reality: within
        # one geometric bucket (4x) of the exact nearest-rank value.
        rep = reports["pubsub"]
        fam = rep.registry._families["repro_workload_latency_seconds"]
        hist = fam.series[("pubsub", "publish")]
        exact = rep.percentile(50, "publish")
        est = hist.percentile(50)
        assert exact / 4 <= est <= exact * 4


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_same_spec_same_everything(self, reports, name):
        rerun = run_workload(SPECS[name])
        rep = reports[name]
        assert rerun.latencies == rep.latencies      # exact float equality
        assert rerun.summary() == rep.summary()
        assert rerun.registry.render() == rep.registry.render()

    def test_reap_cadence_never_changes_answers(self):
        # Reaping drained op sites shifts the per-site scheduling
        # quantum, so *timings* legitimately move with the cadence --
        # which is why the runner pins one default.  The observable
        # answers must not move at all.
        spec = SPECS["pubsub"]
        a = run_workload(spec, reap_every=4)
        b = run_workload(spec, reap_every=0)          # never reap
        assert a.violations == b.violations == []
        assert a.ops_completed == b.ops_completed == spec.ops


#: sha256 of ``run_workload(...).summary()`` (sim world, seed 3, 200
#: ops).  Freeing reaped sites, subscribing each node to the name
#: service once and sharing code objects between same-shape blocks
#: must leave every schedule bit-identical; these digests predate all
#: three.
PINNED_SUMMARIES = {
    "pubsub": "c13f2b0a1d9acd00b958ad85848747a581106c8d3dc2896703b7a0f9ed45184e",
    "agents": "1efb9bbb9daca17e078dccb6e32d3417ad435057d181a3244472c13cda980e24",
}


@pytest.mark.parametrize("name", sorted(PINNED_SUMMARIES))
def test_schedule_pinned(name):
    summary = run_workload(WorkloadSpec(name, seed=3, ops=200)).summary()
    digest = hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_SUMMARIES[name], summary


class TestRunnerEdges:
    def test_unknown_world_rejected(self):
        with pytest.raises(WorkloadError, match="unknown world"):
            run_workload(SPECS["pubsub"], world="quantum")

    def test_external_registry_is_used(self):
        registry = MetricsRegistry()
        rep = run_workload(SPECS["agents"], registry=registry)
        assert rep.registry is registry
        assert "repro_workload_latency_seconds" in registry.render()

    def test_summary_is_json_shaped(self, reports):
        import json

        s = reports["agents"].summary()
        assert json.loads(json.dumps(s)) == s
        assert s["completed"] == s["ops"]
        assert s["violations"] == []


def test_threaded_world_smoke():
    spec = WorkloadSpec("pubsub", seed=21, ops=10, rate_per_s=500.0,
                        nodes=2, topics=1, subscribers=2)
    rep = run_workload(spec, world="threaded", max_time=20.0)
    assert rep.violations == []
    assert rep.ops_completed == spec.ops
    assert all(s > 0 for s in rep.all_latencies())


@pytest.mark.parametrize("seed", range(3))
def test_threaded_open_loop_with_concurrent_launches(seed):
    # Every op is launched from this thread while the node threads
    # iterate their site pools.  Iterating a live pool crashed a node
    # thread with "dictionary changed size during iteration", and the
    # drain then timed out.
    spec = WorkloadSpec("pubsub", seed=seed, ops=300, rate_per_s=1000.0,
                        nodes=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)        # interleave the threads finely
    try:
        rep = run_workload(spec, world="threaded", max_time=20.0)
    finally:
        sys.setswitchinterval(interval)
    assert rep.violations == []
    assert rep.ops_completed == spec.ops
