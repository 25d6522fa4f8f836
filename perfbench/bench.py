"""The four benchmark workloads and one measured batch of each.

A *batch* builds the workload's fabric ``SETUPS`` times (each build is
one ``setup_s`` sample), builds it once more to carry a fixed amount of
traffic through the public API, checks every output and returns plain
numbers.  :mod:`run` runs each batch in a fresh interpreter, so no
cache survives from one batch to the next and batches are independent
samples.

Workloads (see README.md for why each was chosen):

``pubsub``      ``run_workload`` on the simulator, open loop, 1000 ops.
``agents``      ``run_workload`` on the simulator, open loop, 1000 tours.
``rpc``         one client on n1 calling a server on n0, closed loop,
                5000 sequential rounds on the simulator.
``socket_rpc``  the same program over real TCP (``SocketWorld``),
                200 warm-up rounds then 2000 measured rounds.
"""

from __future__ import annotations

import random
import resource
import threading
import time
from pathlib import Path

from repro.runtime.network import DiTyCONetwork
from repro.workloads import APPS, WorkloadSpec, generate_trace, run_workload

from tracing import Tracer, install, uninstall

WORKLOADS = ("pubsub", "agents", "rpc", "socket_rpc")

#: Operations (rounds for rpc) per batch.
SIZES = {"pubsub": 1000, "agents": 1000, "rpc": 5000, "socket_rpc": 2000}
#: socket_rpc rounds run before the measured ones (TCP connect, first
#: compiles); they are checked but not timed.
SOCKET_WARMUP = 200
#: Fabric builds per batch; setup_s is the median over all of them.
SETUPS = 5
#: Slices of equal work the traffic's wall time is cut into.
SEGMENTS = 200
#: Wall-clock bound on each socket drain (a timeout fails the rounds
#: still missing instead of hanging the benchmark).
SOCKET_DRAIN_S = 60.0

SERVER_SRC = """
export new svc
def Serve(self) = self?{ call(k, p, reply) = (reply![k] | Serve[self]) }
in Serve[svc]
"""


def client_src(rounds: int, stride: int) -> str:
    """Sequential calls: round ``k`` sends ``k`` and a payload integer
    ``k * stride`` (its wire size is what the seed varies) and prints
    the reply before calling again."""
    return f"""
    import svc from server in
    def Loop(k) =
      if k < {rounds} then
        new a (svc!call[k, k * {stride}, a]
               | a?(v) = (print![v] | Loop[k + 1]))
      else print!["done"]
    in Loop[0]
    """


def spec_for(workload: str, seed: int) -> WorkloadSpec:
    if workload == "pubsub":
        return WorkloadSpec("pubsub", seed=seed, ops=SIZES["pubsub"],
                            nodes=3, topics=2, subscribers=4)
    return WorkloadSpec("agents", seed=seed, ops=SIZES["agents"],
                        nodes=3, stages=3)


def payload_stride(seed: int) -> int:
    return random.Random(seed).randrange(1, 1 << 24)


class _Tap(list):
    """A site's console list that timestamps every printed value and
    sets ``finished`` when the client prints ``"done"``."""

    def __init__(self, base, clock):
        super().__init__(base)
        self.clock = clock
        self.stamps: list[float] = []
        self.walls: list[float] = []
        self.finished = threading.Event()

    def append(self, item):
        self.extend((item,))

    def extend(self, items):
        items = list(items)
        now, wall = self.clock(), time.perf_counter()
        super().extend(items)
        self.stamps.extend(now for _ in items)
        self.walls.extend(wall for _ in items)
        if "done" in items:
            self.finished.set()


# -- statistics --------------------------------------------------------------


def nearest_rank(sorted_values: list, q: float):
    """Nearest-rank percentile ``q`` (0..100) of an ascending list."""
    rank = max(1, -(-int(q * len(sorted_values)) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def latency_stats(samples_s: list[float]) -> dict:
    """Mean, p50 and p99 in microseconds, with the sample count."""
    ordered = sorted(samples_s)
    if not ordered:
        return {"count": 0}
    return {"count": len(ordered),
            "mean_us": sum(ordered) / len(ordered) * 1e6,
            "p50_us": nearest_rank(ordered, 50) * 1e6,
            "p99_us": nearest_rank(ordered, 99) * 1e6}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- fabric builders ----------------------------------------------------------


def build_app_fabric(spec: WorkloadSpec) -> DiTyCONetwork:
    """What ``run_workload`` does before traffic: nodes, then each
    setup phase launched and run to quiescence."""
    net = DiTyCONetwork()
    for i in range(spec.nodes):
        net.add_node(spec.node_ip(i))
    for phase in APPS[spec.workload].setup_phases(spec):
        for ip, name, src in phase:
            net.launch(ip, name, src)
        net.run()
    if not net.is_quiescent():
        raise RuntimeError(f"{spec.workload} fabric did not settle")
    return net


def _rpc_network(socket: bool) -> DiTyCONetwork:
    """An empty two-node network, on the simulator or over TCP."""
    if socket:
        from repro.transport.socket import SocketWorld

        net = DiTyCONetwork(world=SocketWorld())
    else:
        net = DiTyCONetwork()
    net.add_nodes(["n0", "n1"])
    return net


def build_rpc_fabric(socket: bool) -> DiTyCONetwork:
    """The server on n0, run until settled (on the socket world this
    starts the node threads, the I/O loop and the listeners)."""
    net = _rpc_network(socket)
    try:
        net.launch("n0", "server", SERVER_SRC)
        net.run(SOCKET_DRAIN_S if socket else None)
        if not net.is_quiescent():
            raise RuntimeError("rpc server did not settle")
    except BaseException:
        _release(net)
        raise
    return net


def _release(net: DiTyCONetwork) -> None:
    if getattr(net.world, "wall_clock", False):
        net.world.shutdown()


def _timed_setups(build, count: int) -> list[float]:
    """Time ``count`` fabric builds, releasing each one."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        net = build()
        times.append(time.perf_counter() - t0)
        _release(net)
    return times


# -- one batch ----------------------------------------------------------------


def _world_stats(net: DiTyCONetwork) -> dict:
    world = net.world
    stats = world.stats
    return {"packets": stats.packets, "bytes": stats.bytes,
            "max_in_flight": stats.max_in_flight,
            "backpressure_waits": stats.backpressure_waits,
            "queue_peak": stats.queue_peak,
            "compute_s": getattr(world, "compute_time", 0.0),
            "network_s": getattr(world, "network_time_paid", 0.0)}


def _run_app(workload: str, seed: int, setups: int, tracer) -> dict:
    spec = spec_for(workload, seed)
    setup_times = _timed_setups(lambda: build_app_fabric(spec), setups)
    # run_workload builds its own fabric, runs one DiTyCONetwork.run per
    # setup phase, then one for the traffic (first injection to drain).
    traffic_call = len(APPS[workload].setup_phases(spec))
    span_s = generate_trace(spec)[-1].at_us * 1e-6
    runs: list[DiTyCONetwork] = []
    marks: list[float] = []
    original_run = DiTyCONetwork.run

    def timed_run(net, max_time=None):
        if len(runs) == traffic_call:
            # Wall-clock marks at fixed points of the virtual schedule:
            # every batch of one seed does the same work between them.
            base = net.world.time
            for k in range(1, SEGMENTS):
                net.world.schedule_at(
                    base + span_s * k / SEGMENTS,
                    lambda: marks.append(time.perf_counter()))
            marks.append(time.perf_counter())
        runs.append(net)
        try:
            return original_run(net, max_time)
        finally:
            if len(runs) == traffic_call + 1:
                marks.append(time.perf_counter())

    DiTyCONetwork.run = timed_run
    undo = []
    try:
        if tracer is not None:
            undo = install(tracer)
            tracer.start()
        report = run_workload(spec)
        if tracer is not None:
            tracer.stop()
    finally:
        uninstall(undo)
        DiTyCONetwork.run = original_run
    completed = report.ops_completed
    failed = max(spec.ops - completed, len(report.violations))
    latency = latency_stats(report.all_latencies())
    world = _world_stats(runs[traffic_call])
    return {"setup_s": setup_times, "ops": spec.ops, "measured": spec.ops,
            "failed": min(failed, spec.ops),
            "problems": list(report.violations[:4]),
            "segments_s": _diffs(marks),
            "latency": latency, "world": world,
            "det": {"latency": latency, "world": world}}


def _diffs(stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def _every(stamps: list[float], step: int) -> list[float]:
    """Every ``step``-th stamp, always ending with the last one."""
    picked = stamps[::max(1, step)]
    if picked[-1:] != stamps[-1:]:
        picked.append(stamps[-1])
    return picked


def _run_rpc(workload: str, seed: int, setups: int, tracer) -> dict:
    if workload == "rpc":
        return _rpc_batch(False, SIZES["rpc"], 0, seed, setups, tracer)
    result = _rpc_batch(True, SIZES[workload], SOCKET_WARMUP, seed, setups,
                        tracer)
    # The same program and rounds on the simulator: the simulated
    # figures of socket_rpc, and the base its transport cost is read
    # against.
    twin = _rpc_batch(False, SIZES[workload], SOCKET_WARMUP, seed, 0, None)
    result["problems"] += twin["problems"]
    result["det"] = twin["det"]
    return result


def _rpc_batch(socket: bool, measured: int, warmup: int, seed: int,
               setups: int, tracer) -> dict:
    rounds = measured + warmup
    setup_times = _timed_setups(lambda: build_rpc_fabric(socket), setups)
    # Under tracing, spans cover exactly one server launch and one
    # client launch.
    undo = install(tracer) if tracer is not None else []
    net = None
    problems = []
    try:
        if tracer is not None:
            tracer.start()
        if socket:
            # Both sites are launched before the node threads start: a
            # launch into a running node can race Node.step (README.md).
            net = _rpc_network(socket)
            net.launch("n0", "server", SERVER_SRC)
        else:
            net = build_rpc_fabric(socket)
        clock = time.perf_counter if socket else (lambda: net.world.time)
        client = net.launch("n1", "client",
                            client_src(rounds, payload_stride(seed)))
        launched, launched_wall = clock(), time.perf_counter()
        tap = _Tap(client.vm.output, clock)
        client.vm.output = tap
        try:
            # On sockets, block until the client finishes instead of
            # polling for quiescence all through the traffic, then drain.
            if socket:
                net.world.start()
                if not tap.finished.wait(SOCKET_DRAIN_S):
                    problems.append(
                        f"client not done after {SOCKET_DRAIN_S} s")
            net.run(SOCKET_DRAIN_S if socket else None)
        except TimeoutError as exc:
            problems.append(f"drain timeout: {exc}")
        if tracer is not None:
            tracer.stop()
        world = _world_stats(net)
    finally:
        uninstall(undo)
        if net is not None:
            _release(net)
    output = list(tap)
    expected = list(range(rounds)) + ["done"]
    failed = sum(1 for k in range(rounds)
                 if k >= len(output) or output[k] != k)
    if output != expected:
        failed = max(failed, 1)
        problems.append(f"client printed {len(output)} values, "
                        f"expected {len(expected)} in order")
    stamps = [launched] + tap.stamps
    intervals = [stamps[k + 1] - stamps[k] for k in range(warmup, rounds)
                 if k + 1 < len(stamps)]
    # Wall time of the measured rounds, in slices of equal work.
    walls = ([launched_wall] + tap.walls)[warmup:rounds + 1]
    latency = latency_stats(intervals)
    result = {"setup_s": setup_times, "ops": rounds, "measured": measured,
              "failed": failed, "problems": problems[:4],
              "segments_s": _diffs(_every(walls, measured // SEGMENTS)),
              "latency": latency, "world": world}
    if not socket:
        result["det"] = {"latency": latency, "world": world}
    return result


def run_batch(workload: str, seed: int, traced: bool,
              setups: int = SETUPS, spans_path=None) -> dict:
    """One measured batch; ``traced`` adds the per-layer spans."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    tracer = Tracer() if traced else None
    runner = _run_app if workload in ("pubsub", "agents") else _run_rpc
    result = runner(workload, seed, setups, tracer)
    result["workload"] = workload
    result["traced"] = traced
    result["traffic_s"] = sum(result["segments_s"])
    result["host_ops_per_s"] = result["measured"] / result["traffic_s"]
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result)
        if spans_path is not None:
            Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
            result["spans_written"] = tracer.write(spans_path)
    return result


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    """The per-layer numbers of one traced batch."""
    s = tracer.summary()
    calls, self_s = s["calls"], s["self_s"]
    counts = tracer.counts()
    world = result["world"]
    instructions = counts["vm.instructions"]
    site_steps = calls["runtime.site_step"]
    writes = calls["nameservice.write"]
    compiles = calls["vm.compile_block"]
    return {
        "lang.parse.calls": calls["lang.parse"],
        "lang.parse.self_s": self_s["lang.parse"],
        "compiler.codegen.calls": calls["compiler.codegen"],
        "compiler.codegen.self_s": self_s["compiler.codegen"],
        "vm.compile_block.calls": compiles,
        "vm.compile_block.self_s": self_s["vm.compile_block"],
        "vm.compile_block.hit_ratio":
            counts["vm.compile_block.hits"] / compiles if compiles else 0.0,
        "runtime.submit.calls": calls["runtime.submit"],
        "runtime.submit.self_s": self_s["runtime.submit"],
        "runtime.node_step.calls": calls["runtime.node_step"],
        "runtime.node_step.self_s": self_s["runtime.node_step"],
        "runtime.site_step.calls": site_steps,
        "runtime.site_step.self_s": self_s["runtime.site_step"],
        "runtime.site_step.idle_ratio":
            counts["runtime.site_step.idle"] / site_steps
            if site_steps else 0.0,
        "vm.instructions": instructions,
        "vm.host_ns_per_instr":
            self_s["runtime.site_step"] * 1e9 / instructions
            if instructions else 0.0,
        "nameservice.writes": writes,
        "nameservice.reads": calls["nameservice.read"],
        "nameservice.self_s":
            self_s["nameservice.write"] + self_s["nameservice.read"],
        "nameservice.wakeups_per_write":
            counts["nameservice.wakeups"] / writes if writes else 0.0,
        "codecache.link.calls": calls["codecache.link"],
        "codecache.link.self_s": self_s["codecache.link"],
        "wire.encode.calls": calls["wire.encode"],
        "wire.encode.bytes": counts["wire.encode.bytes"],
        "wire.encode.self_s": self_s["wire.encode"],
        "wire.decode.calls": calls["wire.decode"],
        "wire.decode.self_s": self_s["wire.decode"],
        "transport.packets": world["packets"],
        "transport.bytes_per_op": world["bytes"] / result["ops"],
        "transport.max_in_flight": world["max_in_flight"],
        "transport.loop.self_s": self_s["transport.loop"],
        "transport.socket.backpressure_waits": world["backpressure_waits"],
        "transport.socket.queue_peak": world["queue_peak"],
        "sim.compute_s": world["compute_s"],
        "sim.network_s": world["network_s"],
        "trace.wall_s": s["wall_s"],
        "trace.unattributed_s": s["unattributed_s"],
        "trace.offthread_self_s": s["offthread_self_s"],
        "trace.spans": s["spans"],
        "trace.bad_spans": s["bad_spans"],
    }
