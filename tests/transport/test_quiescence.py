"""Event-driven quiescence on the wall-clock worlds.

``run()`` on ThreadedWorld and SocketWorld sleeps on a condition that
the node threads notify when they park, and returns as soon as no node
is busy and the accounting closes -- no fixed sleeps on the exact path.
These tests pin that down: no ``time.sleep`` from ``run()``, no early
return while a slow step is still running, ``max_time`` still honoured,
and the dead-letter counters the exact check reads never lose a count.
"""

import sys
import threading
import time

import pytest

from repro.runtime import DiTyCONetwork
from repro.transport import SocketWorld, ThreadedWorld
from repro.transport.socket import LoopThread, SocketEndpoint

WORLDS = pytest.mark.parametrize("world_cls", [ThreadedWorld, SocketWorld],
                                 ids=["threaded", "socket"])

SERVER = """
export new svc
def Serve(self) = self?{ call(k, reply) = (reply![k] | Serve[self]) }
in Serve[svc]
"""


def client(rounds: int) -> str:
    """Sequential cross-node calls, each reply printed before the next."""
    return f"""
    import svc from server in
    def Loop(k) =
      if k < {rounds} then
        new a (svc!call[k, a] | a?(v) = (print![v] | Loop[k + 1]))
      else print!["done"]
    in Loop[0]
    """


def _network(world_cls):
    world = world_cls()
    net = DiTyCONetwork(world=world)
    net.add_nodes(["n1", "n2"])
    return net, world


def _record_main_thread_sleeps(monkeypatch) -> list:
    """Spy on ``time.sleep`` -- the object both transport modules call
    as ``_time.sleep`` -- recording calls made by this thread, the one
    that runs ``run()``."""
    calls = []
    real = time.sleep
    me = threading.current_thread()

    def spy(seconds):
        if threading.current_thread() is me:
            calls.append(seconds)
        real(seconds)

    monkeypatch.setattr(time, "sleep", spy)
    return calls


@WORLDS
def test_run_never_sleeps_on_the_exact_path(world_cls, monkeypatch):
    sleeps = _record_main_thread_sleeps(monkeypatch)
    net, world = _network(world_cls)
    try:
        net.launch("n1", "server", SERVER)
        net.run(max_time=30.0)
        # A settled network: run() returns without waiting at all.
        net.run(max_time=30.0)
        # Launch into running node threads, with cross-node sends.
        net.launch("n2", "client", client(3))
        net.run(max_time=30.0)
        assert net.site("client").output == [0, 1, 2, "done"]
        assert net.is_quiescent()
    finally:
        world.shutdown()
    assert sleeps == []


SINK = """
export new sink
def Print(self) = self?(v) = (print![v] | Print[self])
in Print[sink]
"""


@WORLDS
def test_slow_step_never_cut_short(world_cls):
    rounds = 3
    for _ in range(10):
        net, world = _network(world_cls)
        node = net.node("n1")
        real_step = node.step
        slow = threading.Event()

        def slow_step(quantum=256, real_step=real_step, node=node,
                      slow=slow):
            sent = node.tycod.stats.remote_sends
            report = real_step(quantum)
            if node.tycod.stats.remote_sends != sent:
                # A slow step (20 ms) right after sending remotely.
                slow.set()
                time.sleep(0.02)
                slow.clear()
            return report

        node.step = slow_step
        try:
            net.launch("n1", "server", SERVER)
            net.launch("n2", "printer", SINK)
            net.launch("n2", "client", client(rounds))
            net.run(max_time=30.0)
            assert not slow.is_set(), "run() returned mid-step"
            assert net.site("client").output == \
                list(range(rounds)) + ["done"]
            # One-way sends from a node that was parked: its slow step
            # is the only thing still running once the sink printed.
            net.launch("n1", "pusher",
                       "import sink from printer in (sink![1] | sink![2])")
            net.run(max_time=30.0)
            assert not slow.is_set(), "run() returned mid-step"
            assert sorted(net.site("printer").output) == [1, 2]
            assert net.is_quiescent()
        finally:
            world.shutdown()


def test_unresolved_import_times_out_on_threaded_world():
    net, world = _network(ThreadedWorld)
    try:
        net.launch("n1", "orphan", "import svc from nowhere in svc![1]")
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            net.run(max_time=0.2)
        waited = time.monotonic() - start
        assert 0.2 <= waited < 5.0
        assert not net.is_quiescent()
    finally:
        world.shutdown()


def test_dead_letter_counts_survive_concurrent_senders():
    """Node threads dead-letter in ``send`` while the loop thread does
    in ``_dead_letter``; a lost ``+=`` would leave delivered != expected
    for good.  Hammer one rejected link from several threads."""
    loop = LoopThread()
    endpoint = SocketEndpoint("a", deliver=lambda *_: None,
                              resolve=lambda ip: ("127.0.0.1", 1),
                              loop=loop)
    link = endpoint._link("b")
    link.state = "rejected"
    threads, per_thread = 4, 5000
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(
            target=lambda: [endpoint.send("b", b"x")
                            for _ in range(per_thread)])
            for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old_interval)
        loop.loop.close()
    assert not any(w.is_alive() for w in workers)
    assert endpoint.records_dropped == threads * per_thread
    assert link.dropped == threads * per_thread
