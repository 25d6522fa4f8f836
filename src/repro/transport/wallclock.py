"""The node-thread scheduler shared by the wall-clock worlds.

:class:`~repro.transport.threaded.ThreadedWorld` and
:class:`~repro.transport.socket.SocketWorld` both run the paper's
deployment shape: one OS thread per node, looping over
:meth:`Node.step` (which pumps the TyCOd and round-robins the site
pool) and parking on an event when the node has no work.  They differ
only in how a buffer reaches another node, so everything else lives
here.

Quiescence is event-driven, not polled.  Each node carries a ``busy``
flag under the world lock:

* every wakeup (:meth:`_wake`, behind ``Node.on_work_available``: a
  launch, a local route, a ``TyCOd.receive``) sets it, atomically with
  the node's wake event;
* the node thread clears its event *before* each step, and clears
  ``busy`` only when the step moved nothing, no wakeup arrived
  meanwhile and ``node.has_work()`` is false -- then it notifies
  :attr:`_quiet`, a condition on the world lock.

Work therefore always belongs to a busy node or to the world's
in-flight accounting, and :meth:`_await_quiet` sleeps on the condition
until no node is busy and the accounting closes, then asks the world's
own predicate.  A bounded wait remains only to honour ``max_time`` and
to re-read state that changes without a notify (a link writer parking).
"""

from __future__ import annotations

import threading
from abc import abstractmethod
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import Node

from .base import World
from .clock import monotime

#: How long an idle node thread parks before stepping anyway: the
#: wall-clock tick that drives distgc sweeps and mobility timers.
IDLE_TICK_S = 0.001

#: Longest single wait in :meth:`WallClockWorld._await_quiet`.
_RECHECK_S = 0.01


class WallClockWorld(World):
    """One thread per node, parked between wakeups, on the wall clock.

    Subclasses provide ``_send``, ``_accounted`` and ``run`` (which
    calls :meth:`_await_quiet` with the world's own predicate).
    """

    wall_clock = True
    _thread_prefix = "dityco-node"

    def __init__(self, quantum: int = 512) -> None:
        super().__init__()
        self.quantum = quantum
        self._threads: dict[str, threading.Thread] = {}
        self._wake_events: dict[str, threading.Event] = {}
        # Per-destination delivery locks: a multi-packet batch frame
        # is enqueued atomically, keeping per-(src, dst) FIFO intact.
        self._recv_locks: dict[str, threading.Lock] = {}
        self._generations: dict[str, int] = {}
        self._busy: dict[str, bool] = {}
        self._lock = threading.Lock()
        self._quiet = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._started = False

    @property
    def time(self) -> float:
        return monotime()

    def add_node(self, node: "Node") -> None:
        if self._started:
            raise RuntimeError("cannot add nodes after start")
        if node.ip in self.nodes:
            raise ValueError(f"duplicate node ip {node.ip}")
        self.nodes[node.ip] = node
        self._wake_events[node.ip] = threading.Event()
        self._recv_locks[node.ip] = threading.Lock()
        self._generations[node.ip] = 0
        self._busy[node.ip] = True
        node.attach_transport(self._send,
                              wakeup=lambda ip=node.ip: self._wake(ip),
                              clock=monotime)
        node.attach_obs(self.obs)

    @abstractmethod
    def _send(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        """Move one buffer to the node at ``dst_ip``."""

    @abstractmethod
    def _accounted(self) -> bool:
        """No buffer between nodes (called with the world lock held)."""

    def _wake(self, ip: str) -> None:
        """Mark ``ip`` busy and unpark its thread.  A set event already
        implies ``busy`` (the thread never clears ``busy`` while its
        event is set), so repeated wakeups skip the lock."""
        ev = self._wake_events.get(ip)
        if ev is None or ev.is_set():
            return
        with self._lock:
            self._busy[ip] = True
            ev.set()

    # -- node threads --------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for ip, node in self.nodes.items():
            t = threading.Thread(target=self._node_loop, args=(ip, node),
                                 name=f"{self._thread_prefix}-{ip}",
                                 daemon=True)
            self._threads[ip] = t
            t.start()

    def _node_loop(self, ip: str, node: "Node") -> None:
        ev = self._wake_events[ip]
        while not self._stop.is_set():
            # Clear before stepping: a wakeup landing during the step
            # stays set and is seen below, never lost.
            ev.clear()
            if node.step(self.quantum).busy:
                with self._lock:
                    self._generations[ip] += 1
                continue
            if node.has_work():
                # Queued work the step could not advance (a frozen
                # site, say): stay busy and retry on the next tick.
                ev.wait(IDLE_TICK_S)
                continue
            with self._lock:
                if ev.is_set():
                    continue
                self._busy[ip] = False
                self._quiet.notify_all()
            if not ev.wait(IDLE_TICK_S):
                with self._lock:
                    self._busy[ip] = True

    def shutdown(self) -> None:
        """Stop every node thread (idempotent)."""
        self._stop.set()
        for ev in self._wake_events.values():
            ev.set()
        for t in self._threads.values():
            t.join(timeout=2.0)
        self._threads.clear()

    # -- quiescence ----------------------------------------------------------

    def _await_quiet(self, max_time: float | None,
                     settled: Callable[[], bool]) -> float:
        """Start (if needed) and block until no node is busy, the
        accounting closes and ``settled()`` holds with no busy step in
        between.  Returns the wall-clock seconds waited; raises
        ``TimeoutError`` once ``max_time`` elapses."""
        self.start()
        start = monotime()
        deadline = None if max_time is None else start + max_time
        with self._quiet:
            while True:
                if not any(self._busy.values()) and self._accounted():
                    mark = sum(self._generations.values())
                    # ``settled`` reads node and link state under their
                    # own locks; never hold the world lock across it.
                    self._lock.release()
                    try:
                        ok = settled()
                    finally:
                        self._lock.acquire()
                    if (ok and not any(self._busy.values())
                            and mark == sum(self._generations.values())):
                        return monotime() - start
                wait = _RECHECK_S
                if deadline is not None:
                    wait = min(wait, deadline - monotime())
                    if wait <= 0:
                        raise TimeoutError(
                            "network did not reach quiescence")
                self._quiet.wait(wait)
