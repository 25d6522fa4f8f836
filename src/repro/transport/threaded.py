"""Threaded transport: the paper's deployment architecture, in-process.

"A DiTyCO node is implemented as a Unix process.  The sites, the
communication daemon (TyCOd), and the user interface daemon (TyCOi)
are implemented as threads sharing the address space of the node."

:class:`ThreadedWorld` runs one OS thread per node (the scheduler in
:mod:`repro.transport.wallclock`, shared with the socket world); each
thread loops over :meth:`Node.step` and parks on an event when the
node has no work.  Buffers between nodes are handed straight to the
destination's TyCOd -- the in-process stand-in for the cluster
interconnect (the paper's Myrinet switch is substituted per DESIGN.md:
same code path, no physical network).

Global quiescence is exact and event-driven: :meth:`ThreadedWorld.run`
sleeps on the world's condition until no node is busy, no buffer is
in flight and every node passes the strict
:meth:`Node.is_quiescent`.  Every wakeup marks its node busy before
the node can park, so no scan can miss work in between (see
:mod:`repro.transport.wallclock`).  The algorithmic alternative
(Safra's token ring, the paper's future-work termination detection)
lives in :mod:`repro.runtime.termination` and is exercised by
experiment E12.
"""

from __future__ import annotations

from .wallclock import WallClockWorld


class ThreadedWorld(WallClockWorld):
    """One thread per node, direct hand-off, wall-clock time."""

    def __init__(self, quantum: int = 512) -> None:
        super().__init__(quantum)
        self._in_flight = 0

    def _send(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        dst = self.nodes.get(dst_ip)
        if dst is None:
            raise LookupError(f"no node at {dst_ip}")
        with self._lock:
            self._in_flight += 1
            self.stats.packets += 1
            self.stats.bytes += len(data)
            if self._in_flight > self.stats.max_in_flight:
                self.stats.max_in_flight = self._in_flight
        # Deliver directly into the destination's TyCOd; the receiving
        # node thread processes the packet on its next quantum.  The
        # per-destination lock serialises concurrent senders into one
        # node so a multi-packet batch frame is enqueued atomically --
        # without it, another sender could interleave its packets
        # between the frame's chunks and break per-(src, dst) FIFO
        # observation on the receiving site queues.  The destination
        # is marked busy before the packet stops counting as in flight.
        try:
            with self._recv_locks[dst_ip]:
                dst.receive(data)
            self._wake(dst_ip)
        finally:
            with self._lock:
                self._in_flight -= 1

    def _accounted(self) -> bool:
        return self._in_flight == 0

    def run(self, max_time: float | None = None) -> float:
        """Start (if needed) and wait for global quiescence.

        Returns the wall-clock seconds waited.  Raises ``TimeoutError``
        if ``max_time`` elapses first.
        """
        return self._await_quiet(max_time, lambda: all(
            n.is_quiescent() for n in self.nodes.values()))
