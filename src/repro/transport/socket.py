"""Real TCP transport: the paper's deployment substrate, over asyncio.

"Inter-node communication uses sockets over TCP/IP" -- this module is
the first transport where a :class:`~repro.runtime.node.Node` talks to
its peers through an actual network stack instead of a function call.
Three layers (see docs/TRANSPORT.md):

* **stream framing** -- each TCP stream carries length-prefixed
  *records*; a record's payload is exactly one transport buffer, i.e.
  one wire-encoded packet or one multi-packet batch frame
  (:func:`repro.runtime.wire.encode_frame`) -- the PR2 wire format,
  verbatim.  :class:`StreamDecoder` reassembles records across
  arbitrary read boundaries.
* **per-link connections** -- every (src, dst) pair gets its own
  dialed connection (records flow one way per connection, like the
  paper's TyCOd channel pairs), opened lazily on first send, with a
  versioned handshake carrying the dialer's node id, connection
  attempt and code-cache generation.  Lost connections reconnect with
  capped exponential backoff; an unclean drop is surfaced to the node
  as :meth:`~repro.runtime.node.Node.on_link_reset` (crash-restart
  semantics: in-flight code requests re-drive, plain messages may be
  lost).
* **backpressure** -- each link owns a bounded outbound queue (sends
  block when it fills) and an optional :class:`TokenBucket` rate
  limiter; both are visible in
  :class:`~repro.transport.base.TransportStats`.

:class:`SocketWorld` runs the whole network in one process (one
stepping thread per node, as in the threaded world, plus one asyncio
loop thread owning every endpoint) -- that is what the differential
and chaos-proxy tests drive.  :mod:`repro.runtime.cluster` reuses
:class:`SocketEndpoint` unchanged to run each node as a genuine OS
process (``python -m repro daemon``).
"""

from __future__ import annotations

import asyncio
import struct
import threading
import time as _time
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import Node

from .clock import monotime
from .wallclock import WallClockWorld

MAGIC = b"DTCO"
#: Version of the stream protocol (framing + handshake layout).  The
#: *payload* format inside records is governed by docs/WIRE.md and
#: carries its own tags; this number only changes when the stream
#: layer itself does.
WIRE_VERSION = 1

#: Upper bound on one record: a defence against a desynchronised or
#: hostile stream turning a garbage length prefix into a giant
#: allocation.  Far above any real frame (code bundles are KBs).
MAX_RECORD = 16 * 1024 * 1024

_LEN = struct.Struct(">I")
_HELLO = struct.Struct(">4sBIIH")     # magic, version, attempt, generation, len(ip)
_ACK = struct.Struct(">4sBB")         # magic, status, version

ACK_OK = 0
ACK_BAD_VERSION = 1
ACK_BAD_MAGIC = 2

#: Gap between the stable observations that stand in for exact
#: accounting under the chaos proxy or after an unclean drop.
_STABLE_GAP_S = 0.005


def encode_record(payload: bytes) -> bytes:
    """One stream record: 4-byte big-endian length + payload."""
    return _LEN.pack(len(payload)) + payload


class StreamDecoder:
    """Incremental record reassembly over an arbitrary byte stream.

    Feed it whatever ``recv`` returned -- half a length prefix, three
    records and a tail, one byte -- and it yields each complete record
    payload exactly once, in order.  Kept free of any socket so the
    reassembly logic is unit-testable byte-by-byte.
    """

    def __init__(self, max_record: int = MAX_RECORD) -> None:
        self.max_record = max_record
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        out: list[bytes] = []
        while True:
            if len(self._buf) < _LEN.size:
                return out
            (size,) = _LEN.unpack_from(self._buf)
            if size > self.max_record:
                raise ValueError(
                    f"record of {size} bytes exceeds the "
                    f"{self.max_record}-byte bound (desynchronised stream?)")
            if len(self._buf) < _LEN.size + size:
                return out
            out.append(bytes(self._buf[_LEN.size:_LEN.size + size]))
            del self._buf[:_LEN.size + size]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete record."""
        return len(self._buf)


def encode_hello(ip: str, attempt: int, generation: int,
                 version: int = WIRE_VERSION) -> bytes:
    raw = ip.encode()
    return _HELLO.pack(MAGIC, version, attempt, generation, len(raw)) + raw


def decode_hello(payload: bytes) -> tuple[bytes, int, int, int, str]:
    """-> (magic, version, attempt, generation, ip).  Raises ValueError
    on a truncated record."""
    if len(payload) < _HELLO.size:
        raise ValueError("truncated handshake")
    magic, version, attempt, generation, iplen = _HELLO.unpack_from(payload)
    ip = payload[_HELLO.size:_HELLO.size + iplen].decode()
    return magic, version, attempt, generation, ip


def encode_ack(status: int, version: int = WIRE_VERSION) -> bytes:
    return _ACK.pack(MAGIC, status, version)


def decode_ack(payload: bytes) -> tuple[int, int]:
    """-> (status, version)."""
    magic, status, version = _ACK.unpack_from(payload)
    if magic != MAGIC:
        raise ValueError("bad handshake ack")
    return status, version


class TokenBucket:
    """Deterministic token-bucket rate limiter (reserve semantics).

    ``reserve(n)`` always succeeds and returns how long the caller
    must wait before acting -- the bucket balance may go negative, so
    callers queue behind each other in FIFO order instead of busy
    retrying (the py-evm token bucket's trick).  Pure function of the
    injected clock: unit-testable without sleeping.
    """

    def __init__(self, rate: float, capacity: float,
                 clock: Callable[[], float] = monotime) -> None:
        if rate <= 0 or capacity <= 0:
            raise ValueError("rate and capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = self.capacity
        self._updated = clock()

    def _refill(self, now: float) -> None:
        self._tokens = min(self.capacity,
                           self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def reserve(self, n: float = 1.0) -> float:
        """Take ``n`` tokens; return the seconds to wait before using
        them (0.0 when the bucket covers the cost now)."""
        now = self._clock()
        self._refill(now)
        self._tokens -= n
        if self._tokens >= 0.0:
            return 0.0
        return -self._tokens / self.rate


class _Link:
    """Dialer-side state for one (src, dst) connection."""

    __slots__ = ("dst", "queue", "sem", "event", "task", "state",
                 "attempt", "writing", "dropped")

    def __init__(self, dst: str, queue_limit: int) -> None:
        self.dst = dst
        self.queue: deque[bytes] = deque()
        self.sem = threading.Semaphore(queue_limit)
        self.event: Optional[asyncio.Event] = None  # created on the loop
        self.task: Optional[asyncio.Task] = None
        self.state = "connecting"      # connecting | up | rejected | closed
        self.attempt = 0
        self.writing = False
        self.dropped = 0

    def is_idle(self) -> bool:
        """Nothing queued, nothing mid-write, and not in a state where
        progress is still expected (a reconnecting link that already
        carried traffic counts as busy until it is back up)."""
        if self.queue or self.writing:
            return False
        if self.state == "connecting" and self.attempt >= 1:
            return False
        return True


class LoopThread:
    """One asyncio event loop on a daemon thread, shared by every
    endpoint (and the chaos proxy) of a process."""

    def __init__(self, name: str = "dityco-io") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._started = False

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()
        # Drain cancellations scheduled during shutdown, then close.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self.loop.close()

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def call(self, coro, timeout: float = 10.0):
        """Run a coroutine on the loop from a foreign thread."""
        fut = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return fut.result(timeout)

    def stop(self, timeout: float = 5.0) -> None:
        if not self._started:
            # The loop never ran, so ``_run`` will not close it (nor its
            # self-pipe sockets): close it here.
            self.loop.close()
            return
        if not self._thread.is_alive():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()


class SocketEndpoint:
    """One node's TCP presence: a listening server for inbound records
    and one dialed link per destination for outbound records.

    Thread model: :meth:`send` is called from node stepping threads
    (it only touches locks, queues and semaphores); everything that
    touches a socket runs on the shared :class:`LoopThread`.
    """

    def __init__(self, ip: str,
                 deliver: Callable[[str, str, bytes], None],
                 resolve: Callable[[str], tuple[str, int]],
                 loop: LoopThread,
                 stats=None,
                 stats_lock: Optional[threading.Lock] = None,
                 on_link_reset: Optional[Callable[[str], None]] = None,
                 on_reset_observed: Optional[Callable[[str], None]] = None,
                 generation: Callable[[], int] = lambda: 0,
                 host: str = "127.0.0.1",
                 version: int = WIRE_VERSION,
                 accept_version: int = WIRE_VERSION,
                 rate_limit: Optional[float] = None,
                 burst: float = 64.0,
                 queue_limit: int = 1024,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 1.0) -> None:
        from .base import TransportStats

        self.ip = ip
        self.host = host
        self.port: Optional[int] = None
        self.deliver = deliver
        self.resolve = resolve
        self.loop = loop
        self.stats = stats if stats is not None else TransportStats()
        self.stats_lock = stats_lock or threading.Lock()
        self.on_link_reset = on_link_reset
        self.on_reset_observed = on_reset_observed
        self.generation = generation
        self.version = version
        self.accept_version = accept_version
        self.rate_limit = rate_limit
        self.burst = burst
        self.queue_limit = queue_limit
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.bucket = (TokenBucket(rate_limit, burst)
                       if rate_limit is not None else None)
        self._links: dict[str, _Link] = {}
        self._links_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._inbound: set[asyncio.StreamWriter] = set()
        #: Last handshake seen per dialing peer: ip -> (attempt, generation).
        self.peer_hello: dict[str, tuple[int, int]] = {}
        self.records_delivered = 0
        self.records_dropped = 0      # dead-lettered (rejected link)
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, port: int = 0) -> int:
        """Bind and start the listening server; returns the bound port."""
        self.port = self.loop.call(self._start(port))
        return self.port

    async def _start(self, port: int) -> int:
        self._server = await asyncio.start_server(
            self._serve, host=self.host, port=port)
        return self._server.sockets[0].getsockname()[1]

    def close(self) -> None:
        """Tear everything down (idempotent): link tasks, dialed
        connections, inbound connections, the server socket."""
        if self._closed:
            return
        self._closed = True
        if self.loop.alive:
            try:
                self.loop.call(self._close(), timeout=5.0)
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        # Unblock any node thread parked on a full queue.
        with self._links_lock:
            for link in self._links.values():
                link.sem.release()

    async def _close(self) -> None:
        with self._links_lock:
            links = list(self._links.values())
        for link in links:
            link.state = "closed"
            if link.task is not None:
                link.task.cancel()
        tasks = [link.task for link in links if link.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def links_idle(self) -> bool:
        """Every link drained, at rest, and not mid-reconnect."""
        with self._links_lock:
            return all(link.is_idle() for link in self._links.values())

    def pending_tasks(self) -> int:
        """Link tasks not yet finished (0 after a clean close)."""
        with self._links_lock:
            return sum(1 for link in self._links.values()
                       if link.task is not None and not link.task.done())

    def queue_depths(self) -> dict[str, int]:
        """Outbound queue depth per destination ip (a point-in-time
        snapshot; the cluster plane's ``load`` scrape surfaces it)."""
        with self._links_lock:
            return {dst: len(link.queue)
                    for dst, link in self._links.items()}

    # -- outbound ------------------------------------------------------------

    def send(self, dst_ip: str, data: bytes) -> None:
        """Queue one record for ``dst_ip`` (called from node threads).
        Blocks while the link's bounded queue is full (backpressure);
        dead-letters the record if the link was rejected or closed."""
        link = self._link(dst_ip)
        if link.state in ("rejected", "closed"):
            self._count_dropped(link, 1)
            return
        if not link.sem.acquire(blocking=False):
            with self.stats_lock:
                self.stats.backpressure_waits += 1
            while not link.sem.acquire(timeout=0.05):
                if self._closed or link.state in ("rejected", "closed"):
                    self._count_dropped(link, 1)
                    return
        with self._links_lock:
            link.queue.append(data)
            depth = len(link.queue)
        with self.stats_lock:
            if depth > self.stats.queue_peak:
                self.stats.queue_peak = depth
        self.loop.loop.call_soon_threadsafe(self._kick, link)

    def _kick(self, link: _Link) -> None:
        if link.event is not None:
            link.event.set()

    def _link(self, dst_ip: str) -> _Link:
        with self._links_lock:
            link = self._links.get(dst_ip)
            if link is None:
                link = _Link(dst_ip, self.queue_limit)
                self._links[dst_ip] = link
                self.loop.loop.call_soon_threadsafe(self._spawn, link)
            return link

    def _spawn(self, link: _Link) -> None:
        if link.task is None and not self._closed:
            link.event = asyncio.Event()
            link.task = self.loop.loop.create_task(self._run_link(link))

    async def _run_link(self, link: _Link) -> None:
        backoff = self.backoff_base
        while not self._closed and link.state != "closed":
            link.state = "connecting"
            try:
                host, port = await asyncio.get_running_loop().run_in_executor(
                    None, self.resolve, link.dst)
                reader, writer = await asyncio.open_connection(host, port)
            except (OSError, LookupError):
                # Peer unreachable or not yet in the directory (its
                # registration may still be propagating): back off.
                await asyncio.sleep(backoff)
                backoff = min(self.backoff_cap, backoff * 2)
                continue
            try:
                accepted = await self._handshake(link, reader, writer)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                writer.close()
                await asyncio.sleep(backoff)
                backoff = min(self.backoff_cap, backoff * 2)
                continue
            if not accepted:
                link.state = "rejected"
                self._dead_letter(link)
                writer.close()
                return
            backoff = self.backoff_base
            link.attempt += 1
            link.state = "up"
            with self.stats_lock:
                self.stats.handshakes += 1
                if link.attempt >= 2:
                    self.stats.reconnects += 1
            if link.attempt >= 2 and self.on_link_reset is not None:
                self.on_link_reset(link.dst)
            try:
                await self._drain(link, reader, writer)
            except (OSError, ConnectionError):
                pass
            finally:
                link.writing = False
                writer.close()
            if self._closed or link.state == "closed":
                return
            # The connection died under us: unclean drop.
            with self.stats_lock:
                self.stats.resets += 1
            if self.on_reset_observed is not None:
                self.on_reset_observed(link.dst)

    async def _handshake(self, link: _Link, reader, writer) -> bool:
        writer.write(encode_record(encode_hello(
            self.ip, link.attempt + 1, self.generation(),
            version=self.version)))
        await writer.drain()
        size = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
        status, _version = decode_ack(await reader.readexactly(size))
        if status != ACK_OK:
            with self.stats_lock:
                self.stats.handshake_failures += 1
            return False
        return True

    async def _drain(self, link: _Link, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Ship queued records until the connection breaks.  The head
        record is only dequeued after a successful drain, so a record
        interrupted mid-write is re-sent on the next connection
        (at-least-once for the interrupted record; duplicates are
        tolerated by the protocol layer).

        The acceptor never writes after its handshake ack, so a read
        on the connection acts as an EOF watchdog: it completes only
        when the peer closed or reset the connection, letting an idle
        link notice a dead peer without waiting for a write to fail.
        """
        loop = asyncio.get_running_loop()
        eof = loop.create_task(reader.read(1))
        try:
            while not self._closed and link.state == "up":
                if eof.done():
                    raise ConnectionResetError("peer closed the connection")
                with self._links_lock:
                    head = link.queue[0] if link.queue else None
                if head is None:
                    link.event.clear()
                    waiter = loop.create_task(link.event.wait())
                    done, _pending = await asyncio.wait(
                        {waiter, eof}, timeout=0.5,
                        return_when=asyncio.FIRST_COMPLETED)
                    waiter.cancel()
                    continue
                if self.bucket is not None:
                    wait = self.bucket.reserve(1.0)
                    if wait > 0.0:
                        with self.stats_lock:
                            self.stats.throttled += 1
                            self.stats.throttle_wait_s += wait
                        await asyncio.sleep(wait)
                link.writing = True
                try:
                    writer.write(encode_record(head))
                    await writer.drain()
                finally:
                    link.writing = False
                with self._links_lock:
                    link.queue.popleft()
                link.sem.release()
        finally:
            eof.cancel()

    def _dead_letter(self, link: _Link) -> None:
        with self._links_lock:
            dropped = len(link.queue)
            link.queue.clear()
        for _ in range(dropped):
            link.sem.release()
        self._count_dropped(link, dropped)

    def _count_dropped(self, link: _Link, count: int) -> None:
        # Node threads and the loop thread both dead-letter, and the
        # world's exact quiescence check reads the total: lock it.
        with self.stats_lock:
            link.dropped += count
            self.records_dropped += count

    # -- inbound -------------------------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self._inbound.add(writer)
        try:
            try:
                size = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
                hello = await reader.readexactly(min(size, MAX_RECORD))
                magic, version, attempt, generation, peer = \
                    decode_hello(hello)
            except (asyncio.IncompleteReadError, ValueError, OSError):
                return
            if magic != MAGIC:
                writer.write(encode_record(encode_ack(ACK_BAD_MAGIC)))
                await writer.drain()
                with self.stats_lock:
                    self.stats.handshake_failures += 1
                return
            if version != self.accept_version:
                writer.write(encode_record(encode_ack(ACK_BAD_VERSION)))
                await writer.drain()
                with self.stats_lock:
                    self.stats.handshake_failures += 1
                return
            writer.write(encode_record(encode_ack(ACK_OK)))
            await writer.drain()
            reconnect = attempt >= 2
            self.peer_hello[peer] = (attempt, generation)
            if reconnect and self.on_link_reset is not None:
                self.on_link_reset(peer)
            decoder = StreamDecoder()
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                for record in decoder.feed(chunk):
                    self.records_delivered += 1
                    self.deliver(peer, self.ip, record)
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._inbound.discard(writer)
            writer.close()


class SocketWorld(WallClockWorld):
    """The full network over real TCP, one process: node stepping
    threads (the scheduler of :mod:`repro.transport.wallclock`, as in
    :class:`~repro.transport.threaded.ThreadedWorld`) plus one asyncio
    loop thread owning every :class:`SocketEndpoint`.

    ``proxy`` (a :class:`~repro.testkit.proxy.ChaosProxy`) interposes
    a fault-injecting TCP relay on every link; the world then mirrors
    the proxy's drop/dup counters under the names the chaos invariant
    checkers expect (``chaos_dropped``, ``chaos_duplicated``,
    ``delivery_balance`` ...), so the same checkers run unmodified
    against real sockets.
    """

    _thread_prefix = "dityco-socket"

    def __init__(self, quantum: int = 512,
                 host: str = "127.0.0.1",
                 rate_limit: Optional[float] = None,
                 burst: float = 64.0,
                 queue_limit: int = 1024,
                 version: int = WIRE_VERSION,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 1.0) -> None:
        super().__init__(quantum)
        self.host = host
        self.rate_limit = rate_limit
        self.burst = burst
        self.queue_limit = queue_limit
        self.version = version
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.io = LoopThread()
        self.proxy = None
        self._endpoints: dict[str, SocketEndpoint] = {}
        self._addrs: dict[str, tuple[str, int]] = {}
        self.records_sent = 0
        self.records_delivered = 0
        #: Peers whose links suffered an unclean drop -- the socket
        #: analogue of the simulator's ``crashed_ever`` (loss markers
        #: for the invariant checkers).
        self.crashed_ever: set[str] = set()

    # -- world interface -----------------------------------------------------

    def add_node(self, node: "Node") -> None:
        super().add_node(node)
        self._endpoints[node.ip] = SocketEndpoint(
            node.ip, deliver=self._deliver,
            resolve=lambda dst, src=node.ip: self._resolve(src, dst),
            loop=self.io, stats=self.stats, stats_lock=self._lock,
            on_link_reset=lambda peer, ip=node.ip: self._on_reset(ip, peer),
            on_reset_observed=lambda peer, ip=node.ip:
                self._note_reset(ip, peer),
            generation=node.code_generation,
            host=self.host, version=self.version,
            rate_limit=self.rate_limit, burst=self.burst,
            queue_limit=self.queue_limit,
            backoff_base=self.backoff_base, backoff_cap=self.backoff_cap)

    def use_proxy(self, proxy) -> None:
        """Route every link through a chaos relay (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("attach the proxy before starting")
        self.proxy = proxy

    def endpoint(self, ip: str) -> SocketEndpoint:
        return self._endpoints[ip]

    def link_queue_depths(self) -> dict[str, dict[str, int]]:
        """Per-endpoint outbound queue depths, ``src -> dst -> count``
        (the ``load`` control command and ``repro obs top`` read it)."""
        return {ip: endpoint.queue_depths()
                for ip, endpoint in sorted(self._endpoints.items())}

    def _resolve(self, src_ip: str, dst_ip: str) -> tuple[str, int]:
        if self.proxy is not None:
            return self.proxy.relay_addr(src_ip, dst_ip)
        return self._addrs[dst_ip]

    def _routable(self, dst_ip: str) -> bool:
        """Whether ``dst_ip`` is a known destination (the daemon world
        overrides this to consult the cluster's node directory)."""
        return dst_ip in self.nodes

    def _send(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        if not self._routable(dst_ip):
            raise LookupError(f"no node at {dst_ip}")
        with self._lock:
            self.stats.packets += 1
            self.stats.bytes += len(data)
            self.records_sent += 1
            in_flight = self.records_sent - self.records_delivered
            if in_flight > self.stats.max_in_flight:
                self.stats.max_in_flight = in_flight
        self.trace("send", src_ip, dst_ip, len(data))
        self._endpoints[src_ip].send(dst_ip, data)

    def _deliver(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        """A record arrived at ``dst_ip``'s endpoint (loop thread).
        The destination turns busy in the same locked step that counts
        the record delivered: the exact quiescence check never sees it
        counted while its destination looks idle (a mobility control
        packet wakes no site)."""
        dst = self.nodes[dst_ip]
        with self._recv_locks[dst_ip]:
            dst.receive(data)
        with self._lock:
            self.records_delivered += 1
            self._generations[dst_ip] += 1
            self._busy[dst_ip] = True
        self.trace("deliver", src_ip, dst_ip, len(data))
        self._wake(dst_ip)

    def _note_reset(self, ip: str, peer: str) -> None:
        """An endpoint observed an unclean connection drop (loop
        thread): records may have died in a kernel buffer, so exact
        accounting is off for the rest of the run."""
        if self._stop.is_set():
            return    # teardown closes connections; that is not a fault
        self.crashed_ever.add(ip)
        self.crashed_ever.add(peer)

    def _on_reset(self, ip: str, peer: str) -> None:
        """A link to ``peer`` was re-established after an unclean
        drop: let the node re-drive its in-flight code requests."""
        if self._stop.is_set():
            return
        self._note_reset(ip, peer)
        node = self.nodes.get(ip)
        if node is not None:
            node.on_link_reset(peer)
            self._wake(ip)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self.io.start()
        for ip, endpoint in self._endpoints.items():
            port = endpoint.start()
            self._addrs[ip] = (self.host, port)
        if self.proxy is not None:
            self.proxy.start(self.io, dict(self._addrs))
        super().start()

    def shutdown(self) -> None:
        """Stop node threads, endpoints, proxy and the IO loop
        (idempotent)."""
        super().shutdown()
        for endpoint in self._endpoints.values():
            endpoint.close()
        if self.proxy is not None:
            self.proxy.close()
        self.io.stop()

    # -- quiescence ----------------------------------------------------------

    def _expected_deliveries(self) -> int:
        expected = self.records_sent
        expected -= sum(e.records_dropped for e in self._endpoints.values())
        if self.proxy is not None:
            expected -= self.proxy.dropped_total
            expected += self.proxy.duplicated_total
        return expected

    def _accounted(self) -> bool:
        # After an unclean drop records may have died in a kernel
        # buffer, so the counts never close again.
        return (bool(self.crashed_ever)
                or self.records_delivered == self._expected_deliveries())

    def _links_idle(self) -> bool:
        return all(e.links_idle() for e in self._endpoints.values())

    def _snapshot(self):
        with self._lock:
            gens = dict(self._generations)
            busy = any(self._busy.values())
            sent = self.records_sent
            delivered = self.records_delivered
            accounted = self._accounted()
        proxy_pending = 0 if self.proxy is None else self.proxy.pending()
        quiet = (not busy and accounted and proxy_pending == 0
                 and self._links_idle()
                 and not any(n.has_work() for n in self.nodes.values()))
        fingerprint = (tuple(sorted(gens.items())), sent, delivered,
                       proxy_pending,
                       None if self.proxy is None else
                       self.proxy.fingerprint())
        return quiet, fingerprint

    def _settled(self) -> bool:
        if self.proxy is None and not self.crashed_ever:
            return self._links_idle()
        # The accounting alone cannot prove the wire drained (relay
        # state lives in the proxy; a reset may have eaten records):
        # demand identical quiet fingerprints on consecutive
        # observations, three after an unclean drop.
        last = None
        for _ in range(3 if self.crashed_ever else 2):
            if last is not None:
                _time.sleep(_STABLE_GAP_S)
            quiet, fingerprint = self._snapshot()
            if not quiet or (last is not None and fingerprint != last):
                return False
            last = fingerprint
        return True

    def run(self, max_time: float | None = None) -> float:
        """Start (if needed) and wait for global inactivity: no node
        busy, every record delivered or accounted dropped, every link
        idle (see :mod:`repro.transport.wallclock`).

        Unlike the threaded world this does *not* require strict
        :meth:`Node.is_quiescent`: a site parked on an unanswerable
        FETCH is passive, and fault-injecting proxy runs legitimately
        end in that state (the chaos corpus observes it).  Use
        :meth:`is_quiescent` to assert the strict notion afterwards.
        """
        return self._await_quiet(max_time, self._settled)

    # -- chaos-checker surface (mirrors ChaosWorld) --------------------------

    @property
    def deliveries(self) -> int:
        return self.records_delivered

    @property
    def chaos_dropped(self) -> int:
        return 0 if self.proxy is None else self.proxy.dropped_total

    @property
    def chaos_duplicated(self) -> int:
        return 0 if self.proxy is None else self.proxy.duplicated_total

    @property
    def dropped_packets(self) -> int:
        """Records dead-lettered by the endpoints themselves."""
        return sum(e.records_dropped for e in self._endpoints.values())

    @property
    def in_flight(self) -> int:
        """Best-effort records-on-the-wire estimate.  After an unclean
        drop the true number is unknowable (bytes may have died in a
        kernel buffer); report 0 once the world is stable so checkers
        that disarm on in-flight traffic still run."""
        if self.crashed_ever:
            return 0
        return max(0, self._expected_deliveries() - self.records_delivered)

    def delivery_balance(self) -> int:
        """``deliveries - (sent + duplicated - dropped)``, exactly as
        the chaos world defines it."""
        return self.records_delivered - self._expected_deliveries()


