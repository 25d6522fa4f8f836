"""Unit tests for the asyncio TCP transport (repro.transport.socket).

Covers the stream layer without sockets (StreamDecoder, TokenBucket,
handshake codec), endpoint behaviour over real loopback TCP
(version-mismatch rejection, reconnect with backoff after a peer
restart, token-bucket throttling surfaced in TransportStats), and
SocketWorld end-to-end runs with clean shutdown.
"""

import gc
import threading
import time
import warnings

import pytest

from repro.runtime import DiTyCONetwork
from repro.transport import SocketWorld
from repro.transport.socket import (
    ACK_BAD_VERSION,
    ACK_OK,
    LoopThread,
    SocketEndpoint,
    StreamDecoder,
    TokenBucket,
    decode_ack,
    decode_hello,
    encode_ack,
    encode_hello,
    encode_record,
)

SERVER = "export new svc svc?(r) = r![7]"
CLIENT = "import svc from server in new a (svc![a] | a?(w) = print![w])"


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestStreamDecoder:
    def test_byte_by_byte_reassembly(self):
        records = [b"hello", b"", b"x" * 1000, b"tail"]
        stream = b"".join(encode_record(r) for r in records)
        decoder = StreamDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i:i + 1]))
        assert out == records
        assert decoder.pending_bytes == 0

    def test_many_records_in_one_chunk(self):
        records = [bytes([i]) * i for i in range(20)]
        stream = b"".join(encode_record(r) for r in records)
        decoder = StreamDecoder()
        assert decoder.feed(stream) == records

    def test_short_write_boundary_split(self):
        # Split exactly inside the length prefix of the second record.
        a, b = encode_record(b"first"), encode_record(b"second")
        stream = a + b
        cut = len(a) + 2
        decoder = StreamDecoder()
        assert decoder.feed(stream[:cut]) == [b"first"]
        assert decoder.pending_bytes == 2
        assert decoder.feed(stream[cut:]) == [b"second"]

    def test_oversize_record_rejected(self):
        decoder = StreamDecoder(max_record=64)
        with pytest.raises(ValueError):
            decoder.feed(encode_record(b"y" * 65))


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=lambda: clock[0])
        assert bucket.reserve() == 0.0
        assert bucket.reserve() == 0.0
        # Bucket empty: the third caller waits one token period, the
        # fourth queues behind it (reserve semantics, FIFO).
        assert bucket.reserve() == pytest.approx(0.1)
        assert bucket.reserve() == pytest.approx(0.2)

    def test_refill_capped_at_capacity(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=lambda: clock[0])
        for _ in range(4):
            bucket.reserve()
        clock[0] = 100.0            # long idle: refills to capacity only
        assert bucket.reserve() == 0.0
        assert bucket.reserve() == 0.0
        assert bucket.reserve() > 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)


class TestHandshakeCodec:
    def test_hello_roundtrip(self):
        magic, version, attempt, gen, ip = decode_hello(
            encode_hello("node-17", attempt=3, generation=9, version=1))
        assert (version, attempt, gen, ip) == (1, 3, 9, "node-17")

    def test_ack_roundtrip(self):
        assert decode_ack(encode_ack(ACK_OK)) == (ACK_OK, 1)
        assert decode_ack(encode_ack(ACK_BAD_VERSION))[0] == ACK_BAD_VERSION

    def test_truncated_hello_rejected(self):
        with pytest.raises(ValueError):
            decode_hello(b"DT")


class _Harness:
    """A pair-of-endpoints fixture over real loopback sockets."""

    def __init__(self):
        self.loop = LoopThread(name="test-io")
        self.loop.start()
        self.directory = {}
        self.delivered = []
        self.endpoints = []

    def endpoint(self, ip, port=0, **kw):
        ep = SocketEndpoint(
            ip,
            deliver=lambda src, dst, data: self.delivered.append(
                (src, dst, data)),
            resolve=lambda dst: self.directory[dst],
            loop=self.loop, **kw)
        self.directory[ip] = ("127.0.0.1", ep.start(port))
        self.endpoints.append(ep)
        return ep

    def close(self):
        for ep in self.endpoints:
            ep.close()
        self.loop.stop()


@pytest.fixture
def harness():
    h = _Harness()
    try:
        yield h
    finally:
        h.close()


class TestSocketEndpoint:
    def test_records_delivered_across_links(self, harness):
        a = harness.endpoint("a")
        harness.endpoint("b")
        payloads = [b"r%d" % i for i in range(50)]
        for p in payloads:
            a.send("b", p)
        assert wait_until(lambda: len(harness.delivered) == 50)
        assert [d for (_s, _d, d) in harness.delivered] == payloads
        assert all(src == "a" and dst == "b"
                   for (src, dst, _data) in harness.delivered)
        assert a.stats.handshakes == 1

    def test_version_mismatch_rejected(self, harness):
        a = harness.endpoint("a", version=2)
        b = harness.endpoint("b")          # accepts WIRE_VERSION == 1
        a.send("b", b"doomed")
        assert wait_until(lambda: a.records_dropped >= 1)
        assert a.stats.handshake_failures >= 1
        assert b.stats.handshake_failures >= 1
        assert harness.delivered == []
        # The link is dead-lettered, not retried: further sends drop
        # immediately instead of queueing forever.
        a.send("b", b"also-doomed")
        assert a.records_dropped >= 2

    def test_reconnect_with_backoff_after_peer_restart(self, harness):
        resets = []
        a = harness.endpoint("a", backoff_base=0.01, backoff_cap=0.1,
                             on_link_reset=resets.append)
        b = harness.endpoint("b")
        b_port = harness.directory["b"][1]
        a.send("b", b"before")
        assert wait_until(lambda: len(harness.delivered) == 1)
        # Kill b entirely, then poke the link until a notices the drop.
        b.close()
        harness.endpoints.remove(b)
        a.send("b", b"sacrificial")
        assert wait_until(lambda: a.stats.resets >= 1)
        # Queue real traffic while the peer is down, then bring it back
        # on the same port: the link must redial and drain the queue.
        a.send("b", b"queued-during-outage")
        harness.endpoint("b", port=b_port)
        assert wait_until(lambda: any(
            data == b"queued-during-outage"
            for (_s, _d, data) in harness.delivered))
        assert a.stats.reconnects >= 1
        assert resets == ["b"]
        hello = harness.endpoints[-1].peer_hello["a"]
        assert hello[0] >= 2               # reconnect attempt number

    def test_token_bucket_throttling_in_stats(self, harness):
        a = harness.endpoint("a", rate_limit=200.0, burst=1.0)
        harness.endpoint("b")
        for i in range(30):
            a.send("b", b"tick%d" % i)
        assert wait_until(lambda: len(harness.delivered) == 30)
        assert a.stats.throttled > 0
        assert a.stats.throttle_wait_s > 0.0

    def test_bounded_queue_backpressure(self, harness):
        a = harness.endpoint("a", queue_limit=4, rate_limit=50.0, burst=1.0)
        harness.endpoint("b")
        done = threading.Event()

        def producer():
            for i in range(12):
                a.send("b", b"p%d" % i)
            done.set()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        assert wait_until(lambda: len(harness.delivered) == 12)
        assert done.is_set()
        assert a.stats.backpressure_waits > 0
        assert a.stats.queue_peak <= 4


class TestSocketWorld:
    def _run(self, programs, timeout=30.0, **world_kw):
        world = SocketWorld(**world_kw)
        net = DiTyCONetwork(world=world)
        net.add_nodes(sorted({ip for ip, _, _ in programs}))
        try:
            for ip, name, src in programs:
                net.launch(ip, name, src)
            net.run(max_time=timeout)
            return net, world
        finally:
            world.shutdown()

    def test_remote_message_over_tcp(self):
        net, world = self._run([("n1", "server", SERVER),
                                ("n2", "client", CLIENT)])
        assert net.site("client").output == [7]
        assert world.stats.packets >= 2
        assert world.records_delivered == world.records_sent
        assert world.stats.handshakes >= 2   # one connection each way

    def test_fetch_over_tcp(self):
        net, _world = self._run([
            ("n1", "server", "export def Applet(x) = x![6 * 7] in 0"),
            ("n2", "client",
             "import Applet from server in new v (Applet[v] | v?(w) = print![w])"),
        ])
        assert net.site("client").output == [42]
        assert net.site("client").stats.fetch_requests_sent == 1

    def test_unknown_destination_raises(self):
        world = SocketWorld()
        try:
            with pytest.raises(LookupError):
                world._send("a", "ghost", b"data")
        finally:
            world.shutdown()

    def test_shutdown_of_a_never_started_world_closes_its_loop(self):
        gc.collect()  # garbage left by earlier tests is not ours
        world = SocketWorld()
        io = world.io
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            world.shutdown()
            closed = io.loop.is_closed()
            del world, io
            gc.collect()
        assert closed
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_quiescence_timeout(self):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        try:
            net.launch("n1", "diverge", "def Loop(n) = Loop[n + 1] in Loop[0]")
            with pytest.raises(TimeoutError):
                net.run(max_time=0.3)
        finally:
            world.shutdown()

    def test_world_metrics_gain_socket_gauges(self):
        from repro.obs import world_metrics

        _net, world = self._run([("n1", "server", SERVER),
                                 ("n2", "client", CLIENT)])
        text = world_metrics(world).render()
        assert "repro_socket_handshakes_total" in text
        assert "repro_socket_reconnects_total 0" in text

    def test_sim_world_metrics_unchanged(self):
        from repro.obs import world_metrics

        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server", SERVER)
        net.launch("n2", "client", CLIENT)
        net.run()
        assert "repro_socket_" not in world_metrics(net.world).render()

    def test_clean_shutdown_no_leaks(self):
        net, world = self._run([("n1", "server", SERVER),
                                ("n2", "client", CLIENT)])
        # _run already shut the world down; everything must be at rest.
        assert not world.io.alive
        for ip in ("n1", "n2"):
            ep = world.endpoint(ip)
            assert ep.pending_tasks() == 0
            assert ep._server is None
            assert not ep._inbound
        assert all(not t.is_alive() for t in world._threads.values())
        world.shutdown()                  # idempotent
        assert net.site("client").output == [7]
