"""Unit tests for nodes and the TyCOd/TyCOi daemons."""

import gc
import weakref

import pytest

from repro.compiler import compile_source
from repro.runtime import DiTyCONetwork, NameService, Node


def bare_node(ip="n1", **kwargs):
    ns = NameService()
    node = Node(ip, ns, **kwargs)
    sent = []
    node.attach_transport(lambda src, dst, data: sent.append((src, dst, data)))
    return node, ns, sent


class TestSitePool:
    def test_create_site_registers_and_boots(self):
        node, ns, _ = bare_node()
        site = node.create_site("solo", compile_source("print![1]"))
        assert ns.lookup_site("solo").ip == "n1"
        node.step()
        assert site.output == [1]

    def test_multiple_sites_share_quantum(self):
        node, _, _ = bare_node()
        for i in range(4):
            node.create_site(
                f"s{i}",
                compile_source(f"def L(n) = L[n + 1] in L[{i}]"))
        report = node.step(quantum=100)
        # Budget split across sites: roughly the quantum in total.
        assert 50 <= report.instructions <= 104

    def test_step_report_busy_flag(self):
        node, _, _ = bare_node()
        report = node.step()
        assert not report.busy
        node.create_site("s", compile_source("print![1]"))
        assert node.step().busy

    def test_context_switch_delta(self):
        node, _, _ = bare_node()
        node.create_site("s", compile_source("x![1] | y![2] | z![3]"))
        r1 = node.step()
        assert r1.context_switches > 0
        r2 = node.step()
        assert r2.context_switches == 0  # idle now

    def test_site_lookup_by_name(self):
        node, _, _ = bare_node()
        site = node.create_site("named", compile_source("0"))
        assert node.site("named") is site


class TestTyCOd:
    def test_local_routing_same_node(self):
        node, _, sent = bare_node()
        node.create_site("server",
                         compile_source("export new svc svc?(w) = print![w]"))
        node.step()
        node.create_site("client",
                         compile_source("import svc from server in svc![3]"))
        for _ in range(5):
            node.step()
        assert node.site("server").output == [3]
        assert sent == []  # never touched the transport
        assert node.tycod.stats.local_deliveries >= 1

    def test_remote_routing_uses_transport(self):
        node, ns, sent = bare_node()
        # Register a fake remote site so the import resolves to another ip.
        ns.register_site("faraway", "other-ip")
        ns.export_name("faraway", "svc", 7)
        node.create_site("client",
                         compile_source("import svc from faraway in svc![1]"))
        for _ in range(5):
            node.step()
        assert len(sent) == 1
        src, dst, data = sent[0]
        assert (src, dst) == ("n1", "other-ip")
        assert isinstance(data, bytes)
        assert node.tycod.stats.remote_sends == 1

    def test_receive_routes_to_site(self):
        from repro.runtime.wire import KIND_MESSAGE, Packet, encode

        node, ns, _ = bare_node()
        site = node.create_site(
            "server", compile_source("export new svc svc?(w) = print![w]"))
        node.step()
        heap_id = ns.lookup_name("server", "svc").heap_id
        pkt = Packet(kind=KIND_MESSAGE, src_ip="x", src_site_id=99,
                     dest_ip="n1", dest_site_id=site.site_id,
                     payload=(heap_id, "val", (5,)))
        node.receive(encode(pkt))
        node.step()
        assert site.output == [5]

    def test_receive_for_unknown_site(self):
        from repro.runtime.wire import KIND_MESSAGE, Packet, encode

        node, _, _ = bare_node()
        pkt = Packet(kind=KIND_MESSAGE, src_ip="x", src_site_id=1,
                     dest_ip="n1", dest_site_id=42, payload=(1, "val", ()))
        with pytest.raises(LookupError):
            node.receive(encode(pkt))


class TestTyCOi:
    def test_submit_source(self):
        node, _, _ = bare_node()
        node.tycoi.submit("s", "print![9]")
        node.step()
        assert node.site("s").output == [9]
        assert node.tycoi.submissions == 1

    def test_submit_program_object(self):
        node, _, _ = bare_node()
        node.tycoi.submit("s", compile_source("print![8]"))
        node.step()
        assert node.site("s").output == [8]

    def test_submit_rejects_other_types(self):
        node, _, _ = bare_node()
        with pytest.raises(TypeError):
            node.tycoi.submit("s", 42)

    def test_reap_removes_finished_sites(self):
        node, _, _ = bare_node()
        node.tycoi.submit("done", "print![1]")
        node.tycoi.submit("waiting", "new x x![1]")  # queues forever
        for _ in range(3):
            node.step()
        reaped = node.tycoi.reap()
        assert reaped == 1
        assert "done" not in [s.site_name for s in node.sites.values()]
        # The site with a live queue survives.
        assert any(s.site_name == "waiting" for s in node.sites.values())

    def test_reap_frees_the_site(self):
        net = DiTyCONetwork()
        net.add_node("n1")
        net.launch("n1", "done", "print![1]")
        net.launch("n1", "waiting", "new x x![1]")  # queues forever
        net.run()
        node = net.node("n1")
        ref = weakref.ref(net.site("done"))
        assert node.tycoi.reap() == 1
        gc.collect()
        assert ref() is None
        assert "done" not in node.sites_by_name
        with pytest.raises(KeyError):
            net.site("done")
        assert net.site("waiting").site_name == "waiting"
        # Names are never reused: the SiteTable row stays.
        assert net.nameservice.lookup_site("done").ip == "n1"

    def test_reap_after_round_trip_migration_frees_every_incarnation(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "hop", "new x (x![1] | x?(w) = print![w])")
        net.launch("n1", "keep", "new x x![1]")
        net.run()
        first = weakref.ref(net.site("hop"))
        net.migrate("hop", "n2")
        net.run()
        away = weakref.ref(net.site("hop"))
        net.migrate("hop", "n1")
        net.run()
        home = net.node("n1").sites_by_name["hop"]
        assert home.ip == "n1" and home.output == [1]
        # The node it visited holds nothing to reap any more.
        assert net.node("n2").tycoi.reap() == 0
        assert net.node("n1").sites_by_name["hop"] is home
        del home
        assert net.node("n1").tycoi.reap() == 1
        gc.collect()
        assert first() is None and away() is None
        assert "hop" not in net.node("n1").sites_by_name
        assert net.site("keep").ip == "n1"

    def test_reap_keeps_a_namesake_name_entry(self):
        # Reaping a site drops its name entry only while that entry
        # names the reaped object, not another one bound to the name.
        node, _, _ = bare_node()
        reaped = node.create_site("s", compile_source("print![1]"))
        node.step()
        namesake = node.create_site("s2", compile_source("new x x![1]"))
        node.sites_by_name["s"] = namesake
        node.step()
        assert node.tycoi.reap() == 1
        assert reaped.site_id not in node.sites
        assert node.sites_by_name["s"] is namesake

    def test_typechecking_node_rejects_bad_source(self):
        from repro.types import TycoTypeError

        ns = NameService()
        node = Node("n1", ns, typecheck=True)
        node.attach_transport(lambda *a: None)
        with pytest.raises(TycoTypeError):
            node.tycoi.submit("bad", "new x (x![true] | x?(n) = y![n + 1])")


class TestNameServiceFanOut:
    def test_one_subscription_per_node_and_one_wakeup_per_site(self,
                                                                monkeypatch):
        from repro.runtime.site import Site

        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        for i in range(12):
            net.launch(f"n{i % 2 + 1}", f"s{i}", "new x x![1]")
        net.run()
        assert len(net.nameservice._subscribers) == 2
        calls = []
        monkeypatch.setattr(Site, "on_nameservice_update",
                            lambda site: calls.append(site.site_name))
        net.nameservice.register_site("probe", "n1")
        live = [s.site_name for node in net.world.nodes.values()
                for s in node.sites.values()]
        assert sorted(calls) == sorted(live)


class TestQuiescence:
    def test_has_work_and_is_quiescent(self):
        node, _, _ = bare_node()
        assert not node.has_work()
        assert node.is_quiescent()
        node.create_site("s", compile_source("print![1]"))
        assert node.has_work()
        assert not node.is_quiescent()
        node.step()
        assert node.is_quiescent()

    def test_stalled_import_blocks_quiescence(self):
        node, _, _ = bare_node()
        node.create_site("s", compile_source(
            "import ghost from nowhere in ghost![1]"))
        node.step()
        assert not node.is_quiescent()  # stalled, not finished
        assert not node.has_work()      # but nothing runnable

    def test_aggregate_stats(self):
        node, _, _ = bare_node()
        node.create_site("a", compile_source("new x (x![1] | x?(w) = 0)"))
        node.create_site("b", compile_source("def C() = 0 in C[]"))
        for _ in range(3):
            node.step()
        assert node.total_reductions() == 2
        assert node.total_instructions() > 0
