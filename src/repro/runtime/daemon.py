"""The node daemons: TyCOd (communication) and TyCOi (user interface).

Section 5, NODES: "The TyCOd daemon is responsible for all the data
exchange between sites in the network.  Interactions between sites may
be local, when sites belong to the same node, or remote when the sites
belong to different nodes.  Local interactions are optimized using
shared memory.  Remote interactions involve three steps: [queue ->
TyCOd -> remote TyCOd -> queue]."

"Users submit new programs for execution in a node using a shell
program called TyCOsh.  The user requests are handled by a node
manager daemon, the TyCOi."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .wire import Packet, decode, encode

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node


@dataclass(slots=True)
class DaemonStats:
    """TyCOd traffic counters (experiments E2 and ablation A3)."""

    local_deliveries: int = 0
    remote_sends: int = 0
    remote_receives: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    encode_skipped: int = 0  # local fast-path deliveries


class TyCOd:
    """The per-node communication daemon.

    ``pump`` implements steps 1-2 of the remote-interaction protocol
    (collect from site outgoing queues, route); ``receive`` implements
    step 3 (deposit into the destination site's incoming queue).

    When ``local_fast_path`` is enabled (the default, and the paper's
    behaviour), packets between sites of the same node skip the wire
    encoding entirely -- "code movement or message sending can be
    implemented with a single shared-memory reference exchange".
    Disabling it is ablation A3: every interaction pays serialisation.
    """

    def __init__(self, node: "Node", local_fast_path: bool = True) -> None:
        self.node = node
        self.local_fast_path = local_fast_path
        self.stats = DaemonStats()

    def pump(self) -> int:
        """Move every packet currently waiting in site outgoing queues."""
        moved = 0
        for site in self.node.pool():
            while site.outgoing:
                packet = site.outgoing.popleft()
                self._route(packet)
                moved += 1
        return moved

    def _route(self, packet: Packet) -> None:
        if packet.dest_ip == self.node.ip:
            target = self.node.sites.get(packet.dest_site_id)
            if target is None:
                # Mid-migration mail: the site may be frozen here
                # (buffer as a residual) or tombstoned (forward to its
                # new home).  See repro.mobility.migrate.
                mobility = self.node.mobility
                if mobility is not None and mobility.intercept(packet):
                    return
                raise LookupError(
                    f"node {self.node.ip}: no site {packet.dest_site_id}")
            if self.local_fast_path:
                self.stats.local_deliveries += 1
                self.stats.encode_skipped += 1
                target.incoming.append(packet)
            else:
                # Ablation A3: round-trip through the wire format.
                data = encode(packet)
                self.stats.local_deliveries += 1
                self.stats.bytes_sent += len(data)
                target.incoming.append(decode(data))
            self.node.on_work_available()
            return
        data = encode(packet)
        self.stats.remote_sends += 1
        self.stats.bytes_sent += len(data)
        self.node.transport_send(packet.dest_ip, data)

    def load_digest(self) -> dict:
        """Per-site load snapshot (instructions done, run-queue depth,
        mail waiting) -- the quantities the load balancer samples,
        served over the cluster plane's ``load`` control command and
        rendered by ``repro obs top``."""
        return {site.site_name: {
                    "instructions": site.vm.stats.instructions,
                    "runqueue": len(site.vm.runqueue),
                    "mailbox": len(site.incoming) + len(site.outgoing),
                }
                for site in self.node.pool()}

    def receive(self, data: bytes) -> None:
        """A buffer arrived from a remote TyCOd."""
        packet = decode(data)
        self.stats.remote_receives += 1
        self.stats.bytes_received += len(data)
        if packet.dest_site_id == 0 and packet.kind.startswith("mig_"):
            # Node-level mobility control traffic (site ids start at
            # 1, so id 0 is free for the migration manager).
            self.node.ensure_mobility().enqueue_control(packet)
            return
        target = self.node.sites.get(packet.dest_site_id)
        if target is None:
            mobility = self.node.mobility
            if mobility is not None and mobility.intercept(packet):
                return
            raise LookupError(
                f"node {self.node.ip}: no site {packet.dest_site_id} "
                f"for incoming {packet.kind}")
        target.incoming.append(packet)
        self.node.on_work_available()


class TyCOi:
    """The node-manager daemon: handles program submissions.

    TyCOsh (:mod:`repro.runtime.shell`) forwards user requests here;
    each submission compiles (if needed) and creates a new site --
    "new sites are created when a new program is submitted for
    execution and destroyed when the program exits".
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.submissions = 0

    def submit(self, site_name: str, program) -> "object":
        """Create a site running ``program`` (a compiled Program or
        DiTyCO source text).

        When the node runs with ``typecheck`` enabled, source
        submissions pass the static check of section 7 first (lenient
        single-site inference) and the inferred export signatures are
        installed for the dynamic boundary checks.
        """
        from repro.compiler import Program, compile_term
        from repro.lang import parse_program

        signatures = None
        if isinstance(program, str):
            parsed = parse_program(program)
            if self.node.typecheck:
                from .typecheck import check_site_program

                signatures = check_site_program(site_name, parsed.program).names
            program = compile_term(parsed.program, source_name=site_name)
        elif not isinstance(program, Program):
            raise TypeError(f"expected source text or Program, got {program!r}")
        self.submissions += 1
        return self.node.create_site(site_name, program,
                                     name_signatures=signatures)

    def reap(self) -> int:
        """Destroy sites whose programs have exited (idle, no queues,
        nothing parked); returns how many were reaped.

        Afterwards the node holds no reference to a reaped site, so
        its VM, heap, program and compiled blocks are freed.  Its
        SiteTable row stays: names are never reused."""
        node = self.node
        dead = [site for site in node.pool()
                if site.is_idle() and not site.vm.has_stalled()
                and not site._pending_fetch and not site._pending_code
                and site.vm.heap.live_queues() == 0]
        for site in dead:
            # Retire the site's name-service registrations first so no
            # IdTable row dangles after the site object is gone.
            site.retire_exports()
            del node.sites[site.site_id]
            # The name entry goes only while it names this object,
            # never another incarnation bound to the same name.
            if node.sites_by_name.get(site.site_name) is site:
                del node.sites_by_name[site.site_name]
        return len(dead)
