"""In-memory span tracing around the public entry points of each layer.

The benchmark times the program from the outside: :func:`install`
replaces a layer's public function (or method) with a wrapper that
records one span per call -- layer name, start, end and the span that
was open on the same thread when it began (its parent) -- and returns
an undo list.  Nothing inside ``repro`` is edited.

Spans live in per-thread Python lists while the run goes on (the
socket world steps nodes on their own threads) and are written out
once, when the run ends, by :meth:`Tracer.write`.  A layer's *self
time* is the summed duration of its spans minus the part of each
covered by direct child spans, so the self times of one thread add up
to the time its root spans cover; what the root spans leave uncovered
on the main thread is reported as ``unattributed``.

Some functions are bound *by name* into the modules that call them
(``from .wire import encode``); a wrapper on the defining module alone
would never fire there.  :data:`BINDINGS` therefore lists each binding
a call goes through, and the benchmark's own test asserts that every
layer predicted to work records calls.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter

#: Layer name -> the (module, attribute) bindings the wrapper replaces.
#: A dotted attribute ``Class.method`` wraps a method on the class.
BINDINGS: dict[str, tuple[tuple[str, str], ...]] = {
    "lang.parse": (("repro.lang", "parse_program"),),
    "compiler.codegen": (("repro.compiler", "compile_term"),),
    "vm.compile_block": (("repro.vm.compile", "compile_block"),),
    "runtime.submit": (("repro.runtime.daemon", "TyCOi.submit"),),
    "runtime.node_step": (("repro.runtime.node", "Node.step"),),
    "runtime.site_step": (("repro.runtime.site", "Site.step"),),
    "nameservice.write": tuple(
        ("repro.runtime.nameservice", f"NameService.{m}")
        for m in ("register_site", "export_name", "export_class",
                  "rebind_site")),
    "nameservice.read": tuple(
        ("repro.runtime.nameservice", f"NameService.{m}")
        for m in ("lookup_site", "lookup_name", "lookup_class")),
    "codecache.link": (("repro.runtime.site", "link_bundle_cached"),
                       ("repro.runtime.codecache", "link_bundle_cached")),
    "wire.encode": (("repro.runtime.daemon", "encode"),
                    ("repro.runtime.node", "encode_frame"),
                    ("repro.runtime.wire", "encode")),
    "wire.decode": (("repro.runtime.daemon", "decode"),
                    ("repro.runtime.node", "decode_frame"),
                    ("repro.runtime.wire", "decode")),
    "transport.loop": (("repro.transport.sim", "SimWorld.run"),
                       ("repro.transport.socket", "SocketWorld.run")),
}

#: Calls that are counted, not timed: there are millions of them per
#: run (one per site per name-service write), and their cost already
#: lands in the self time of the name-service span that fires them.
COUNTED: dict[str, tuple[str, str]] = {
    "nameservice.wakeups": ("repro.runtime.site",
                            "Site.on_nameservice_update"),
}


class _ThreadState:
    __slots__ = ("name", "stack", "spans", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[int] = []
        #: (layer index, start ns, end ns, parent index or -1)
        self.spans: list = []
        self.counts: Counter = Counter()


class Tracer:
    """Span and counter recorder shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.layers: list[str] = list(BINDINGS)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._seen_blocks: set = set()
        self.main = self._state()
        self.window_ns = (0, 0)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # -- wrappers -------------------------------------------------------------

    def span(self, layer: str, fn, on_result=None):
        """``fn`` wrapped to record one ``layer`` span per call;
        ``on_result(state, result)`` runs after the span closes."""
        index = self.layers.index(layer)
        clock = time.perf_counter_ns
        local = self._local
        new_state = self._state

        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack, spans = state.stack, state.spans
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[me] = (index, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(state, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        local = self._local
        new_state = self._state

        def counted(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            state.counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def on_site_step(self, state: _ThreadState, executed: int) -> None:
        state.counts["vm.instructions"] += executed
        if executed == 0:
            state.counts["runtime.site_step.idle"] += 1

    def on_compile_block(self, state: _ThreadState, fn) -> None:
        # A call returning a function this run has already seen is a
        # hit (the content memo, or a block compiled twice identically).
        with self._lock:
            hit = fn in self._seen_blocks
            self._seen_blocks.add(fn)
        if hit:
            state.counts["vm.compile_block.hits"] += 1

    def on_encode(self, state: _ThreadState, data: bytes) -> None:
        state.counts["wire.encode.bytes"] += len(data)

    # -- window and results ---------------------------------------------------

    def start(self) -> None:
        self.window_ns = (time.perf_counter_ns(), 0)

    def stop(self) -> None:
        self.window_ns = (self.window_ns[0], time.perf_counter_ns())

    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in self._threads:
            total.update(state.counts)
        return total

    def summary(self) -> dict:
        """Per-layer calls and self seconds, plus the main thread's
        attribution: its layer self times and ``unattributed_s`` add up
        to the window.  Spans on other threads (socket world node and
        I/O threads) are summed into ``offthread_self_s``."""
        lo, hi = self.window_ns
        calls = [0] * len(self.layers)
        self_ns = [0] * len(self.layers)
        main_self_ns = 0
        offthread_ns = 0
        negative = 0
        for state in self._threads:
            spans = state.spans
            child_ns = [0] * len(spans)
            for span in spans:
                if span is None:        # still open: a thread cut short
                    continue
                _layer, start, end, parent = span
                if parent >= 0:
                    child_ns[parent] += end - start
            for i, span in enumerate(spans):
                if span is None:
                    continue
                layer, start, end, parent = span
                own = (end - start) - child_ns[i]
                if own < 0:
                    negative += 1
                calls[layer] += 1
                self_ns[layer] += own
                if state is self.main:
                    if parent < 0 and (start < lo or end > hi):
                        negative += 1   # a root span outside the window
                    main_self_ns += own
                else:
                    offthread_ns += own
        wall_ns = hi - lo
        return {
            "calls": dict(zip(self.layers, calls)),
            "self_s": {name: ns / 1e9
                       for name, ns in zip(self.layers, self_ns)},
            "wall_s": wall_ns / 1e9,
            "unattributed_s": (wall_ns - main_self_ns) / 1e9,
            "offthread_self_s": offthread_ns / 1e9,
            "spans": sum(calls),
            "bad_spans": negative,
        }

    def write(self, path) -> int:
        """Write every closed span as a ``thread index layer start_ns
        end_ns parent`` line (``parent`` is the index of the enclosing
        span on the same thread, -1 for a root); returns the number
        written."""
        written = 0
        with open(path, "w", encoding="ascii") as out:
            out.write("# thread index layer start_ns end_ns parent\n")
            for state in self._threads:
                lines = [f"{state.name} {i} {self.layers[span[0]]} "
                         f"{span[1]} {span[2]} {span[3]}\n"
                         for i, span in enumerate(state.spans)
                         if span is not None]
                out.writelines(lines)
                written += len(lines)
        return written


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".", 1)
        owner = getattr(owner, cls_name)
    return owner, attr


def install(tracer: Tracer, bindings=None) -> list:
    """Wrap every binding (default :data:`BINDINGS` and
    :data:`COUNTED`); returns the undo list for :func:`uninstall`."""
    bindings = BINDINGS if bindings is None else bindings
    hooks = {"runtime.site_step": tracer.on_site_step,
             "vm.compile_block": tracer.on_compile_block,
             "wire.encode": tracer.on_encode}
    undo = []
    for layer, targets in bindings.items():
        for module_name, attr in targets:
            owner, name = _resolve(module_name, attr)
            original = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            undo.append((owner, name, original))
            setattr(owner, name,
                    tracer.span(layer, original, hooks.get(layer)))
    for key, (module_name, attr) in COUNTED.items():
        owner, name = _resolve(module_name, attr)
        original = owner.__dict__[name]
        undo.append((owner, name, original))
        setattr(owner, name, tracer.counter(key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
